import json
import subprocess
import sys

import numpy as np
import pytest

from graphspring import dump_graph, parse_graph_dump
from graphspring.cli import _hide_listed, main
from graphspring.forces import SpringParams, init_params, params_to_json

from conftest import hidden_toy


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    """A rating_csv file big enough for stable multi-seed evaluation."""
    rand = np.random.default_rng(77)
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    lines = []
    seen = set()
    while len(lines) < 300:
        a, b = rand.integers(0, 40, 2)
        if a == b or (int(a), int(b)) in seen:
            continue
        seen.add((int(a), int(b)))
        rating = int(rand.choice([-8, -3, -1, 2, 4, 7, 9, 10]))
        lines.append(f"{a},{b},{rating},1407470{len(lines):03d}")
    path.write_text("\n".join(lines) + "\n")
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def run_cli_subprocess(*args):
    return subprocess.run([sys.executable, "-m", "graphspring.cli",
                           *[str(a) for a in args]],
                          capture_output=True, text=True)


def test_missing_required_argument_exits_2():
    result = run_cli_subprocess("ingest")
    assert result.returncode == 2


def test_unreadable_input_exits_1(tmp_path):
    result = run_cli_subprocess("ingest", "--input", tmp_path / "nope.csv",
                                "--out", tmp_path / "o")
    assert result.returncode == 1
    assert "error" in result.stderr


def test_ingest_id_beyond_int64_exits_1_naming_the_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("1,2,3,1407470400\n1180591620717411303424,2,4,1407470401\n")
    result = run_cli_subprocess("ingest", "--input", path, "--format", "rating_csv",
                                "--out", tmp_path / "o")
    assert result.returncode == 1
    assert "line 2" in result.stderr
    assert "Traceback" not in result.stderr


def test_unknown_command_exits_2():
    assert run_cli_subprocess("frobnicate").returncode == 2


def test_ingest_writes_dump_and_stats(toy_csv, tmp_path):
    out = tmp_path / "ing"
    assert run_cli("ingest", "--input", toy_csv, "--format", "rating_csv",
                   "--out", out) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["staged_edges"] == 300
    graph = parse_graph_dump((out / "graph.txt").read_text())
    assert graph.n_edges == stats["undirected_edges"]
    # negative-priority merging can only lower the positive share
    assert stats["positive_proportion"] <= stats["positive_proportion_staged"]
    assert (out / "manifest.json").exists()


def test_out_defaults_to_run_directory(toy_csv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("ingest", "--input", toy_csv, "--format", "rating_csv") == 0
    assert (tmp_path / "run" / "graph.txt").exists()


def test_split_hides_edges(toy_csv, tmp_path):
    out = tmp_path / "sp"
    assert run_cli("split", "--input", toy_csv, "--format", "rating_csv",
                   "--p-hidden", "0.25", "--split-seed", "5", "--out", out) == 0
    graph = parse_graph_dump((out / "graph_split.txt").read_text())
    hidden = graph.hidden_edges()
    assert 0 < hidden.size < graph.n_edges


def test_exact_split_flag(toy_csv, tmp_path):
    out = tmp_path / "spx"
    assert run_cli("split", "--input", toy_csv, "--format", "rating_csv",
                   "--p-hidden", "0.25", "--split-seed", "5", "--exact-split",
                   "--out", out) == 0
    graph = parse_graph_dump((out / "graph_split.txt").read_text())
    import math
    assert graph.hidden_edges().size == math.ceil(0.25 * graph.n_edges)


def test_train_writes_artifacts_and_defaults(toy_csv, tmp_path):
    out = tmp_path / "tr"
    assert run_cli("train", "--input", toy_csv, "--format", "rating_csv",
                   "--model", "spring", "--k", "4", "--epochs", "2",
                   "--n-steps", "6", "--seed", "1", "--out", out) == 0
    assert (out / "params.json").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,loss,auc_l,f1_macro,wall_ms"
    assert len(history) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    # built-in experiment defaults are materialized even when other flags differ
    assert manifest["config"]["dt"] == 0.005
    assert manifest["config"]["damping"] == 0.05
    assert manifest["config"]["mu"] == 2.5
    assert manifest["config"]["lr"] == 0.03
    assert manifest["config"]["p_hidden"] == 0.2
    assert manifest["config"]["k"] == 4  # explicit flag wins
    assert manifest["config"]["seed"] == 1


def test_embed_reports_solver_time(toy_csv, tmp_path):
    train_out = tmp_path / "tr"
    run_cli("train", "--input", toy_csv, "--format", "rating_csv",
            "--model", "spring", "--k", "4", "--epochs", "1",
            "--n-steps", "5", "--seed", "1", "--out", train_out)
    out = tmp_path / "em"
    assert run_cli("embed", "--params", train_out / "params.json",
                   "--input", toy_csv, "--format", "rating_csv",
                   "--k", "4", "--n-steps", "6", "--p-hidden", "0.2",
                   "--seed", "2", "--out", out,
                   "--trace", out / "trace.csv") == 0
    meta = json.loads((out / "embed_meta.json").read_text())
    assert meta["solver_ms"] > 0
    assert meta["n_steps"] == 6
    from graphspring import read_embeddings_text
    X = read_embeddings_text(out / "embeddings.txt")
    assert X.shape[1] == 4
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,mean_abs_velocity,loss"
    assert len(trace) == 7


def test_embed_zero_steps_returns_initialization(toy_csv, tmp_path):
    train_out = tmp_path / "tr0"
    run_cli("train", "--input", toy_csv, "--format", "rating_csv",
            "--model", "spring", "--k", "3", "--epochs", "1",
            "--n-steps", "4", "--seed", "1", "--out", train_out)
    out = tmp_path / "em0"
    run_cli("embed", "--params", train_out / "params.json", "--input", toy_csv,
            "--format", "rating_csv", "--k", "3", "--n-steps", "0",
            "--seed", "9", "--out", out)
    from graphspring import SimConfig, init_state, read_embeddings_text
    X = read_embeddings_text(out / "embeddings.txt")
    graph_nodes = X.shape[0]
    want = init_state(graph_nodes, SimConfig(k=3, seed=9)).X
    assert np.array_equal(X, want)


def test_embed_binary_output(toy_csv, tmp_path):
    train_out = tmp_path / "trb"
    run_cli("train", "--input", toy_csv, "--format", "rating_csv",
            "--model", "spring", "--k", "3", "--epochs", "1",
            "--n-steps", "4", "--seed", "1", "--out", train_out)
    out = tmp_path / "emb"
    run_cli("embed", "--params", train_out / "params.json", "--input", toy_csv,
            "--format", "rating_csv", "--k", "3", "--n-steps", "4",
            "--seed", "3", "--binary", "--out", out)
    from graphspring import read_embeddings_binary
    assert read_embeddings_binary(out / "embeddings.bin").shape[1] == 3


def test_eval_multi_seed_aggregate(toy_csv, tmp_path):
    train_out = tmp_path / "tr2"
    run_cli("train", "--input", toy_csv, "--format", "rating_csv",
            "--model", "spring", "--k", "4", "--epochs", "1",
            "--n-steps", "5", "--seed", "1", "--out", train_out)
    out = tmp_path / "ev"
    assert run_cli("eval", "--params", train_out / "params.json",
                   "--input", toy_csv, "--format", "rating_csv",
                   "--k", "4", "--n-steps", "5", "--p-hidden", "0.3",
                   "--seeds", "1,2,3,4,5", "--out", out) == 0
    for seed in (1, 2, 3, 4, 5):
        assert (out / f"report_{seed}.json").exists()
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["n_runs"] == 5
    assert 0.0 <= agg["f1_micro_mean"] <= 1.0
    assert agg["auc_l_std"] >= 0.0
    table = (out / "table.txt").read_text()
    assert "F1-MI" in table and "±" in table


def test_eval_calibrate_flag(toy_csv, tmp_path):
    train_out = tmp_path / "trc"
    run_cli("train", "--input", toy_csv, "--format", "rating_csv",
            "--model", "spring", "--k", "4", "--epochs", "1",
            "--n-steps", "5", "--seed", "1", "--out", train_out)
    out = tmp_path / "evc"
    assert run_cli("eval", "--params", train_out / "params.json",
                   "--input", toy_csv, "--format", "rating_csv",
                   "--k", "4", "--n-steps", "5", "--p-hidden", "0.3",
                   "--seeds", "1", "--calibrate", "--out", out) == 0
    report = json.loads((out / "report_1.json").read_text())
    assert 0.0 <= report["f1_macro"] <= 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["calibrate"] is True


def test_eval_embeddings_mode(toy_csv, tmp_path):
    split_out = tmp_path / "spl"
    run_cli("split", "--input", toy_csv, "--format", "rating_csv",
            "--p-hidden", "0.3", "--split-seed", "4", "--out", split_out)
    train_out = tmp_path / "tr3"
    run_cli("train", "--input", toy_csv, "--format", "rating_csv",
            "--model", "spring", "--k", "4", "--epochs", "1",
            "--n-steps", "5", "--seed", "1", "--out", train_out)
    embed_out = tmp_path / "em3"
    run_cli("embed", "--params", train_out / "params.json",
            "--graph", split_out / "graph_split.txt", "--k", "4",
            "--n-steps", "5", "--seed", "4", "--out", embed_out)
    out = tmp_path / "ev3"
    assert run_cli("eval", "--embeddings", embed_out / "embeddings.txt",
                   "--graph", split_out / "graph_split.txt", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_hidden"] > 0


def test_eval_single_class_hidden_fails_cleanly(tmp_path):
    result = run_cli_subprocess("eval", "--embeddings", tmp_path / "none.txt",
                                "--graph", tmp_path / "none.txt",
                                "--out", tmp_path / "o")
    assert result.returncode == 1


def test_seeded_commands_bitwise_identical(toy_csv, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"det_{tag}"
        run_cli("train", "--input", toy_csv, "--format", "rating_csv",
                "--model", "spring-nn", "--k", "3", "--epochs", "2",
                "--n-steps", "4", "--seed", "11", "--out", out)
        outs.append(out)
    assert (outs[0] / "params.json").read_bytes() == \
        (outs[1] / "params.json").read_bytes()
    # history matches except the timing column
    strip = [",".join(line.split(",")[:4]) for line in
             (outs[0] / "history.csv").read_text().splitlines()]
    strip_b = [",".join(line.split(",")[:4]) for line in
               (outs[1] / "history.csv").read_text().splitlines()]
    assert strip == strip_b


def test_manifest_round_trip(toy_csv, tmp_path):
    first = tmp_path / "m1"
    run_cli("train", "--input", toy_csv, "--format", "rating_csv",
            "--model", "spring", "--k", "3", "--epochs", "2", "--n-steps", "4",
            "--seed", "5", "--out", first)
    second = tmp_path / "m2"
    assert run_cli("train", "--from-manifest", first / "manifest.json",
                   "--out", second) == 0
    assert (first / "params.json").read_bytes() == \
        (second / "params.json").read_bytes()


def test_config_file_precedence(toy_csv, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"epochs": 2, "k": 3, "lr": 0.05}))
    out = tmp_path / "cf"
    run_cli("train", "--input", toy_csv, "--format", "rating_csv",
            "--model", "spring", "--n-steps", "4", "--seed", "2",
            "--config", config, "--epochs", "1", "--out", out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 1   # flag beats config file
    assert manifest["config"]["lr"] == 0.05    # config file beats default
    assert manifest["config"]["k"] == 3


def test_unknown_config_key_rejected(toy_csv, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"bogus_option": 1}))
    result = run_cli_subprocess("train", "--input", toy_csv, "--format",
                                "rating_csv", "--config", config,
                                "--out", tmp_path / "x")
    assert result.returncode == 1
    assert "bogus_option" in result.stderr


def test_manifest_replay_rejects_unknown_config_keys(toy_csv, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(params_to_json(SpringParams()))
    first = tmp_path / "e1"
    assert run_cli("embed", "--params", params, "--input", toy_csv,
                   "--format", "rating_csv", "--k", "3", "--n-steps", "2",
                   "--out", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert run_cli("embed", "--from-manifest", first / "manifest.json",
                   "--out", tmp_path / "e2") == 0
    manifest["config"]["float32"] = True    # an option that no longer exists
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("embed", "--from-manifest", stale, "--out", tmp_path / "e3") == 1
    assert "float32" in capsys.readouterr().err
    assert not (tmp_path / "e3").exists()


def test_train_divergence_keeps_the_last_good_checkpoint(toy_csv, tmp_path, capsys):
    # the first Adam step moves every spring parameter by about lr, which makes
    # the second epoch's springs too stiff for the explicit step
    out = tmp_path / "div"
    assert run_cli("train", "--input", toy_csv, "--format", "rating_csv",
                   "--model", "spring", "--k", "3", "--epochs", "3",
                   "--n-steps", "50", "--seed", "1", "--lr", "1e6",
                   "--out", out) == 1
    err = capsys.readouterr().err
    assert "of epoch 2" in err and "at step" in err and "at node" in err
    from graphspring.training import load_checkpoint
    assert load_checkpoint(out / "checkpoint.json").epoch == 1


@pytest.mark.parametrize("argv", [
    ["ingest", "--input", "e.txt", "--seed", "1"],
    ["ingest", "--input", "e.txt", "--config", "c.json"],
    ["ingest", "--input", "e.txt", "--from-manifest", "m.json"],
    ["ingest", "--input", "e.txt", "--threads", "2"],
    ["split", "--input", "e.txt", "--p-hidden", "0.2", "--from-manifest", "m.json"],
    ["split", "--input", "e.txt", "--p-hidden", "0.2", "--config", "c.json"],
    ["split", "--input", "e.txt", "--p-hidden", "0.2", "--threads", "4"],
    ["train", "--input", "e.txt", "--threads", "2"],
    ["train", "--input", "e.txt", "--raw-degree-features"],
    ["embed", "--params", "p.json", "--input", "e.txt", "--threads", "2"],
    ["bench", "--threads", "2"],
    ["eval", "--params", "p.json", "--input", "e.txt", "--seed", "5"],
    ["eval", "--params", "p.json", "--input", "e.txt", "--seed=5"],
    ["train", "--input", "e.txt", "--epoch", "3"],
], ids=lambda argv: f"{argv[0]}-{argv[-1] if argv[-1].startswith('--') else argv[-2]}")
def test_flags_a_command_does_not_read_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


def test_raw_degree_features_key_is_rejected(toy_csv, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"raw_degree_features": True}))
    assert run_cli("train", "--input", toy_csv, "--format", "rating_csv",
                   "--config", config, "--out", tmp_path / "c") == 1
    assert "raw_degree_features" in capsys.readouterr().err

    first = tmp_path / "m1"
    assert run_cli("train", "--input", toy_csv, "--format", "rating_csv",
                   "--model", "spring", "--k", "3", "--epochs", "1",
                   "--n-steps", "2", "--out", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["raw_degree_features"] = False
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(manifest))
    assert run_cli("train", "--from-manifest", stale, "--out", tmp_path / "m2") == 1
    assert "raw_degree_features" in capsys.readouterr().err
    assert not (tmp_path / "m2").exists()


def test_embed_trace_runs_one_simulation_and_keeps_the_embeddings(
        toy_csv, tmp_path, monkeypatch):
    import graphspring.cli as cli
    params = tmp_path / "params.json"
    params.write_text(params_to_json(init_params("spring-nn", seed=2)))
    calls = []
    real = cli.simulate

    def counted(*args, **kwargs):
        calls.append(kwargs.get("on_step"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate", counted)
    outs = {}
    for trace in (False, True):
        outs[trace] = out = tmp_path / f"em{int(trace)}"
        extra = ["--trace", out / "trace.csv"] if trace else []
        assert run_cli("embed", "--params", params, "--input", toy_csv,
                       "--format", "rating_csv", "--k", "4", "--n-steps", "6",
                       "--p-hidden", "0.2", "--seed", "2", "--out", out, *extra) == 0
    assert len(calls) == 2
    assert calls[0] is None and calls[1] is not None
    assert (outs[False] / "embeddings.txt").read_bytes() == \
        (outs[True] / "embeddings.txt").read_bytes()
    trace = (outs[True] / "trace.csv").read_text().splitlines()
    assert [int(row.split(",")[0]) for row in trace[1:]] == list(range(1, 7))


def test_hidden_edges_file(toy_csv, tmp_path):
    ing = tmp_path / "ing"
    run_cli("ingest", "--input", toy_csv, "--format", "rating_csv", "--out", ing)
    graph = parse_graph_dump((ing / "graph.txt").read_text())
    listed = tmp_path / "hide.txt"
    listed.write_text(f"{graph.u[0]} {graph.v[0]}\n{graph.u[3]} {graph.v[3]}\n")
    train_out = tmp_path / "trh"
    run_cli("train", "--input", toy_csv, "--format", "rating_csv",
            "--model", "spring", "--k", "3", "--epochs", "1", "--n-steps", "4",
            "--seed", "1", "--out", train_out)
    out = tmp_path / "emh"
    run_cli("embed", "--params", train_out / "params.json",
            "--graph", ing / "graph.txt", "--hidden-edges", listed,
            "--k", "3", "--n-steps", "3", "--seed", "2", "--out", out)
    meta = json.loads((out / "embed_meta.json").read_text())
    assert meta["n_nodes"] == graph.n_nodes


def test_hidden_edges_file_must_list_graph_edges(toy_csv, tmp_path, capsys):
    ing = tmp_path / "ing"
    run_cli("ingest", "--input", toy_csv, "--format", "rating_csv", "--out", ing)
    graph = parse_graph_dump((ing / "graph.txt").read_text())
    params = tmp_path / "params.json"
    params.write_text(params_to_json(SpringParams()))
    listed = tmp_path / "hide.txt"
    # listed pairs may come in either order; comments and blank lines are skipped
    listed.write_text(f"# hide two\n{graph.v[5]} {graph.u[5]}\n\n{graph.u[9]} {graph.v[9]}\n")
    hidden = _hide_listed(graph, str(listed))
    assert set(np.flatnonzero(hidden.observed_sign == 0)) == \
        set(np.flatnonzero(graph.observed_sign == 0)) | {5, 9}

    absent = next((a, b) for a in range(graph.n_nodes) for b in range(a + 1, graph.n_nodes)
                  if not ((graph.u == a) & (graph.v == b)).any())
    for text, line, what in [
            (f"{graph.u[0]} {graph.v[0]}\n{absent[0]} {absent[1]}\n", 2, f"pair {absent}"),
            (f"{graph.u[0]} {graph.n_nodes + 3}\n", 1, "not an edge"),
            (f"{graph.u[0]} {graph.v[0]}\n\n{graph.u[1]}\n", 3, "expected two node ids"),
            ("7 x\n", 1, "expected two node ids"),
            (f"{graph.u[0]} {2 ** 64}\n", 1, "expected two node ids")]:
        listed.write_text(text)
        code = run_cli("embed", "--params", params, "--graph", ing / "graph.txt",
                       "--hidden-edges", listed, "--k", "2", "--n-steps", "1",
                       "--out", tmp_path / "emb")
        err = capsys.readouterr().err
        assert code == 1
        assert f"{listed}:{line}:" in err and what in err, err


def test_eval_threads_write_identical_reports(toy_csv, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(params_to_json(init_params("spring-nn", seed=4)))
    outs = {}
    for threads in (1, 2):
        outs[threads] = tmp_path / f"ev{threads}"
        assert run_cli("eval", "--params", params, "--input", toy_csv,
                       "--format", "rating_csv", "--k", "4", "--n-steps", "5",
                       "--p-hidden", "0.3", "--seeds", "1,2,3,4",
                       "--threads", threads, "--out", outs[threads]) == 0
    for name in [f"report_{s}.json" for s in (1, 2, 3, 4)] + ["aggregate.json"]:
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


def test_bench_csv_schema(tmp_path):
    out = tmp_path / "bn"
    assert run_cli("bench", "--sizes", "60:200", "--ks", "3", "--reps", "3",
                   "--sim-steps", "2", "--out", out) == 0
    lines = (out / "timings.csv").read_text().splitlines()
    assert lines[0] == "n_nodes,n_edges,k,op,median_ms,iqr_ms"
    assert len(lines) >= 3
    assert (out / "summary.txt").exists()


def test_gzip_input(toy_csv, tmp_path):
    import gzip
    gz = tmp_path / "toy.csv.gz"
    gz.write_bytes(gzip.compress(toy_csv.read_bytes()))
    out = tmp_path / "gz"
    assert run_cli("ingest", "--input", gz, "--format", "rating_csv",
                   "--out", out) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["staged_edges"] == 300


def test_dump_golden_round_trip(tmp_path):
    graph, _ = hidden_toy(seed=12)
    text = dump_graph(graph)
    again = dump_graph(parse_graph_dump(text))
    assert text == again
    lines = text.splitlines()
    assert lines[0].startswith("# n_nodes")
    body = lines[1:]
    assert body == sorted(body, key=lambda s: tuple(map(int, s.split()[:2])))
