import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphspring import (SplitSpec, dump_graph, hide_signs, parse_graph_dump,
                         write_embeddings_text)
from graphspring.cli import (BENCH_DEFAULTS, EMBED_DEFAULTS, EVAL_DEFAULTS, TRAIN_DEFAULTS,
                             _hide_listed, _resolve, main)
from graphspring.forces import SpringParams, init_params, params_to_json
from graphspring.training import AdamState, Checkpoint, save_checkpoint

from conftest import hidden_toy, toy_graph


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


@pytest.mark.parametrize("default,value", [
    (0.1, 1), (0.1, 0.5), (1, 2), (False, True), ("a", "b"),
    (None, None), (None, 3), (None, 0.5),
])
def test_config_value_of_matching_type_is_accepted(default, value, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"x": value}))
    assert _resolve({"x": default}, argparse.Namespace(), config, None) == {"x": value}


def test_manifest_value_of_wrong_type_exits_1_before_writing(toy_csv, tmp_path, capsys):
    first = tmp_path / "m1"
    assert run_cli("train", "--input", toy_csv, "--format", "rating_csv",
                   "--model", "spring", "--k", "3", "--epochs", "1",
                   "--n-steps", "2", "--out", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["k"] = "3"
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("train", "--from-manifest", stale, "--out", tmp_path / "m2") == 1
    assert "config key 'k' in the manifest" in capsys.readouterr().err
    assert not (tmp_path / "m2").exists()


@pytest.mark.parametrize("line", ["1 2 x 1", "1 2 300 1", "1 2 1 -1", "2 1 1 1",
                                  "1 2 1", "# n_nodes -4", "# n_nodes 2", "# n_nodes 9"])
def test_bad_graph_dump_line_exits_1_naming_the_line(line, tmp_path):
    dump = tmp_path / "graph.txt"
    dump.write_text(f"# n_nodes 5\n0 1 1 1\n{line}\n3 4 -1 0\n")
    result = run_cli_subprocess("train", "--graph", dump, "--out", tmp_path / "o")
    assert result.returncode == 1
    assert "line 3" in result.stderr
    assert "Traceback" not in result.stderr


def test_eval_embeddings_with_too_few_rows_exits_1_naming_both_counts(tmp_path, capsys):
    from graphspring import write_embeddings_text
    graph, _ = hidden_toy()
    (tmp_path / "graph.txt").write_text(dump_graph(graph))
    write_embeddings_text(tmp_path / "emb.txt", np.zeros((graph.n_nodes - 1, 3)))
    assert run_cli("eval", "--embeddings", tmp_path / "emb.txt",
                   "--graph", tmp_path / "graph.txt", "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert f"{graph.n_nodes - 1} rows" in err and f"{graph.n_nodes} nodes" in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_eval_binary_embeddings_cut_in_header_exits_1(tmp_path):
    from graphspring import write_embeddings_binary
    graph, _ = hidden_toy()
    (tmp_path / "graph.txt").write_text(dump_graph(graph))
    path = tmp_path / "emb.bin"
    write_embeddings_binary(path, np.zeros((graph.n_nodes, 3)))
    path.write_bytes(path.read_bytes()[:15])
    result = run_cli_subprocess("eval", "--embeddings", path,
                                "--graph", tmp_path / "graph.txt", "--out", tmp_path / "o")
    assert result.returncode == 1
    assert "header" in result.stderr
    assert "Traceback" not in result.stderr


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


@pytest.mark.parametrize("flag,text", [
    ("--from-manifest", '{"tool": "graphspring"}'),
    ("--from-manifest", "[1, 2]"),
    ("--from-manifest", '{"config": [], "input_paths": {}}'),
    ("--from-manifest", '{"config": {}}'),
    ("--from-manifest", '{"config": {}, "input_paths": {"input": 3}}'),
    ("--from-manifest", '{"config": {}, "input_paths": {}}'),
    ("--from-manifest", '{"config": {}, "input_paths": {}, "inputs": {"a": 3}}'),
    ("--from-manifest", "{not json"),
    ("--config", "[1]"),
    ("--config", '"k"'),
    ("--config", ""),
])
def test_malformed_manifest_or_config_exits_1_naming_the_file(flag, text, tmp_path,
                                                              capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for command in ("train", "embed", "eval", "bench"):
        assert run_cli(command, flag, path, "--out", tmp_path / "o") == 1, command
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err, (command, err)
    assert not (tmp_path / "o").exists()


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_replay_reads_the_hidden_edges_file(toy_csv, tmp_path):
    ing = tmp_path / "ing"
    run_cli("ingest", "--input", toy_csv, "--format", "rating_csv", "--out", ing)
    graph = parse_graph_dump((ing / "graph.txt").read_text())
    listed = tmp_path / "hide.txt"
    listed.write_text(f"{graph.u[0]} {graph.v[0]}\n{graph.u[3]} {graph.v[3]}\n")
    params = tmp_path / "params.json"
    params.write_text(params_to_json(init_params("spring-nn", seed=2)))
    first, replay = tmp_path / "e1", tmp_path / "e2"
    assert run_cli("embed", "--params", params, "--graph", ing / "graph.txt",
                   "--hidden-edges", listed, "--k", "3", "--n-steps", "4",
                   "--seed", "2", "--out", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["inputs"][str(listed)] == sha256(listed)
    assert run_cli("embed", "--from-manifest", first / "manifest.json",
                   "--out", replay) == 0
    assert (first / "embeddings.txt").read_bytes() == \
        (replay / "embeddings.txt").read_bytes()


def test_replay_reads_the_resumed_checkpoint(toy_csv, tmp_path):
    common = ["--input", toy_csv, "--format", "rating_csv", "--model", "spring",
              "--k", "3", "--n-steps", "4", "--seed", "1"]
    first, resumed, replay = tmp_path / "t1", tmp_path / "t2", tmp_path / "t3"
    assert run_cli("train", *common, "--epochs", "2", "--lr", "0.2",
                   "--checkpoint-every", "1", "--out", first) == 0
    checkpoint = first / "checkpoint.json"
    # the first run trains with lr 0.2; the resumed run uses its own lr, the
    # default, and the replay takes it from the manifest
    assert run_cli("train", *common, "--epochs", "4", "--resume", checkpoint,
                   "--out", resumed) == 0
    manifest = json.loads((resumed / "manifest.json").read_text())
    assert manifest["inputs"][str(checkpoint)] == sha256(checkpoint)
    assert run_cli("train", "--from-manifest", resumed / "manifest.json",
                   "--out", replay) == 0
    assert (resumed / "params.json").read_bytes() == \
        (replay / "params.json").read_bytes()


def test_replay_refuses_an_input_whose_hash_changed(toy_csv, tmp_path, capsys):
    ing = tmp_path / "ing"
    run_cli("ingest", "--input", toy_csv, "--format", "rating_csv", "--out", ing)
    dump = ing / "graph.txt"
    first = tmp_path / "t1"
    assert run_cli("train", "--graph", dump, "--model", "spring", "--k", "3",
                   "--epochs", "1", "--n-steps", "2", "--out", first) == 0
    recorded = sha256(dump)
    with dump.open("a") as fh:
        fh.write("# changed\n")
    capsys.readouterr()
    assert run_cli("train", "--from-manifest", first / "manifest.json",
                   "--out", tmp_path / "t2") == 1
    err = capsys.readouterr().err
    assert str(dump) in err and recorded in err and sha256(dump) in err
    assert not (tmp_path / "t2").exists()
    # a file given by flag replaces the recorded one, so its hash is not checked
    assert run_cli("train", "--from-manifest", first / "manifest.json",
                   "--graph", dump, "--out", tmp_path / "t3") == 0


def test_replay_of_a_run_that_overwrote_its_resumed_checkpoint_exits_1(
        toy_csv, tmp_path, capsys):
    common = ["--input", toy_csv, "--format", "rating_csv", "--model", "spring",
              "--k", "3", "--n-steps", "4", "--seed", "1", "--checkpoint-every", "1"]
    run = tmp_path / "A"
    assert run_cli("train", *common, "--epochs", "2", "--out", run) == 0
    assert run_cli("train", *common, "--epochs", "4", "--resume",
                   run / "checkpoint.json", "--out", run) == 0
    capsys.readouterr()
    assert run_cli("train", "--from-manifest", run / "manifest.json",
                   "--out", tmp_path / "B") == 1
    assert str(run / "checkpoint.json") in capsys.readouterr().err
    assert not (tmp_path / "B").exists()


RESUME = ["--format", "rating_csv", "--k", "3", "--n-steps", "4", "--seed", "1"]


def checkpoint_of(toy_csv, out, model, epochs):
    """The checkpoint of a `model` run of `epochs` epochs."""
    assert run_cli("train", "--input", toy_csv, *RESUME, "--model", model,
                   "--epochs", epochs, "--checkpoint-every", epochs, "--out", out) == 0
    return out / "checkpoint.json"


def test_resumed_run_uses_its_own_learning_rate(toy_csv, tmp_path):
    checkpoint = checkpoint_of(toy_csv, tmp_path / "A", "spring", 1)
    written = []
    for lr in ("0.03", "0.5"):
        out = tmp_path / f"lr{lr}"
        assert run_cli("train", "--input", toy_csv, *RESUME, "--model", "spring",
                       "--epochs", "2", "--lr", lr, "--resume", checkpoint,
                       "--out", out) == 0
        written.append((out / "params.json").read_bytes())
    assert written[0] != written[1]


@pytest.mark.parametrize("model,epochs,want", [("spring", "3", ["'spring-nn'", "'spring'"]),
                                               ("spring-nn", "2", ["epoch 3", "2 epochs"])])
def test_resume_that_contradicts_the_checkpoint_exits_1(model, epochs, want, toy_csv,
                                                          tmp_path, capsys):
    """A checkpoint of another model kind, or of a later epoch than the run's
    last, fails before training and names both values."""
    checkpoint = checkpoint_of(toy_csv, tmp_path / "A", "spring-nn", 3)
    capsys.readouterr()
    assert run_cli("train", "--input", toy_csv, *RESUME, "--model", model,
                   "--epochs", epochs, "--resume", checkpoint,
                   "--out", tmp_path / "B") == 1
    err = capsys.readouterr().err
    assert all(text in err for text in want) and "Traceback" not in err, err
    assert not (tmp_path / "B").exists()


def test_version_1_checkpoint_resumes_like_version_2(toy_csv, tmp_path):
    """A version-1 file also stored Adam's settings; they are ignored."""
    checkpoint = checkpoint_of(toy_csv, tmp_path / "A", "spring", 1)
    doc = json.loads(checkpoint.read_text())
    adam = doc["adam"]
    doc.update(version=1, adam={"lr": 0.2, "beta1": 0.9, "beta2": 0.999, "eps_hat": 1e-8,
                                "t": adam["t"], "m_b64": adam["m_b64"],
                                "v_b64": adam["v_b64"]})
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(doc, indent=2) + "\n")
    written = []
    for path in (checkpoint, old):
        out = tmp_path / path.stem
        assert run_cli("train", "--input", toy_csv, *RESUME, "--model", "spring",
                       "--epochs", "2", "--resume", path, "--out", out) == 0
        written.append((out / "params.json").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("source", ["edge-list", "full-dump", "split-dump"])
@pytest.mark.parametrize("command", ["train", "embed", "eval"])
def test_train_embed_and_eval_hide_the_same_signs(command, source, toy_csv, tmp_path,
                                                  monkeypatch):
    """A dump that hides signs keeps its split; otherwise p_hidden is drawn with
    the split seed (train and embed) or the run's seed (eval)."""
    import graphspring.cli as cli
    ing, spl = tmp_path / "ing", tmp_path / "spl"
    run_cli("ingest", "--input", toy_csv, "--format", "rating_csv", "--out", ing)
    run_cli("split", "--graph", ing / "graph.txt", "--p-hidden", "0.4",
            "--split-seed", "9", "--out", spl)
    params = tmp_path / "params.json"
    params.write_text(params_to_json(SpringParams()))
    seen = []

    def recording(real, at):
        def wrapper(*args, **kwargs):
            seen.append(args[at].hidden_edges())
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "train", recording(cli.train, 0))
    monkeypatch.setattr(cli, "simulate", recording(cli.simulate, 1))
    argv, p_hidden = {
        "train": (["train", "--model", "spring", "--epochs", "1", "--seed", "3"], 0.2),
        "embed": (["embed", "--params", params, "--p-hidden", "0.3", "--seed", "3"], 0.3),
        "eval": (["eval", "--params", params, "--seeds", "3"], 0.2),
    }[command]
    graph = {"edge-list": ["--input", toy_csv, "--format", "rating_csv"],
             "full-dump": ["--graph", ing / "graph.txt"],
             "split-dump": ["--graph", spl / "graph_split.txt"]}[source]
    assert run_cli(*argv, *graph, "--k", "2", "--n-steps", "2",
                   "--out", tmp_path / "o") == 0
    if source == "split-dump":
        want = parse_graph_dump((spl / "graph_split.txt").read_text()).hidden_edges()
    else:
        full = parse_graph_dump((ing / "graph.txt").read_text())
        want = hide_signs(full, SplitSpec(p_hidden, 3))[1]
    assert len(seen) == 1 and np.array_equal(seen[0], want)


# edits that break a valid parameter file or checkpoint
JSON_EDITS = {"params-without-data": lambda doc: doc.pop("data_b64"),
              "params-data-not-text": lambda doc: doc.update(data_b64=3),
              "params-version-true": lambda doc: doc.update(version=True),
              "params-n-params-float": lambda doc: doc.update(n_params=7.0),
              "checkpoint-without-params": lambda doc: doc.pop("params"),
              "checkpoint-adam-not-object": lambda doc: doc.update(adam=[]),
              "checkpoint-epoch-text": lambda doc: doc.update(epoch="1"),
              "checkpoint-t-text": lambda doc: doc["adam"].update(t="1"),
              "checkpoint-version-true": lambda doc: doc.update(version=True)}
# line edits that break an embedding text file; the last edited line is the bad one
EMBEDDING_EDITS = {"embeddings-header": {1: "100"},
                   "embeddings-row": {3: "0 0 x"},
                   "embeddings-row-after-comment": {2: "# note", 3: "0 0 x"}}


@pytest.mark.parametrize("case", [*JSON_EDITS, *EMBEDDING_EDITS])
def test_malformed_input_file_exits_1_naming_the_file(case, tmp_path, capsys):
    graph, _ = hidden_toy()
    dump, path = tmp_path / "graph.txt", tmp_path / "bad"
    dump.write_text(dump_graph(graph))
    where = str(path)
    if case in JSON_EDITS:
        if case.startswith("params"):
            path.write_text(params_to_json(SpringParams()))
            argv = ["embed", "--params", path]
        else:
            save_checkpoint(path, Checkpoint(SpringParams(), AdamState.fresh(7), 1))
            argv = ["train", "--model", "spring", "--epochs", "2", "--resume", path]
        doc = json.loads(path.read_text())
        JSON_EDITS[case](doc)
        path.write_text(json.dumps(doc))
    else:
        write_embeddings_text(path, np.zeros((graph.n_nodes, 3)))
        lines = path.read_text().splitlines()
        for line, text in EMBEDDING_EDITS[case].items():
            lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        argv, where = ["eval", "--embeddings", path], f"{path}:{max(EMBEDDING_EDITS[case])}:"
    assert run_cli(*argv, "--graph", dump, "--k", "2", "--n-steps", "1",
                   "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


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
    ["bench", "--seed", "1"],
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


# settings train once had: a config file or manifest that names one is refused
@pytest.mark.parametrize("key, value", [
    ("raw_degree_features", True), ("loss_domain", "visible_only"),
    ("target_encoding", "signed"), ("init_policy", "resample_each_epoch"),
    ("clip_lo", -1.0), ("clip_hi", 1.0), ("exact_split", False)])
def test_raw_degree_features_key_is_rejected(key, value, toy_csv, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({key: value}))
    assert run_cli("train", "--input", toy_csv, "--format", "rating_csv",
                   "--config", config, "--out", tmp_path / "c") == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "c").exists()

    first = tmp_path / "m1"
    assert run_cli("train", "--input", toy_csv, "--format", "rating_csv",
                   "--model", "spring", "--k", "3", "--epochs", "1",
                   "--n-steps", "2", "--out", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"][key] = value
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("train", "--from-manifest", stale, "--out", tmp_path / "m2") == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "m2").exists()


# a setting eval once had: a config file or manifest that names it is refused
def test_calibrate_key_is_rejected(toy_csv, tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(params_to_json(init_params("spring", 0)))
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"calibrate": False}))
    assert run_cli("eval", "--params", params, "--input", toy_csv,
                   "--format", "rating_csv", "--config", config,
                   "--out", tmp_path / "c") == 1
    assert "calibrate" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()

    first = tmp_path / "m1"
    assert run_cli("eval", "--params", params, "--input", toy_csv,
                   "--format", "rating_csv", "--k", "3", "--n-steps", "2",
                   "--out", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["calibrate"] = False
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("eval", "--from-manifest", stale, "--out", tmp_path / "m2") == 1
    assert "calibrate" in capsys.readouterr().err
    assert not (tmp_path / "m2").exists()


# The settings step: each row is a run of a command with one setting at a bad
# value, (command, setting, bad, good, said).  bad and good are flags added to
# the command's quick run, or a dict for a --config file; the run with bad must
# exit 1, print said ("<setting> must" unless given) and write nothing, and the
# same run with good must exit 0.  Rows of a dict of the wrong JSON type are
# caught when the settings are resolved, the others once they are checked.
def _rows(command, setting, bads, good, said=None):
    """A row per bad value."""
    return [pytest.param(command, setting, bad, good, said or f"{setting} must",
                         id=f"{command} " + (" ".join(bad) if isinstance(bad, list)
                                             else json.dumps(bad)))
            for bad in bads]


def _flag_rows(command, setting, bads, good):
    """A row per bad value of the setting's flag."""
    flag = "--" + setting.replace("_", "-")
    return _rows(command, setting, [[flag, bad] for bad in bads], [flag, good])


def _sim_rows(command):
    return [
        *_flag_rows(command, "k", ["0", "-3"], "2"),
        *_flag_rows(command, "dt", ["-1", "0", "nan", "inf"], "0.01"),
        *_flag_rows(command, "damping", ["1.5", "1", "-0.1", "3"], "0.5"),
        *_flag_rows(command, "n_steps", ["-1"], "0"),
        *_flag_rows(command, "mu", ["0", "-1", "nan"], "2.5"),
        *_flag_rows(command, "p_hidden", ["2", "-0.5"], "1"),
        *_rows(command, "k", [{"k": "4"}], {"k": 2}, "config key 'k'"),
    ]


def _wrong_type(command, setting, bad, good):
    return _rows(command, setting, [{setting: bad}], {setting: good},
                 f"config key '{setting}'")


SETTING_ROWS = [
    *_sim_rows("train"),
    *_rows("train", "model", [{"model": "foo"}], {"model": "spring"}, "model_kind must"),
    *_wrong_type("train", "model", 3, "spring"),
    *_flag_rows("train", "lr", ["-5", "0", "inf"], "0.1"),
    *_wrong_type("train", "lr", "0.1", 0.1),
    *_flag_rows("train", "epochs", ["0"], "2"),
    *_wrong_type("train", "epochs", 1.5, 2),
    *_flag_rows("train", "val_fraction", ["1", "-0.1"], "0.2"),
    *_flag_rows("train", "checkpoint_every", ["-2"], "1"),
    *_wrong_type("train", "checkpoint_every", "2", 2),
    *_rows("train", "split_seed", [{"split_seed": 1.5}], {"split_seed": 4}),
    *_wrong_type("train", "split_seed", "1", 1),
    *_wrong_type("train", "semi_implicit", 1, True),
    *_sim_rows("embed"),
    *_rows("embed", "mu", [["--mu", "0", "--trace", "trace.csv"]], ["--mu", "2.5"]),
    *_rows("embed", "split_seed", [{"split_seed": 0.5}], {"split_seed": 0}),
    *_wrong_type("embed", "p_hidden", True, None),
    *[row for source in ("eval --params", "eval --embeddings") for row in [
        *_sim_rows(source),
        *_flag_rows(source, "seeds", [",", "", "1,x", "1 2", "1,1"], "1,,2"),
        *_wrong_type(source, "seeds", 3, "3"),
        *_flag_rows(source, "threads", ["0", "-1"], "2"),
        *_wrong_type(source, "threads", "2", 2)]],
    # the hidden edges eval scores hold both signs, on both of its paths
    *_rows("eval --params", "p_hidden", [["--graph", "shown.txt", "--p-hidden", "0"]],
           ["--graph", "shown.txt"], "seed 0 (p_hidden 0.0) hides 0 positive and 0"),
    *[row for seeds in ("2", "3", "4", "10", "1,5,3") for row in _rows(
        "eval --params", "p_hidden",
        [["--graph", "ten.txt", "--p-hidden", "0.15", "--seeds", seeds]],
        ["--graph", "ten.txt", "--p-hidden", "0.15", "--seeds", "1,5"],
        f"seed {seeds.split(',')[-1]} (p_hidden 0.15) hides")],
    *_rows("eval --embeddings", "graph", [["--graph", "shown.txt"]],
           ["--graph", "graph.txt"], "the graph's split hides 0 positive and 0"),
    *_flag_rows("bench", "reps", ["0", "-3"], "1"),
    *_wrong_type("bench", "reps", "7", 1),
]

QUICK_RUNS = {
    "train": ["train", "--graph", "graph.txt", "--k", "3", "--n-steps", "2",
              "--epochs", "1"],
    "embed": ["embed", "--params", "p.json", "--graph", "graph.txt", "--k", "3",
              "--n-steps", "2"],
    "eval --params": ["eval", "--params", "p.json", "--graph", "graph.txt", "--k", "3",
                      "--n-steps", "2"],
    "eval --embeddings": ["eval", "--embeddings", "emb.txt", "--graph", "graph.txt"],
    "bench": ["bench"],
}


@pytest.mark.parametrize("command, setting, bad, good, said", SETTING_ROWS)
def test_bad_setting_exits_1_naming_it_before_writing(command, setting, bad, good, said,
                                                      tmp_path, monkeypatch, capsys):
    from graphspring import bench
    for name, value in [("N_NODES", 60), ("N_EDGES", 200), ("K", 3), ("N_STEPS", 4)]:
        monkeypatch.setattr(bench, name, value)
    monkeypatch.chdir(tmp_path)
    # a dump whose hidden edges hold both signs, that dump with every sign
    # shown, and ten edges of which p_hidden 0.15 hides one sign at seeds 2,
    # 3, 4 and 10
    graph, _ = hidden_toy()
    Path("graph.txt").write_text(dump_graph(graph))
    Path("shown.txt").write_text(dump_graph(graph.with_observed(graph.true_sign)))
    Path("ten.txt").write_text(dump_graph(toy_graph(n_nodes=6, n_edges=10)))
    Path("p.json").write_text(params_to_json(init_params("spring", 0)))
    write_embeddings_text("emb.txt",
                          np.random.default_rng(1).normal(0, 1, (graph.n_nodes, 3)))
    before = sorted(p.name for p in tmp_path.iterdir())

    def argv(value, out):
        if isinstance(value, dict):
            Path(f"{out}.json").write_text(json.dumps(value))
            value = ["--config", f"{out}.json"]
        return [*QUICK_RUNS[command], *value, "--out", out]

    assert run_cli(*argv(bad, "bad")) == 1
    assert said in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        before + (["bad.json"] if isinstance(bad, dict) else []))
    assert run_cli(*argv(good, "good")) == 0


def test_every_setting_with_a_range_has_a_row():
    # the settings that take every value of their JSON type; any other setting
    # of train, embed, eval or bench needs a row of a value out of its range
    unranged = {"seed", "semi_implicit", "binary"}
    defaults = {"train": TRAIN_DEFAULTS, "embed": EMBED_DEFAULTS,
                "eval --params": EVAL_DEFAULTS, "eval --embeddings": EVAL_DEFAULTS,
                "bench": BENCH_DEFAULTS}
    for command, settings in defaults.items():
        checked = {setting for row_command, setting, _, _, said in
                   (row.values for row in SETTING_ROWS)
                   if row_command == command and not said.startswith("config key")}
        assert set(settings) - unranged <= checked, command


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
            (f"{graph.u[0]} {2 ** 64}\n", 1, "expected two node ids"),
            (f"{graph.u[0]} {graph.v[0]} -1\n", 1, "expected two node ids"),
            (f"{graph.u[0]} {graph.v[0]}\n{graph.u[1]} {graph.v[1]} garbage 7\n", 2,
             "expected two node ids")]:
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


def test_bench_writes_the_record_beside_its_manifest(tmp_path, monkeypatch, capsys):
    from graphspring import bench
    for name, value in [("N_NODES", 60), ("N_EDGES", 200), ("K", 3), ("N_STEPS", 4)]:
        monkeypatch.setattr(bench, name, value)
    out = tmp_path / "bn"
    assert run_cli("bench", "--reps", "2", "--out", out) == 0
    record = json.loads((out / "bench.json").read_text())
    timed = ["force_field", "force_field_vjp", "loss_with_grad", "epoch", "embed"]
    assert sorted(record) == sorted([
        "graph", "reps", *[f"{name}_ms" for name in timed], "tape_bytes",
        "peak_traced_mb", "minor_faults_per_epoch", "env"])
    # 200 edge lengths outweigh 60 x 3 positions, so the plain tape of 4 + 1
    assert record["graph"] == {"n_nodes": 60, "n_edges": 200, "seed": 1,
                               "model": "spring-nn", "k": 3, "n_steps": 4,
                               "segments": [1, 1, 1, 1]}
    assert record["reps"] == 2 and record["tape_bytes"] == 5 * 60 * 3 * 8
    for name in timed:
        assert sorted(record[f"{name}_ms"]) == ["iqr", "median"]
        assert record[f"{name}_ms"]["iqr"] >= 0
        assert record[f"{name}_ms"]["median"] > 0
    assert record["peak_traced_mb"] > 0 and record["minor_faults_per_epoch"] >= 0
    assert sorted(record["env"]) == ["nproc", "numpy", "platform", "python", "scipy",
                                     "threads"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"reps": 2}
    assert manifest["artifacts"] == {"bench": str(out / "bench.json")}
    assert "epoch_ms" in capsys.readouterr().out


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
