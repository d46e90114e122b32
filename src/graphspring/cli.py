"""Command-line front end: ingest, split, train, embed, eval, bench.

Every command writes a manifest of the resolved run before doing any long
work, and exits 0 on success, 1 on runtime failure, 2 on usage errors.  train,
embed, eval and bench resolve their configuration as CLI flags > --config JSON
file > built-in defaults, and re-running one of them with --from-manifest
reproduces the original outputs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import gzip
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bench
from .artifacts import atomic_write
from .forces import init_params, params_from_json, params_to_json
from .forcefield import prepare
from .graphs import (SignedGraph, SplitSpec, compute_node_statics, dump_graph,
                     hide_signs, load_edge_list, parse_graph_dump, to_undirected)
from .metrics import aggregate_reports, calibrate_on_visible, evaluate
from .simulate import (SimConfig, SimulationDivergedError, init_state,
                       mean_abs_velocity, simulate, write_embeddings_binary,
                       write_embeddings_text)
from .training import (LossConfig, TrainConfig, load_checkpoint, loss,
                       save_checkpoint, train, write_history_csv)

TRAIN_DEFAULTS = {
    "model": "spring-nn", "k": 64, "dt": 0.005, "damping": 0.05, "mu": 2.5,
    "lr": 0.03, "epochs": 200, "n_steps": 120, "p_hidden": 0.2, "seed": 0,
    "split_seed": None, "exact_split": False, "val_fraction": 0.1,
    "init_policy": "resample_each_epoch", "loss_domain": "visible_only",
    "target_encoding": "signed", "clip_lo": -1.0, "clip_hi": 1.0,
    "semi_implicit": False, "checkpoint_every": 0,
}

EMBED_DEFAULTS = {
    "k": 64, "dt": 0.005, "damping": 0.05, "n_steps": 120, "seed": 0,
    "p_hidden": None, "split_seed": None, "exact_split": False,
    "semi_implicit": False, "binary": False, "mu": 2.5,
}

EVAL_DEFAULTS = {
    "k": 64, "dt": 0.005, "damping": 0.05, "n_steps": 120, "mu": 2.5,
    "p_hidden": 0.2, "seeds": "0", "exact_split": False, "semi_implicit": False,
    "threads": 1, "calibrate": False,
}

BENCH_DEFAULTS = {
    "sizes": "1000:8000,1000:16000,2000:16000", "ks": "16,32", "reps": 7,
    "seed": 0, "model": "spring", "sim_steps": 10,
}


def _open_text(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(config: dict) -> str:
    """Hash of the settings that determine a run's results; the worker count only
    schedules independent runs, so reports do not depend on it."""
    kept = {key: value for key, value in config.items() if key != "threads"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


def _resolve(defaults: dict, args: argparse.Namespace, config_file: str | None,
             manifest: dict | None) -> dict:
    config = dict(defaults)
    loaded, source = {}, ""
    if manifest is not None:
        # the commands record the input format beside their own settings
        loaded = {key: value for key, value in manifest["config"].items()
                  if key != "format"}
        source = " in the manifest"
    elif config_file:
        with open(config_file, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    unknown = set(loaded) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys{source}: {sorted(unknown)}")
    config.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict,
                    artifacts: dict) -> None:
    manifest = {
        "tool": "graphspring",
        "version": __version__,
        "command": command,
        "config": config,
        "config_hash": _config_hash(config),
        "inputs": {str(p): _sha256(str(p)) for p in inputs.values() if p},
        "input_paths": {k: str(p) for k, p in inputs.items() if p},
        "artifacts": {k: str(v) for k, v in artifacts.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_dir / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _load_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_graph(args_or_cfg: dict) -> SignedGraph:
    """Graph from either a canonical dump or a raw edge list."""
    if args_or_cfg.get("graph"):
        with _open_text(args_or_cfg["graph"]) as fh:
            return parse_graph_dump(fh.read())
    if not args_or_cfg.get("input"):
        raise ValueError("either --graph or --input is required")
    with _open_text(args_or_cfg["input"]) as fh:
        stage = load_edge_list(fh, args_or_cfg.get("format", "plain"))
    return to_undirected(stage)


def _maybe_hide(graph: SignedGraph, p_hidden, split_seed, exact: bool):
    if p_hidden is None:
        return graph, graph.hidden_edges()
    return hide_signs(graph, SplitSpec(float(p_hidden), int(split_seed), exact))


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def cmd_ingest(args) -> int:
    out = Path(args.out or "run")
    with _open_text(args.input) as fh:
        stage = load_edge_list(fh, args.format)
    graph = to_undirected(stage)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "graph.txt", dump_graph(graph))
    stats = {
        "staged_edges": stage.n_edges,
        "n_nodes": graph.n_nodes,
        "undirected_edges": graph.n_edges,
        "positive_proportion_staged": float((stage.sign == 1).mean()),
        "positive_proportion": float((graph.true_sign == 1).mean()),
    }
    _write_text(out / "stats.json", json.dumps(stats, indent=2) + "\n")
    _write_manifest(out, "ingest", {"format": args.format}, {"input": args.input},
                    {"graph": out / "graph.txt", "stats": out / "stats.json"})
    print(json.dumps(stats))
    return 0


def cmd_split(args) -> int:
    out = Path(args.out or "run")
    graph = _load_graph(vars(args))
    seed = args.seed if args.seed is not None else 0
    split_seed = args.split_seed if args.split_seed is not None else seed
    hidden_graph, hidden = hide_signs(
        graph, SplitSpec(args.p_hidden, split_seed, args.exact_split))
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "graph_split.txt", dump_graph(hidden_graph))
    config = {"p_hidden": args.p_hidden, "split_seed": split_seed,
              "exact_split": args.exact_split}
    _write_manifest(out, "split", config,
                    {"input": args.input, "graph": args.graph},
                    {"graph_split": out / "graph_split.txt"})
    print(f"hidden {hidden.size} of {graph.n_edges} edges")
    return 0


def cmd_train(args) -> int:
    manifest = _load_manifest(args.from_manifest) if args.from_manifest else None
    config = _resolve(TRAIN_DEFAULTS, args, args.config, manifest)
    out = Path(args.out or "run")
    input_path = args.input or (manifest or {}).get("input_paths", {}).get("input")
    graph_path = args.graph or (manifest or {}).get("input_paths", {}).get("graph")
    fmt = args.format or (manifest or {}).get("config", {}).get("format", "plain")
    config["format"] = fmt

    graph = _load_graph({"input": input_path, "graph": graph_path, "format": fmt})
    split_seed = config["split_seed"] if config["split_seed"] is not None else config["seed"]
    config["split_seed"] = split_seed
    if graph_path is None:
        graph, _ = _maybe_hide(graph, config["p_hidden"], split_seed,
                               config["exact_split"])

    artifacts = {"params": out / "params.json", "history": out / "history.csv"}
    _write_manifest(out, "train", config,
                    {"input": input_path, "graph": graph_path}, artifacts)

    sim = SimConfig(k=config["k"], dt=config["dt"], damping=config["damping"],
                    n_steps=config["n_steps"], semi_implicit=config["semi_implicit"])
    loss_cfg = LossConfig(mu=config["mu"], domain=config["loss_domain"],
                          target_encoding=config["target_encoding"])
    train_cfg = TrainConfig(
        epochs=config["epochs"], sim=sim, loss=loss_cfg, model_kind=config["model"],
        lr=config["lr"], clip_lo=config["clip_lo"], clip_hi=config["clip_hi"],
        seed=config["seed"], init_policy=config["init_policy"],
        val_fraction=config["val_fraction"])

    resume = load_checkpoint(args.resume) if args.resume else None
    every = int(config["checkpoint_every"])
    last_good = resume

    def on_epoch(ckpt, stats):
        nonlocal last_good
        last_good = ckpt
        if every > 0 and (ckpt.epoch % every == 0 or ckpt.epoch == train_cfg.epochs):
            save_checkpoint(out / "checkpoint.json", ckpt)

    try:
        params, history = train(graph, None, train_cfg, resume=resume,
                                on_epoch=on_epoch)
    except SimulationDivergedError as err:
        if last_good is None:
            raise
        save_checkpoint(out / "checkpoint.json", last_good)
        raise RuntimeError(f"{err}; saved the checkpoint of epoch {last_good.epoch} "
                           f"to {out / 'checkpoint.json'}") from err

    with atomic_write(out / "params.json") as fh:
        fh.write(params_to_json(params))
    write_history_csv(out / "history.csv", history)
    if history:
        print(f"trained {config['model']} for {len(history)} epochs; "
              f"final loss {history[-1].loss:.6f}")
    return 0


def cmd_embed(args) -> int:
    manifest = _load_manifest(args.from_manifest) if args.from_manifest else None
    config = _resolve(EMBED_DEFAULTS, args, args.config, manifest)
    out = Path(args.out or "run")
    params_path = args.params or (manifest or {}).get("input_paths", {}).get("params")
    input_path = args.input or (manifest or {}).get("input_paths", {}).get("input")
    graph_path = args.graph or (manifest or {}).get("input_paths", {}).get("graph")
    fmt = args.format or (manifest or {}).get("config", {}).get("format", "plain")
    config["format"] = fmt
    if not params_path:
        raise ValueError("--params is required")

    params = params_from_json(Path(params_path).read_text(encoding="utf-8"))
    graph = _load_graph({"input": input_path, "graph": graph_path, "format": fmt})
    split_seed = config["split_seed"] if config["split_seed"] is not None else config["seed"]
    if graph_path is None and config["p_hidden"] is not None:
        graph, _ = _maybe_hide(graph, config["p_hidden"], split_seed,
                               config["exact_split"])
    if args.hidden_edges:
        graph = _hide_listed(graph, args.hidden_edges)

    emb_name = "embeddings.bin" if config["binary"] else "embeddings.txt"
    artifacts = {"embeddings": out / emb_name, "meta": out / "embed_meta.json"}
    _write_manifest(out, "embed", config,
                    {"params": params_path, "input": input_path,
                     "graph": graph_path}, artifacts)

    statics = compute_node_statics(graph)
    ctx = prepare(graph, statics)
    sim = SimConfig(k=config["k"], dt=config["dt"], damping=config["damping"],
                    n_steps=config["n_steps"], seed=config["seed"],
                    semi_implicit=config["semi_implicit"])
    state = init_state(graph.n_nodes, sim)

    on_step = None
    if args.trace:
        # the trace is recorded during the one simulation, so solver_ms
        # includes its cost
        loss_cfg = LossConfig(mu=config["mu"])
        trace_rows = []

        def on_step(s):
            try:
                step_loss = loss(graph, s.X, loss_cfg)
            except ValueError:
                step_loss = float("nan")
            trace_rows.append((s.t_step, mean_abs_velocity(s), step_loss))

    started = time.perf_counter()
    final = simulate(state, graph, statics, params, sim, ctx=ctx, on_step=on_step)
    solver_ms = (time.perf_counter() - started) * 1000.0

    if config["binary"]:
        write_embeddings_binary(out / emb_name, final.X)
    else:
        write_embeddings_text(out / emb_name, final.X)
    meta = {"solver_ms": solver_ms, "n_steps": sim.n_steps, "k": sim.k,
            "n_nodes": graph.n_nodes, "n_edges": graph.n_edges}
    _write_text(out / "embed_meta.json", json.dumps(meta, indent=2) + "\n")
    if args.trace:
        with atomic_write(args.trace) as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "mean_abs_velocity", "loss"])
            writer.writerows(trace_rows)
    timed = "solver and trace" if args.trace else "solver only"
    print(f"embedded {graph.n_nodes} nodes in {solver_ms:.1f} ms ({timed})")
    return 0


def _hide_listed(graph: SignedGraph, path: str) -> SignedGraph:
    """Additionally hide the exact 'u v' pairs listed in a file.

    Every listed pair must be an edge of the graph: a line that is not two node
    ids, or a pair the graph lacks, fails with the file, the line and the pair.
    """
    lines, pairs = [], []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            try:
                a, b = (np.int64(tok) for tok in tokens[:2])
            except (ValueError, OverflowError):
                raise ValueError(f"{path}:{lineno}: expected two node ids 'u v', "
                                 f"got {line.strip()!r}") from None
            lines.append(lineno)
            pairs.append((min(a, b), max(a, b)))
    lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    n = graph.n_nodes
    # graph edges are sorted by (u, v), so their codes u * n + v are sorted
    codes = graph.u.astype(np.int64) * n + graph.v
    wanted = lo * n + hi
    at = np.searchsorted(codes, wanted)
    found = (lo >= 0) & (hi < n) & (lo < hi) & (at < codes.size)
    found[found] = codes[at[found]] == wanted[found]
    if not found.all():
        first = int(np.flatnonzero(~found)[0])
        raise ValueError(
            f"{path}:{lines[first]}: pair ({lo[first]}, {hi[first]}) is not an edge "
            f"of the graph ({int((~found).sum())} of {len(pairs)} listed pairs are not)")
    observed = graph.observed_sign.copy()
    observed[at] = 0
    return graph.with_observed(observed)


def _eval_one(graph: SignedGraph, params, config: dict, seed: int,
              config_hash: str):
    sim_seed = int(seed)
    hidden_graph, hidden = _maybe_hide(graph, config["p_hidden"], sim_seed,
                                       config["exact_split"])
    if hidden.size == 0:
        raise ValueError("no hidden edges to evaluate")
    statics = compute_node_statics(hidden_graph)
    sim = SimConfig(k=config["k"], dt=config["dt"], damping=config["damping"],
                    n_steps=config["n_steps"], seed=sim_seed,
                    semi_implicit=config["semi_implicit"])
    state = init_state(hidden_graph.n_nodes, sim)
    final = simulate(state, hidden_graph, statics, params, sim)
    calibration = calibrate_on_visible(hidden_graph, final.X) \
        if config["calibrate"] else None
    return evaluate(hidden_graph, hidden, final.X, config["mu"], seed=sim_seed,
                    config_hash=config_hash, calibration=calibration)


def cmd_eval(args) -> int:
    manifest = _load_manifest(args.from_manifest) if args.from_manifest else None
    config = _resolve(EVAL_DEFAULTS, args, args.config, manifest)
    out = Path(args.out or "run")
    graph_path = args.graph or (manifest or {}).get("input_paths", {}).get("graph")
    input_path = args.input or (manifest or {}).get("input_paths", {}).get("input")
    emb_path = args.embeddings or (manifest or {}).get("input_paths", {}).get("embeddings")
    params_path = args.params or (manifest or {}).get("input_paths", {}).get("params")
    fmt = args.format or (manifest or {}).get("config", {}).get("format", "plain")
    config["format"] = fmt
    chash = _config_hash(config)

    out.mkdir(parents=True, exist_ok=True)
    reports = []
    if emb_path:
        from .simulate import read_embeddings_binary, read_embeddings_text
        graph = _load_graph({"graph": graph_path, "input": input_path, "format": fmt})
        hidden = graph.hidden_edges()
        X = (read_embeddings_binary(emb_path) if str(emb_path).endswith(".bin")
             else read_embeddings_text(emb_path))
        _write_manifest(out, "eval", config,
                        {"graph": graph_path, "input": input_path,
                         "embeddings": emb_path}, {"report": out / "report.json"})
        calibration = calibrate_on_visible(graph, X) if config["calibrate"] else None
        report = evaluate(graph, hidden, X, config["mu"], seed=None,
                          config_hash=chash, calibration=calibration)
        reports.append(report)
        _write_text(out / "report.json", report.to_json())
    else:
        if not params_path:
            raise ValueError("eval needs either --embeddings or --params")
        params = params_from_json(Path(params_path).read_text(encoding="utf-8"))
        graph = _load_graph({"graph": graph_path, "input": input_path, "format": fmt})
        seeds = [int(tok) for tok in str(config["seeds"]).split(",") if tok != ""]
        _write_manifest(out, "eval", config,
                        {"graph": graph_path, "input": input_path,
                         "params": params_path},
                        {"reports": out / "report_<seed>.json",
                         "aggregate": out / "aggregate.json"})
        workers = max(1, int(config["threads"]))
        if workers == 1:
            reports = [_eval_one(graph, params, config, s, chash) for s in seeds]
        else:
            with concurrent.futures.ThreadPoolExecutor(workers) as pool:
                reports = list(pool.map(
                    lambda s: _eval_one(graph, params, config, s, chash), seeds))
        for s, report in zip(seeds, reports):
            _write_text(out / f"report_{s}.json", report.to_json())
        agg = aggregate_reports(reports)
        _write_text(out / "aggregate.json", json.dumps(agg, indent=2) + "\n")
    table = reports[0].to_table() if len(reports) == 1 else _aggregate_table(reports)
    _write_text(out / "table.txt", table)
    print(table, end="")
    return 0


def _aggregate_table(reports) -> str:
    agg = aggregate_reports(reports)
    names = [("F1-MI", "f1_micro"), ("F1-MA", "f1_macro"), ("F1-WT", "f1_weighted"),
             ("F1-BI", "f1_binary"), ("AUC-P", "auc_p"), ("AUC-L", "auc_l")]
    head = "  ".join(f"{n:>14}" for n, _ in names)
    body = "  ".join(
        f"{100 * agg[k + '_mean']:8.2f}±{100 * agg[k + '_std']:.2f}".rjust(14)
        for _, k in names)
    return head + "\n" + body + "\n"


def cmd_bench(args) -> int:
    manifest = _load_manifest(args.from_manifest) if args.from_manifest else None
    config = _resolve(BENCH_DEFAULTS, args, args.config, manifest)
    out = Path(args.out if args.out else "bench")
    sizes = [tuple(int(x) for x in part.split(":"))
             for part in str(config["sizes"]).split(",")]
    ks = [int(x) for x in str(config["ks"]).split(",")]
    _write_manifest(out, "bench", config, {}, {"timings": out / "timings.csv"})

    model = init_params(config["model"], seed=config["seed"])
    rows = bench.run_grid(model, sizes, ks, seed=config["seed"],
                          repeats=int(config["reps"]),
                          sim_steps=int(config["sim_steps"]))
    with atomic_write(out / "timings.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_nodes", "n_edges", "k", "op", "median_ms", "iqr_ms"])
        for r in rows:
            writer.writerow([r.n_nodes, r.n_edges, r.k, r.op,
                             f"{r.median_ms:.3f}", f"{r.iqr_ms:.3f}"])
    summary = bench.linearity_summary(rows)
    _write_text(out / "summary.txt", summary)
    print(summary, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphspring",
        description="Spring-force embeddings and link-sign prediction for signed graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the shared flags it reads, spelled out in full
    # (with prefixes allowed, eval would read --seed as --seeds)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=str, default=None, help="output directory")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="master seed")
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", type=str, default=None, help="JSON config file")
    configured.add_argument("--from-manifest", type=str, default=None,
                            help="re-run the configuration recorded in a manifest")
    common = [seeded, output, configured]

    ingest = sub.add_parser("ingest", allow_abbrev=False, parents=[output],
                            help="parse an edge list into the canonical graph dump")
    ingest.add_argument("--input", required=True)
    ingest.add_argument("--format", choices=["plain", "rating_csv"], default="plain")
    ingest.set_defaults(fn=cmd_ingest)

    split = sub.add_parser("split", allow_abbrev=False, parents=[seeded, output],
                           help="hide a share of edge signs")
    split.add_argument("--input")
    split.add_argument("--graph")
    split.add_argument("--format", choices=["plain", "rating_csv"], default="plain")
    split.add_argument("--p-hidden", type=float, required=True, dest="p_hidden")
    split.add_argument("--split-seed", type=int, default=None, dest="split_seed")
    split.add_argument("--exact-split", action="store_true", dest="exact_split")
    split.set_defaults(fn=cmd_split)

    trainp = sub.add_parser("train", allow_abbrev=False, parents=common,
                            help="fit force parameters")
    trainp.add_argument("--input")
    trainp.add_argument("--graph", help="pre-split canonical dump")
    trainp.add_argument("--format", choices=["plain", "rating_csv"], default=None)
    trainp.add_argument("--model", choices=["spring", "spring-nn"], default=None)
    for name, typ in [("k", int), ("dt", float), ("damping", float), ("mu", float),
                      ("lr", float), ("epochs", int), ("n-steps", int),
                      ("p-hidden", float), ("split-seed", int),
                      ("val-fraction", float), ("clip-lo", float), ("clip-hi", float),
                      ("checkpoint-every", int)]:
        trainp.add_argument(f"--{name}", type=typ, default=None,
                            dest=name.replace("-", "_"))
    trainp.add_argument("--exact-split", action="store_true", default=None,
                        dest="exact_split")
    trainp.add_argument("--init-policy", choices=["resample_each_epoch", "fixed"],
                        default=None, dest="init_policy")
    trainp.add_argument("--loss-domain", choices=["visible_only", "all_edges_oracle"],
                        default=None, dest="loss_domain")
    trainp.add_argument("--target-encoding", choices=["signed", "zero_one"],
                        default=None, dest="target_encoding")
    trainp.add_argument("--semi-implicit", action="store_true", default=None,
                        dest="semi_implicit")
    trainp.add_argument("--resume", type=str, default=None,
                        help="checkpoint file to continue from")
    trainp.set_defaults(fn=cmd_train)

    embed = sub.add_parser("embed", allow_abbrev=False, parents=common,
                           help="simulate a trained model to produce embeddings")
    embed.add_argument("--params")
    embed.add_argument("--input")
    embed.add_argument("--graph")
    embed.add_argument("--format", choices=["plain", "rating_csv"], default=None)
    for name, typ in [("k", int), ("dt", float), ("damping", float),
                      ("n-steps", int), ("p-hidden", float), ("split-seed", int),
                      ("mu", float)]:
        embed.add_argument(f"--{name}", type=typ, default=None,
                           dest=name.replace("-", "_"))
    embed.add_argument("--exact-split", action="store_true", default=None,
                       dest="exact_split")
    embed.add_argument("--semi-implicit", action="store_true", default=None,
                       dest="semi_implicit")
    embed.add_argument("--binary", action="store_true", default=None)
    embed.add_argument("--hidden-edges", type=str, default=None, dest="hidden_edges",
                       help="file of 'u v' pairs to hide instead of sampling")
    embed.add_argument("--trace", type=str, default=None,
                       help="CSV of per-step mean |V| and loss (its cost is "
                            "part of solver_ms)")
    embed.set_defaults(fn=cmd_embed)

    evalp = sub.add_parser("eval", allow_abbrev=False, parents=[output, configured],
                           help="score hidden-edge predictions")
    evalp.add_argument("--threads", type=int, default=None,
                       help="worker threads for independent runs")
    evalp.add_argument("--embeddings")
    evalp.add_argument("--params")
    evalp.add_argument("--input")
    evalp.add_argument("--graph")
    evalp.add_argument("--format", choices=["plain", "rating_csv"], default=None)
    for name, typ in [("k", int), ("dt", float), ("damping", float),
                      ("n-steps", int), ("mu", float), ("p-hidden", float)]:
        evalp.add_argument(f"--{name}", type=typ, default=None,
                           dest=name.replace("-", "_"))
    evalp.add_argument("--seeds", type=str, default=None,
                       help="comma-separated seeds for multi-run aggregation")
    evalp.add_argument("--exact-split", action="store_true", default=None,
                       dest="exact_split")
    evalp.add_argument("--semi-implicit", action="store_true", default=None,
                       dest="semi_implicit")
    evalp.add_argument("--calibrate", action="store_true", default=None,
                       help="fit the distance classifier on visible edges "
                            "instead of the fixed threshold")
    evalp.set_defaults(fn=cmd_eval)

    benchp = sub.add_parser("bench", allow_abbrev=False, parents=common,
                            help="time the force field on synthetic graphs")
    benchp.add_argument("--sizes", type=str, default=None,
                        help="comma list of N:M pairs")
    benchp.add_argument("--ks", type=str, default=None, help="comma list of dims")
    benchp.add_argument("--reps", type=int, default=None)
    benchp.add_argument("--model", choices=["spring", "spring-nn"], default=None)
    benchp.add_argument("--sim-steps", type=int, default=None, dest="sim_steps")
    benchp.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
