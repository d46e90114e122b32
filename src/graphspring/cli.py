"""Command-line front end: ingest, split, train, embed, eval, bench.

Every command exits 0 on success, 1 on runtime failure, 2 on usage errors.
train, embed, eval and bench write a manifest of the resolved run before
their long work (ingest and split write theirs last, after their outputs),
and resolve their configuration as CLI flags > --config JSON file > built-in
defaults; re-running one of them with --from-manifest reproduces the
original outputs.

Each shared setting is declared in one place: the simulating commands (train,
embed and eval) take their common flags from one parent parser and their
common defaults from `SIM_DEFAULTS`, whose values come from the library's
config classes.  `_start` is the one resolver of a run's input files: a flag
wins over the manifest's `input_paths`, a file taken from the manifest must
still have its recorded hash, and the new manifest records and hashes every
file the run reads.  `_split` is the one rule by which train, embed and eval
choose the signs a run hides.  bench has one setting, the repetitions: it
times the fixed run of `bench.record` and writes the record to `bench.json`.
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
from .forces import MODEL_KINDS, params_from_json, params_to_json
from .forcefield import prepare
from .graphs import (FORMATS, SignedGraph, SplitSpec, compute_node_statics, dump_graph,
                     hide_signs, load_edge_list, parse_graph_dump, to_undirected)
from .metrics import aggregate_reports, aggregate_table, evaluate
from .simulate import (SimConfig, SimulationDivergedError, init_state,
                       mean_abs_velocity, read_embeddings_binary,
                       read_embeddings_text, simulate, write_embeddings_binary,
                       write_embeddings_text)
from .training import (LossConfig, TrainConfig, check_resume, load_checkpoint, loss,
                       save_checkpoint, train, write_history_csv)

# the library's defaults, each written once in its config class
_TRAIN = TrainConfig()
_SIM, _LOSS = _TRAIN.sim, _TRAIN.loss

# the settings that train, embed and eval share
SIM_DEFAULTS = {
    "k": _SIM.k, "dt": _SIM.dt, "damping": _SIM.damping, "n_steps": _SIM.n_steps,
    "mu": _LOSS.mu, "p_hidden": 0.2, "semi_implicit": _SIM.semi_implicit,
}

TRAIN_DEFAULTS = {
    **SIM_DEFAULTS, "model": _TRAIN.model_kind, "lr": _TRAIN.lr,
    "epochs": _TRAIN.epochs, "seed": _TRAIN.seed, "split_seed": None,
    "val_fraction": _TRAIN.val_fraction, "checkpoint_every": 0,
}

EMBED_DEFAULTS = {**SIM_DEFAULTS, "p_hidden": None, "seed": _SIM.seed,
                  "split_seed": None, "binary": False}

EVAL_DEFAULTS = {**SIM_DEFAULTS, "seeds": "0", "threads": 1}

BENCH_DEFAULTS = {"reps": 7}

# the files a run may read, by the flag that names them
INPUTS = ("input", "graph", "params", "embeddings", "hidden_edges", "resume")


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


# the types json.load gives that a loaded setting may take, by its default's type
_LOADED_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
                 type(None): (type(None), int, float)}


def _load_json_object(path: str, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{what} {path} is not valid JSON: {err}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"{what} {path} must hold a JSON object, "
                         f"not {type(loaded).__name__}")
    return loaded


def _load_manifest(path: str) -> dict:
    manifest = _load_json_object(path, "manifest")
    if not (isinstance(manifest.get("config"), dict) and all(
            isinstance(manifest.get(key), dict)
            and all(isinstance(v, str) for v in manifest[key].values())
            for key in ("input_paths", "inputs"))):
        raise ValueError(f"manifest {path} needs a 'config' object and "
                         f"'input_paths' and 'inputs' objects of strings")
    return manifest


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
        loaded = _load_json_object(config_file, "config file")
    unknown = set(loaded) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys{source}: {sorted(unknown)}")
    for key, value in loaded.items():
        if type(value) not in _LOADED_TYPES[type(defaults[key])]:
            raise ValueError(f"config key {key!r}{source} has the wrong type: got "
                             f"{json.dumps(value)}, default {json.dumps(defaults[key])}")
    config.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _start(args: argparse.Namespace, defaults: dict) -> tuple[dict, dict, Path]:
    """Settings, input files and output directory of a train, embed or eval run.

    An input file's flag wins over the manifest's `input_paths`; the returned
    inputs go to the new manifest, which hashes each of them.  A replay refuses
    a file taken from the manifest whose hash is not the one recorded.
    """
    manifest = _load_manifest(args.from_manifest) if args.from_manifest else None
    config = _resolve(defaults, args, args.config, manifest)
    if "split_seed" in config and config["split_seed"] is None:
        config["split_seed"] = config["seed"]
    recorded = (manifest or {}).get("input_paths", {})
    inputs = {key: getattr(args, key) or recorded.get(key)
              for key in INPUTS if hasattr(args, key)}
    for key, path in inputs.items():
        if path and not getattr(args, key):
            want, got = manifest["inputs"].get(path), _sha256(path)
            if got != want:
                raise ValueError(f"input {path} has SHA-256 {got}, but the "
                                 f"manifest recorded {want}")
    config["format"] = args.format or (manifest or {}).get("config", {}).get(
        "format", "plain")
    return config, inputs, Path(args.out or "run")


def _sim_config(config: dict, seed: int) -> SimConfig:
    return SimConfig(k=config["k"], dt=config["dt"], damping=config["damping"],
                     n_steps=config["n_steps"], seed=seed,
                     semi_implicit=config["semi_implicit"])


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


def _load_graph(paths: dict, fmt: str) -> SignedGraph:
    """Graph from either a canonical dump or a raw edge list."""
    if paths.get("graph"):
        with _open_text(paths["graph"]) as fh:
            return parse_graph_dump(fh.read())
    if not paths.get("input"):
        raise ValueError("either --graph or --input is required")
    with _open_text(paths["input"]) as fh:
        stage = load_edge_list(fh, fmt)
    return to_undirected(stage)


def _split(graph: SignedGraph, config: dict, seed: int) -> tuple[SignedGraph, np.ndarray]:
    """How train, embed and eval choose the hidden signs: a graph that hides a
    sign keeps its split, a null p_hidden hides none, else `seed` draws them."""
    hidden = graph.hidden_edges()
    if hidden.size or config["p_hidden"] is None:
        return graph, hidden
    return hide_signs(graph, SplitSpec(config["p_hidden"], seed))


def _load_params(path: str):
    try:
        return params_from_json(Path(path).read_text(encoding="utf-8"))
    except KeyError as err:
        raise ValueError(f"parameter file {path} has no {err} entry") from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"parameter file {path}: {err}") from None


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
    graph = _load_graph(vars(args), args.format)
    seed = args.seed if args.seed is not None else 0
    split_seed = args.split_seed if args.split_seed is not None else seed
    hidden_graph, hidden = hide_signs(graph, SplitSpec(args.p_hidden, split_seed))
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "graph_split.txt", dump_graph(hidden_graph))
    config = {"p_hidden": args.p_hidden, "split_seed": split_seed}
    _write_manifest(out, "split", config,
                    {"input": args.input, "graph": args.graph},
                    {"graph_split": out / "graph_split.txt"})
    print(f"hidden {hidden.size} of {graph.n_edges} edges")
    return 0


def cmd_train(args) -> int:
    config, inputs, out = _start(args, TRAIN_DEFAULTS)
    graph, _ = _split(_load_graph(inputs, config["format"]), config,
                      config["split_seed"])
    train_cfg = TrainConfig(
        epochs=config["epochs"], sim=_sim_config(config, config["seed"]),
        loss=LossConfig(mu=config["mu"]), model_kind=config["model"], lr=config["lr"],
        seed=config["seed"], val_fraction=config["val_fraction"])
    every = config["checkpoint_every"]
    if every < 0:
        raise ValueError(f"checkpoint_every must be nonnegative, not {every}")
    resume = load_checkpoint(inputs["resume"]) if inputs["resume"] else None
    if resume is not None:
        check_resume(resume, train_cfg)

    artifacts = {"params": out / "params.json", "history": out / "history.csv"}
    _write_manifest(out, "train", config, inputs, artifacts)

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
    config, inputs, out = _start(args, EMBED_DEFAULTS)
    if not inputs["params"]:
        raise ValueError("--params is required")

    params = _load_params(inputs["params"])
    graph, _ = _split(_load_graph(inputs, config["format"]), config,
                      config["split_seed"])
    if inputs["hidden_edges"]:
        graph = _hide_listed(graph, inputs["hidden_edges"])

    sim = _sim_config(config, config["seed"])
    loss_cfg = LossConfig(mu=config["mu"]) if args.trace else None
    emb_name = "embeddings.bin" if config["binary"] else "embeddings.txt"
    artifacts = {"embeddings": out / emb_name, "meta": out / "embed_meta.json"}
    _write_manifest(out, "embed", config, inputs, artifacts)

    statics = compute_node_statics(graph)
    ctx = prepare(graph, statics)
    state = init_state(graph.n_nodes, sim)

    on_step = None
    if args.trace:
        # the trace is recorded during the one simulation, so solver_ms
        # includes its cost
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


def _eval_one(hidden_graph: SignedGraph, hidden: np.ndarray, params, sim: SimConfig,
              loss_cfg: LossConfig, config_hash: str):
    """One seeded run of eval --params on the split `sim.seed` drew."""
    statics = compute_node_statics(hidden_graph)
    state = init_state(hidden_graph.n_nodes, sim)
    final = simulate(state, hidden_graph, statics, params, sim)
    return evaluate(hidden_graph, hidden, final.X, loss_cfg.mu, seed=sim.seed,
                    config_hash=config_hash)


def cmd_eval(args) -> int:
    config, inputs, out = _start(args, EVAL_DEFAULTS)
    if not (inputs["embeddings"] or inputs["params"]):
        raise ValueError("eval needs either --embeddings or --params")
    loss_cfg = LossConfig(mu=config["mu"])   # checks mu before anything is written
    chash = _config_hash(config)
    graph = _load_graph(inputs, config["format"])
    if inputs["embeddings"]:
        emb_path = inputs["embeddings"]
        X = (read_embeddings_binary(emb_path) if str(emb_path).endswith(".bin")
             else read_embeddings_text(emb_path))
        if X.shape[0] != graph.n_nodes:
            raise ValueError(f"embedding file {emb_path} has {X.shape[0]} rows, "
                             f"graph has {graph.n_nodes} nodes")
        _write_manifest(out, "eval", config, inputs, {"report": out / "report.json"})
        report = evaluate(graph, graph.hidden_edges(), X, loss_cfg.mu, seed=None,
                          config_hash=chash)
        _write_text(out / "report.json", report.to_json())
        table = report.to_table()
    else:
        params = _load_params(inputs["params"])
        seeds = [int(tok) for tok in config["seeds"].split(",") if tok != ""]
        if not seeds:
            raise ValueError(f"seeds must list at least one seed, not {config['seeds']!r}")
        if config["threads"] < 1:
            raise ValueError(f"threads must be at least 1, not {config['threads']}")
        sims = [_sim_config(config, s) for s in seeds]
        splits = [_split(graph, config, s) for s in seeds]
        for s, (_, hidden) in zip(seeds, splits):
            if hidden.size == 0:
                raise ValueError(f"no hidden edges to evaluate: p_hidden "
                                 f"{config['p_hidden']} hides none at seed {s}")
        _write_manifest(out, "eval", config, inputs,
                        {"reports": out / "report_<seed>.json",
                         "aggregate": out / "aggregate.json"})
        with concurrent.futures.ThreadPoolExecutor(config["threads"]) as pool:
            reports = list(pool.map(
                lambda sim, split: _eval_one(*split, params, sim, loss_cfg, chash),
                sims, splits))
        for s, report in zip(seeds, reports):
            _write_text(out / f"report_{s}.json", report.to_json())
        agg = aggregate_reports(reports)
        _write_text(out / "aggregate.json", json.dumps(agg, indent=2) + "\n")
        table = reports[0].to_table() if len(reports) == 1 else aggregate_table(agg)
    _write_text(out / "table.txt", table)
    print(table, end="")
    return 0


def cmd_bench(args) -> int:
    manifest = _load_manifest(args.from_manifest) if args.from_manifest else None
    config = _resolve(BENCH_DEFAULTS, args, args.config, manifest)
    out = Path(args.out if args.out else "bench")
    _write_manifest(out, "bench", config, {}, {"bench": out / "bench.json"})
    record = bench.record(config["reps"])
    _write_text(out / "bench.json", json.dumps(record, indent=2) + "\n")
    for key, value in record.items():
        if key.endswith("_ms"):
            print(f"{key:20} {value['median']:10.1f}  (IQR {value['iqr']:.1f})")
    return 0


def _parent(*flags: tuple[str, dict]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    for flag, options in flags:
        parser.add_argument(flag, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphspring",
        description="Spring-force embeddings and link-sign prediction for signed graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the shared flags it reads, spelled out in full
    # (with prefixes allowed, eval would read --seed as --seeds)
    output = _parent(("--out", dict(type=str, default=None, help="output directory")))
    seeded = _parent(("--seed", dict(type=int, default=None, help="master seed")))
    split_seeded = _parent(("--split-seed", dict(
        type=int, default=None, help="seed of the hidden-sign split (default: --seed)")))
    configured = _parent(
        ("--config", dict(type=str, default=None, help="JSON config file")),
        ("--from-manifest", dict(type=str, default=None,
                                 help="re-run the configuration recorded in a manifest")))
    # train, embed and eval: their inputs and the settings in SIM_DEFAULTS
    simulating = _parent(
        ("--input", dict(help="edge list")),
        ("--graph", dict(help="canonical graph dump")),
        ("--format", dict(choices=list(FORMATS), default=None)),
        *[(f"--{name}", dict(type=typ, default=None))
          for name, typ in [("k", int), ("dt", float), ("damping", float),
                            ("n-steps", int), ("mu", float), ("p-hidden", float)]],
        ("--semi-implicit", dict(action="store_true", default=None)))
    common = [seeded, output, configured]

    ingest = sub.add_parser("ingest", allow_abbrev=False, parents=[output],
                            help="parse an edge list into the canonical graph dump")
    ingest.add_argument("--input", required=True)
    ingest.add_argument("--format", choices=list(FORMATS), default="plain")
    ingest.set_defaults(fn=cmd_ingest)

    split = sub.add_parser("split", allow_abbrev=False,
                           parents=[seeded, split_seeded, output],
                           help="hide a share of edge signs")
    split.add_argument("--input")
    split.add_argument("--graph")
    split.add_argument("--format", choices=list(FORMATS), default="plain")
    split.add_argument("--p-hidden", type=float, required=True)
    split.set_defaults(fn=cmd_split)

    trainp = sub.add_parser("train", allow_abbrev=False,
                            parents=[*common, split_seeded, simulating],
                            help="fit force parameters")
    trainp.add_argument("--model", choices=list(MODEL_KINDS), default=None)
    for name, typ in [("lr", float), ("epochs", int), ("val-fraction", float),
                      ("checkpoint-every", int)]:
        trainp.add_argument(f"--{name}", type=typ, default=None)
    trainp.add_argument("--resume", type=str, default=None,
                        help="checkpoint file to continue from")
    trainp.set_defaults(fn=cmd_train)

    embed = sub.add_parser("embed", allow_abbrev=False,
                           parents=[*common, split_seeded, simulating],
                           help="simulate a trained model to produce embeddings")
    embed.add_argument("--params")
    embed.add_argument("--binary", action="store_true", default=None)
    embed.add_argument("--hidden-edges", type=str, default=None,
                       help="file of 'u v' pairs to hide instead of sampling")
    embed.add_argument("--trace", type=str, default=None,
                       help="CSV of per-step mean |V| and loss (its cost is "
                            "part of solver_ms)")
    embed.set_defaults(fn=cmd_embed)

    evalp = sub.add_parser("eval", allow_abbrev=False,
                           parents=[output, configured, simulating],
                           help="score hidden-edge predictions")
    evalp.add_argument("--threads", type=int, default=None,
                       help="worker threads for independent runs")
    evalp.add_argument("--embeddings")
    evalp.add_argument("--params")
    evalp.add_argument("--seeds", type=str, default=None,
                       help="comma-separated seeds for multi-run aggregation")
    evalp.set_defaults(fn=cmd_eval)

    benchp = sub.add_parser("bench", allow_abbrev=False, parents=[output, configured],
                            help="time an epoch and an embed on a fixed "
                                 "BitcoinOTC-size synthetic graph")
    benchp.add_argument("--reps", type=int, default=None)
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
