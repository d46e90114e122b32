"""Command-line front end: ingest, split, train, embed, eval, bench.

Every command exits 0 on success, 1 on runtime failure, 2 on usage errors.
`_start` is the one settings step of train, embed, eval and bench.  It
resolves the settings (flags > --config file > defaults, or a manifest's with
--from-manifest, which reproduces the run), checks those no library config
holds against `CLI_RANGES`, builds the configs whose classes check the rest,
and resolves and hashes the input files, all before the command writes its
manifest (ingest and split write theirs last).  `_split` is the one rule by
which train, embed and eval choose the signs a run hides.
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


def _seed_list(text: str) -> list[int]:
    """eval's comma list of seeds; empty when a token is not an integer."""
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        return []


# the values accepted by the settings that no library config holds
CLI_RANGES = {
    "checkpoint_every": (lambda v: v >= 0, "be nonnegative"),
    "split_seed": (lambda v: isinstance(v, int), "be an integer or null"),
    "seeds": (lambda v: 0 < len(set(_seed_list(v))) == len(_seed_list(v)),
              "be a non-empty comma list of distinct integers"),
    "threads": (lambda v: v >= 1, "be at least 1"),
    "reps": (lambda v: v >= 1, "be at least 1"),
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
    config.update((key, getattr(args, key)) for key in defaults
                  if getattr(args, key, None) is not None)
    return config


def _start(args: argparse.Namespace, defaults: dict, out: str = "run") -> tuple:
    """A run's settings, inputs and output directory, then its checked configs:
    a `SimConfig` and `SplitSpec` (or None) per seed, the `LossConfig` and
    train's `TrainConfig`.  An input file's flag wins over the manifest's, and
    a replay refuses a file from the manifest whose recorded hash is not its own."""
    manifest = _load_manifest(args.from_manifest) if args.from_manifest else None
    config = _resolve(defaults, args, args.config, manifest)
    if "split_seed" in config and config["split_seed"] is None:
        config["split_seed"] = config["seed"]
    for key, (accepts, rule) in CLI_RANGES.items():
        if key in config and not accepts(config[key]):
            raise ValueError(f"{key} must {rule}, not {json.dumps(config[key])}")
    sims, splits, loss_cfg, train_cfg = [], [], None, None
    if "k" in config:   # train, embed and eval simulate
        seeds = _seed_list(config["seeds"]) if "seeds" in config else [config["seed"]]
        sims = [SimConfig(k=config["k"], dt=config["dt"], damping=config["damping"],
                          n_steps=config["n_steps"], seed=seed,
                          semi_implicit=config["semi_implicit"]) for seed in seeds]
        # eval draws a split with each of its seeds, train and embed with split_seed
        p_hidden = config["p_hidden"]
        splits = [None if p_hidden is None else SplitSpec(p_hidden, seed)
                  for seed in (seeds if "seeds" in config else [config["split_seed"]])]
        loss_cfg = LossConfig(mu=config["mu"])
    if "model" in config:
        train_cfg = TrainConfig(
            epochs=config["epochs"], sim=sims[0], loss=loss_cfg, model_kind=config["model"],
            lr=config["lr"], seed=config["seed"], val_fraction=config["val_fraction"])
    recorded = (manifest or {}).get("input_paths", {})
    inputs = {key: getattr(args, key) or recorded.get(key)
              for key in INPUTS if hasattr(args, key)}
    for key, path in inputs.items():
        if path and not getattr(args, key):
            want, got = manifest["inputs"].get(path), _sha256(path)
            if got != want:
                raise ValueError(f"input {path} has SHA-256 {got}, but the "
                                 f"manifest recorded {want}")
    if hasattr(args, "format"):
        config["format"] = args.format or (manifest or {}).get("config", {}).get(
            "format", "plain")
    return config, inputs, Path(args.out or out), sims, splits, loss_cfg, train_cfg


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
    _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _load_graph(paths: dict, fmt: str) -> SignedGraph:
    """Graph from either a canonical dump or a raw edge list."""
    if paths.get("graph"):
        with _open_text(paths["graph"]) as fh:
            return parse_graph_dump(fh.read())
    if not paths.get("input"):
        raise ValueError("either --graph or --input is required")
    with _open_text(paths["input"]) as fh:
        return to_undirected(load_edge_list(fh, fmt))


def _split(graph: SignedGraph, spec: SplitSpec | None) -> tuple[SignedGraph, np.ndarray]:
    """How train, embed and eval choose the hidden signs: a graph that hides a
    sign keeps its split, no spec (a null p_hidden) hides none, else it draws."""
    hidden = graph.hidden_edges()
    if hidden.size or spec is None:
        return graph, hidden
    return hide_signs(graph, spec)


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
    split_seed = args.split_seed if args.split_seed is not None else args.seed or 0
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
    config, inputs, out, _, splits, _, train_cfg = _start(args, TRAIN_DEFAULTS)
    graph, _ = _split(_load_graph(inputs, config["format"]), splits[0])
    every = config["checkpoint_every"]
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

    _write_text(out / "params.json", params_to_json(params))
    write_history_csv(out / "history.csv", history)
    if history:
        print(f"trained {config['model']} for {len(history)} epochs; "
              f"final loss {history[-1].loss:.6f}")
    return 0


def cmd_embed(args) -> int:
    config, inputs, out, (sim,), (split,), loss_cfg, _ = _start(args, EMBED_DEFAULTS)
    if not inputs["params"]:
        raise ValueError("--params is required")

    params = _load_params(inputs["params"])
    graph, _ = _split(_load_graph(inputs, config["format"]), split)
    if inputs["hidden_edges"]:
        graph = _hide_listed(graph, inputs["hidden_edges"])

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

    write = write_embeddings_binary if config["binary"] else write_embeddings_text
    write(out / emb_name, final.X)
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
                a, b = (np.int64(tok) for tok in tokens)
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
    config, inputs, out, sims, specs, loss_cfg, _ = _start(args, EVAL_DEFAULTS)
    if not (inputs["embeddings"] or inputs["params"]):
        raise ValueError("eval needs either --embeddings or --params")
    chash = _config_hash(config)
    graph = _load_graph(inputs, config["format"])
    if inputs["embeddings"]:
        emb_path = inputs["embeddings"]
        X = (read_embeddings_binary(emb_path) if str(emb_path).endswith(".bin")
             else read_embeddings_text(emb_path))
        if X.shape[0] != graph.n_nodes:
            raise ValueError(f"embedding file {emb_path} has {X.shape[0]} rows, "
                             f"graph has {graph.n_nodes} nodes")
        splits = [(graph, graph.hidden_edges())]
        artifacts = {"report": out / "report.json"}
    else:
        params = _load_params(inputs["params"])
        splits = [_split(graph, spec) for spec in specs]
        artifacts = {"reports": out / "report_<seed>.json",
                     "aggregate": out / "aggregate.json"}
    for sim, (split_graph, hidden) in zip(sims, splits):   # the AUC needs both signs
        n_pos = int((graph.true_sign[hidden] == 1).sum())
        if n_pos in (0, hidden.size):   # a split drawn here is a new graph
            split = ("the graph's split" if split_graph is graph else
                     f"the split of seed {sim.seed} (p_hidden {config['p_hidden']})")
            raise ValueError(f"{split} hides {n_pos} positive and {hidden.size - n_pos} "
                             "negative signs, but the AUC needs both")
    _write_manifest(out, "eval", config, inputs, artifacts)
    if inputs["embeddings"]:
        reports = [evaluate(graph, splits[0][1], X, loss_cfg.mu, config_hash=chash)]
        _write_text(out / "report.json", reports[0].to_json())
    else:
        with concurrent.futures.ThreadPoolExecutor(config["threads"]) as pool:
            reports = list(pool.map(
                lambda sim, split: _eval_one(*split, params, sim, loss_cfg, chash),
                sims, splits))
        for sim, report in zip(sims, reports):
            _write_text(out / f"report_{sim.seed}.json", report.to_json())
        agg = aggregate_reports(reports)
        _write_text(out / "aggregate.json", json.dumps(agg, indent=2) + "\n")
    table = reports[0].to_table() if len(reports) == 1 else aggregate_table(agg)
    _write_text(out / "table.txt", table)
    print(table, end="")
    return 0


def cmd_bench(args) -> int:
    config, inputs, out, *_ = _start(args, BENCH_DEFAULTS, out="bench")
    _write_manifest(out, "bench", config, inputs, {"bench": out / "bench.json"})
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
