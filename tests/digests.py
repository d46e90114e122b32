"""Fixed-seed SHA-256 digests of the numerical results, for bitwise comparisons.

Run it against two checkouts and diff the outputs; a change meant to leave the
arithmetic alone must print the same lines:

    PYTHONPATH=/path/to/a/src python tests/digests.py > a.txt
    PYTHONPATH=/path/to/b/src python tests/digests.py > b.txt
    diff a.txt b.txt

It digests the loss, gradient and final X and V of `loss_and_grad` and the
final state of `simulate` for both models, both orderings, k in {8, 64}, with
and without coincident endpoints (on the first, a middle and the last edge,
starting at t_step 3), and the per-epoch loss, auc_l and f1_macro and the
`params.json` bytes of a 3-epoch `train` for both models.  Then, in a temporary
directory, it runs the command-line `ingest` (on an edge list of the synthetic
graph), `split` (on the graph's dump with every sign shown), and on the graph's
dump `train` (both models), `embed` (text, binary and with `--hidden-edges`)
and `eval` (with `--params` over two seeds, and with `--embeddings`), and
digests the bytes of every artifact they write, leaving out the wall-clock
columns; of each `manifest.json`, which holds temporary paths, it digests the
`config` dict (sorted keys) and prints the `config_hash`.  The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from graphspring import (LossConfig, SimConfig, SimState, SpringParams,
                         TrainConfig, compute_node_statics, dump_graph,
                         init_params, init_state, loss_and_grad, params_to_json,
                         prepare, simulate, train)
from graphspring.bench import synthetic_graph
from graphspring.cli import main as cli_main

N_NODES, N_EDGES, N_STEPS = 300, 1200, 30
# rest lengths either side of the typical distances at k = 8 and k = 64, so the
# spring kinks are crossed and some sign groups sit wholly on a flat side
SPRING = SpringParams(2.0, 3.0, 5.0, 1.2, 0.8, 1.1, 0.3)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def cases():
    for kind in ("spring", "spring-nn"):
        model = SPRING if kind == "spring" else init_params(kind, seed=5)
        for semi in (False, True):
            for k in (8, 64):
                for tied in (False, True):
                    yield kind, model, semi, k, tied


def start_state(graph, cfg: SimConfig, tied: bool) -> SimState:
    state = init_state(graph.n_nodes, cfg)
    if not tied:
        return state
    X = state.X.copy()
    for e in (0, graph.n_edges // 2, graph.n_edges - 1):
        X[graph.v[e]] = X[graph.u[e]]
    return SimState(X, state.V, 3)


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def artifact_digest(path: Path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        config = json.dumps(manifest["config"], sort_keys=True).encode()
        return f"config {bytes_digest(config)} config_hash {manifest['config_hash']}"
    if path.name in ("history.csv", "embed_meta.json"):   # drop the wall-clock times
        text = path.read_text()
        if path.name == "history.csv":
            kept = [row[:-1] for row in csv.reader(io.StringIO(text))]
        else:
            kept = {k: v for k, v in json.loads(text).items() if k != "solver_ms"}
        return bytes_digest(json.dumps(kept).encode())
    return bytes_digest(path.read_bytes())


def cli_runs(tmp: Path, graph):
    """(name, argv) of the command-line runs, each writing to tmp / name."""
    dump, full, hide = tmp / "graph.txt", tmp / "full.txt", tmp / "hide.txt"
    edges = tmp / "edges.txt"
    # each edge from its higher node to its lower one, for ingest to merge back
    edges.write_text("".join(f"{v} {u} {s}\n" for u, v, s in
                             zip(graph.u, graph.v, graph.true_sign)))
    dump.write_text(dump_graph(graph))
    # eval --params hides signs itself, so it reads the graph with all signs shown
    full.write_text(dump_graph(graph.with_observed(graph.true_sign)))
    hide.write_text("".join(f"{graph.u[e]} {graph.v[e]}\n" for e in (0, 5, 17)))
    steps = ["--k", 8, "--n-steps", N_STEPS]
    sim = ["--graph", dump, *steps]
    params = tmp / "train-spring-nn" / "params.json"
    yield "ingest", ["ingest", "--input", edges]
    yield "split", ["split", "--graph", full, "--p-hidden", 0.2, "--split-seed", 5]
    for kind in ("spring", "spring-nn"):
        yield f"train-{kind}", ["train", *sim, "--model", kind, "--epochs", 3, "--seed", 3]
    embed = ["embed", "--params", params, *sim, "--seed", 4]
    yield "embed-text", embed
    yield "embed-binary", [*embed, "--binary"]
    yield "embed-hidden-edges", [*embed, "--hidden-edges", hide]
    yield "eval-params", ["eval", "--params", params, "--graph", full, *steps,
                          "--seeds", "1,2"]
    yield "eval-embeddings", ["eval", "--embeddings", tmp / "embed-text" / "embeddings.txt",
                              "--graph", dump]


def cli_digests(graph) -> None:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for run, argv in cli_runs(tmp, graph):
            out = tmp / run
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([str(a) for a in argv] + ["--out", str(out)])
            if code != 0:
                raise SystemExit(f"{run} exited {code}")
            for path in sorted(out.iterdir()):
                print(f"cli {run:18} {path.name:16} {artifact_digest(path)}")


def main() -> None:
    graph = synthetic_graph(N_NODES, N_EDGES, seed=11)
    statics = compute_node_statics(graph)
    ctx = prepare(graph, statics)
    loss_cfg = LossConfig()
    for kind, model, semi, k, tied in cases():
        cfg = SimConfig(k=k, n_steps=N_STEPS, seed=7, semi_implicit=semi)
        name = f"{kind:9} semi={int(semi)} k={k:2} tied={int(tied)}"
        value, grad, final = loss_and_grad(graph, statics, model, cfg, loss_cfg,
                                           state0=start_state(graph, cfg, tied), ctx=ctx)
        print(f"loss_and_grad {name} loss {digest(value)} grad {digest(grad)} "
              f"X {digest(final.X)} V {digest(final.V)}")
        state = simulate(start_state(graph, cfg, tied), graph, statics, model, cfg, ctx=ctx)
        print(f"simulate      {name} X {digest(state.X)} V {digest(state.V)} "
              f"t {state.t_step}")
    for kind in ("spring", "spring-nn"):
        cfg = TrainConfig(epochs=3, sim=SimConfig(k=8, n_steps=N_STEPS),
                          model_kind=kind, seed=3)
        params, history = train(graph, statics, cfg)
        print(f"train         {kind:9} "
              f"loss {digest([h.loss for h in history])} "
              f"auc_l {digest([h.auc_l for h in history])} "
              f"f1_macro {digest([h.f1_macro for h in history])} "
              f"params.json {bytes_digest(params_to_json(params).encode())}")
    cli_digests(graph)


if __name__ == "__main__":
    main()
