"""The timing record behind every speed claim, on one fixed synthetic graph.

`record` times a dataset-free run of BitcoinOTC size, the one `graphspring
bench` runs: `synthetic_graph(N_NODES, N_EDGES, GRAPH_SEED)`, the model
`init_params(MODEL, 0)`, k = K and N_STEPS steps.  The finer split of a call
(geometry, magnitudes, product) is left to perfbench's spans.
"""

from __future__ import annotations

import os
import platform
import time
import tracemalloc

import numpy as np
import scipy

from . import rng
from .forces import init_params
from .forcefield import force_field, force_field_vjp, node_gain, prepare
from .graphs import SignedGraph, SplitSpec, compute_node_statics, hide_signs
from .simulate import SimConfig, init_state, simulate
from .training import (LossConfig, _segment_lengths, loss_and_grad, loss_with_grad,
                       tape_floats)

# the fixed run of every record: a BitcoinOTC-size graph, spring-nn, k = 64
N_NODES, N_EDGES, GRAPH_SEED = 5881, 21492, 1
MODEL, K, N_STEPS = "spring-nn", 64, 120


def synthetic_graph(n_nodes: int, n_edges: int, seed: int,
                    pos_fraction: float = 0.85, p_hidden: float = 0.2) -> SignedGraph:
    """Random signed graph: a ring keeps every node connected, the rest is uniform."""
    if n_edges < n_nodes:
        raise ValueError("need at least n_nodes edges to keep every node connected")
    ring = np.arange(n_nodes, dtype=np.int64)
    nxt = (ring + 1) % n_nodes
    codes = set((np.minimum(ring, nxt) * n_nodes + np.maximum(ring, nxt)).tolist())

    extra_needed = n_edges - n_nodes
    pairs: list[int] = []
    counter = 0
    while len(pairs) < extra_needed:
        batch = max(1024, 2 * (extra_needed - len(pairs)))
        draw = rng.raw_uint64(seed, "bench-edges", np.arange(counter, counter + 2 * batch))
        counter += 2 * batch
        a = (draw[:batch] % n_nodes).astype(np.int64)
        b = (draw[batch:] % n_nodes).astype(np.int64)
        for x, y in zip(a, b):
            code = int(min(x, y)) * n_nodes + int(max(x, y))
            if x != y and code not in codes:
                codes.add(code)
                pairs.append(code)
                if len(pairs) == extra_needed:
                    break
    all_codes = np.sort(np.fromiter(codes, dtype=np.int64, count=len(codes)))
    u = all_codes // n_nodes
    v = all_codes % n_nodes
    sign_draw = rng.uniform01(seed, "bench-signs", np.arange(all_codes.size))
    sign = np.where(sign_draw < pos_fraction, 1, -1).astype(np.int8)
    graph = SignedGraph(n_nodes, u, v, sign, sign.copy())
    if p_hidden > 0:
        graph, _ = hide_signs(graph, SplitSpec(p_hidden, seed))
    return graph


def median_ms(fn, repeats: int = 7) -> tuple[float, float]:
    """Median and interquartile range of fn() wall time in milliseconds.  Each
    result is held until the next call returns, as a training loop holds its
    state, so the allocator sees the heap that training gives it."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        held = fn()   # the previous result is released only once this returns
        times.append((time.perf_counter() - started) * 1000.0)
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return float(median), float(q3 - q1)


def tape_bytes(n_nodes: int, n_edges: int, k: int, n_steps: int) -> int:
    """The most bytes an epoch holds at once for its reverse sweep
    (`training.tape_floats` of `training._segment_lengths`'s schedule), the
    replayed positions of the segment being swept among them."""
    return tape_floats(n_nodes, n_edges, k,
                       _segment_lengths(n_nodes, n_edges, k, n_steps)) * 8


def timed_operations(n_nodes: int, n_edges: int, k: int) -> dict:
    """The operations a record times, as calls without arguments at the same
    initial positions: `force_field`, its VJP (the loss gradient as cotangent),
    `loss_with_grad`, a `loss_and_grad` epoch and an N_STEPS-step embed.  The
    field and VJP calls take the arguments they get inside an epoch: an `out`
    to add into and the gain, evaluated once (dt times it for the field)."""
    graph = synthetic_graph(n_nodes, n_edges, GRAPH_SEED)
    statics = compute_node_statics(graph)
    ctx = prepare(graph, statics)
    model = init_params(MODEL, 0)
    sim = SimConfig(k=k, n_steps=N_STEPS, seed=0)
    state = init_state(n_nodes, sim)
    loss_cfg = LossConfig()
    _, upstream = loss_with_grad(graph, state.X, loss_cfg)
    dt_gain, gain = node_gain(ctx, model, sim.dt), node_gain(ctx, model)
    out = np.zeros_like(state.X)
    return {
        "force_field": lambda: force_field(ctx, model, state.X, out=out, gain=dt_gain),
        "force_field_vjp": lambda: force_field_vjp(ctx, model, state.X, upstream,
                                                   out=out, gain=gain),
        "loss_with_grad": lambda: loss_with_grad(graph, state.X, loss_cfg),
        "epoch": lambda: loss_and_grad(graph, statics, model, sim, loss_cfg, ctx=ctx),
        "embed": lambda: simulate(state, graph, statics, model, sim, ctx=ctx),
    }


def record(reps: int) -> dict:
    """Time the fixed run: each `<operation>_ms` is {"median", "iqr"} over `reps`
    calls.  Memory: the segment lengths of the epoch's tape (`"segments"` in
    the graph block) and its bytes (`tape_bytes`), tracemalloc's
    peak over one more (untimed, warm-up) epoch and the minor page faults per
    timed epoch."""
    import resource  # Unix only, like the page-fault count it reads

    ops = timed_operations(N_NODES, N_EDGES, K)
    tracemalloc.start()
    try:
        ops["epoch"]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    timings = {"epoch": median_ms(ops.pop("epoch"), reps)}
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / reps
    # the epochs have run every operation, so the rest start warm
    timings.update((name, median_ms(fn, reps)) for name, fn in ops.items())
    return {
        "graph": {"n_nodes": N_NODES, "n_edges": N_EDGES, "seed": GRAPH_SEED,
                  "model": MODEL, "k": K, "n_steps": N_STEPS,
                  "segments": _segment_lengths(N_NODES, N_EDGES, K, N_STEPS)},
        "reps": reps,
        **{f"{name}_ms": {"median": median, "iqr": iqr}
           for name, (median, iqr) in timings.items()},
        "tape_bytes": tape_bytes(N_NODES, N_EDGES, K, N_STEPS),
        "peak_traced_mb": peak / 2 ** 20,
        "minor_faults_per_epoch": faults,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "platform": platform.platform(),
                "nproc": os.cpu_count(),
                "threads": {key: value for key, value in sorted(os.environ.items())
                            if key.endswith("_THREADS")}},
    }
