"""Synthetic graphs and timing harness for the linear-complexity claim."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .forces import ForceParams, init_params
from .forcefield import force_field, prepare
from .graphs import SignedGraph, SplitSpec, compute_node_statics, hide_signs
from .simulate import SimConfig, init_state, simulate


def synthetic_graph(n_nodes: int, n_edges: int, seed: int,
                    pos_fraction: float = 0.85, p_hidden: float = 0.2) -> SignedGraph:
    """Random signed graph: a ring keeps every node connected, the rest is uniform."""
    if n_edges < n_nodes:
        raise ValueError("need at least n_nodes edges to keep every node connected")
    ring_u = np.arange(n_nodes, dtype=np.int64)
    ring_v = (ring_u + 1) % n_nodes
    lo = np.minimum(ring_u, ring_v)
    hi = np.maximum(ring_u, ring_v)
    codes = set((lo * n_nodes + hi).tolist())

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
            if x == y:
                continue
            code = int(min(x, y)) * n_nodes + int(max(x, y))
            if code in codes:
                continue
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
    """Median and interquartile range of fn() wall time in milliseconds."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append((time.perf_counter() - started) * 1000.0)
    times = np.sort(np.array(times))
    q1, q3 = np.percentile(times, [25, 75])
    return float(np.median(times)), float(q3 - q1)


@dataclass(frozen=True)
class BenchRow:
    n_nodes: int
    n_edges: int
    k: int
    op: str
    median_ms: float
    iqr_ms: float


def run_grid(model: ForceParams, sizes: list[tuple[int, int]], ks: list[int],
             seed: int = 0, repeats: int = 7, sim_steps: int = 20) -> list[BenchRow]:
    """Time the force field and a short simulation over a (N, M) x k grid."""
    rows: list[BenchRow] = []
    for n_nodes, n_edges in sizes:
        graph = synthetic_graph(n_nodes, n_edges, seed)
        statics = compute_node_statics(graph)
        ctx = prepare(graph, statics)
        for k in ks:
            cfg = SimConfig(k=k, n_steps=sim_steps, seed=seed)
            state = init_state(n_nodes, cfg)
            force_field(ctx, model, state.X)  # warm up caches
            med, iqr = median_ms(lambda: force_field(ctx, model, state.X),
                                 repeats)
            rows.append(BenchRow(n_nodes, n_edges, k, "force_field", med, iqr))
            med, iqr = median_ms(
                lambda: simulate(state, graph, statics, model, cfg, ctx=ctx), repeats)
            rows.append(BenchRow(n_nodes, n_edges, k, "simulate", med, iqr))
    return rows


def time_force_field(n_nodes: int, n_edges: int, k: int, seed: int = 1,
                     reps: int = 9) -> float:
    """Median force-field wall time (ms) for one synthetic configuration.

    Best measured in a fresh process per configuration: long-lived heaps can
    land one configuration's buffers in a persistently slow layout, which
    says nothing about how the cost scales with edges or dimensions.
    """
    model = init_params("spring-nn", seed=0)
    graph = synthetic_graph(n_nodes, n_edges, seed)
    ctx = prepare(graph, compute_node_statics(graph))
    X = init_state(n_nodes, SimConfig(k=k, seed=0)).X
    force_field(ctx, model, X)  # warm up
    return median_ms(lambda: force_field(ctx, model, X), reps)[0]


def linearity_summary(rows: list[BenchRow]) -> str:
    """Least-squares fit of force_field medians against a*M*k + b*N*k + c."""
    ff = [r for r in rows if r.op == "force_field"]
    if len(ff) < 3:
        return "linear fit skipped: need at least 3 force_field measurements\n"
    A = np.array([[r.n_edges * r.k, r.n_nodes * r.k, 1.0] for r in ff])
    y = np.array([r.median_ms for r in ff])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    denom = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float(((y - pred) ** 2).sum()) / denom if denom else 1.0
    return (f"force_field ms ~= {coef[0]:.3e}*M*k + {coef[1]:.3e}*N*k + {coef[2]:.3f}"
            f"   (R^2 = {r2:.4f})\n")
