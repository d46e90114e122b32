"""Scalar reference implementations the tests compare the library against.

Each one evaluates a definition one edge, one node or one vector at a time,
independently of the batched and streamed code paths in `graphspring`.
"""

from __future__ import annotations

import numpy as np

from graphspring.forcefield import EPS, tie_break_unit
from graphspring.forces import MlpParams, NeuralSpringParams, SpringParams
from graphspring import graphs
from graphspring.graphs import EdgeStage, GraphFormatError, SignedGraph


def spring_force(p: SpringParams, observed_sign: int, dist: float) -> float:
    """Hooke-style force magnitude for one edge.

    Neutral edges pull or push toward the neutral rest length; positive edges
    only attract when stretched past l_pos; negative edges only repel when
    compressed under l_neg.
    """
    if observed_sign == 0:
        return p.a_neu * (dist - p.l_neu)
    if observed_sign == 1:
        return p.a_pos * max(dist - p.l_pos, 0.0)
    return -p.a_neg * max(p.l_neg - dist, 0.0)


def spring_gain(p: SpringParams, deg: float, p80: float) -> float:
    """Degree gain min(1, deg/p80) * beta + 1; requires a positive p80."""
    if p80 <= 0:
        raise ValueError("p80 must be positive (graph statics look invalid)")
    return min(1.0, deg / p80) * p.beta + 1.0


def mlp_eval(p: MlpParams, x: np.ndarray) -> float:
    """W1 . relu(W0 x + b0) + b1 for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.w0.shape[1],):
        raise ValueError(f"expected input of length {p.w0.shape[1]}, got {x.shape}")
    hidden = np.maximum(p.w0 @ x + p.b0, 0.0)
    return float(p.w1 @ hidden + p.b1)


def neural_force(p: NeuralSpringParams, observed_sign: int, z: np.ndarray) -> float:
    """Dispatch the edge feature vector to the per-sign force net."""
    net = {0: p.f_neutral, 1: p.f_positive, -1: p.f_negative}[observed_sign]
    return mlp_eval(net, z)


def neural_gain(p: NeuralSpringParams, node_features: np.ndarray) -> float:
    return mlp_eval(p.gain_net, node_features)


def pair_distance(x_i: np.ndarray, x_j: np.ndarray) -> float:
    """Euclidean distance between two embedding vectors."""
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if x_i.shape != x_j.shape:
        raise ValueError("vectors must have equal length")
    return float(np.sqrt(((x_i - x_j) ** 2).sum()))


def edge_force(f_val: float, x_i: np.ndarray, x_j: np.ndarray, eps: float = EPS,
               edge_index: int = 0, step: int = 0, seed: int = 0) -> np.ndarray:
    """Force vector f_val * unit(x_j - x_i), with a random unit at distance < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    diff = x_j - x_i
    dist = float(np.sqrt((diff ** 2).sum()))
    if dist < eps:
        unit = tie_break_unit(x_i.shape[0], edge_index, step, seed)
    else:
        unit = diff / dist
    return f_val * unit


def stage_back(graph: SignedGraph) -> EdgeStage:
    """View an undirected graph as a directed stage (one instance per edge)."""
    return EdgeStage(graph.n_nodes, graph.u.copy(), graph.v.copy(),
                     graph.true_sign.copy(), graph.raw_ids)


def load_edge_list_by_line(source, fmt: str = "plain") -> EdgeStage:
    """The edge-list loader one line at a time: the library's per-line grammar
    (`_parse_plain` / `_parse_rating_csv`) and a dict of first appearances."""
    parse = graphs._PARSERS[fmt]
    id_map: dict[int, int] = {}
    src, dst, sign = [], [], []
    for lineno, raw_line in enumerate(source, start=1):
        if isinstance(raw_line, bytes):
            raw_line = raw_line.decode("utf-8")
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        s_raw, t_raw, sgn = parse(line, lineno)
        for node in (s_raw, t_raw):
            if node not in id_map:
                id_map[node] = len(id_map)
        src.append(id_map[s_raw])
        dst.append(id_map[t_raw])
        sign.append(sgn)
    if not src:
        raise GraphFormatError("empty input: no edges parsed")
    return EdgeStage(
        n_nodes=len(id_map),
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        sign=np.asarray(sign, dtype=np.int8),
        raw_ids=np.fromiter(id_map.keys(), dtype=np.int64, count=len(id_map)),
    )


def to_undirected_by_unique(stage: EdgeStage) -> SignedGraph:
    """Undirected merge through a stable sort and np.unique of the pair codes."""
    keep = stage.src != stage.dst
    lo = np.minimum(stage.src[keep], stage.dst[keep])
    hi = np.maximum(stage.src[keep], stage.dst[keep])
    if lo.shape[0] == 0:
        empty = np.zeros(0, dtype=np.int64)
        return SignedGraph(stage.n_nodes, empty, empty,
                           np.zeros(0, np.int8), np.zeros(0, np.int8), stage.raw_ids)
    code = lo * np.int64(stage.n_nodes) + hi
    order = np.argsort(code, kind="stable")
    uniq_code, start = np.unique(code[order], return_index=True)
    merged_sign = np.minimum.reduceat(stage.sign[keep][order].astype(np.int8), start)
    u = (uniq_code // stage.n_nodes).astype(np.int64)
    v = (uniq_code % stage.n_nodes).astype(np.int64)
    return SignedGraph(stage.n_nodes, u, v, merged_sign, merged_sign.copy(), stage.raw_ids)
