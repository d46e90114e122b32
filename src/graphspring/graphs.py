"""Signed-graph loading, normalization, sign hiding and static node features."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable

import numpy as np

from . import rng

HIDE_TAG = "hide"


class GraphFormatError(ValueError):
    """Raised when an edge-list stream cannot be parsed."""


@dataclass(frozen=True)
class EdgeStage:
    """Directed edges as read from a file, before undirected merging.

    Raw node identifiers are remapped to dense ids in [0, n_nodes); the
    original ids are kept in `raw_ids` (raw_ids[dense] = raw).  Edge order
    equals line order in the source.
    """

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    sign: np.ndarray
    raw_ids: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.src.shape[0])


@dataclass(frozen=True)
class SignedGraph:
    """Immutable sparse undirected graph with true and observed edge signs.

    Each unordered pair {u, v} appears exactly once with u < v, sorted by
    (u, v).  `true_sign` is in {-1, +1}; `observed_sign` equals the true sign
    or 0 for a hidden edge.  Hidden edges stay in the graph and adjacency.
    """

    n_nodes: int
    u: np.ndarray
    v: np.ndarray
    true_sign: np.ndarray
    observed_sign: np.ndarray
    raw_ids: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.raw_ids is None:
            object.__setattr__(self, "raw_ids", np.arange(self.n_nodes, dtype=np.int64))
        self.validate()

    def validate(self) -> None:
        m = self.n_edges
        for name in ("u", "v", "true_sign", "observed_sign"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} has wrong shape")
        if m:
            if not (self.u < self.v).all():
                raise ValueError("edges must satisfy u < v (no self-loops, one row per pair)")
            if self.u.min() < 0 or self.v.max() >= self.n_nodes:
                raise ValueError("node index out of range")
            pair_codes = self.u.astype(np.int64) * self.n_nodes + self.v
            if np.unique(pair_codes).shape[0] != m:
                raise ValueError("duplicate undirected edge")
        if not np.isin(self.true_sign, (-1, 1)).all():
            raise ValueError("true_sign must be -1 or +1")
        flip = (self.observed_sign != 0) & (self.observed_sign != self.true_sign)
        if flip.any():
            raise ValueError("observed_sign may only equal true_sign or 0")

    @property
    def n_edges(self) -> int:
        return int(self.u.shape[0])

    @cached_property
    def degrees(self) -> np.ndarray:
        both = np.concatenate([self.u, self.v])
        return np.bincount(both, minlength=self.n_nodes).astype(np.int64)

    def hidden_edges(self) -> np.ndarray:
        return np.flatnonzero(self.observed_sign == 0)

    def with_observed(self, observed: np.ndarray) -> "SignedGraph":
        return SignedGraph(self.n_nodes, self.u, self.v, self.true_sign,
                           observed.astype(np.int8), self.raw_ids)


@dataclass(frozen=True)
class SplitSpec:
    """Reproducible sign-hiding policy.

    `exact` hides exactly ceil(p_hidden * n_edges) edges (the ones with the
    smallest stream draws) instead of an independent Bernoulli per edge.
    """

    p_hidden: float
    seed: int
    exact: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p_hidden <= 1.0:
            raise ValueError(f"p_hidden must be in [0, 1], got {self.p_hidden}")


@dataclass(frozen=True)
class NodeStatics:
    """Per-node degree and observed-sign fractions, plus the degree 80th percentile.

    Fractions are counted over observed signs only, with the full degree as
    denominator, so hidden edges dilute both fractions.
    """

    deg: np.ndarray
    neg_frac: np.ndarray
    pos_frac: np.ndarray
    p80: float


def _parse_plain(line: str, lineno: int) -> tuple[int, int, int]:
    parts = line.replace(",", " ").split()
    if len(parts) != 3:
        raise GraphFormatError(f"line {lineno}: expected 'src dst sign', got {line!r}")
    try:
        s, t, sign = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-integer field in {line!r}") from None
    if sign not in (-1, 1):
        raise GraphFormatError(f"line {lineno}: sign must be -1 or 1, got {sign}")
    return s, t, sign


def _parse_rating_csv(line: str, lineno: int) -> tuple[int, int, int]:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) not in (3, 4):
        raise GraphFormatError(f"line {lineno}: expected 'src,dst,rating[,timestamp]', got {line!r}")
    try:
        s, t, rating = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-integer field in {line!r}") from None
    if rating == 0:
        raise GraphFormatError(f"line {lineno}: rating 0 has no sign")
    return s, t, 1 if rating > 0 else -1


_PARSERS = {"plain": _parse_plain, "rating_csv": _parse_rating_csv}


def load_edge_list(source: IO[bytes] | IO[str] | Iterable[str], fmt: str = "plain") -> EdgeStage:
    """Parse a directed signed edge list.

    `plain` lines are "src dst sign" (whitespace or comma separated, sign in
    {-1, 1}); `rating_csv` lines are "src,dst,rating[,timestamp]" with a
    nonzero integer rating whose sign becomes the edge sign.  Lines starting
    with '#' and blank lines are skipped.  Raw ids are remapped to dense ids
    in order of first appearance.
    """
    if fmt not in _PARSERS:
        raise ValueError(f"unknown format {fmt!r} (expected one of {sorted(_PARSERS)})")
    parse = _PARSERS[fmt]

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
    raw_ids = np.fromiter(id_map.keys(), dtype=np.int64, count=len(id_map))
    return EdgeStage(
        n_nodes=len(id_map),
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        sign=np.asarray(sign, dtype=np.int8),
        raw_ids=raw_ids,
    )


def to_undirected(stage: EdgeStage) -> SignedGraph:
    """Merge directed edges into one undirected edge per pair.

    A pair with any negative directed instance becomes negative; self-loops
    are dropped; the result is sorted by (min id, max id).
    """
    keep = stage.src != stage.dst
    lo = np.minimum(stage.src[keep], stage.dst[keep])
    hi = np.maximum(stage.src[keep], stage.dst[keep])
    sgn = stage.sign[keep]

    if lo.shape[0] == 0:
        empty = np.zeros(0, dtype=np.int64)
        return SignedGraph(stage.n_nodes, empty, empty,
                           np.zeros(0, np.int8), np.zeros(0, np.int8), stage.raw_ids)

    code = lo * np.int64(stage.n_nodes) + hi
    order = np.argsort(code, kind="stable")
    code_s, sgn_s = code[order], sgn[order]
    uniq_code, start = np.unique(code_s, return_index=True)
    # a pair is negative iff the minimum sign over its duplicates is -1
    merged_sign = np.minimum.reduceat(sgn_s.astype(np.int8), start)
    u = (uniq_code // stage.n_nodes).astype(np.int64)
    v = (uniq_code % stage.n_nodes).astype(np.int64)
    return SignedGraph(stage.n_nodes, u, v, merged_sign, merged_sign.copy(), stage.raw_ids)


def hide_signs(graph: SignedGraph, spec: SplitSpec) -> tuple[SignedGraph, np.ndarray]:
    """Zero out observed signs of a reproducible random subset of edges.

    Each edge's draw is uniform01(seed, "hide", edge index); an edge is hidden
    when its draw < p_hidden (or, with `exact`, when its draw ranks among the
    ceil(p_hidden * m) smallest).  Hidden edges keep their true sign and stay
    in the adjacency.
    """
    if (graph.observed_sign != graph.true_sign).any():
        raise ValueError("hide_signs expects a graph whose signs are not yet hidden")
    m = graph.n_edges
    if m == 0:
        return graph, np.zeros(0, dtype=np.int64)
    draws = rng.uniform01(spec.seed, HIDE_TAG, np.arange(m))
    if spec.exact:
        n_hide = math.ceil(spec.p_hidden * m)
        hidden = np.sort(np.argsort(draws, kind="stable")[:n_hide]).astype(np.int64)
    else:
        hidden = np.flatnonzero(draws < spec.p_hidden).astype(np.int64)
    observed = graph.true_sign.copy()
    observed[hidden] = 0
    return graph.with_observed(observed), hidden


def nearest_rank_percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th order statistic (1-based)."""
    if values.size == 0:
        return 0.0
    k = max(1, math.ceil(q * values.size))
    return float(np.sort(values)[k - 1])


def compute_node_statics(graph: SignedGraph) -> NodeStatics:
    """Degree, observed negative/positive fractions, and degree 80th percentile."""
    deg = graph.degrees
    neg = np.zeros(graph.n_nodes, dtype=np.int64)
    pos = np.zeros(graph.n_nodes, dtype=np.int64)
    for sign_val, counts in ((-1, neg), (1, pos)):
        mask = graph.observed_sign == sign_val
        endpoints = np.concatenate([graph.u[mask], graph.v[mask]])
        counts += np.bincount(endpoints, minlength=graph.n_nodes)
    safe_deg = np.maximum(deg, 1)
    return NodeStatics(
        deg=deg,
        neg_frac=neg / safe_deg,
        pos_frac=pos / safe_deg,
        p80=nearest_rank_percentile(deg, 0.8),
    )


def dump_graph(graph: SignedGraph) -> str:
    """Canonical text dump: '# n_nodes N' then sorted 'u v true observed' lines."""
    lines = [f"# n_nodes {graph.n_nodes}"]
    for u, v, t, o in zip(graph.u, graph.v, graph.true_sign, graph.observed_sign):
        lines.append(f"{u} {v} {t} {o}")
    return "\n".join(lines) + "\n"


def parse_graph_dump(text: str) -> SignedGraph:
    """Inverse of dump_graph; n_nodes falls back to max id + 1 if no header."""
    n_nodes = None
    u, v, t, o = [], [], [], []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "n_nodes":
                n_nodes = int(parts[1])
            continue
        parts = line.split()
        if len(parts) != 4:
            raise GraphFormatError(f"line {lineno}: expected 'u v true observed'")
        u.append(int(parts[0]))
        v.append(int(parts[1]))
        t.append(int(parts[2]))
        o.append(int(parts[3]))
    u_arr = np.asarray(u, dtype=np.int64)
    v_arr = np.asarray(v, dtype=np.int64)
    if n_nodes is None:
        n_nodes = int(max(u_arr.max(initial=-1), v_arr.max(initial=-1)) + 1)
    return SignedGraph(n_nodes, u_arr, v_arr,
                       np.asarray(t, dtype=np.int8), np.asarray(o, dtype=np.int8))
