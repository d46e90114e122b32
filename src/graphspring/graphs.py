"""Signed-graph loading, normalization, sign hiding and static node features."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, islice
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
            # sorted by (u, v) as documented, distinct pairs strictly increase;
            # only unsorted input needs the sort
            if not (pair_codes[1:] > pair_codes[:-1]).all() \
                    and np.unique(pair_codes).shape[0] != m:
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
    """Reproducible sign-hiding policy: each edge is hidden by its own draw."""

    p_hidden: float
    seed: int

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


# Ids are stored as int64; a line naming an id outside that range is a format error.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _check_ids(s: int, t: int, line: str, lineno: int) -> None:
    if not (_INT64_MIN <= s <= _INT64_MAX and _INT64_MIN <= t <= _INT64_MAX):
        raise GraphFormatError(f"line {lineno}: node id outside the int64 range in {line!r}")


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
    _check_ids(s, t, line, lineno)
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
    _check_ids(s, t, line, lineno)
    return s, t, 1 if rating > 0 else -1


_PARSERS = {"plain": _parse_plain, "rating_csv": _parse_rating_csv}
FORMATS = tuple(_PARSERS)

# lines parsed per chunk: enough that numpy's per-call cost is small against the
# chunk, few enough that the chunk's line strings and temporaries stay small
CHUNK_LINES = 4096


def _parse_chunk_bulk(lines: list, fmt: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse a chunk of lines with array operations and np.loadtxt.

    Returns the raw (src, dst) ids of its edge lines as an (r, 2) int64 array
    and their int8 signs.  Returns None, leaving the chunk to the per-line
    grammar, unless
      - the chunk is ASCII, holds no control byte but tabs, a line break
        ("\\n", "\\r\\n" or "\\r") only at a line's end, and no run of
        more than 18 digits, so every value fits in int64;
      - each line is blank, starts with '#' after blanks, or is an edge line
        whose parsed fields (the whole line for plain; for rating_csv, which
        needs 2 or 3 commas, up to a third comma) hold only digits, '+',
        '-', ',' and blanks;
      - np.loadtxt reads each edge line as one row, and the sign rule accepts
        its value.
    On such lines np.loadtxt reads the values that int() reads.
    """
    sep = "\0" if isinstance(lines[0], str) else b"\0"
    try:
        text = sep.join(lines)
    except TypeError:  # str and bytes lines mixed
        return None
    if not text.isascii():
        return None
    if isinstance(text, bytes):
        text = text.decode("ascii")
    buf = np.frombuffer(text.encode("ascii") + b"\0", dtype=np.uint8)
    ends = np.flatnonzero(buf == 0)
    if ends.size != len(lines):  # a line holds a NUL
        return None

    byte, after = buf[:-1], buf[1:]
    if (((byte < 32) & (byte != 0) & (byte != 9) & (byte != 10) & (byte != 13)).any()
            or ((byte == 10) & (after != 0)).any()
            or ((byte == 13) & (after != 0) & (after != 10)).any()
            or b"\1" * 19 in ((buf >= ord("0")) & (buf <= ord("9"))).tobytes()):
        return None

    starts = np.concatenate(([0], ends[:-1] + 1))
    # an edge line is one that is not blank and does not start with '#'
    lead = starts
    if (buf[starts] <= 32).any():
        solid = np.append(np.flatnonzero(buf > 32), buf.size)
        lead = solid[np.searchsorted(solid, starts)]
    edge = (lead < ends) & (buf[np.minimum(lead, ends)] != ord("#"))
    n_edges = int(np.count_nonzero(edge))
    if n_edges == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int8)

    field_end = ends
    if fmt == "rating_csv":
        commas = np.flatnonzero(buf == ord(","))
        up_to = np.searchsorted(commas, ends)
        n_commas = np.diff(up_to, prepend=0)
        if ((n_commas[edge] != 2) & (n_commas[edge] != 3)).any():
            return None
        # a timestamp after the third comma is never parsed, so it may hold any text
        third = commas[np.minimum(up_to - n_commas + 2, commas.size - 1)]
        field_end = np.where(n_commas == 3, third, ends)
    # parsed fields hold only digits, '+', '-', ',' and blanks, on which
    # np.loadtxt reads nothing but decimal integers
    odd = np.flatnonzero((buf > ord("9")) | ((buf > ord(" ")) & (buf < ord("0"))
                                             & (buf != ord("+")) & (buf != ord(","))
                                             & (buf != ord("-"))))
    if (np.searchsorted(odd, field_end[edge]) != np.searchsorted(odd, starts[edge])).any():
        return None

    rows = lines
    if fmt == "plain" and "," in text:
        # commas separate like blanks, so an edge line needs a digit to hold a field
        digit = np.flatnonzero((buf >= ord("0")) & (buf <= ord("9")))
        if (np.searchsorted(digit, ends[edge]) == np.searchsorted(digit, starts[edge])).any():
            return None
        rows = text.replace(",", " ").split("\0")
    if n_edges < len(lines):
        rows = list(compress(rows, edge))
    try:
        table = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2,
                           delimiter="," if fmt == "rating_csv" else None,
                           usecols=(0, 1, 2) if fmt == "rating_csv" else None)
    except ValueError:
        return None
    if table.shape != (n_edges, 3):  # such as plain lines of four fields
        return None
    value = table[:, 2]
    if fmt == "rating_csv":
        if not value.all():
            return None
    elif ((value != 1) & (value != -1)).any():
        return None
    return table[:, :2], np.sign(value).astype(np.int8)


def _parse_chunk_by_line(lines: list, first_lineno: int,
                         parse) -> tuple[np.ndarray, np.ndarray]:
    """The chunk through the per-line grammar; raises on its first bad line."""
    ends, signs = [], []
    for lineno, raw_line in enumerate(lines, start=first_lineno):
        if isinstance(raw_line, bytes):
            raw_line = raw_line.decode("utf-8")
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        s, t, sign = parse(line, lineno)
        ends += (s, t)
        signs.append(sign)
    return (np.array(ends, dtype=np.int64).reshape(-1, 2),
            np.array(signs, dtype=np.int8))


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a sorted array."""
    first = np.empty(sorted_values.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return np.flatnonzero(first)


def load_edge_list(source: IO[bytes] | IO[str] | Iterable[str], fmt: str = "plain") -> EdgeStage:
    """Parse a directed signed edge list.

    `plain` lines are "src dst sign" (whitespace or comma separated, sign in
    {-1, 1}); `rating_csv` lines are "src,dst,rating[,timestamp]" with a
    nonzero integer rating whose sign becomes the edge sign.  Lines starting
    with '#' and blank lines are skipped.  Ids must fit in int64.  Raw ids are
    remapped to dense ids in order of first appearance.

    The source is read CHUNK_LINES lines at a time.  A chunk is parsed with
    array operations where it can be, and otherwise line by line with
    `_parse_plain` / `_parse_rating_csv`, which define the grammar and its
    errors; both give the same edges.
    """
    if fmt not in _PARSERS:
        raise ValueError(f"unknown format {fmt!r} (expected one of {list(FORMATS)})")
    parse = _PARSERS[fmt]

    lines = iter(source)
    pairs, signs = [], []
    first_lineno = 1
    while chunk := list(islice(lines, CHUNK_LINES)):
        parsed = _parse_chunk_bulk(chunk, fmt)
        if parsed is None:
            parsed = _parse_chunk_by_line(chunk, first_lineno, parse)
        pairs.append(parsed[0])
        signs.append(parsed[1])
        first_lineno += len(chunk)
        del chunk, parsed  # before the next chunk's lines are read
    sign = np.concatenate(signs) if signs else np.zeros(0, dtype=np.int8)
    if sign.size == 0:
        raise GraphFormatError("empty input: no edges parsed")

    # dense ids in order of first appearance, from one sort of the endpoints
    # in line order (src, dst, src, dst, ...); temporaries go as soon as they
    # are used, since this is where loading peaks in memory
    ids = np.concatenate(pairs).ravel()
    del pairs
    order = np.argsort(ids)
    ranked = ids[order]
    del ids
    runs = _run_starts(ranked)
    raw_sorted = ranked[runs]
    del ranked
    appearance = np.argsort(np.minimum.reduceat(order, runs))
    raw_ids = raw_sorted[appearance]
    del raw_sorted
    dense_of_run = np.empty(runs.size, dtype=np.int64)
    dense_of_run[appearance] = np.arange(runs.size, dtype=np.int64)
    del appearance
    run_lengths = np.diff(runs, append=order.size)
    del runs
    dense = np.empty(order.size, dtype=np.int64)
    dense[order] = np.repeat(dense_of_run, run_lengths)
    del order
    return EdgeStage(
        n_nodes=int(raw_ids.size),
        src=dense[0::2].copy(),
        dst=dense[1::2].copy(),
        sign=sign,
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
    code = lo * np.int64(stage.n_nodes) + hi
    # the order among a pair's duplicates does not matter to the minimum below
    order = np.argsort(code)
    code_s, sgn_s = code[order], sgn[order]
    start = _run_starts(code_s)
    uniq_code = code_s[start]
    # a pair is negative iff the minimum sign over its duplicates is -1
    merged_sign = np.minimum.reduceat(sgn_s.astype(np.int8), start)
    u = (uniq_code // stage.n_nodes).astype(np.int64)
    v = (uniq_code % stage.n_nodes).astype(np.int64)
    return SignedGraph(stage.n_nodes, u, v, merged_sign, merged_sign.copy(), stage.raw_ids)


def hide_signs(graph: SignedGraph, spec: SplitSpec) -> tuple[SignedGraph, np.ndarray]:
    """Zero out observed signs of a reproducible random subset of edges.

    Each edge's draw is uniform01(seed, "hide", edge index); an edge is hidden
    when its draw < p_hidden.  Hidden edges keep their true sign and stay in
    the adjacency.
    """
    if (graph.observed_sign != graph.true_sign).any():
        raise ValueError("hide_signs expects a graph whose signs are not yet hidden")
    draws = rng.uniform01(spec.seed, HIDE_TAG, np.arange(graph.n_edges))
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
    rows = zip(graph.u.tolist(), graph.v.tolist(), graph.true_sign.tolist(),
               graph.observed_sign.tolist())
    lines = [f"# n_nodes {graph.n_nodes}", *(f"{u} {v} {t} {o}" for u, v, t, o in rows)]
    return "\n".join(lines) + "\n"


def parse_graph_dump(text: str) -> SignedGraph:
    """Inverse of dump_graph; n_nodes falls back to max id + 1 if no header.
    A malformed line, or a header after an edge line or after another header,
    raises GraphFormatError naming its number."""
    n_nodes = None
    u, v, t, o = [], [], [], []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["n_nodes"]:
                if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) >= 2 ** 63:
                    raise GraphFormatError(f"line {lineno}: bad header, expected '# n_nodes N'")
                if n_nodes is not None or u:
                    raise GraphFormatError(f"line {lineno}: the '# n_nodes' header must come "
                                           "once, before the first edge line")
                n_nodes = int(parts[1])
            continue
        try:
            a, b, true, observed = map(int, line.split())
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected four integers "
                                   "'u v true observed'") from None
        if not (0 <= a < b < (2 ** 63 if n_nodes is None else n_nodes)
                and true in (-1, 1) and observed in (0, true)):
            raise GraphFormatError(f"line {lineno}: expected 0 <= u < v < n_nodes, true sign "
                                   "-1 or 1 and observed sign 0 or the true sign")
        u.append(a)
        v.append(b)
        t.append(true)
        o.append(observed)
    u_arr = np.asarray(u, dtype=np.int64)
    v_arr = np.asarray(v, dtype=np.int64)
    if n_nodes is None:
        n_nodes = int(max(u_arr.max(initial=-1), v_arr.max(initial=-1)) + 1)
    return SignedGraph(n_nodes, u_arr, v_arr,
                       np.asarray(t, dtype=np.int8), np.asarray(o, dtype=np.int8))
