"""Force-field evaluation over a signed graph in O(edges * dims).

Every edge pulls its endpoints along the line between them with a magnitude
that depends on distance alone (and, for the neural model, on static node
features), so the net force is a weighted graph Laplacian applied to the
positions:

    F = g * (A X - rowsum(A) * X),   A[u, v] = f_uv(d) / d,   A[v, u] = f_vu(d) / d,

where d is the edge length and g the per-node gain.  The magnitude toward
each endpoint is evaluated from that endpoint's viewpoint (the feature vector
swaps its node order), so A is symmetric in structure but not in value for
the neural model.  This is the form spring and stress layouts are written in
(Koren, "Drawing graphs by eigenvectors", 2005; Gansner, Koren & North,
"Graph drawing by stress majorization", 2004).  `prepare` builds the sparse
structure of A - diag(rowsum(A)) once; each evaluation fills in its 2m edge
weights and n diagonal entries, folds the gain into them by row, and adds the
product with X straight into the caller's array (`out += M @ X`, scipy's CSR
kernel, no zero-filled result), with a fixed, reproducible accumulation
order.  The caller may pass the gain vector times a constant (`node_gain`):
the integrator passes dt times the gain and adds dt F into its velocities.
An edge whose endpoints are closer than EPS has weight 0 in A and instead
pushes its endpoints along a seeded tie-break unit vector.

Both operators check their arguments (`_checked`) before any work, and take
the edge lengths that `force_field` handed out (`lengths=`) instead of
computing them again, with bitwise the same result.  The CSR
kernel is scipy's private `csr_matvecs`, resolved when the module loads
beside `csc_matvecs`, which the loss gradient uses: a scipy without either
fails the import.

The edge vectors X[v] - X[u] are never held for all edges at once: they are
formed block by block in two gather buffers of BLOCK_BYTES each (512 edges at
k = 64), and only the per-edge scalars that the rest of the pass needs (the
length d and, in the VJP, the products of the cotangent rows with the edge
vector) are kept.  One call therefore needs O(n k + m) memory: the result,
if the caller passes none, a few dozen floats per edge and the two buffers,
not the m x k edge vectors.

`force_field_vjp` is the exact reverse-mode counterpart: given the gradient
w of a scalar objective with respect to the returned force matrix, it
recomputes the edge geometry from the same positions and returns the
gradients with respect to positions and the flat parameter vector.  With
s the per-edge products of w with the edge vector and t = (dL/dd) / d (0 on
tie-broken edges), the position gradient is

    dX = (A - diag(rowsum(A)))^T diag(g) w - (T - diag(rowsum(T))) X,
    T[u, v] = T[v, u] = t,

two more products on the same structure, both added into the caller's
array: the first with g folded into the values by column, the second with
the weights -t.  One MLP pass per direction gives the magnitudes, their
parameter gradient and df/dd together.

`prepare` splits the edges by observed sign once, and each evaluation hands
every `SignGroup` to `forces` as one batch; the model kind and the edge
feature layout belong to `forces`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse as sp


def _scipy_kernel(name: str):
    """scipy's private sparse kernel `name`.  A second product path would round
    differently, so a scipy without it is refused here rather than worked around."""
    try:
        return getattr(importlib.import_module("scipy.sparse._sparsetools"), name)
    except (ImportError, AttributeError):
        raise ImportError(f"graphspring needs scipy.sparse._sparsetools.{name}, "
                          f"which scipy {scipy.__version__} does not provide") from None


# the field's products (CSR) and the loss gradient's scatter (CSC, in training)
_csr_matvecs, _csc_matvecs = _scipy_kernel("csr_matvecs"), _scipy_kernel("csc_matvecs")

from . import rng
from .forces import (ForceParams, edge_statics, force_batch, force_batch_vjp,
                     gain_batch, gain_batch_vjp)
from .graphs import NodeStatics, SignedGraph

TIE_TAG = "tiebreak"
# endpoints closer than this are coincident and use the tie-break direction
EPS = 1e-9
# size of each of the two buffers the edge vectors are streamed through: small
# enough to stay in cache, large enough that the per-block calls are cheap
BLOCK_BYTES = 256 * 1024


def _block_rows(n_rows: int, k: int) -> int:
    """Rows of k float64 values in a block of BLOCK_BYTES: at least 1, at most n_rows."""
    return max(1, min(n_rows, BLOCK_BYTES // (8 * k)))


@dataclass(frozen=True)
class SignGroup:
    """The edges of one observed sign, with their edge feature matrices."""

    edges: np.ndarray           # (m_s,) edge indices
    sign: int                   # the observed sign: 0, 1 or -1
    features_fwd: np.ndarray    # (m_s, 7) forces.edge_statics seen from u; each
    features_rev: np.ndarray    # call writes the lengths into column 0; from v


@dataclass(frozen=True)
class FieldContext:
    """Edge endpoints, the Laplacian structure and the edge features.

    Every operator call writes its edge lengths into the groups' feature
    matrices, so one thread uses a context at a time: `eval --threads` builds
    one per seed."""

    n_nodes: int
    n_edges: int
    u: np.ndarray               # (m,) edge endpoints, u < v
    v: np.ndarray
    lap_indptr: np.ndarray      # CSR structure of the (n, n) graph Laplacian:
    lap_indices: np.ndarray     # both directions of every edge plus the diagonal
    order: np.ndarray           # (2m + n,) per CSR slot, its index in [(v, u)
                                # per edge; (i, i) per node; (u, v) per edge]
    groups: tuple[SignGroup, ...]
    node_features: np.ndarray   # (n, 3) [deg_norm, neg_frac, pos_frac]


def prepare(graph: SignedGraph, statics: NodeStatics) -> FieldContext:
    """Build the reusable evaluation context for a (graph, statics) pair."""
    n, m = graph.n_nodes, graph.n_edges
    u, v = graph.u, graph.v
    # each stored value names the pair that landed in its slot; the pairs are
    # distinct (u < v, sorted), and in this order every row's columns ascend,
    # so the conversion neither sums nor sorts
    nodes = np.arange(n)
    pattern = sp.csr_matrix(
        (np.arange(1.0, 2 * m + n + 1),
         (np.concatenate([v, nodes, u]), np.concatenate([u, nodes, v]))),
        shape=(n, n))
    order = pattern.data.astype(np.int64) - 1

    if m > 0 and statics.p80 <= 0:
        raise ValueError("p80 must be positive for a graph with edges")
    deg_norm = np.minimum(1.0, statics.deg / statics.p80) if m else np.zeros(n)
    node_features = np.column_stack([deg_norm, statics.neg_frac, statics.pos_frac])

    groups = []
    for sign in (0, 1, -1):
        e = np.flatnonzero(graph.observed_sign == sign)
        if e.size:
            groups.append(SignGroup(e, sign, edge_statics(node_features, u[e], v[e]),
                                    edge_statics(node_features, v[e], u[e])))
    return FieldContext(
        n_nodes=n, n_edges=m, u=u, v=v,
        lap_indptr=pattern.indptr, lap_indices=pattern.indices, order=order,
        groups=tuple(groups), node_features=node_features)


def _rowsum(ctx: FieldContext, at_uv: np.ndarray, at_vu: np.ndarray) -> np.ndarray:
    """Row sums of the adjacency with at_uv[e] at (u, v) and at_vu[e] at (v, u)."""
    return (np.bincount(ctx.u, at_uv, ctx.n_nodes)
            + np.bincount(ctx.v, at_vu, ctx.n_nodes))


def _values(ctx: FieldContext, at_uv: np.ndarray, at_vu: np.ndarray,
            diag: np.ndarray) -> np.ndarray:
    """The stored values, in CSR slot order, of the (n, n) matrix on the prepared
    Laplacian structure with at_uv[e] at (u, v) and at_vu[e] at (v, u) for each
    edge e, and diag on the diagonal."""
    return np.take(np.concatenate([at_vu, diag, at_uv]), ctx.order)


def _accumulate(out: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                data: np.ndarray, rhs: np.ndarray) -> None:
    """out += M @ rhs in place, for the CSR matrix M = (data, indices, indptr).

    scipy's CSR kernel adds each product straight into `out`, in the same order
    as `M @ rhs`, with no matrix object and no zero-filled result."""
    rhs = np.ascontiguousarray(rhs, dtype=np.float64)
    # the kernel writes through raw pointers: check what it cannot
    if (out.dtype != np.float64 or not out.flags.c_contiguous
            or out.shape != (indptr.size - 1, rhs.shape[1])):
        raise ValueError("out must be a C-contiguous float64 array with a row per "
                         "row of M and a column per column of rhs")
    _csr_matvecs(out.shape[0], rhs.shape[0], out.shape[1], indptr, indices, data,
                 rhs.ravel(), out.ravel())


def node_gain(ctx: FieldContext, model: ForceParams, factor: float = 1.0) -> np.ndarray:
    """The model's (n,) per-node gain times `factor`."""
    return gain_batch(model, ctx.node_features) * factor


def _checked(ctx: FieldContext, X: np.ndarray, w: np.ndarray | None,
             gain: np.ndarray | None, out: np.ndarray | None,
             lengths: np.ndarray | None = None):
    """X and w as C-contiguous float64 arrays, once the operators' preconditions
    hold: X is (n, k), w (if given) has its shape, the gain (if given) is (n,),
    the lengths (if given) are a float64 array of shape (m,), and `out` (if
    given) is a C-contiguous float64 array of X's shape sharing no memory with
    X or w.  Raises ValueError naming the shapes."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != ctx.n_nodes:
        raise ValueError(f"X has shape {X.shape}, expected ({ctx.n_nodes}, k) "
                         f"for a graph of {ctx.n_nodes} nodes")
    if gain is not None and np.shape(gain) != (ctx.n_nodes,):
        raise ValueError(f"gain has shape {np.shape(gain)}, expected ({ctx.n_nodes},)")
    if lengths is not None and np.shape(lengths) != (ctx.n_edges,):
        raise ValueError(f"lengths have shape {np.shape(lengths)}, expected ({ctx.n_edges},)")
    if lengths is not None and getattr(lengths, "dtype", None) != np.float64:
        raise ValueError(f"lengths are {getattr(lengths, 'dtype', type(lengths).__name__)}, "
                         f"expected a float64 array")
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.flags.c_contiguous and out.shape == X.shape):
        got = (f"{out.dtype} of shape {out.shape}, C-contiguous {out.flags.c_contiguous}"
               if isinstance(out, np.ndarray) else type(out).__name__)
        raise ValueError(f"out is {got}; expected C-contiguous float64 of shape {X.shape}")
    if out is not None and np.may_share_memory(out, X):
        raise ValueError("out shares memory with X")
    if w is not None:
        w = np.ascontiguousarray(w, dtype=np.float64)
        if w.shape != X.shape:
            raise ValueError(f"w has shape {w.shape}, X has shape {X.shape}")
        if out is not None and np.may_share_memory(out, w):
            raise ValueError("out shares memory with w")
    return X, w


def _geometry(ctx: FieldContext, X: np.ndarray, w: np.ndarray | None = None,
              dist: np.ndarray | None = None):
    """Per undirected edge: the length d of X[v] - X[u], the coincidence mask
    d < EPS and, for a cotangent w, the products s_u = w[u] . (X[v] - X[u]) and
    s_v = w[v] . (X[v] - X[u]) (None without w).  Given `dist`, the lengths at
    X as an earlier call computed them, it returns that array and computes
    only the products.

    The edge vectors are formed a block of edges at a time in two reused
    buffers of BLOCK_BYTES each; every row comes out exactly as it would over
    the whole edge array.  Overflow from an already-diverging state is tolerated here; the simulator
    aborts on the resulting non-finite values right after the update.
    """
    m, k = ctx.n_edges, X.shape[1]
    rows = _block_rows(m, k)
    at_u, at_v = np.empty((rows, k)), np.empty((rows, k))
    known = dist is not None
    if not known:
        dist = np.empty(m)
    s_u, s_v = (None, None) if w is None else (np.empty(m), np.empty(m))
    # mode="clip" lets take write into `out` unbuffered; the indices are in range.
    # The method skips np.take's Python wrapper, a microsecond on each of the
    # call's 2 (VJP: 4) takes per block
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            u, v = ctx.u[lo:hi], ctx.v[lo:hi]
            gathered, diff = at_u[:hi - lo], at_v[:hi - lo]
            X.take(u, axis=0, out=gathered, mode="clip")
            X.take(v, axis=0, out=diff, mode="clip")
            np.subtract(diff, gathered, out=diff)
            if not known:
                np.einsum("ij,ij->i", diff, diff, out=dist[lo:hi])
            if w is not None:
                w.take(u, axis=0, out=gathered, mode="clip")
                np.einsum("ij,ij->i", gathered, diff, out=s_u[lo:hi])
                w.take(v, axis=0, out=gathered, mode="clip")
                np.einsum("ij,ij->i", gathered, diff, out=s_v[lo:hi])
        if not known:
            np.sqrt(dist, out=dist)
    return dist, dist < EPS, s_u, s_v


def _tie_units(tied: np.ndarray, k: int, seed: int, step: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """The tie-broken edges and their unit directions, one row each.

    Edge e's row is draws e*k .. e*k + k-1 of the (seed, "tiebreak:<step>")
    stream, normalized.  Every draw is an odd multiple of 2**-53, so no row is 0.
    """
    edges = np.flatnonzero(tied)
    raw = rng.uniform_sym(seed, f"{TIE_TAG}:{step}", edges[:, None] * k + np.arange(k))
    return edges, raw / np.sqrt((raw ** 2).sum(axis=1, keepdims=True))


def _magnitudes(ctx: FieldContext, model: ForceParams, dist: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Force magnitude per edge from each endpoint's viewpoint (f_uv, f_vu)."""
    f_fwd, f_rev = np.empty(ctx.n_edges), np.empty(ctx.n_edges)
    for grp in ctx.groups:
        e = grp.edges
        f_fwd[e], f_rev[e] = force_batch(model, grp.sign, dist[e],
                                         grp.features_fwd, grp.features_rev)
    return f_fwd, f_rev


def _magnitudes_vjp(ctx: FieldContext, model: ForceParams, dist: np.ndarray,
                    up_fwd: np.ndarray, up_rev: np.ndarray):
    """(f_uv, f_vu, grad wrt params, dL/ddist through the magnitudes) for the
    upstream gradients dL/df_uv and dL/df_vu."""
    f_fwd, f_rev, ddist = (np.empty(ctx.n_edges) for _ in range(3))
    grad = np.zeros(model.n_params)
    for grp in ctx.groups:
        e = grp.edges
        f_fwd[e], f_rev[e], ddist[e] = force_batch_vjp(
            model, grp.sign, dist[e], grp.features_fwd, grp.features_rev,
            up_fwd[e], up_rev[e], grad)
    return f_fwd, f_rev, grad, ddist


def force_field(ctx: FieldContext, model: ForceParams, X: np.ndarray,
                seed: int = 0, step: int = 0, *, out: np.ndarray | None = None,
                gain: np.ndarray | None = None, on_lengths=None,
                lengths: np.ndarray | None = None) -> np.ndarray:
    """Net force on every node from the spring model at positions X.

    Given `out` (C-contiguous float64, the shape of X, sharing no memory with
    it), adds the force to it in place and returns it; otherwise adds it to
    zeros.  `gain` defaults to `node_gain(ctx, model)`; with
    `node_gain(ctx, model, c)` the call adds c times the force.  Runs in
    O(edges * dims + nodes * dims) with a fixed, reproducible accumulation order.

    `on_lengths(dist)` receives the (m,) edge lengths the call used, which
    both operators at X take as `lengths` and do not compute again.
    """
    X, _ = _checked(ctx, X, None, gain, out, lengths)
    g = node_gain(ctx, model) if gain is None else gain
    dist = _geometry(ctx, X)[0] if lengths is None else lengths
    tied = dist < EPS
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_fwd, f_rev = _magnitudes(ctx, model, dist)
        ties = (f_fwd[tied], f_rev[tied]) if tied.any() else None
        c_fwd = np.divide(f_fwd, dist, out=f_fwd)
        c_rev = np.divide(f_rev, dist, out=f_rev)
        if ties is not None:
            c_fwd[tied] = c_rev[tied] = 0.0
        # the force on node i is g_i times row i of (A - diag(A 1)) X; the
        # gain is folded into the weights in place, with no m-length temporaries
        diag = -g * _rowsum(ctx, c_fwd, c_rev)
        c_fwd *= g[ctx.u]
        c_rev *= g[ctx.v]
    if out is None:
        out = np.zeros_like(X)
    _accumulate(out, ctx.lap_indptr, ctx.lap_indices, _values(ctx, c_fwd, c_rev, diag), X)
    if ties is not None:
        tie_fwd, tie_rev = ties
        edges, units = _tie_units(tied, X.shape[1], seed, step)
        u, v = ctx.u[edges], ctx.v[edges]
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(out, u, (g[u] * tie_fwd)[:, None] * units)
            np.add.at(out, v, -(g[v] * tie_rev)[:, None] * units)
    if on_lengths is not None:
        on_lengths(dist)
    return out


def force_field_vjp(ctx: FieldContext, model: ForceParams, X: np.ndarray,
                    w: np.ndarray, seed: int = 0, step: int = 0, *,
                    out: np.ndarray | None = None, gain: np.ndarray | None = None,
                    lengths: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (d/dX, d/dparams) of sum(w * force_field(X)) for cotangent w.

    Given `out` (C-contiguous float64, the shape of X, sharing no memory with X
    or w), adds d/dX to it in place and returns it; otherwise adds it to zeros.
    `gain` is `node_gain(ctx, model)`, which a caller making many calls
    evaluates once.  `lengths` are as in `force_field`.
    """
    X, w = _checked(ctx, X, w, gain, out, lengths)
    g = node_gain(ctx, model) if gain is None else gain
    dist, tied, s_u, s_v = _geometry(ctx, X, w, lengths)
    # a tie-broken edge acts as an edge of length 1 along its tie-break unit
    scale = dist
    if tied.any():
        edges, units = _tie_units(tied, X.shape[1], seed, step)
        s_u[edges] = np.einsum("ij,ij->i", w[ctx.u[edges]], units)
        s_v[edges] = np.einsum("ij,ij->i", w[ctx.v[edges]], units)
        scale = np.where(tied, 1.0, dist)

    # force on u is g_u f_uv diff / d, force on v is -g_v f_vu diff / d
    g_u, g_v = g[ctx.u], g[ctx.v]
    up_fwd = g_u * s_u / scale
    up_rev = -g_v * s_v / scale
    f_fwd, f_rev, grad_params, ddist = _magnitudes_vjp(ctx, model, dist, up_fwd, up_rev)
    c_fwd, c_rev = f_fwd / scale, f_rev / scale
    grad_params += gain_batch_vjp(model, ctx.node_features,
                                  _rowsum(ctx, c_fwd * s_u, -c_rev * s_v))

    # weights and d of a tie-broken edge do not depend on X: its geometric
    # gradient is zero
    ddist -= up_fwd * c_fwd + up_rev * c_rev
    t = np.divide(ddist, scale, out=ddist)
    # the products read none of these: free them before their values are built
    del dist, scale, s_u, s_v, up_fwd, up_rev, f_fwd, f_rev
    if tied.any():
        c_fwd[tied] = c_rev[tied] = t[tied] = 0.0
    # d/dX = (A - D_A)^T diag(g) w - (T - D_T) X: g scales the columns of the
    # transpose, and the second matrix is the Laplacian of the weights -t
    diag = -g * _rowsum(ctx, c_fwd, c_rev)
    c_rev *= g_v
    c_fwd *= g_u
    if out is None:
        out = np.zeros_like(X)
    # no name holds a product's values, so they are freed before the next's
    _accumulate(out, ctx.lap_indptr, ctx.lap_indices, _values(ctx, c_rev, c_fwd, diag), w)
    np.negative(t, out=t)
    _accumulate(out, ctx.lap_indptr, ctx.lap_indices, _values(ctx, t, t, -_rowsum(ctx, t, t)),
                X)
    return out, grad_params
