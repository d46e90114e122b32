import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspring import SignedGraph, compute_node_statics, forcefield
from graphspring.forcefield import EPS, force_field, force_field_vjp, prepare
from graphspring.forces import (MlpParams, SpringParams, gain_batch, gain_batch_vjp,
                                init_params)

from conftest import hidden_toy
from oracles import (edge_force, neural_force, neural_gain, pair_distance,
                     spring_force, spring_gain, tie_break_unit)
from test_forces import random_neural


def brute_force_field(graph, statics, params, X, seed=0, step=0):
    """Naive per-edge loop over the definition, independent of the vectorized path;
    coincident endpoints push along `edge_force`'s tie-break unit."""
    n, k = X.shape
    agg = np.zeros((n, k))
    deg_norm = np.minimum(1.0, statics.deg / statics.p80)

    def features(a, b, dist):
        return np.array([dist, deg_norm[a], deg_norm[b],
                         statics.neg_frac[a], statics.neg_frac[b],
                         statics.pos_frac[a], statics.pos_frac[b]])

    for e, (u, v, sign) in enumerate(zip(graph.u, graph.v, graph.observed_sign)):
        u, v, sign = int(u), int(v), int(sign)
        dist = pair_distance(X[u], X[v])
        if isinstance(params, SpringParams):
            f_uv = f_vu = spring_force(params, sign, dist)
        else:
            f_uv = neural_force(params, sign, features(u, v, dist))
            f_vu = neural_force(params, sign, features(v, u, dist))
        agg[u] += edge_force(f_uv, X[u], X[v], EPS, e, step, seed)
        agg[v] -= edge_force(f_vu, X[u], X[v], EPS, e, step, seed)

    out = np.zeros_like(agg)
    for i in range(n):
        if isinstance(params, SpringParams):
            gain = spring_gain(params, statics.deg[i], statics.p80) \
                if graph.n_edges else 1.0
        else:
            gain = neural_gain(params, np.array([deg_norm[i], statics.neg_frac[i],
                                                 statics.pos_frac[i]]))
        out[i] = gain * agg[i]
    return out


class SparseOracle:
    """The force field and its VJP with the edge vectors held for all edges at
    once, as products with sparse (m, n) difference and gather operators.  The
    library streams the same arithmetic through small edge blocks, so the two
    must agree bit for bit.  After the geometry both fold the per-node gain into
    the matrix values (by row in the field, by column in the VJP's transposed
    product), and the VJP adds its second product, with weights -t, into the
    first one's result."""

    def __init__(self, ctx):
        self.ctx = ctx
        m, n = ctx.n_edges, ctx.n_nodes
        edge_idx, ones = np.arange(m), np.ones(m)
        self.diff_op = sp.csr_matrix(
            (np.concatenate([-ones, ones]),
             (np.concatenate([edge_idx, edge_idx]), np.concatenate([ctx.u, ctx.v]))),
            shape=(m, n))
        self.gather_u = sp.csr_matrix((ones, (edge_idx, ctx.u)), shape=(m, n))
        self.gather_v = sp.csr_matrix((ones, (edge_idx, ctx.v)), shape=(m, n))

    def _distances(self, X):
        diff = self.diff_op @ X
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return diff, dist, dist < EPS

    def _matrix(self, data):
        ctx = self.ctx
        return sp.csr_matrix((data, ctx.lap_indices, ctx.lap_indptr),
                             shape=(ctx.n_nodes, ctx.n_nodes))

    def force_field(self, model, X, seed=0, step=0):
        ctx = self.ctx
        if ctx.n_edges == 0:
            return np.zeros_like(X)
        _, dist, tied = self._distances(X)
        with np.errstate(divide="ignore", invalid="ignore"):
            f_fwd, f_rev = forcefield._magnitudes(ctx, model, dist)
            c_fwd = np.where(tied, 0.0, f_fwd / dist)
            c_rev = np.where(tied, 0.0, f_rev / dist)
        gain = gain_batch(model, ctx.node_features)
        data = forcefield._values(ctx, c_fwd, c_rev, -forcefield._rowsum(ctx, c_fwd, c_rev))
        rows = np.repeat(np.arange(ctx.n_nodes), np.diff(ctx.lap_indptr))
        agg = self._matrix(data * gain[rows]) @ X
        if tied.any():
            edges, units = forcefield._tie_units(tied, X.shape[1], seed, step)
            u, v = ctx.u[edges], ctx.v[edges]
            np.add.at(agg, u, (gain[u] * f_fwd[edges])[:, None] * units)
            np.add.at(agg, v, -(gain[v] * f_rev[edges])[:, None] * units)
        return agg

    def force_field_vjp(self, model, X, w, seed=0, step=0):
        ctx = self.ctx
        if ctx.n_edges == 0:
            return np.zeros_like(X), np.zeros(model.flatten().shape[0])
        diff, dist, tied = self._distances(X)
        scale = dist
        if tied.any():
            edges, units = forcefield._tie_units(tied, X.shape[1], seed, step)
            diff[edges] = units
            scale = np.where(tied, 1.0, dist)
        s_u = np.einsum("ij,ij->i", self.gather_u @ w, diff)
        s_v = np.einsum("ij,ij->i", self.gather_v @ w, diff)
        gain = gain_batch(model, ctx.node_features)
        up_fwd = gain[ctx.u] * s_u / scale
        up_rev = -gain[ctx.v] * s_v / scale
        f_fwd, f_rev, grad_params, ddist = forcefield._magnitudes_vjp(
            ctx, model, dist, up_fwd, up_rev)
        c_fwd, c_rev = f_fwd / scale, f_rev / scale
        grad_params += gain_batch_vjp(model, ctx.node_features,
                                      forcefield._rowsum(ctx, c_fwd * s_u, -c_rev * s_v))
        ddist -= up_fwd * c_fwd + up_rev * c_rev
        t = ddist / scale
        if tied.any():
            c_fwd[tied] = c_rev[tied] = t[tied] = 0.0
        data = forcefield._values(ctx, c_rev, c_fwd, -forcefield._rowsum(ctx, c_fwd, c_rev))
        dx = self._matrix(data * gain[ctx.lap_indices]) @ w
        forcefield._accumulate(dx, ctx.lap_indptr, ctx.lap_indices,
                               forcefield._values(ctx, -t, -t, forcefield._rowsum(ctx, t, t)),
                               X)
        return dx, grad_params


def random_graph(n_edges: int, seed: int, n_nodes: int = 2) -> SignedGraph:
    """Exactly n_edges distinct random pairs with random signs, on n_nodes nodes
    or the fewest that hold them."""
    rand = np.random.default_rng(seed)
    n = n_nodes
    while n * (n - 1) // 2 < n_edges:
        n += 1
    upper = np.triu_indices(n, 1)
    pick = np.sort(rand.choice(upper[0].size, n_edges, replace=False))
    true_sign = np.where(rand.random(n_edges) < 0.3, -1, 1).astype(np.int8)
    observed = np.where(rand.random(n_edges) < 0.2, 0, true_sign).astype(np.int8)
    return SignedGraph(n, upper[0][pick], upper[1][pick], true_sign, observed)


def block_rows(k: int) -> int:
    return forcefield.BLOCK_BYTES // (8 * k)


# --- the pair_distance and edge_force oracles -----------------------------------

def test_pair_distance_345():
    assert pair_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_pair_distance_identity():
    x = np.array([1.0, -2.0, 0.5])
    assert pair_distance(x, x) == 0.0


def test_pair_distance_matches_compensated_sum():
    import math
    rand = np.random.default_rng(8)
    for _ in range(20):
        a, b = rand.normal(0, 3, (2, 8))
        acc = 0.0
        comp = 0.0
        for ai, bi in zip(a, b):  # Kahan summation of squared differences
            term = (ai - bi) ** 2
            y = term - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t
        assert pair_distance(a, b) == pytest.approx(math.sqrt(acc), rel=1e-12)


def test_edge_force_zero_scalar():
    out = edge_force(0.0, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert np.array_equal(out, np.zeros(2))


def test_edge_force_unit_scaling():
    out = edge_force(2.0, np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    assert np.allclose(out, [1.2, 1.6])


def test_edge_force_coincident_tie_break():
    x = np.array([0.5, 0.5, 0.5])
    a = edge_force(3.0, x, x, edge_index=4, step=2, seed=9)
    b = edge_force(3.0, x, x, edge_index=4, step=2, seed=9)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(3.0, rel=1e-12)
    c = edge_force(3.0, x, x, edge_index=5, step=2, seed=9)
    assert not np.array_equal(a, c)


def test_edge_force_requires_positive_eps():
    with pytest.raises(ValueError):
        edge_force(1.0, np.zeros(2), np.ones(2), eps=0.0)


# --- force field forward --------------------------------------------------------

def test_zero_edges_gives_zero_forces():
    g = SignedGraph(4, np.zeros(0, np.int64), np.zeros(0, np.int64),
                    np.zeros(0, np.int8), np.zeros(0, np.int8))
    st = compute_node_statics(g)
    X = np.random.default_rng(0).normal(0, 1, (4, 3))
    assert np.array_equal(force_field(prepare(g, st), SpringParams(), X), np.zeros((4, 3)))


def test_two_body_newton_pair():
    g = SignedGraph(2, np.array([0]), np.array([1]),
                    np.array([1], np.int8), np.array([0], np.int8))
    st = compute_node_statics(g)
    X = np.array([[0.0, 0.0], [3.0, 0.0]])
    F = force_field(prepare(g, st), SpringParams(beta=0.0), X)
    assert np.allclose(F[0], -F[1], atol=1e-15)
    # stretched neutral spring attracts: dist 3 > l_neu 2 -> force 1 toward the peer
    assert F[0][0] == pytest.approx(1.0)


def test_path_graph_matches_brute_force_spring():
    g = SignedGraph(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                    np.array([1, -1, 1], np.int8), np.array([1, 0, 1], np.int8))
    st = compute_node_statics(g)
    rand = np.random.default_rng(5)
    X = rand.normal(0, 2, (4, 3))
    params = SpringParams(1.3, 2.1, 2.9, 0.8, 1.2, 0.6, 0.4)
    got = force_field(prepare(g, st), params, X)
    want = brute_force_field(g, st, params, X)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_random_instances_match_brute_force(kind):
    rand = np.random.default_rng(17)
    for seed in range(6):
        graph, _ = hidden_toy(seed=seed)
        st = compute_node_statics(graph)
        X = rand.normal(0, 1.5, (graph.n_nodes, 4))
        if kind == "spring":
            params = SpringParams(*rand.uniform(0.2, 3.0, 6), rand.uniform(-1, 1))
        else:
            params = random_neural(rand)
        got = force_field(prepare(graph, st), params, X)
        want = brute_force_field(graph, st, params, X)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


def test_dimension_mismatch_rejected():
    graph, _ = hidden_toy()
    st = compute_node_statics(graph)
    with pytest.raises(ValueError):
        force_field(prepare(graph, st), SpringParams(), np.zeros((graph.n_nodes + 1, 3)))


# --- argument checks -----------------------------------------------------------------

def checked_case(n_nodes: int = 200, k: int = 8):
    """A 200-node graph at k = 8 with positions and a cotangent of matching shape."""
    graph = random_graph(3 * n_nodes, seed=11, n_nodes=n_nodes)
    ctx = prepare(graph, compute_node_statics(graph))
    rand = np.random.default_rng(12)
    X = rand.normal(0, 1.5, (n_nodes, k))
    return ctx, init_params("spring-nn", seed=3), X, rand.normal(0, 1, X.shape)


@pytest.mark.parametrize("rows", [150, 400])
def test_vjp_refuses_a_cotangent_of_another_shape(rows):
    # the CSR kernel reads w through a raw pointer: it read past the end of a
    # shorter w and silently truncated a longer one
    ctx, model, X, w = checked_case()
    w = np.resize(w, (rows, w.shape[1]))
    with pytest.raises(ValueError, match=rf"w has shape \({rows}, 8\), X has shape \(200, 8\)"):
        force_field_vjp(ctx, model, X, w)


def test_vjp_refuses_positions_of_another_row_count():
    ctx, model, X, w = checked_case()
    with pytest.raises(ValueError, match=r"X has shape \(150, 8\), expected \(200, k\)"):
        force_field_vjp(ctx, model, X[:150], w[:150])


@pytest.mark.parametrize("entry", ["force_field", "force_field_vjp"])
def test_a_gain_of_another_length_is_refused(entry):
    ctx, model, X, w = checked_case()
    args = (X,) if entry == "force_field" else (X, w)
    with pytest.raises(ValueError, match=r"gain has shape \(199,\), expected \(200,\)"):
        getattr(forcefield, entry)(ctx, model, *args, gain=np.ones(199))


def test_force_field_refuses_an_out_that_aliases_X():
    # the product reads X while it adds into out, so out=X gave a wrong
    # result with no error
    ctx, model, X, _ = checked_case()
    before = X.copy()
    for out in (X, X[:, :]):
        with pytest.raises(ValueError, match="out shares memory with X"):
            force_field(ctx, model, X, out=out)
    assert np.array_equal(X, before)


@pytest.mark.parametrize("aliased", ["X", "w"])
def test_vjp_refuses_an_out_that_aliases_X_or_w(aliased):
    ctx, model, X, w = checked_case()
    out = {"X": X, "w": w}[aliased]
    before = out.copy()
    with pytest.raises(ValueError, match=f"out shares memory with {aliased}"):
        force_field_vjp(ctx, model, X, w, out=out)
    assert np.array_equal(out, before)


@pytest.mark.parametrize("n_edges", [0, 600])
@pytest.mark.parametrize("entry", ["force_field", "force_field_vjp"])
def test_an_out_the_kernel_cannot_write_is_refused(entry, n_edges):
    # the CSR kernel writes through a raw pointer; an edgeless call, which
    # never reaches it, returned such an out unchanged with no error
    graph = random_graph(n_edges, seed=11, n_nodes=200)
    ctx = prepare(graph, compute_node_statics(graph))
    _, model, X, w = checked_case()
    args = (X,) if entry == "force_field" else (X, w)
    for out, got in [(np.zeros((201, 8)), r"float64 of shape \(201, 8\), C-contiguous True"),
                     (np.zeros((200, 8), np.float32), "float32"),
                     (np.zeros((8, 200)).T, "C-contiguous False"),
                     (np.zeros((200, 8)).tolist(), "list")]:
        with pytest.raises(ValueError, match=rf"out is .*{got}.*; expected C-contiguous "
                                                 r"float64 of shape \(200, 8\)"):
            getattr(forcefield, entry)(ctx, model, *args, out=out)


@pytest.mark.parametrize("kernel", ["csr_matvecs", "csc_matvecs"])
def test_import_names_a_missing_scipy_kernel(kernel):
    # the field's products and the loss gradient go through scipy's private
    # csr_matvecs and csc_matvecs; a scipy without one must fail the import,
    # naming the symbol and the version, and never reach a product
    src = Path(forcefield.__file__).resolve().parents[1]
    code = (f"import scipy.sparse._sparsetools as tools; del tools.{kernel}; "
            "import graphspring")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode != 0
    last = result.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:"), result.stderr
    assert f"_sparsetools.{kernel}," in last and f"scipy {scipy.__version__}" in last


def test_coincident_nodes_no_nan_and_deterministic():
    g = SignedGraph(2, np.array([0]), np.array([1]),
                    np.array([-1], np.int8), np.array([-1], np.int8))
    st = compute_node_statics(g)
    X = np.zeros((2, 3))
    ctx = prepare(g, st)
    F1 = force_field(ctx, SpringParams(), X, seed=3, step=7)
    F2 = force_field(ctx, SpringParams(), X, seed=3, step=7)
    assert np.isfinite(F1).all()
    assert np.array_equal(F1, F2)
    # repelling tie-broken pair moves apart: antisymmetric directions
    assert np.allclose(F1[0], -F1[1])
    assert np.linalg.norm(F1[0]) > 0
    F3 = force_field(ctx, SpringParams(), X, seed=3, step=8)
    assert not np.array_equal(F1, F3)


def test_interleaved_calls_on_two_contexts_of_one_graph_are_deterministic():
    # every neural call writes its lengths into its context's feature
    # matrices: calls at other positions, on the same context or on another
    # built from the same graph, leave each result as a fresh context gives it
    graph, statics, X, w, params = small_instance(3, "spring-nn", 4)
    Y = X + np.random.default_rng(5).normal(0, 1.0, X.shape)

    def calls(ctx, P):
        F = force_field(ctx, params, P, seed=2, step=1)
        return (F, *force_field_vjp(ctx, params, P, w, seed=2, step=1))

    want = {id(P): calls(prepare(graph, statics), P) for P in (X, Y)}
    a, b = prepare(graph, statics), prepare(graph, statics)
    for ctx, P in [(a, X), (b, Y), (a, Y), (b, X), (a, X), (a, Y)]:
        for got, expect in zip(calls(ctx, P), want[id(P)]):
            assert np.array_equal(got, expect)


def test_tie_break_unit_is_unit():
    for e in range(5):
        r = tie_break_unit(6, e, step=3, seed=1)
        assert np.linalg.norm(r) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("k", [1, 3, 64, 65])
def test_tie_units_are_the_per_edge_units_bitwise(k):
    """The batched tie-break units equal the per-edge oracle's, bit for bit."""
    tied = np.zeros(3_000_001, dtype=bool)
    tied[[0, 1, 7, 1000, 3_000_000]] = True
    for seed, step in [(0, 0), (1, 3), (2**63 + 5, 119)]:
        edges, units = forcefield._tie_units(tied, k, seed, step)
        assert edges.tolist() == [0, 1, 7, 1000, 3_000_000]
        want = np.array([tie_break_unit(k, int(e), step, seed) for e in edges])
        assert units.shape == (5, k) and np.array_equal(units, want)


# --- blocked streaming against the whole-array oracle -------------------------------

@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
@pytest.mark.parametrize("k", [1, 8, 64])
@pytest.mark.parametrize("edges_of", [lambda b: 0, lambda b: 1, lambda b: b - 1,
                                      lambda b: b, lambda b: b + 1,
                                      lambda b: 2 * b + 3],
                         ids=["0", "1", "B-1", "B", "B+1", "2B+3"])
def test_blocked_kernels_match_the_sparse_oracle_bitwise(kind, k, edges_of):
    m = edges_of(block_rows(k))
    graph = random_graph(m, seed=m + k)
    statics = compute_node_statics(graph)
    ctx = prepare(graph, statics)
    rand = np.random.default_rng(k)
    X = rand.normal(0, 1.5, (graph.n_nodes, k))
    w = rand.normal(0, 1, X.shape)
    # coincident endpoints on the first edge and the last, in the first and last block
    tied = [0, m - 1] if m else []
    for e in tied:
        X[graph.v[e]] = X[graph.u[e]]
    assert all(np.array_equal(X[graph.u[e]], X[graph.v[e]]) for e in tied)
    params = init_params(kind, seed=3)
    oracle = SparseOracle(ctx)

    F = force_field(ctx, params, X, seed=4, step=9)
    assert F.tobytes() == oracle.force_field(params, X, seed=4, step=9).tobytes()
    dX, dtheta = force_field_vjp(ctx, params, X, w, seed=4, step=9)
    want_dX, want_dtheta = oracle.force_field_vjp(params, X, w, seed=4, step=9)
    assert dX.tobytes() == want_dX.tobytes()
    assert dtheta.tobytes() == want_dtheta.tobytes()


def test_accumulate_adds_the_csr_product_into_out():
    # the field and its VJP add their products into the caller's array through
    # scipy's private CSR kernel; a scipy whose kernel zeroes or replaces `out`,
    # or reads the arrays in another layout, fails here
    rand = np.random.default_rng(8)
    n_rows, n_cols, k = 30, 20, 5
    cells = rand.choice(n_rows * n_cols, 120, replace=False)
    M = sp.csr_matrix((rand.normal(size=cells.size), np.divmod(cells, n_cols)),
                      shape=(n_rows, n_cols))
    rhs = np.asfortranarray(rand.normal(size=(n_cols, k)))
    out = rand.normal(size=(n_rows, k))
    want = out + M @ rhs
    forcefield._accumulate(out, M.indptr, M.indices, M.data, rhs)
    assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()
    zeros = np.zeros((n_rows, k))
    forcefield._accumulate(zeros, M.indptr, M.indices, M.data, rhs)
    assert zeros.tobytes() == (M @ rhs).tobytes()
    for bad in (np.zeros((k, n_rows)).T, np.zeros((n_rows, k + 1))):
        with pytest.raises(ValueError, match="C-contiguous"):
            forcefield._accumulate(bad, M.indptr, M.indices, M.data, rhs)


def test_csc_kernel_adds_the_product_into_out():
    # the loss gradient adds each column block of the incidence times the
    # scaled edge vectors through scipy's private CSC kernel; a scipy whose
    # kernel takes other arguments, zeroes or replaces `out`, or reads the
    # arrays in another layout fails here
    rand = np.random.default_rng(9)
    n_rows, n_cols, k = 30, 20, 5
    cells = rand.choice(n_rows * n_cols, 120, replace=False)
    B = sp.csc_matrix((rand.normal(size=cells.size), np.divmod(cells, n_cols)),
                      shape=(n_rows, n_cols))
    rhs = rand.normal(size=(n_cols, k))
    zeros = np.zeros((n_rows, k))
    forcefield._csc_matvecs(n_rows, n_cols, k, B.indptr, B.indices, B.data,
                            rhs.ravel(), zeros.ravel())
    assert zeros.tobytes() == (B @ rhs).tobytes()
    out = rand.normal(size=(n_rows, k))
    want = out + B @ rhs
    forcefield._csc_matvecs(n_rows, n_cols, k, B.indptr, B.indices, B.data,
                            rhs.ravel(), out.ravel())
    assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_one_call_holds_no_edge_by_dims_array(kind):
    # with m = 10 n, one m x k array is larger than all n x k arrays of a call
    # together; the whole-array formulation peaked at 2.05x (VJP) and 1.21x
    # (forward) of m k 8 bytes for spring-nn
    graph = random_graph(20000, seed=5, n_nodes=2000)
    k = 64
    ctx = prepare(graph, compute_node_statics(graph))
    rand = np.random.default_rng(6)
    X = rand.normal(0, 1.5, (graph.n_nodes, k))
    w = rand.normal(0, 1, X.shape)
    params = init_params(kind, seed=3)
    edge_by_dims = graph.n_edges * k * 8

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: force_field_vjp(ctx, params, X, w)) < edge_by_dims
    assert peak(lambda: force_field(ctx, params, X)) < edge_by_dims / 2


# --- invariances -----------------------------------------------------------------

def test_translation_invariance():
    graph, _ = hidden_toy(seed=2)
    st = compute_node_statics(graph)
    rand = np.random.default_rng(2)
    X = rand.normal(0, 1, (graph.n_nodes, 5))
    params = random_neural(rand)
    shift = rand.uniform(-5, 5, 5)
    ctx = prepare(graph, st)
    F0 = force_field(ctx, params, X)
    F1 = force_field(ctx, params, X + shift)
    assert np.abs(F0 - F1).max() < 1e-9


def test_rotation_equivariance():
    graph, _ = hidden_toy(seed=3)
    st = compute_node_statics(graph)
    rand = np.random.default_rng(3)
    X = rand.normal(0, 1, (graph.n_nodes, 4))
    q, _ = np.linalg.qr(rand.normal(0, 1, (4, 4)))
    params = SpringParams(1.0, 2.0, 3.0, 1.1, 0.9, 1.3, 0.5)
    ctx = prepare(graph, st)
    F_rot = force_field(ctx, params, X @ q.T)
    F_ref = force_field(ctx, params, X) @ q.T
    assert np.abs(F_rot - F_ref).max() < 1e-9


def test_spring_momentum_conserved_with_zero_beta():
    graph, _ = hidden_toy(seed=4)
    st = compute_node_statics(graph)
    rand = np.random.default_rng(4)
    X = rand.normal(0, 1, (graph.n_nodes, 6))
    F = force_field(prepare(graph, st), SpringParams(beta=0.0), X)
    assert np.abs(F.sum(axis=0)).max() < 1e-9


# --- backward pass -----------------------------------------------------------------

@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_vjp_matches_finite_differences(kind):
    rand = np.random.default_rng(23)
    graph, _ = hidden_toy(seed=6)
    st = compute_node_statics(graph)
    ctx = prepare(graph, st)
    X = rand.normal(0, 1.2, (graph.n_nodes, 3))
    params = SpringParams(1.2, 2.0, 3.1, 0.9, 1.1, 0.8, 0.3) if kind == "spring" \
        else random_neural(rand)
    w = rand.normal(0, 1, X.shape)

    def objective(X_, params_):
        return float((w * force_field(ctx, params_, X_)).sum())

    dX, dtheta = force_field_vjp(ctx, params, X, w)
    h = 1e-6
    # positions
    for _ in range(12):
        i = rand.integers(0, X.shape[0])
        j = rand.integers(0, X.shape[1])
        Xp, Xm = X.copy(), X.copy()
        Xp[i, j] += h
        Xm[i, j] -= h
        fd = (objective(Xp, params) - objective(Xm, params)) / (2 * h)
        assert abs(fd - dX[i, j]) <= max(1e-7, 1e-5 * abs(fd))
    # parameters
    flat = params.flatten()
    idxs = range(flat.size) if flat.size == 7 else \
        rand.choice(flat.size, 20, replace=False)
    for i in idxs:
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        fd = (objective(X, type(params).from_flat(fp))
              - objective(X, type(params).from_flat(fm))) / (2 * h)
        assert abs(fd - dtheta[i]) <= max(1e-7, 1e-5 * abs(fd))


# --- property tests: the VJP against finite differences on random small graphs ----

def small_instance(seed: int, kind: str, k: int):
    """A random graph of 5-8 nodes with hidden signs, positions, a cotangent and
    parameters of the given model kind."""
    rand = np.random.default_rng(seed)
    n = int(rand.integers(5, 9))
    graph, _ = hidden_toy(seed=seed, n_nodes=n, n_edges=int(rand.integers(n, 2 * n)))
    statics = compute_node_statics(graph)
    X = rand.normal(0, 1.5, (n, k))
    w = rand.normal(0, 1, (n, k))
    params = SpringParams(*rand.uniform(0.5, 3.0, 6), rand.uniform(-0.5, 0.5)) \
        if kind == "spring" else random_neural(rand)
    return graph, statics, X, w, params


def objective(ctx, params, X, w, seed=0, step=0):
    return float((w * force_field(ctx, params, X, seed=seed, step=step)).sum())


def central_params(ctx, params, X, w, h=1e-6, **kw):
    flat = params.flatten()
    out = np.empty(flat.size)
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        out[i] = (objective(ctx, type(params).from_flat(fp), X, w, **kw)
                  - objective(ctx, type(params).from_flat(fm), X, w, **kw)) / (2 * h)
    return out


def central_positions(ctx, params, X, w, h=1e-6):
    out = np.empty(X.shape)
    for idx in np.ndindex(*X.shape):
        Xp, Xm = X.copy(), X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        out[idx] = (objective(ctx, params, Xp, w) - objective(ctx, params, Xm, w)) / (2 * h)
    return out


def assert_fd_close(ad, fd):
    # central differences with h = 1e-6 carry ~1e-10 truncation and round-off
    # error at these magnitudes; the bound leaves four orders of margin
    assert np.all(np.abs(ad - fd) <= np.maximum(1e-7, 1e-5 * np.abs(fd))), \
        np.abs(ad - fd).max()


@given(st.integers(0, 10 ** 6), st.sampled_from(["spring", "spring-nn"]),
       st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_vjp_property_central_differences(seed, kind, k):
    graph, statics, X, w, params = small_instance(seed, kind, k)
    ctx = prepare(graph, statics)
    dX, dtheta = force_field_vjp(ctx, params, X, w)
    assert_fd_close(dX, central_positions(ctx, params, X, w))
    assert_fd_close(dtheta, central_params(ctx, params, X, w))


def make_coincident(graph, X, rand):
    """Move endpoints onto each other for a random share of the edges."""
    X = X.copy()
    for e in rand.choice(graph.n_edges, max(1, graph.n_edges // 3), replace=False):
        X[graph.v[e]] = X[graph.u[e]]
    return X


@given(st.integers(0, 10 ** 6), st.sampled_from(["spring", "spring-nn"]),
       st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_vjp_property_coincident_endpoints(seed, kind, k):
    # a tie-broken edge pushes along a fixed unit vector, so its geometric
    # gradient is zero by definition and only the parameter gradient is checked
    graph, statics, X, w, params = small_instance(seed, kind, k)
    X = make_coincident(graph, X, np.random.default_rng(seed))
    ctx = prepare(graph, statics)
    _, dtheta = force_field_vjp(ctx, params, X, w, seed=seed, step=3)
    assert_fd_close(dtheta, central_params(ctx, params, X, w, seed=seed, step=3))


@given(st.integers(0, 10 ** 6), st.sampled_from(["spring", "spring-nn"]),
       st.integers(1, 4), st.booleans())
@settings(max_examples=20, deadline=None)
def test_vjp_given_the_lengths_is_bitwise_the_vjp_without(seed, kind, k, tied):
    # training's forward pass keeps the lengths each step's field handed out,
    # tie-broken edges or not; its reverse sweep hands them to the replay's
    # field and to the step's VJP
    graph, statics, X, w, params = small_instance(seed, kind, k)
    if tied:
        X = make_coincident(graph, X, np.random.default_rng(seed))
    ctx = prepare(graph, statics)
    kept = []
    want = force_field(ctx, params, X, seed=seed, step=3, on_lengths=kept.append)
    lengths = forcefield._geometry(ctx, X)[0]
    assert len(kept) == 1 and np.array_equal(kept[0], lengths)
    assert (lengths < EPS).any() == tied
    got = force_field(ctx, params, X, seed=seed, step=3, lengths=lengths.copy(),
                      on_lengths=kept.append)
    assert np.array_equal(got, want) and np.array_equal(kept[1], lengths)
    want = force_field_vjp(ctx, params, X, w, seed=seed, step=3)
    got = force_field_vjp(ctx, params, X, w, seed=seed, step=3, lengths=lengths.copy())
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_force_field_given_the_lengths_computes_no_geometry(monkeypatch):
    ctx, model, X, _ = checked_case()
    lengths = forcefield._geometry(ctx, X)[0]
    want = force_field(ctx, model, X)

    def refuse(*args, **kwargs):
        raise AssertionError("force_field recomputed the lengths it was given")

    monkeypatch.setattr(forcefield, "_geometry", refuse)
    assert np.array_equal(force_field(ctx, model, X, lengths=lengths), want)


@pytest.mark.parametrize("shape", [(599,), (601,), (600, 1)])
@pytest.mark.parametrize("entry", ["force_field", "force_field_vjp"])
def test_vjp_refuses_lengths_of_another_shape(entry, shape):
    ctx, model, X, w = checked_case()
    args = (X,) if entry == "force_field" else (X, w)
    assert ctx.n_edges == 600
    with pytest.raises(ValueError, match=rf"lengths have shape {re.escape(str(shape))}, "
                                         r"expected \(600,\)"):
        getattr(forcefield, entry)(ctx, model, *args, lengths=np.ones(shape))


@pytest.mark.parametrize("entry", ["force_field", "force_field_vjp"])
def test_vjp_refuses_lengths_that_are_not_float64(entry):
    ctx, model, X, w = checked_case()
    args = (X,) if entry == "force_field" else (X, w)
    for lengths, got in [(np.ones(600, np.float32), "float32"), ([1.0] * 600, "list")]:
        with pytest.raises(ValueError, match=f"lengths are {got}, expected a float64 array"):
            getattr(forcefield, entry)(ctx, model, *args, lengths=lengths)


@given(st.integers(0, 10 ** 6), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_tie_correction_matches_brute_force(seed, k):
    graph, statics, X, _, params = small_instance(seed, "spring-nn", k)
    X = make_coincident(graph, X, np.random.default_rng(seed))
    got = force_field(prepare(graph, statics), params, X, seed=seed, step=5)
    want = brute_force_field(graph, statics, params, X, seed=seed, step=5)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


def one_sided(fn, h=1e-7):
    """(left, right) one-sided differences of fn(t) at t = 0."""
    at = fn(0.0)
    return (at - fn(-h)) / h, (fn(h) - at) / h


# At a kink the VJP takes the derivative of the side where the kinked branch is
# off: a positive spring at d = l_pos and a negative one at d = l_neg exert no
# force, and a ReLU's subgradient at 0 is 0.  Per kink: (side when the edge
# grows, side when the parameter grows), 0 = left and 1 = right.
KINK_SIDES = {"l_pos": (0, 1), "l_neg": (1, 0), "relu": (0, 0)}


@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(KINK_SIDES)), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_vjp_at_kinks_matches_the_one_sided_difference(seed, kink, k):
    """One edge sits exactly at a kink: a spring rest length where the positive
    or negative branch switches on, or a force-MLP hidden unit at pre-activation
    exactly 0.  Its endpoints lie on a binary grid along an axis, so its length
    and that pre-activation are exact.  The VJP must equal the one-sided
    difference of the documented side, in the edge length and in the kinked
    parameter."""
    rand = np.random.default_rng(seed)
    graph, statics, X, w, params = small_instance(seed, "spring-nn", k)
    axis = np.eye(k)[0]
    if kink == "relu":
        rest = 1.5
        e = int(rand.integers(graph.n_edges))
        sign = int(graph.observed_sign[e])
        field = {0: "f_neutral", 1: "f_positive", -1: "f_negative"}[sign]
        net = getattr(params, field)
        w0, b0, w1 = net.w0.copy(), net.b0.copy(), net.w1.copy()
        w0[0] = 0.0
        w0[0, 0] = w1[0] = 1.0          # unit 0 reads the distance alone and feeds f
        b0[0] = -rest
        gain = MlpParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 1.0)   # g = 1
        params = replace(params, gain_net=gain, **{field: MlpParams(w0, b0, w1, net.b1)})
        param_index = params.gain_net.n_params + \
            [0, 1, -1].index(sign) * net.n_params + w0.size
    else:
        p = SpringParams(*rand.uniform(0.5, 2.0, 6), rand.uniform(-0.5, 0.5))
        sign, rest = (1, 1.0) if kink == "l_pos" else (-1, 3.0)
        params = replace(p, **{kink: rest})
        e = int(rand.choice(np.flatnonzero(graph.observed_sign == sign)))
        param_index = ["l_pos", "l_neu", "l_neg"].index(kink)
    u, v = int(graph.u[e]), int(graph.v[e])
    X[u] = rand.integers(-4, 5, k) / 2.0
    X[v] = X[u] + rest * axis
    w[u], w[v] = 2.0 * axis, (0.0 if kink == "relu" else -2.0) * axis
    ctx = prepare(graph, statics)
    dX, dtheta = force_field_vjp(ctx, params, X, w)

    def moved(t):   # endpoint v along the edge, so the kinked length grows by t
        Xt = X.copy()
        Xt[v] += t * axis
        return objective(ctx, params, Xt, w)

    def shifted(t):
        flat = params.flatten()
        flat[param_index] += t
        return objective(ctx, type(params).from_flat(flat), X, w)

    for fn, ad, side in ((moved, float(dX[v, 0]), KINK_SIDES[kink][0]),
                         (shifted, float(dtheta[param_index]), KINK_SIDES[kink][1])):
        sides = one_sided(fn)
        # the kink moves the slope by at least 1 by construction; one-sided
        # differences with h = 1e-7 carry O(h) truncation error, below 1e-4 at
        # the curvature of these instances
        assert abs(sides[0] - sides[1]) > 0.5
        assert abs(ad - sides[side]) <= 1e-4 + 1e-4 * abs(sides[side]), (ad, sides)
