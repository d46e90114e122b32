import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspring import (SignedGraph, SimConfig, SimState, compute_node_statics,
                         forcefield, init_params, load_checkpoint, save_checkpoint,
                         training)
from graphspring.forcefield import EPS, force_field, node_gain, prepare
from graphspring.forces import SpringParams
from graphspring.training import (AdamState, Checkpoint, EpochStats, LossConfig,
                                  TrainConfig, adam_step, clip_gradient, loss,
                                  loss_and_grad, loss_with_grad, predict_prob,
                                  train, write_history_csv)

from conftest import hidden_toy, statics_of, traced_peak
from oracles import (all_edges_loss_terms, compositions, least_tape_floats,
                     loss_and_grad_full_tape, loss_with_grad_whole)
from test_forcefield import random_graph
from test_forces import random_neural


# --- predict_prob ---------------------------------------------------------------

def test_prob_half_at_threshold():
    assert predict_prob(2.5, 2.5) == pytest.approx(0.5)


def test_prob_saturates():
    assert predict_prob(1e6, 2.5) == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < predict_prob(50.0, 2.5) < 1e-12


def test_prob_at_zero_distance():
    assert predict_prob(0.0, 2.5) == pytest.approx(0.92414, abs=5e-6)


def test_prob_monotone_decreasing():
    d = np.linspace(0, 10, 200)
    p = predict_prob(d, 2.5)
    assert (np.diff(p) < 0).all()


# --- loss -------------------------------------------------------------------------

def pair_graph(signs, observed=None):
    m = len(signs)
    observed = signs if observed is None else observed
    u = np.arange(m, dtype=np.int64) * 2
    v = u + 1
    return SignedGraph(2 * m, u, v, np.array(signs, np.int8),
                       np.array(observed, np.int8))


def place_at_distance(graph, dists, k=2):
    X = np.zeros((graph.n_nodes, k))
    for (u, v), d in zip(zip(graph.u, graph.v), dists):
        X[v, 0] = X[u, 0] + d
    return X


def test_loss_hand_example():
    # one positive and one negative edge, both predicted 0.5 -> 0.25 + 2.25
    g = pair_graph([1, -1])
    X = place_at_distance(g, [2.5, 2.5])
    cfg = LossConfig(mu=2.5)
    assert loss(g, X, cfg) == pytest.approx(2.5)


def test_loss_perfect_positive_limit():
    g = pair_graph([1, 1, -1])
    X = place_at_distance(g, [0.0, 0.0, 30.0])
    value = loss(g, X, LossConfig(mu=2.5))
    # positive edges contribute (1 - ~1)^2 ~ 0; negative has the paper floor of 1
    assert value == pytest.approx(1.0, abs=0.02)


def test_loss_weight_normalization():
    cfg = LossConfig(mu=2.5)
    one = pair_graph([1, -1])
    X_one = place_at_distance(one, [1.0, 4.0])
    base = loss(one, X_one, cfg)
    # duplicating the positive edge population leaves its share unchanged
    many = pair_graph([1, 1, 1, -1])
    X_many = place_at_distance(many, [1.0, 1.0, 1.0, 4.0])
    assert loss(many, X_many, cfg) == pytest.approx(base, rel=1e-12)


def test_loss_domain_excludes_hidden():
    # flipping a hidden edge's true sign leaves the loss unchanged
    g = pair_graph([1, 1, -1], observed=[1, 0, -1])
    X = place_at_distance(g, [1.0, 0.1, 4.0])
    visible_val = loss(g, X, LossConfig())
    flipped = pair_graph([1, -1, -1], observed=[1, 0, -1])
    assert loss(flipped, X, LossConfig()) == visible_val
    assert loss(pair_graph([1, 1, -1]), X, LossConfig()) != pytest.approx(visible_val)
    two = pair_graph([1, -1])
    X_two = place_at_distance(two, [1.0, 4.0])
    assert visible_val == pytest.approx(loss(two, X_two, LossConfig()), rel=1e-12)


def test_loss_terms_are_the_visible_edges_with_signed_targets():
    g = pair_graph([1, -1, -1, 1, 1], observed=[1, 0, -1, 1, 0])
    edges, weight, target = training._loss_terms(g)
    assert edges.tolist() == [0, 2, 3]
    assert target.tolist() == [1.0, -1.0, 1.0]
    # each class carries a total weight of one
    assert weight.tolist() == [0.5, 1.0, 0.5]


def test_loss_single_class_domain_errors():
    g = pair_graph([1, 1])
    X = place_at_distance(g, [1.0, 1.0])
    with pytest.raises(ValueError):
        loss(g, X, LossConfig())


def test_loss_invariant_under_relabeling():
    graph, _ = hidden_toy(seed=1)
    rand = np.random.default_rng(0)
    X = rand.normal(0, 1, (graph.n_nodes, 3))
    perm = rand.permutation(graph.n_nodes)
    u, v = perm[graph.u], perm[graph.v]
    swap = u > v
    u2 = np.where(swap, v, u)
    v2 = np.where(swap, u, v)
    order = np.argsort(u2 * graph.n_nodes + v2)
    permuted = SignedGraph(graph.n_nodes, u2[order], v2[order],
                           graph.true_sign[order], graph.observed_sign[order])
    X_perm = np.empty_like(X)
    X_perm[perm] = X
    cfg = LossConfig()
    assert loss(graph, X, cfg) == pytest.approx(loss(permuted, X_perm, cfg),
                                                rel=1e-12)


def test_loss_is_the_value_of_loss_with_grad_bitwise():
    graph, _ = hidden_toy(seed=3)
    X = np.random.default_rng(4).normal(0, 1, (graph.n_nodes, 5))
    X[1] = X[0]  # a zero-length edge, if 0 and 1 are joined
    cfg = LossConfig()
    value = loss(graph, X, cfg)
    assert type(value) is float
    assert value == loss_with_grad(graph, X, cfg)[0]


def test_loss_gradient_matches_fd():
    graph, _ = hidden_toy(seed=2)
    rand = np.random.default_rng(1)
    X = rand.normal(0, 1, (graph.n_nodes, 3))
    cfg = LossConfig()
    _, dX = loss_with_grad(graph, X, cfg)
    h = 1e-6
    for _ in range(10):
        i = rand.integers(0, X.shape[0])
        j = rand.integers(0, X.shape[1])
        Xp, Xm = X.copy(), X.copy()
        Xp[i, j] += h
        Xm[i, j] -= h
        fd = (loss(graph, Xp, cfg) - loss(graph, Xm, cfg)) / (2 * h)
        assert fd == pytest.approx(dX[i, j], abs=1e-9)


# --- the streamed loss -------------------------------------------------------------

@pytest.mark.parametrize("k, block_bytes", [(64, None), (5, 8 * 5 * 11)],
                         ids=["k64", "k5-11-rows"])
def test_streamed_loss_matches_the_whole_array_oracle_bitwise(k, block_bytes, monkeypatch):
    if block_bytes is not None:
        monkeypatch.setattr(forcefield, "BLOCK_BYTES", block_bytes)
    graph = random_graph(1500, seed=7, n_nodes=300)
    cfg = LossConfig()
    edges, _, _ = training._loss_terms(graph)
    rows = forcefield.BLOCK_BYTES // (8 * k)
    # several blocks, the last one short
    assert edges.size > rows and edges.size % rows != 0
    X = np.random.default_rng(k).normal(0, 1.5, (graph.n_nodes, k))
    # a zero-length loss edge in the first block: it gets no gradient
    X[graph.v[edges[1]]] = X[graph.u[edges[1]]]

    value, grad = loss_with_grad(graph, X, cfg)
    streamed = loss(graph, X, cfg)
    want_value, want_grad = loss_with_grad_whole(graph, X, cfg)
    assert value == streamed == want_value
    assert grad.tobytes() == want_grad.tobytes()
    assert np.isfinite(grad).all()


def test_the_loss_refuses_positions_without_a_row_per_endpoint():
    graph, _ = hidden_toy(seed=3)
    X = np.zeros((graph.n_nodes - 1, 2))
    with pytest.raises(ValueError, match="not a row of X"):
        loss_with_grad(graph, X, LossConfig())


@pytest.fixture(scope="module")
def many_edges():
    """m = 10 n at k = 64: one (loss edges) x k array outweighs 8 n x k arrays."""
    graph = random_graph(20000, seed=5, n_nodes=2000)
    X = np.random.default_rng(6).normal(0, 1.5, (graph.n_nodes, 64))
    return graph, X


def test_loss_with_grad_holds_no_loss_edge_by_dims_array(many_edges):
    # the whole-array formula peaked at 2.33x of one such array, the streamed
    # one at 0.32x (the gradient itself is 0.12x)
    graph, X = many_edges
    cfg = LossConfig()
    edges, _, _ = training._loss_terms(graph)
    assert traced_peak(lambda: loss_with_grad(graph, X, cfg)) < edges.size * X.shape[1] * 8


@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_an_epoch_holds_its_tape_and_a_few_node_arrays(many_edges, kind):
    # above the tape an epoch holds the final V, gX, gV, w and the VJP's
    # per-edge scalars: 7.6 (spring) and 8.8 (spring-nn) n x k arrays here, or
    # 136 and 195 bytes per edge beyond 5 of them; the whole-array loss held 20.8
    graph, X = many_edges
    statics = compute_node_statics(graph)
    ctx = prepare(graph, statics)
    n, k = X.shape
    sim = SimConfig(k=k, n_steps=4, seed=1)
    tape = (sim.n_steps + 1) * n * k * 8
    peak = traced_peak(lambda: loss_and_grad(graph, statics, init_params(kind, 3), sim,
                                             LossConfig(), ctx=ctx))
    assert peak <= tape + 5 * n * k * 8 + 40 * 8 * graph.n_edges


@pytest.mark.parametrize("semi_implicit", [False, True])
@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_a_segmented_epoch_holds_its_segment_tape_and_a_few_node_arrays(
        many_edges, kind, semi_implicit):
    # the schedule's segments hold more than one step under either ordering
    # here; the count holds their start states, the edge lengths of the steps
    # they replay and the positions of the segment being swept, and the full
    # tape of 61 positions would not fit this bound.  The peak comes at a VJP,
    # 6.6 (spring) and 7.7 (spring-nn) n x k arrays above the count here,
    # after the replay has dropped its segment's V
    graph, X = many_edges
    statics = compute_node_statics(graph)
    ctx = prepare(graph, statics)
    n, k = X.shape
    sim = SimConfig(k=k, n_steps=60, seed=1, semi_implicit=semi_implicit)
    lengths = training._segment_lengths(n, graph.n_edges, k, sim.n_steps)
    assert max(lengths) > 1
    tape = training.tape_floats(n, graph.n_edges, k, lengths) * 8
    peak = traced_peak(lambda: loss_and_grad(graph, statics, init_params(kind, 3), sim,
                                             LossConfig(), ctx=ctx))
    assert peak <= tape + 5 * n * k * 8 + 40 * 8 * graph.n_edges


@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_a_replay_holds_its_positions_and_one_field_call(many_edges, kind, monkeypatch):
    # the replay advances the segment's own V: beyond the positions it makes it
    # holds what one field call at the kept lengths holds, the gain and no copy
    # of V, which would be one n x k array more than this bound.  The explicit
    # ordering makes its last position before its last field call, so that
    # call is the peak
    graph, X = many_edges
    statics = compute_node_statics(graph)
    ctx = prepare(graph, statics)
    n, k = X.shape
    params = init_params(kind, 3)
    sim = SimConfig(k=k, n_steps=4, seed=1)
    monkeypatch.setattr(training, "_segment_lengths", lambda *args: [sim.n_steps])
    _, (seg,) = training._taped_forward(params, sim, SimState(X, np.zeros_like(X)), ctx)
    out, gain = seg.V.copy(), node_gain(ctx, params, sim.dt)
    field = max(traced_peak(lambda: force_field(ctx, params, seg.X, seed=sim.seed, step=j,
                                                out=out, gain=gain, lengths=lengths))
                for j, lengths in enumerate(seg.lengths))
    peak = traced_peak(lambda: training._replay(seg, params, sim, ctx))
    assert peak <= (seg.steps - 1) * n * k * 8 + field + n * k * 8 // 2


@pytest.mark.parametrize("semi_implicit", [False, True])
def test_loss_and_grad_leaves_the_given_start_state_untouched(semi_implicit, monkeypatch):
    # the replay advances the first segment's V in place, which is a copy of
    # the caller's; the start state keeps velocities, so a replay that advanced
    # them would show.  The plain tape and one segment of every step as well
    graph, _ = hidden_toy(seed=4)
    st = statics_of(graph)
    rand = np.random.default_rng(3)
    X0 = rand.uniform(-1, 1, (graph.n_nodes, 3))
    V0 = rand.normal(0, 0.5, (graph.n_nodes, 3))
    state0 = SimState(X0.copy(), V0.copy(), 2)
    sim = SimConfig(k=3, n_steps=5, seed=6, semi_implicit=semi_implicit)
    for lengths in ([3, 2], [1] * 5, [5]):
        monkeypatch.setattr(training, "_segment_lengths", lambda *args: lengths)
        loss_and_grad(graph, st, init_params("spring-nn", 1), sim, LossConfig(),
                      state0=state0)
        assert state0.X.tobytes() == X0.tobytes() and state0.V.tobytes() == V0.tobytes()


def held_for_the_sweep(params, sim, ctx, state0):
    """The most bytes `loss_and_grad` holds at once for its reverse sweep from
    state0: while it replays a segment, the final positions, the arrays
    `_taped_forward` keeps of that segment and every earlier one, and the
    positions the replay makes."""
    # the replay advances the first segment's V, which is state0's own here
    state0 = SimState(state0.X, state0.V.copy(), state0.t_step)
    final, segments = training._taped_forward(params, sim, state0, ctx)
    held = peak = final.X.nbytes
    for seg in segments:
        held += sum(a.nbytes for a in (seg.X, seg.V, *seg.lengths) if a is not None)
        replayed = training._replay(seg, params, sim, ctx)[1:]
        peak = max(peak, held + sum(X.nbytes for X, _ in replayed))
    return peak, segments


@pytest.mark.parametrize("k", [2, 16])
def test_bench_tape_bytes_are_the_arrays_the_tape_keeps(k, monkeypatch):
    # the one count from the graph's sizes alone is what the tape holds under
    # every schedule of 1 to 7 steps, forced, and under either ordering.
    # bench counts it at the rule's schedule, which is all 1s at k = 2 and
    # holds longer segments at k = 16 for 20 and 40 steps.  An edge whose ends
    # coincide at the start is tie-broken at the first steps, which keep their
    # lengths like any other
    from graphspring import SimState, bench
    graph, _ = hidden_toy(seed=4)
    st = statics_of(graph)
    ctx = prepare(graph, st)
    n, m = graph.n_nodes, graph.n_edges
    params = init_params("spring-nn", 1)
    X0 = np.random.default_rng(8).uniform(-1, 1, (n, k))
    X0[graph.v[0]] = X0[graph.u[0]]
    state0 = SimState(X0, np.zeros((n, k)))
    for semi_implicit in (False, True):
        for n_steps in (*range(1, 8), 20, 40):
            sim = SimConfig(k=k, n_steps=n_steps, seed=6, semi_implicit=semi_implicit)
            held, segments = held_for_the_sweep(params, sim, ctx, state0)
            assert bench.tape_bytes(n, m, k, n_steps) == held
            if n_steps >= 20:
                assert (len(segments) < n_steps) == (k == 16)
    for semi_implicit in (False, True):
        for n_steps in range(1, 8):
            sim = SimConfig(k=k, n_steps=n_steps, seed=6, semi_implicit=semi_implicit)
            for lengths in compositions(n_steps):
                monkeypatch.setattr(training, "_segment_lengths", lambda *args: lengths)
                held, segments = held_for_the_sweep(params, sim, ctx, state0)
                assert [seg.steps for seg in segments] == lengths
                assert training.tape_floats(n, m, k, lengths) * 8 == held


@pytest.mark.parametrize("n_nodes, n_edges, k", [
    (4, 8, 4),      # a step's lengths are half its positions
    (4, 16, 4),     # as many floats as its positions: ties
    (30, 20, 8),    # a twelfth
    (10, 200, 4),   # five times: the plain tape
])
def test_the_schedule_has_the_least_count_of_every_schedule(n_nodes, n_edges, k):
    # the least of every composition of 0 to 12 steps, by brute force, and
    # the shortest first segment among the schedules that reach it
    for n_steps in range(13):
        lengths = training._segment_lengths(n_nodes, n_edges, k, n_steps)
        assert sum(lengths) == n_steps and all(steps >= 1 for steps in lengths)
        least, first = least_tape_floats(n_nodes, n_edges, k, n_steps)
        assert training.tape_floats(n_nodes, n_edges, k, lengths) == least
        assert lengths[:1] == first


def test_the_schedules_of_bench_and_the_dense_graph():
    from graphspring import bench
    # graphspring bench's graph: segments that shorten toward the end hold
    # 84.6 MB at once, against 112.6 MB for 8 segments of 15 steps
    lengths = training._segment_lengths(5881, 21492, 64, 120)
    assert lengths == [24, 21, 18, 15, 13, 10, 8, 6, 3, 1, 1]
    assert bench.tape_bytes(5881, 21492, 64, 120) == 84_640_736
    assert training.tape_floats(5881, 21492, 64, [15] * 8) * 8 == 112_600_064
    # perfbench's train-dense-spring8-semi: a step's lengths are more floats
    # than its positions, so the plain tape of every position
    assert training._segment_lengths(10000, 100000, 8, 120) == [1] * 120
    assert bench.tape_bytes(10000, 100000, 8, 120) == 121 * 10000 * 8 * 8


def test_a_schedule_of_ten_thousand_steps_takes_under_a_second():
    import time
    started = time.perf_counter()
    lengths = training._segment_lengths(5881, 21492, 64, 10_000)
    assert time.perf_counter() - started < 1.0
    assert sum(lengths) == 10_000 and lengths == sorted(lengths, reverse=True)


# --- gradients through the simulation ------------------------------------------

def fd_gradient(graph, st, params, sim_cfg, loss_cfg, indices, h=1e-6):
    flat = params.flatten()
    out = {}
    for i in indices:
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        lp, _, _ = loss_and_grad(graph, st, type(params).from_flat(fp),
                                 sim_cfg, loss_cfg)
        lm, _, _ = loss_and_grad(graph, st, type(params).from_flat(fm),
                                 sim_cfg, loss_cfg)
        out[i] = (lp - lm) / (2 * h)
    return out


def grad_close(ad, fd, rel=1e-4, near_zero=1e-8):
    err = abs(ad - fd)
    return err <= near_zero or err <= rel * max(abs(ad), abs(fd))


@pytest.mark.parametrize("kind,n_steps", [("spring", 6), ("spring-nn", 6)])
def test_grad_through_sim_matches_fd(kind, n_steps):
    graph, _ = hidden_toy(seed=7)
    st = statics_of(graph)
    sim_cfg = SimConfig(k=3, n_steps=n_steps, seed=2)
    loss_cfg = LossConfig()
    rand = np.random.default_rng(kind == "spring")
    params = init_params(kind, seed=3)
    _, grad, _ = loss_and_grad(graph, st, params, sim_cfg, loss_cfg)
    idx = range(7) if kind == "spring" else rand.choice(208, 24, replace=False)
    fd = fd_gradient(graph, st, params, sim_cfg, loss_cfg, idx)
    for i, val in fd.items():
        assert grad_close(grad[i], val), (i, grad[i], val)


@given(st.integers(0, 10 ** 6), st.sampled_from(["spring", "spring-nn"]), st.booleans())
@settings(max_examples=16, deadline=None)
def test_grad_through_sim_property(seed, kind, semi_implicit):
    """loss_and_grad against central differences on random small graphs, for both
    models and both integrator orderings."""
    rand = np.random.default_rng(seed)
    n = int(rand.integers(5, 9))
    graph, _ = hidden_toy(seed=seed, n_nodes=n, n_edges=int(rand.integers(n, 2 * n)))
    st_ = statics_of(graph)
    sim_cfg = SimConfig(k=int(rand.integers(1, 4)), n_steps=int(rand.integers(2, 7)),
                        seed=seed, semi_implicit=semi_implicit)
    params = SpringParams(*rand.uniform(0.5, 3.0, 6), rand.uniform(-0.5, 0.5)) \
        if kind == "spring" else random_neural(rand)
    _, grad, _ = loss_and_grad(graph, st_, params, sim_cfg, LossConfig())
    idx = range(7) if kind == "spring" else rand.choice(208, 16, replace=False)
    fd = fd_gradient(graph, st_, params, sim_cfg, LossConfig(), idx)
    for i, val in fd.items():
        assert grad_close(grad[i], val), (i, grad[i], val)


def test_dead_parameters_have_zero_gradient(monkeypatch):
    # all observed signs positive (negatives hidden): the negative-branch
    # spring parameters cannot influence anything
    u = np.array([0, 1, 2, 0])
    v = np.array([1, 2, 3, 3])
    true = np.array([1, 1, 1, -1], np.int8)
    obs = np.array([1, 1, 1, 0], np.int8)
    graph = SignedGraph(4, u, v, true, obs)
    st = statics_of(graph)
    params = SpringParams()
    sim_cfg = SimConfig(k=2, n_steps=5, seed=1)
    # a loss over every edge supplies a negative target while sigma' stays
    # nonnegative; the visible edges alone have no negative sign
    monkeypatch.setattr(training, "_loss_terms", all_edges_loss_terms)
    _, grad, _ = loss_and_grad(graph, st, params, sim_cfg, LossConfig())
    # flatten order: [l_pos, l_neu, l_neg, a_pos, a_neu, a_neg, beta]
    assert grad[2] == 0.0 and grad[5] == 0.0
    assert abs(grad).sum() > 0


def test_semi_implicit_gradients_match_fd():
    graph, _ = hidden_toy(seed=9)
    st = statics_of(graph)
    sim_cfg = SimConfig(k=3, n_steps=6, seed=4, semi_implicit=True)
    loss_cfg = LossConfig()
    params = init_params("spring", seed=5)
    _, grad, _ = loss_and_grad(graph, st, params, sim_cfg, loss_cfg)
    fd = fd_gradient(graph, st, params, sim_cfg, loss_cfg, range(7))
    for i, val in fd.items():
        assert grad_close(grad[i], val), (i, grad[i], val)


@pytest.mark.parametrize("t0", [None, 3])
@pytest.mark.parametrize("semi_implicit", [False, True])
@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_forward_consistent_with_simulate(kind, semi_implicit, t0):
    from graphspring import SimState, init_state, simulate
    graph, _ = hidden_toy(seed=4)
    st = statics_of(graph)
    sim_cfg = SimConfig(k=3, n_steps=9, seed=6, semi_implicit=semi_implicit)
    params = init_params(kind, seed=1)
    state0 = init_state(graph.n_nodes, sim_cfg)
    if t0 is not None:
        # coincident endpoints on a non-positive edge (the spring model pushes
        # those apart at d = 0) whose tie-break unit depends on the step
        e = np.flatnonzero(graph.observed_sign != 1)[0]
        X0 = state0.X.copy()
        X0[graph.v[e]] = X0[graph.u[e]]
        state0 = SimState(X0, state0.V, t0)
    _, _, final = loss_and_grad(graph, st, params, sim_cfg, LossConfig(),
                                state0=state0 if t0 is not None else None)
    ref = simulate(state0, graph, st, params, sim_cfg)
    assert np.array_equal(final.X, ref.X)
    assert np.array_equal(final.V, ref.V)
    assert final.t_step == ref.t_step == (t0 or 0) + sim_cfg.n_steps
    if t0 is not None:
        unshifted = simulate(SimState(state0.X, state0.V, 0), graph, st, params, sim_cfg)
        assert not np.array_equal(final.X, unshifted.X)


# --- clip and Adam -----------------------------------------------------------------

def test_clip_examples():
    g = np.array([0.5, -2.0, 3.0])
    assert np.array_equal(clip_gradient(g), [0.5, -1.0, 1.0])
    inside = np.array([0.1, -0.9])
    assert np.array_equal(clip_gradient(inside), inside)
    assert np.array_equal(clip_gradient(clip_gradient(g)), clip_gradient(g))


def test_clip_saturates_at_unit_bounds():
    g = np.array([-np.inf, -1.0, -0.0, 1.0, 1.0 + 1e-12, np.inf])
    kept = g.copy()
    assert np.array_equal(clip_gradient(g), [-1.0, -1.0, 0.0, 1.0, 1.0, 1.0])
    assert np.array_equal(g, kept)  # the input is left as it was


def test_adam_zero_gradient_fixpoint():
    params = SpringParams()
    state = AdamState.fresh(7)
    for _ in range(3):
        state, params = adam_step(state, params, np.zeros(7), 0.05)
    assert params == SpringParams()


def test_adam_first_step_magnitude():
    params = SpringParams()
    state = AdamState.fresh(7)
    g = np.full(7, 0.3)
    state, updated = adam_step(state, params, g, 0.05)
    # bias-corrected first step is lr * c / (|c| + eps)
    expected = 0.05 * 0.3 / (0.3 + 1e-8)
    delta = params.flatten() - updated.flatten()
    assert np.allclose(delta, expected, rtol=1e-9)
    assert state.t == 1


def test_adam_deterministic():
    rand = np.random.default_rng(0)
    grads = [rand.normal(0, 1, 7) for _ in range(5)]

    def run():
        params = SpringParams()
        state = AdamState.fresh(7)
        for g in grads:
            state, params = adam_step(state, params, g, 0.01)
        return params.flatten()

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(AdamState.fresh(3), SpringParams(), np.zeros(3), 0.1)


# --- train loop -----------------------------------------------------------------

def test_epochs_must_be_positive():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_single_epoch_is_one_adam_step():
    graph, _ = hidden_toy(seed=11)
    cfg = TrainConfig(epochs=1, sim=SimConfig(k=3, n_steps=5), model_kind="spring",
                      seed=13, val_fraction=0.0)
    params, history = train(graph, None, cfg)
    assert len(history) == 1
    assert history[0].epoch == 1
    # reproduce by hand: same init, one loss/grad/clip/adam cycle
    from graphspring import rng
    st = compute_node_statics(graph)
    p0 = init_params("spring", rng.derive_seed(13, "param-init"))
    sim = SimConfig(k=3, n_steps=5,
                    seed=rng.derive_seed(13, "epoch-init", 0))
    _, grad, _ = loss_and_grad(graph, st, p0, sim, cfg.loss)
    adam, expected = adam_step(AdamState.fresh(7), p0, clip_gradient(grad), cfg.lr)
    assert np.array_equal(params.flatten(), expected.flatten())


def test_training_reduces_loss_on_toy_graph():
    # the loss from one fixed start state, at the initial and the trained
    # parameters; the epochs themselves each start from a fresh draw
    from graphspring import init_state, rng
    wins = 0
    for seed in range(5):
        graph, _ = hidden_toy(seed=20 + seed, n_nodes=20, n_edges=46)
        cfg = TrainConfig(epochs=50, sim=SimConfig(k=4, n_steps=15),
                          model_kind="spring", seed=seed, val_fraction=0.0)
        trained, _ = train(graph, None, cfg)
        initial = init_params("spring", rng.derive_seed(seed, "param-init"))
        st = statics_of(graph)
        state0 = init_state(graph.n_nodes, cfg.sim)
        before, after = (loss_and_grad(graph, st, p, cfg.sim, cfg.loss, state0=state0)[0]
                         for p in (initial, trained))
        if after < before:
            wins += 1
    assert wins >= 3  # median over seeds improves


def test_configs_hold_only_the_settings_a_run_can_change():
    import dataclasses
    assert [f.name for f in dataclasses.fields(LossConfig)] == ["mu"]
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "epochs", "sim", "loss", "model_kind", "lr", "seed", "val_fraction"]
    with pytest.raises(TypeError):
        LossConfig(domain="all_edges_oracle")
    with pytest.raises(TypeError):
        TrainConfig(init_policy="fixed")


def test_each_epoch_starts_from_the_state_its_own_seed_draws():
    from graphspring import init_state, rng
    graph, _ = hidden_toy(seed=31)
    base = dict(sim=SimConfig(k=3, n_steps=4), model_kind="spring", seed=3,
                val_fraction=0.0)
    after_one, _ = train(graph, None, TrainConfig(epochs=1, **base))
    _, history = train(graph, None, TrainConfig(epochs=2, **base))
    st = statics_of(graph)
    sims = [SimConfig(k=3, n_steps=4, seed=rng.derive_seed(3, training.EPOCH_INIT_TAG, e))
            for e in range(2)]
    second = loss_and_grad(graph, st, after_one, sims[1], LossConfig())[0]
    assert history[1].loss == second
    # the two epochs start from different positions
    starts = [init_state(graph.n_nodes, sim).X for sim in sims]
    assert not np.array_equal(*starts)


def test_train_loss_leaves_out_the_validation_edges():
    from graphspring import rng
    graph, _ = hidden_toy(seed=30, n_nodes=24, n_edges=60)
    cfg = TrainConfig(epochs=1, sim=SimConfig(k=3, n_steps=6),
                      model_kind="spring", seed=2, val_fraction=0.2)
    _, history = train(graph, None, cfg)
    val_edges = training._stratified_validation(graph, 0.2, 2)
    assert val_edges.size > 0 and (graph.observed_sign[val_edges] != 0).all()
    observed = graph.observed_sign.copy()
    observed[val_edges] = 0
    view = graph.with_observed(observed)
    p0 = init_params("spring", rng.derive_seed(2, "param-init"))
    sim = SimConfig(k=3, n_steps=6, seed=rng.derive_seed(2, training.EPOCH_INIT_TAG, 0))
    expected = loss_and_grad(view, compute_node_statics(view), p0, sim, cfg.loss)[0]
    assert history[0].loss == expected


def test_validation_metrics_recorded():
    graph, _ = hidden_toy(seed=30, n_nodes=24, n_edges=60)
    cfg = TrainConfig(epochs=3, sim=SimConfig(k=3, n_steps=6),
                      model_kind="spring", seed=2, val_fraction=0.2)
    _, history = train(graph, None, cfg)
    assert len(history) == 3
    for row in history:
        assert np.isfinite(row.auc_l)
        assert np.isfinite(row.f1_macro)
        assert row.wall_ms >= 0


def test_tape_length_equals_steps(monkeypatch):
    # memory of the backward pass is the per-step position tape: the forward
    # pass (simulate) evaluates the field once per step, the reverse sweep
    # takes one VJP per taped state, last step first
    import importlib
    import graphspring.training as tr
    # the package re-exports the function `simulate` under the submodule's name
    sim = importlib.import_module("graphspring.simulate")
    forward, reverse = [], []

    def recording(calls, original):
        def wrapper(*args, **kwargs):
            calls.append(kwargs.get("step"))
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "force_field", recording(forward, sim.force_field))
    monkeypatch.setattr(tr, "force_field_vjp", recording(reverse, tr.force_field_vjp))
    graph, _ = hidden_toy(seed=5)
    st = statics_of(graph)
    loss_and_grad(graph, st, SpringParams(), SimConfig(k=2, n_steps=7, seed=1),
                  LossConfig())
    assert forward == list(range(7))
    assert reverse == list(range(6, -1, -1))


@pytest.mark.parametrize("k", [2, 16])
@pytest.mark.parametrize("semi_implicit", [False, True])
@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_segmented_tape_is_bitwise_the_full_tape(kind, semi_implicit, k, monkeypatch):
    # every schedule of 1 to 7 steps, forced, from the plain tape (all 1s) to
    # one segment of the whole run
    from graphspring import SimState
    graph, _ = hidden_toy(seed=4)
    st = statics_of(graph)
    ctx = prepare(graph, st)
    params = init_params(kind, seed=1)
    # a non-positive edge whose ends coincide and move alike: its tie-break
    # unit depends on the absolute step, and it is tie-broken at step 0 (and
    # under the explicit ordering at step 1), whose force segment 0 replays
    e = np.flatnonzero(graph.observed_sign != 1)[0]
    rand = np.random.default_rng(8)
    X0 = rand.uniform(-1, 1, (graph.n_nodes, k))
    V0 = rand.normal(0, 0.5, (graph.n_nodes, k))
    X0[graph.v[e]], V0[graph.v[e]] = X0[graph.u[e]], V0[graph.u[e]]
    state0 = SimState(X0, V0, 5)
    for n_steps in range(1, 8):
        sim = SimConfig(k=k, n_steps=n_steps, seed=6, semi_implicit=semi_implicit)
        want = loss_and_grad_full_tape(graph, st, params, sim, LossConfig(),
                                       state0=state0, ctx=ctx)
        for lengths in compositions(n_steps):
            monkeypatch.setattr(training, "_segment_lengths", lambda *args: lengths)
            value, grad, final = loss_and_grad(graph, st, params, sim, LossConfig(),
                                               state0=state0, ctx=ctx)
            assert value == want[0]
            assert np.array_equal(grad, want[1])
            assert np.array_equal(final.X, want[2].X) and np.array_equal(final.V, want[2].V)
            _, segments = training._taped_forward(params, sim, state0, ctx)
            assert [(seg.start, seg.steps) for seg in segments] == [
                (5 + sum(lengths[:i]), steps) for i, steps in enumerate(lengths)]
            if segments and segments[0].lengths:
                assert segments[0].lengths[0][e] < EPS   # the tie-broken step keeps its lengths


def test_divergence_reports_epoch():
    graph, _ = hidden_toy(seed=6)
    cfg = TrainConfig(epochs=2, sim=SimConfig(k=2, n_steps=400, dt=80.0),
                      model_kind="spring", seed=1, val_fraction=0.0)
    from graphspring import SimulationDivergedError
    with pytest.raises(SimulationDivergedError, match="epoch") as err:
        train(graph, None, cfg)
    assert err.value.epoch == 1
    assert 0 <= err.value.node < graph.n_nodes


# --- checkpoints --------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    rand = np.random.default_rng(2)
    params = random_neural(rand)
    adam = AdamState(m=rand.normal(0, 1, 208), v=rand.uniform(0, 1, 208), t=17)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, Checkpoint(params=params, adam=adam, epoch=17))
    back = load_checkpoint(path)
    assert back.epoch == 17
    assert np.array_equal(back.params.flatten(), params.flatten())
    assert np.array_equal(back.adam.m, adam.m)
    assert np.array_equal(back.adam.v, adam.v)
    assert back.adam.t == adam.t


def test_checkpoint_holds_only_adam_state(tmp_path):
    import dataclasses
    import json
    assert [f.name for f in dataclasses.fields(AdamState)] == ["m", "v", "t"]
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, Checkpoint(SpringParams(), AdamState.fresh(7), epoch=1))
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    assert sorted(doc["adam"]) == ["m_b64", "t", "v_b64"]


def test_checkpoint_write_failing_midway_keeps_previous(tmp_path, monkeypatch):
    import json
    rand = np.random.default_rng(3)
    params = random_neural(rand)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, Checkpoint(params=params, adam=AdamState.fresh(208),
                                     epoch=4))

    def torn_dump(obj, fh, **kwargs):
        fh.write('{"format": "graphspring-checkpoint", "epo')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, Checkpoint(params=SpringParams(),
                                         adam=AdamState.fresh(7), epoch=5))
    monkeypatch.undo()
    back = load_checkpoint(path)
    assert back.epoch == 4
    assert np.array_equal(back.params.flatten(), params.flatten())
    assert [f.name for f in tmp_path.iterdir()] == ["ckpt.json"]


def test_history_write_failing_midway_keeps_previous(tmp_path, monkeypatch):
    import csv
    history = [EpochStats(1, 0.5, 0.75, 0.625, 12.0), EpochStats(2, 0.25, 0.8, 0.7, 11.0)]
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    before = path.read_bytes()

    class TornWriter:
        def __init__(self, fh):
            self.fh = fh

        def writerow(self, row):
            self.fh.write("epoch,lo")
            raise OSError("disk full")

    monkeypatch.setattr(csv, "writer", TornWriter)
    with pytest.raises(OSError, match="disk full"):
        write_history_csv(path, history[:1])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["history.csv"]


def test_resume_reproduces_uninterrupted_run(tmp_path):
    graph, _ = hidden_toy(seed=40, n_nodes=16, n_edges=40)
    base = dict(sim=SimConfig(k=3, n_steps=6), model_kind="spring-nn", seed=9,
                val_fraction=0.1)
    straight, _ = train(graph, None, TrainConfig(epochs=6, **base))

    snapshots = {}
    train(graph, None, TrainConfig(epochs=3, **base),
          on_epoch=lambda ck, st_: snapshots.__setitem__(ck.epoch, ck))
    resumed, hist = train(graph, None, TrainConfig(epochs=6, **base),
                          resume=snapshots[3])
    assert [h.epoch for h in hist] == [4, 5, 6]
    assert np.array_equal(straight.flatten(), resumed.flatten())


def test_history_csv(tmp_path):
    graph, _ = hidden_toy(seed=41)
    cfg = TrainConfig(epochs=2, sim=SimConfig(k=2, n_steps=4),
                      model_kind="spring", seed=4, val_fraction=0.0)
    _, history = train(graph, None, cfg)
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,auc_l,f1_macro,wall_ms"
    assert len(lines) == 3
