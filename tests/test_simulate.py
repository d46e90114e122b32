import numpy as np
import pytest

from graphspring import (SignedGraph, SimConfig, SimState,
                         SimulationDivergedError, init_state,
                         read_embeddings_binary, read_embeddings_text,
                         simulate, write_embeddings_binary,
                         write_embeddings_text)
from graphspring.forcefield import EPS, force_field, prepare
from graphspring.forces import SpringParams, init_params
from graphspring.simulate import mean_abs_velocity, worst_node

from conftest import hidden_toy, statics_of


def two_body_graph(observed=0):
    return SignedGraph(2, np.array([0]), np.array([1]),
                       np.array([1], np.int8),
                       np.array([observed], np.int8))


# --- init_state ---------------------------------------------------------------

def test_init_velocity_zero():
    state = init_state(5, SimConfig(k=4, seed=1))
    assert np.array_equal(state.V, np.zeros((5, 4)))
    assert state.t_step == 0


def test_init_positions_open_interval():
    state = init_state(200, SimConfig(k=8, seed=2))
    assert (state.X > -1).all() and (state.X < 1).all()


def test_init_deterministic():
    a = init_state(7, SimConfig(k=3, seed=9))
    b = init_state(7, SimConfig(k=3, seed=9))
    assert np.array_equal(a.X, b.X)
    c = init_state(7, SimConfig(k=3, seed=10))
    assert not np.array_equal(a.X, c.X)


# --- step ----------------------------------------------------------------------

def test_step_reads_old_velocity():
    graph = two_body_graph()
    st = statics_of(graph)
    cfg = SimConfig(k=2, dt=0.01, damping=0.1, n_steps=1, seed=0)
    X0 = np.array([[0.0, 0.0], [3.0, 0.0]])
    state = SimState(X0.copy(), np.zeros((2, 2)), 0)
    nxt = simulate(state, graph, st, SpringParams(), cfg)
    # positions see V(t) = 0, so X is unchanged after one step
    assert np.array_equal(nxt.X, X0)
    # velocities pick up dt * F(t); stretched neutral spring force = dist - l_neu = 1
    assert nxt.V[0][0] == pytest.approx(0.01 * 1.0)
    assert nxt.V[1][0] == pytest.approx(-0.01 * 1.0)
    assert nxt.t_step == 1


@pytest.mark.parametrize("semi_implicit", [False, True])
def test_one_step_is_the_damped_euler_update_of_the_public_force_field(semi_implicit):
    # simulate adds dt times the force straight into the damped velocities,
    # with the gain folded into the matrix; written out with the public
    # force_field, the step is V1 = (1 - d) V + dt F(X), X1 = X + dt V (V1 if
    # semi-implicit), equal up to rounding
    graph, _ = hidden_toy(seed=3)
    st = statics_of(graph)
    cfg = SimConfig(k=4, dt=0.01, damping=0.1, n_steps=1, seed=2,
                    semi_implicit=semi_implicit)
    rand = np.random.default_rng(1)
    X = rand.normal(0, 1, (graph.n_nodes, cfg.k))
    V = rand.normal(0, 1, X.shape)
    X[graph.v[0]] = X[graph.u[0]]   # one tie-broken edge
    model = init_params("spring-nn", seed=2)
    F = force_field(prepare(graph, st), model, X, seed=cfg.seed, step=5)
    V1 = (1.0 - cfg.damping) * V + cfg.dt * F
    X1 = X + cfg.dt * (V1 if semi_implicit else V)
    got = simulate(SimState(X, V, 5), graph, st, model, cfg)
    assert np.abs(got.V - V1).max() <= 1e-12 * np.abs(V1).max()
    assert np.abs(got.X - X1).max() <= 1e-12 * np.abs(X1).max()
    assert not np.array_equal(got.X, X + cfg.dt * (V if semi_implicit else V1))


def test_velocity_decay_is_geometric_bitwise():
    # no edges -> zero force -> V scales by (1 - d) each step
    graph = SignedGraph(3, np.zeros(0, np.int64), np.zeros(0, np.int64),
                        np.zeros(0, np.int8), np.zeros(0, np.int8))
    st = statics_of(graph)
    cfg = SimConfig(k=3, dt=0.005, damping=0.05, n_steps=10, seed=0)
    rand = np.random.default_rng(3)
    V0 = rand.normal(0, 1, (3, 3))
    state = SimState(rand.normal(0, 1, (3, 3)), V0.copy(), 0)
    final = simulate(state, graph, st, SpringParams(), cfg)
    expected = V0.copy()
    for _ in range(10):
        expected = (1.0 - cfg.damping) * expected + cfg.dt * 0.0
    assert np.array_equal(final.V, expected)
    assert np.allclose(final.V, (1 - cfg.damping) ** 10 * V0, rtol=1e-12)


def test_zero_steps_returns_state_unchanged():
    graph, _ = hidden_toy()
    st = statics_of(graph)
    cfg = SimConfig(k=4, n_steps=0, seed=5)
    state = init_state(graph.n_nodes, cfg)
    final = simulate(state, graph, st, SpringParams(), cfg)
    assert final is state
    assert np.array_equal(final.X, state.X)


@pytest.mark.parametrize("semi_implicit", [False, True])
def test_simulate_leaves_the_input_state_untouched(semi_implicit):
    # the step adds the force into the velocities in place, so the caller's
    # arrays must never be among them
    graph, _ = hidden_toy(seed=1)
    cfg = SimConfig(k=3, n_steps=4, seed=4, semi_implicit=semi_implicit)
    rand = np.random.default_rng(0)
    state = SimState(rand.normal(0, 1, (graph.n_nodes, 3)),
                     rand.normal(0, 1, (graph.n_nodes, 3)), 2)
    X0, V0 = state.X.copy(), state.V.copy()
    final = simulate(state, graph, statics_of(graph), SpringParams(beta=0.3), cfg)
    assert np.array_equal(state.X, X0) and np.array_equal(state.V, V0)
    assert final.t_step == 6 and not np.array_equal(final.V, V0)


@pytest.mark.parametrize("semi_implicit", [False, True])
@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_simulate_given_the_lengths_it_handed_out_is_bitwise_simulate_without(
        kind, semi_implicit):
    # training's replay runs simulate again at the lengths its forward pass
    # kept, for all of a run's steps or its first few.  A non-positive edge
    # whose ends coincide and move alike is tie-broken at the first step, whose
    # units depend on the absolute step
    graph, _ = hidden_toy(seed=4)
    st = statics_of(graph)
    cfg = SimConfig(k=3, n_steps=6, seed=6, semi_implicit=semi_implicit)
    model = init_params(kind, seed=1)
    e = np.flatnonzero(graph.observed_sign != 1)[0]
    rand = np.random.default_rng(8)
    X0 = rand.uniform(-1, 1, (graph.n_nodes, cfg.k))
    V0 = rand.normal(0, 0.5, X0.shape)
    X0[graph.v[e]], V0[graph.v[e]] = X0[graph.u[e]], V0[graph.u[e]]
    state0 = SimState(X0, V0, 5)

    def run(**hooks):
        states = []
        simulate(state0, graph, st, model, cfg,
                 on_step=lambda s: states.append((s.X, s.V.copy())), **hooks)
        return states

    lengths = []
    want = run(on_lengths=lengths.append)
    assert len(lengths) == cfg.n_steps and lengths[0][e] < EPS
    for given in (lengths, lengths[:2]):
        got = run(lengths=given)
        assert all(np.array_equal(X, X_want) and np.array_equal(V, V_want)
                   for (X, V), (X_want, V_want) in zip(got, want, strict=True))


def test_composition_associative_bitwise():
    graph, _ = hidden_toy(seed=1)
    st = statics_of(graph)
    state = init_state(graph.n_nodes, SimConfig(k=3, seed=4))
    params = SpringParams(beta=0.3)
    whole = simulate(state, graph, st, params,
                     SimConfig(k=3, n_steps=12, seed=4))
    part = simulate(state, graph, st, params, SimConfig(k=3, n_steps=5, seed=4))
    part = simulate(part, graph, st, params, SimConfig(k=3, n_steps=7, seed=4))
    assert np.array_equal(whole.X, part.X)
    assert np.array_equal(whole.V, part.V)
    assert whole.t_step == part.t_step == 12


def test_full_state_determinism():
    graph, _ = hidden_toy(seed=2)
    st = statics_of(graph)
    cfg = SimConfig(k=4, n_steps=30, seed=11)
    params = SpringParams()
    a = simulate(init_state(graph.n_nodes, cfg), graph, st, params, cfg)
    b = simulate(init_state(graph.n_nodes, cfg), graph, st, params, cfg)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.V, b.V)


# --- two-body physics ----------------------------------------------------------

def scalar_two_body_reference(s0, l, stiffness, dt, damping, n_steps):
    """1-D two-body integrator of the same recurrence, one scalar per node."""
    p = [0.0, s0]
    v = [0.0, 0.0]
    sep = []
    for _ in range(n_steps):
        d = abs(p[1] - p[0])
        direction = 1.0 if p[1] >= p[0] else -1.0
        f = stiffness * (d - l)
        forces = [f * direction, -f * direction]
        p = [p[0] + dt * v[0], p[1] + dt * v[1]]
        v = [(1 - damping) * v[0] + dt * forces[0],
             (1 - damping) * v[1] + dt * forces[1]]
        sep.append(abs(p[1] - p[0]))
    return sep


def _two_body_modes(s0, l, stiffness, dt, damping):
    """(amplitude, 1 - eigenvalue) of the slow and fast modes of the pair.

    In relative coordinates (s = separation - l, u = relative velocity) the
    explicit damped-Euler step is linear while the pair stays apart:
        s' = s + dt u,    u' = (1 - damping) u - 2 stiffness dt s.
    The eigenvalues of [[1, dt], [-2 stiffness dt, 1 - damping]] are 1 - mu
    with mu^2 - damping mu + 2 stiffness dt^2 = 0.  The larger root is taken
    from the quadratic formula and the smaller from the product of the roots,
    so neither suffers cancellation.  Only the overdamped case (two real
    roots) is handled.
    """
    disc = damping ** 2 - 8.0 * stiffness * dt ** 2
    if disc <= 0.0:
        raise ValueError("closed form covers the overdamped pair only")
    mu_fast = 0.5 * (damping + np.sqrt(disc))
    mu_slow = 2.0 * stiffness * dt ** 2 / mu_fast
    # the pair starts at rest, so s_0 = s_1 = s0 - l fixes both amplitudes
    gap0 = s0 - l
    return ((gap0 * mu_fast / (mu_fast - mu_slow), mu_slow),
            (-gap0 * mu_slow / (mu_fast - mu_slow), mu_fast))


def closed_form_two_body(s0, l, stiffness, dt, damping, n_steps):
    """Separations after steps 1..n_steps: s_n = sum of c (1 - mu)^n."""
    n = np.arange(1, n_steps + 1)
    s = sum(c * np.exp(n * np.log1p(-mu))
            for c, mu in _two_body_modes(s0, l, stiffness, dt, damping))
    return np.abs(l + s)


def two_body_settle_step(s0, l, stiffness, dt, damping, tol):
    """First step n at which |separation_n - l| < tol, from the closed form.

    |s_n| <= (|c_slow| + |c_fast|) (1 - mu_slow)^n, so the first such step
    comes no later than the n at which that bound drops below tol; the closed
    form is scanned up to there.
    """
    modes = _two_body_modes(s0, l, stiffness, dt, damping)
    amplitude = sum(abs(c) for c, _ in modes)
    mu_slow = modes[0][1]
    n_bound = max(1, int(np.floor(np.log(tol / amplitude) / np.log1p(-mu_slow))) + 1)
    gaps = np.abs(closed_form_two_body(s0, l, stiffness, dt, damping, n_bound) - l)
    return int(np.argmax(gaps < tol)) + 1


def test_two_body_trajectory_matches_scalar_reference():
    graph = two_body_graph(observed=0)
    st = statics_of(graph)
    params = SpringParams(l_neu=1.0, a_neu=1.0, beta=0.0)
    cfg = SimConfig(k=1, dt=0.005, damping=0.05, n_steps=2000, seed=0)
    state = SimState(np.array([[0.0], [2.0]]), np.zeros((2, 1)), 0)

    reference = scalar_two_body_reference(2.0, 1.0, 1.0, cfg.dt, cfg.damping,
                                          cfg.n_steps)
    seps = []
    simulate(state, graph, st, params, cfg,
             on_step=lambda s: seps.append(abs(s.X[1, 0] - s.X[0, 0])))
    assert np.abs(np.array(seps) - np.array(reference)).max() < 1e-12


def test_two_body_converges_to_rest_length_eventually():
    # the overdamped pair creeps to the rest length; run to the step at which
    # the closed form first puts it within 1e-2
    graph = two_body_graph(observed=0)
    st = statics_of(graph)
    params = SpringParams(l_neu=1.0, a_neu=1.0, beta=0.0)
    n_settle = two_body_settle_step(2.0, 1.0, 1.0, 0.005, 0.05, 1e-2)
    cfg = SimConfig(k=1, dt=0.005, damping=0.05, n_steps=n_settle, seed=0)
    state = SimState(np.array([[0.0], [2.0]]), np.zeros((2, 1)), 0)
    final = simulate(state, graph, st, params, cfg)
    assert abs(abs(final.X[1, 0] - final.X[0, 0]) - 1.0) < 1e-2


def test_two_body_energy_decreases_once_slow():
    graph = two_body_graph(observed=0)
    st = statics_of(graph)
    params = SpringParams(l_neu=1.0, a_neu=1.0, beta=0.0)
    cfg = SimConfig(k=1, dt=0.005, damping=0.05, n_steps=1, seed=0)
    state = SimState(np.array([[0.0], [2.0]]), np.zeros((2, 1)), 0)

    def energy(s):
        sep = abs(s.X[1, 0] - s.X[0, 0])
        kinetic = 0.5 * float((s.V ** 2).sum())
        return kinetic + 0.5 * params.a_neu * (sep - params.l_neu) ** 2

    energies = []
    for _ in range(800):
        state = simulate(state, graph, st, params, cfg)
        energies.append(energy(state))
    tail = np.array(energies[100:])  # past the initial burn-in
    assert (np.diff(tail) <= 1e-12).all()


def test_velocity_decays_on_toy_graph():
    graph, _ = hidden_toy(seed=3)
    st = statics_of(graph)
    cfg = SimConfig(k=8, n_steps=120, seed=6)
    state = init_state(graph.n_nodes, cfg)
    speeds = []
    simulate(state, graph, st, SpringParams(), cfg,
             on_step=lambda s: speeds.append(mean_abs_velocity(s)))
    # mean speed rises from zero, then the damped system settles
    speeds = np.array(speeds)
    peak = int(speeds.argmax())
    assert peak < 80
    assert speeds[-1] < speeds[peak]
    assert (np.diff(speeds[peak:]) <= 1e-9).all()


# --- divergence ------------------------------------------------------------------

def test_divergence_aborts_with_step_index():
    graph = two_body_graph(observed=0)
    st = statics_of(graph)
    params = SpringParams(a_neu=1e6, l_neu=1.0)  # stiff spring under explicit Euler
    cfg = SimConfig(k=1, dt=0.5, damping=0.0, n_steps=10000, seed=0)
    state = SimState(np.array([[0.0], [2.0]]), np.zeros((2, 1)), 0)
    with pytest.raises(SimulationDivergedError) as err:
        simulate(state, graph, st, params, cfg)
    assert err.value.step > 0


def test_divergence_names_the_first_non_finite_node():
    # a soft positive pair (0, 1) and a stiff neutral pair (2, 3): only the
    # stiff pair blows up, and node 2 is its first non-finite row
    graph = SignedGraph(4, np.array([0, 2]), np.array([1, 3]),
                        np.array([1, 1], np.int8), np.array([1, 0], np.int8))
    params = SpringParams(a_neu=1e6, l_neu=1.0, beta=0.0)
    cfg = SimConfig(k=1, dt=0.5, damping=0.0, n_steps=10000, seed=0)
    state = SimState(np.array([[0.0], [1.5], [5.0], [7.0]]), np.zeros((4, 1)), 0)
    with pytest.raises(SimulationDivergedError, match="at node 2") as err:
        simulate(state, graph, statics_of(graph), params, cfg)
    assert err.value.node == 2


def test_a_finite_state_whose_sum_overflows_does_not_diverge():
    # each step first checks that the state sums to a finite number, and the
    # four positions of 1e308 overflow that sum: only a non-finite entry, which
    # the entry by entry check finds, is a divergence, and the overflow of the
    # sum warns of nothing
    import warnings
    graph = two_body_graph(observed=0)
    params = SpringParams(a_neu=1.0, l_neu=1.0, beta=0.0)
    cfg = SimConfig(k=2, dt=0.01, damping=0.05, n_steps=3, seed=0)
    state = SimState(np.full((2, 2), 1e308), np.zeros((2, 2)), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final = simulate(state, graph, statics_of(graph), params, cfg)
    assert final.t_step == 3
    assert np.isfinite(final.X).all() and np.isfinite(final.V).all()
    with np.errstate(over="ignore"):
        assert not np.isfinite(final.X.sum())


def test_a_step_given_its_lengths_is_not_checked_and_the_next_one_is():
    # a step given its lengths replays a step its run already checked, so
    # simulate skips the check there: an infinite velocity passes the first
    # step, given its lengths, and diverges at the second, which computes its
    # own, and at the first without them
    graph = two_body_graph(observed=0)
    st = statics_of(graph)
    params = SpringParams(a_neu=1.0, l_neu=1.0, beta=0.0)
    cfg = SimConfig(k=2, dt=0.01, damping=0.05, n_steps=1, seed=0)
    state = SimState(np.array([[0.0, 0.0], [2.0, 0.0]]),
                     np.array([[np.inf, 0.0], [0.0, 0.0]]), 0)
    lengths = [np.array([2.0])]
    final = simulate(state, graph, st, params, cfg, lengths=lengths)
    assert final.t_step == 1 and not np.isfinite(final.X).all()
    with pytest.raises(SimulationDivergedError, match="step 1:"):
        simulate(state, graph, st, params, cfg)
    with pytest.raises(SimulationDivergedError, match="step 2:"):
        simulate(state, graph, st, params, SimConfig(k=2, dt=0.01, damping=0.05,
                                                     n_steps=2, seed=0), lengths=lengths)


def test_worst_node_is_the_fastest_when_all_finite():
    X = np.zeros((3, 2))
    V = np.array([[1.0, 0.0], [0.0, -3.0], [2.0, 2.0]])
    assert worst_node(X, V) == 1
    V[2, 0] = np.nan
    assert worst_node(X, V) == 2


# --- files ------------------------------------------------------------------------

def test_embeddings_text_round_trip(tmp_path):
    X = np.random.default_rng(1).normal(0, 1, (6, 3))
    path = tmp_path / "emb.txt"
    write_embeddings_text(path, X)
    back = read_embeddings_text(path)
    assert np.array_equal(back, X)
    header = path.read_text().splitlines()[0]
    assert header == "6 3"


def test_embeddings_binary_round_trip(tmp_path):
    X = np.random.default_rng(2).normal(0, 1, (5, 4))
    path = tmp_path / "emb.bin"
    write_embeddings_binary(path, X)
    back = read_embeddings_binary(path)
    assert np.array_equal(back, X)


def test_binary_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 60)
    with pytest.raises(ValueError):
        read_embeddings_binary(path)


def test_binary_rejects_short_payload(tmp_path):
    path = tmp_path / "emb.bin"
    write_embeddings_binary(path, np.ones((5, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="shorter than its 5 x 4 header"):
        read_embeddings_binary(path)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(damping=1.0)
    with pytest.raises(ValueError):
        SimConfig(n_steps=-1)
