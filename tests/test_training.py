import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspring import (SignedGraph, SimConfig, compute_node_statics,
                         init_params, load_checkpoint, save_checkpoint)
from graphspring.forces import SpringParams
from graphspring.training import (AdamState, Checkpoint, EpochStats, LossConfig,
                                  TrainConfig, adam_step, clip_gradient, loss,
                                  loss_and_grad, loss_with_grad, predict_prob,
                                  train, write_history_csv)

from conftest import hidden_toy, statics_of
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


def test_loss_zero_one_encoding():
    g = pair_graph([1, -1])
    X = place_at_distance(g, [2.5, 2.5])
    assert loss(g, X, LossConfig(target_encoding="zero_one")) == \
        pytest.approx(0.25 + 0.25)


def test_loss_domain_excludes_hidden():
    g = pair_graph([1, 1, -1], observed=[1, 0, -1])
    X = place_at_distance(g, [1.0, 0.1, 4.0])
    visible_val = loss(g, X, LossConfig(domain="visible_only"))
    oracle_val = loss(g, X, LossConfig(domain="all_edges_oracle"))
    assert visible_val != pytest.approx(oracle_val)
    two = pair_graph([1, -1])
    X_two = place_at_distance(two, [1.0, 4.0])
    assert visible_val == pytest.approx(loss(two, X_two, LossConfig()), rel=1e-12)


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


@pytest.mark.parametrize("domain", ["visible_only", "all_edges_oracle"])
@pytest.mark.parametrize("encoding", ["signed", "zero_one"])
def test_loss_is_the_value_of_loss_with_grad_bitwise(domain, encoding):
    graph, _ = hidden_toy(seed=3)
    X = np.random.default_rng(4).normal(0, 1, (graph.n_nodes, 5))
    X[1] = X[0]  # a zero-length edge, if 0 and 1 are joined
    cfg = LossConfig(domain=domain, target_encoding=encoding)
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


def test_dead_parameters_have_zero_gradient():
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
    # oracle domain supplies a negative target while sigma' stays nonnegative
    _, grad, _ = loss_and_grad(graph, st, params, sim_cfg,
                               LossConfig(domain="all_edges_oracle"))
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


def test_clip_invalid_bounds():
    with pytest.raises(ValueError):
        clip_gradient(np.zeros(3), 1.0, -1.0)


def test_adam_zero_gradient_fixpoint():
    params = SpringParams()
    state = AdamState.fresh(7, lr=0.05)
    for _ in range(3):
        state, params = adam_step(state, params, np.zeros(7))
    assert params == SpringParams()


def test_adam_first_step_magnitude():
    params = SpringParams()
    state = AdamState.fresh(7, lr=0.05)
    g = np.full(7, 0.3)
    state, updated = adam_step(state, params, g)
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
        state = AdamState.fresh(7, lr=0.01)
        for g in grads:
            state, params = adam_step(state, params, g)
        return params.flatten()

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(AdamState.fresh(3, 0.1), SpringParams(), np.zeros(3))


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
    adam, expected = adam_step(AdamState.fresh(7, cfg.lr), p0,
                               clip_gradient(grad))
    assert np.array_equal(params.flatten(), expected.flatten())


def test_training_reduces_loss_on_toy_graph():
    wins = 0
    for seed in range(5):
        graph, _ = hidden_toy(seed=20 + seed, n_nodes=20, n_edges=46)
        cfg = TrainConfig(epochs=50, sim=SimConfig(k=4, n_steps=15),
                          model_kind="spring", seed=seed, val_fraction=0.0,
                          init_policy="fixed")
        _, history = train(graph, None, cfg)
        if history[-1].loss < history[0].loss:
            wins += 1
    assert wins >= 3  # median over seeds improves


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


def test_fixed_init_policy_reuses_start_state():
    graph, _ = hidden_toy(seed=31)
    base = dict(epochs=2, sim=SimConfig(k=3, n_steps=4), model_kind="spring",
                seed=3, val_fraction=0.0)
    _, fixed_hist = train(graph, None, TrainConfig(init_policy="fixed", **base))
    _, resample_hist = train(graph, None,
                             TrainConfig(init_policy="resample_each_epoch", **base))
    assert fixed_hist[0].loss == resample_hist[0].loss
    assert fixed_hist[1].loss != resample_hist[1].loss


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
    adam = AdamState(lr=0.03, m=rand.normal(0, 1, 208), v=rand.uniform(0, 1, 208),
                     t=17)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, Checkpoint(params=params, adam=adam, epoch=17))
    back = load_checkpoint(path)
    assert back.epoch == 17
    assert np.array_equal(back.params.flatten(), params.flatten())
    assert np.array_equal(back.adam.m, adam.m)
    assert np.array_equal(back.adam.v, adam.v)
    assert back.adam.t == adam.t


def test_checkpoint_write_failing_midway_keeps_previous(tmp_path, monkeypatch):
    import json
    rand = np.random.default_rng(3)
    params = random_neural(rand)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, Checkpoint(params=params, adam=AdamState.fresh(208, 0.03),
                                     epoch=4))

    def torn_dump(obj, fh, **kwargs):
        fh.write('{"format": "graphspring-checkpoint", "epo')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, Checkpoint(params=SpringParams(),
                                         adam=AdamState.fresh(7, 0.03), epoch=5))
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
