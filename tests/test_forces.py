import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspring.forces import (MlpParams, NeuralSpringParams, SpringParams,
                                edge_statics, force_batch, force_batch_vjp,
                                init_params, mlp_batch, params_from_json,
                                params_to_json)

from oracles import mlp_eval, neural_force, neural_gain, spring_force, spring_gain


def random_mlp(rand, n_in, hidden, scale=0.5):
    return MlpParams(
        w0=rand.normal(0, scale, (hidden, n_in)),
        b0=rand.normal(0, scale, hidden),
        w1=rand.normal(0, scale, hidden),
        b1=float(rand.normal(0, scale)),
    )


def random_neural(rand, scale=0.5):
    return NeuralSpringParams(
        gain_net=random_mlp(rand, 3, 3, scale),
        f_neutral=random_mlp(rand, 7, 7, scale),
        f_positive=random_mlp(rand, 7, 7, scale),
        f_negative=random_mlp(rand, 7, 7, scale),
    )


# --- spring force -----------------------------------------------------------

def test_neutral_spring_direct_substitution():
    p = SpringParams(a_neu=2.0, l_neu=1.5)
    assert spring_force(p, 0, 2.0) == pytest.approx(1.0)


def test_positive_spring_slack_inside_rest_length():
    p = SpringParams(l_pos=1.0, a_pos=3.0)
    assert spring_force(p, 1, 0.5) == 0.0
    assert spring_force(p, 1, 1.0) == 0.0


def test_negative_spring_free_beyond_rest_length():
    p = SpringParams(l_neg=3.0, a_neg=2.0)
    assert spring_force(p, -1, 4.0) == 0.0
    assert spring_force(p, -1, 3.0) == 0.0


def test_neutral_zero_at_rest_length_exactly():
    p = SpringParams(l_neu=2.0, a_neu=1.7)
    assert spring_force(p, 0, 2.0) == 0.0


@given(st.floats(0, 10), st.floats(0.1, 5), st.floats(0.1, 5))
@settings(max_examples=100, deadline=None)
def test_sign_semantics(dist, rest, stiff):
    p = SpringParams(l_pos=rest, l_neg=rest, a_pos=stiff, a_neg=stiff)
    assert spring_force(p, 1, dist) >= 0.0   # attract only
    assert spring_force(p, -1, dist) <= 0.0  # repel only


def test_piecewise_linear_slope_matches_stiffness():
    p = SpringParams(l_pos=1.0, l_neu=2.0, l_neg=3.0, a_pos=1.5, a_neu=2.5, a_neg=0.7)
    h = 1e-7
    for sign, at, slope in [(0, 5.0, 2.5), (1, 2.0, 1.5), (1, 0.4, 0.0),
                            (-1, 1.0, 0.7), (-1, 4.0, 0.0)]:
        fd = (spring_force(p, sign, at + h) - spring_force(p, sign, at - h)) / (2 * h)
        assert fd == pytest.approx(slope, abs=1e-5)


def test_continuity_at_hinges():
    p = SpringParams()
    for sign, hinge in [(1, p.l_pos), (-1, p.l_neg)]:
        below = spring_force(p, sign, hinge - 1e-12)
        above = spring_force(p, sign, hinge + 1e-12)
        assert abs(below - above) < 1e-10


def batch_case(kind, n=100, seed=0):
    """A model, a batch of edge lengths and static features from both
    endpoints, and the scalar feature vectors [dist, deg, neg, pos per end]
    that `neural_force` takes, built independently of `edge_statics`."""
    rand = np.random.default_rng(seed)
    p = (SpringParams(1.1, 2.2, 3.3, 0.5, 0.7, 0.9, 0.2) if kind == "spring"
         else random_neural(rand))
    node_features = rand.uniform(0, 1, (10, 3))
    a, b = rand.integers(0, 10, (2, n))
    dist = rand.uniform(0, 5, n)

    def z(i, x, y):
        return np.array([dist[i], *[node_features[end, j] for j in range(3)
                                    for end in (x, y)]])

    scalar = [(z(i, a[i], b[i]), z(i, b[i], a[i])) for i in range(n)]
    return (p, dist, edge_statics(node_features, a, b), edge_statics(node_features, b, a),
            scalar)


def scalar_force(p, sign, z):
    if isinstance(p, SpringParams):
        return spring_force(p, sign, z[0])
    return neural_force(p, sign, z)


SIGN_SLOTS = {  # flat parameter indices that belong to each sign
    ("spring", 0): [1, 4], ("spring", 1): [0, 3], ("spring", -1): [2, 5],
    **{("spring-nn", s): list(range(16 + 64 * i, 16 + 64 * (i + 1)))
       for i, s in enumerate((0, 1, -1))},
}


@pytest.mark.parametrize("sign", [0, 1, -1])
@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_batch_matches_scalar(kind, sign):
    p, dist, static_uv, static_vu, scalar = batch_case(kind)
    f_uv, f_vu = force_batch(p, sign, dist, static_uv, static_vu)
    for i, (z_uv, z_vu) in enumerate(scalar):
        assert f_uv[i] == pytest.approx(scalar_force(p, sign, z_uv))
        assert f_vu[i] == pytest.approx(scalar_force(p, sign, z_vu))


@pytest.mark.parametrize("sign", [0, 1, -1])
@pytest.mark.parametrize("kind", ["spring", "spring-nn"])
def test_batch_vjp_matches_central_differences(kind, sign):
    p, dist, static_uv, static_vu, _ = batch_case(kind, n=40, seed=1)
    rand = np.random.default_rng(2)
    up_uv, up_vu = rand.normal(0, 1, (2, dist.size))
    grad = np.zeros(p.n_params)
    f_uv, f_vu, ddist = force_batch_vjp(p, sign, dist, static_uv, static_vu,
                                        up_uv, up_vu, grad)
    fwd_uv, fwd_vu = force_batch(p, sign, dist, static_uv, static_vu)
    assert np.array_equal(f_uv, fwd_uv) and np.array_equal(f_vu, fwd_vu)

    def objective(params, d):  # one term per edge
        uv, vu = force_batch(params, sign, d, static_uv, static_vu)
        return up_uv * uv + up_vu * vu

    h, flat = 1e-6, p.flatten()
    fd_params = np.empty(flat.size)
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        fd_params[i] = (objective(type(p).from_flat(fp), dist).sum()
                        - objective(type(p).from_flat(fm), dist).sum()) / (2 * h)
    fd_dist = (objective(p, dist + h) - objective(p, dist - h)) / (2 * h)
    # the bound of the force-field VJP checks: four orders above the ~1e-10
    # error of central differences with h = 1e-6
    for ad, fd in ((grad, fd_params), (ddist, fd_dist)):
        assert np.all(np.abs(ad - fd) <= np.maximum(1e-7, 1e-5 * np.abs(fd))), \
            np.abs(ad - fd).max()
    others = np.setdiff1d(np.arange(p.n_params), SIGN_SLOTS[kind, sign])
    assert np.all(grad[others] == 0.0)
    assert np.any(grad[SIGN_SLOTS[kind, sign]] != 0.0)


# --- gain -------------------------------------------------------------------

def test_gain_zero_degree():
    p = SpringParams(beta=0.8)
    assert spring_gain(p, 0, 4.0) == 1.0


def test_gain_saturates_at_p80():
    p = SpringParams(beta=0.8)
    assert spring_gain(p, 4, 4.0) == pytest.approx(1.8)
    assert spring_gain(p, 400, 4.0) == pytest.approx(1.8)


def test_gain_half_p80():
    p = SpringParams(beta=0.5)
    assert spring_gain(p, 2, 4.0) == pytest.approx(1.25)


def test_gain_invalid_p80():
    with pytest.raises(ValueError):
        spring_gain(SpringParams(), 1, 0.0)


# --- MLP ----------------------------------------------------------------------

def test_zero_network_outputs_zero():
    p = MlpParams(np.zeros((7, 7)), np.zeros(7), np.zeros(7), 0.0)
    assert mlp_eval(p, np.arange(7.0)) == 0.0


def test_identity_relu_sums_positive_entries():
    p = MlpParams(np.eye(5), np.zeros(5), np.ones(5), 0.0)
    x = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
    assert mlp_eval(p, x) == pytest.approx(9.0)


def test_mlp_matches_double_loop_oracle():
    rand = np.random.default_rng(42)
    for _ in range(10):
        p = random_mlp(rand, 7, 7)
        x = rand.normal(0, 1, 7)
        hidden = []
        for i in range(7):
            acc = p.b0[i]
            for j in range(7):
                acc += p.w0[i, j] * x[j]
            hidden.append(max(acc, 0.0))
        want = p.b1
        for i in range(7):
            want += p.w1[i] * hidden[i]
        assert mlp_eval(p, x) == pytest.approx(want, rel=1e-12)


def test_mlp_dimension_mismatch():
    p = MlpParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        mlp_eval(p, np.zeros(4))


def test_mlp_positively_homogeneous_in_output_layer():
    rand = np.random.default_rng(7)
    p = random_mlp(rand, 7, 7)
    x = rand.normal(0, 1, 7)
    for c in (2.0, -3.0, 0.5):
        scaled = MlpParams(p.w0, p.b0, c * p.w1, c * p.b1)
        assert mlp_eval(scaled, x) == pytest.approx(c * mlp_eval(p, x), rel=1e-12)


def test_mlp_batch_matches_scalar():
    rand = np.random.default_rng(3)
    p = random_mlp(rand, 7, 7)
    xs = rand.normal(0, 1, (20, 7))
    batch = mlp_batch(p, xs)
    for i in range(20):
        assert batch[i] == pytest.approx(mlp_eval(p, xs[i]), rel=1e-12)


# --- neural model dispatch -------------------------------------------------------

def test_neural_zero_net_ignores_features():
    zero = MlpParams(np.zeros((7, 7)), np.zeros(7), np.zeros(7), 0.0)
    rand = np.random.default_rng(1)
    p = NeuralSpringParams(random_mlp(rand, 3, 3), zero,
                           random_mlp(rand, 7, 7), random_mlp(rand, 7, 7))
    for _ in range(5):
        assert neural_force(p, 0, rand.normal(0, 1, 7)) == 0.0


def test_neural_sign_dispatch_differs():
    rand = np.random.default_rng(2)
    p = random_neural(rand)
    z = rand.normal(0, 1, 7)
    outs = {s: neural_force(p, s, z) for s in (-1, 0, 1)}
    assert len({round(v, 12) for v in outs.values()}) == 3
    assert outs[0] == pytest.approx(mlp_eval(p.f_neutral, z), rel=1e-12)
    assert outs[1] == pytest.approx(mlp_eval(p.f_positive, z), rel=1e-12)
    assert outs[-1] == pytest.approx(mlp_eval(p.f_negative, z), rel=1e-12)


def test_constant_gain_network():
    gain = MlpParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 1.0)
    rand = np.random.default_rng(3)
    p = NeuralSpringParams(gain, random_mlp(rand, 7, 7),
                           random_mlp(rand, 7, 7), random_mlp(rand, 7, 7))
    for _ in range(5):
        assert neural_gain(p, rand.uniform(0, 1, 3)) == 1.0


# --- parameter counts, init, serialization --------------------------------------

def test_spring_flattens_to_seven():
    assert SpringParams().flatten().shape == (7,)


def test_neural_parameter_count_matches_architecture():
    # three 7->7->1 nets (64 each) plus one 3->3->1 net (16)
    p = init_params("spring-nn", seed=0)
    assert p.n_params == 3 * (7 * 7 + 7 + 7 + 1) + (3 * 3 + 3 + 3 + 1) == 208
    assert p.flatten().shape == (208,)


def test_flatten_round_trip():
    rand = np.random.default_rng(11)
    p = random_neural(rand)
    q = NeuralSpringParams.from_flat(p.flatten())
    assert np.array_equal(p.flatten(), q.flatten())
    s = SpringParams(1.5, 2.5, 3.5, 0.1, 0.2, 0.3, -0.4)
    assert SpringParams.from_flat(s.flatten()) == s


def test_init_deterministic():
    a = init_params("spring-nn", seed=9)
    b = init_params("spring-nn", seed=9)
    assert np.array_equal(a.flatten(), b.flatten())
    c = init_params("spring-nn", seed=10)
    assert not np.array_equal(a.flatten(), c.flatten())


def test_spring_init_encodes_sign_ordering():
    p = init_params("spring")
    assert p.l_pos < p.l_neu < p.l_neg
    assert spring_force(p, 0, p.l_neu) == 0.0


def test_init_output_within_interval_bound():
    p = init_params("spring-nn", seed=4)
    rand = np.random.default_rng(5)
    for net in (p.f_neutral, p.f_positive, p.f_negative):
        z = rand.uniform(-1, 1, 7)
        # interval arithmetic: |out| <= sum_i |w1_i| * max(0, sum_j |w0_ij| |z_j| + |b0_i|) + |b1|
        hidden_bound = np.maximum(np.abs(net.w0) @ np.abs(z) + np.abs(net.b0), 0.0)
        bound = float(np.abs(net.w1) @ hidden_bound + abs(net.b1))
        out = mlp_eval(net, z)
        assert abs(out) <= bound + 1e-12


def test_json_round_trip_bit_exact():
    rand = np.random.default_rng(13)
    for params in (SpringParams(0.1 + 1e-17, 2, 3, 1, 1, 1, 0.3),
                   random_neural(rand)):
        text = params_to_json(params)
        back = params_from_json(text)
        assert type(back) is type(params)
        assert np.array_equal(params.flatten(), back.flatten())
        # byte-stable re-serialization
        assert params_to_json(back) == text


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        params_from_json("{}")


@pytest.mark.parametrize("key, value", [("version", True), ("n_params", 7.0)])
def test_json_rejects_a_count_that_is_not_an_int(key, value):
    # json reads true as True, and True == 1 and 7.0 == 7 in Python
    doc = json.loads(params_to_json(SpringParams()))
    doc[key] = value
    with pytest.raises(ValueError, match=key):
        params_from_json(json.dumps(doc))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        init_params("bogus")
