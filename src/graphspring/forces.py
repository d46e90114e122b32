"""Scalar force models: Hooke-style springs and their neural-network variant.

Both models define the same two functions, evaluated in batches: a per-edge
force magnitude `f` (positive values attract the endpoints along the edge
direction, negative values repel), one formula or MLP per observed edge sign,
and a per-node gain `g` scaling the aggregated force.  This module alone
checks the model kind; `forcefield.prepare` splits the edges by sign, so each
force batch holds one sign.  Parameters flatten to a single float64 vector
whose layout is fixed here and used by the optimizer, the gradient code and
the parameter files:

    SpringParams.flatten()       -> [l_pos, l_neu, l_neg, a_pos, a_neu, a_neg, beta]
    NeuralSpringParams.flatten() -> [gain_net, f_neutral, f_positive, f_negative]
        where each MLP block is [W0 row-major, b0, W1, b1]

A batch writes only its own sign's slots.  Edge features seen from end i of
edge (i, j) are [dist, deg_i, deg_j, neg_i, neg_j, pos_i, pos_j]: `edge_statics`
fills the last six once, and each force batch writes the lengths into the
first column of that same matrix, so a batch copies no static feature.  Node
gain features are [deg, neg_frac, pos_frac], with degrees normalized to
min(1, deg / p80).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import rng

EDGE_FEATURE_DIM = 7
NODE_FEATURE_DIM = 3
MLP_HIDDEN_F = 7
MLP_HIDDEN_G = 3


@dataclass(frozen=True)
class SpringParams:
    """Rest lengths and stiffnesses per edge sign plus degree-scaling strength."""

    l_pos: float = 1.0
    l_neu: float = 2.0
    l_neg: float = 3.0
    a_pos: float = 1.0
    a_neu: float = 1.0
    a_neg: float = 1.0
    beta: float = 0.0

    kind = "spring"
    n_params = 7

    def flatten(self) -> np.ndarray:
        return np.array([self.l_pos, self.l_neu, self.l_neg,
                         self.a_pos, self.a_neu, self.a_neg, self.beta], dtype=np.float64)

    @classmethod
    def from_flat(cls, vec: np.ndarray) -> "SpringParams":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (7,):
            raise ValueError(f"expected 7 parameters, got shape {vec.shape}")
        return cls(*(float(x) for x in vec))


@dataclass(frozen=True)
class MlpParams:
    """One-hidden-layer perceptron: W1 . relu(W0 x + b0) + b1."""

    w0: np.ndarray  # (hidden, in)
    b0: np.ndarray  # (hidden,)
    w1: np.ndarray  # (hidden,)
    b1: float

    def __post_init__(self):
        h = self.w0.shape[0]
        if self.b0.shape != (h,) or self.w1.shape != (h,):
            raise ValueError("MLP parameter shapes are inconsistent")
        if not all(np.isfinite(a).all() for a in (self.w0, self.b0, self.w1, self.b1)):
            raise ValueError("MLP parameters must be finite")

    @property
    def n_params(self) -> int:
        return self.w0.size + 2 * self.w0.shape[0] + 1

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.w0.ravel(), self.b0, self.w1, [self.b1]])

    @classmethod
    def from_flat(cls, vec: np.ndarray, n_in: int, hidden: int) -> "MlpParams":
        vec = np.asarray(vec, dtype=np.float64)
        expected = hidden * n_in + 2 * hidden + 1
        if vec.shape != (expected,):
            raise ValueError(f"expected {expected} parameters, got shape {vec.shape}")
        w0 = vec[: hidden * n_in].reshape(hidden, n_in).copy()
        b0 = vec[hidden * n_in: hidden * n_in + hidden].copy()
        w1 = vec[hidden * n_in + hidden: hidden * n_in + 2 * hidden].copy()
        return cls(w0, b0, w1, float(vec[-1]))


@dataclass(frozen=True)
class NeuralSpringParams:
    """Per-sign force MLPs (7 inputs, 7 hidden) and a node-gain MLP (3 in, 3 hidden)."""

    gain_net: MlpParams
    f_neutral: MlpParams
    f_positive: MlpParams
    f_negative: MlpParams

    kind = "spring-nn"

    def __post_init__(self):
        if self.gain_net.w0.shape != (MLP_HIDDEN_G, NODE_FEATURE_DIM):
            raise ValueError("gain net must map 3 features through 3 hidden units")
        for net in (self.f_neutral, self.f_positive, self.f_negative):
            if net.w0.shape != (MLP_HIDDEN_F, EDGE_FEATURE_DIM):
                raise ValueError("force nets must map 7 features through 7 hidden units")

    @property
    def n_params(self) -> int:
        return (self.gain_net.n_params + self.f_neutral.n_params
                + self.f_positive.n_params + self.f_negative.n_params)

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.gain_net.flatten(), self.f_neutral.flatten(),
                               self.f_positive.flatten(), self.f_negative.flatten()])

    @classmethod
    def from_flat(cls, vec: np.ndarray) -> "NeuralSpringParams":
        vec = np.asarray(vec, dtype=np.float64)
        n_g = MLP_HIDDEN_G * NODE_FEATURE_DIM + 2 * MLP_HIDDEN_G + 1
        n_f = MLP_HIDDEN_F * EDGE_FEATURE_DIM + 2 * MLP_HIDDEN_F + 1
        if vec.shape != (n_g + 3 * n_f,):
            raise ValueError(f"expected {n_g + 3 * n_f} parameters, got shape {vec.shape}")
        gain = MlpParams.from_flat(vec[:n_g], NODE_FEATURE_DIM, MLP_HIDDEN_G)
        nets = [MlpParams.from_flat(vec[n_g + i * n_f: n_g + (i + 1) * n_f],
                                    EDGE_FEATURE_DIM, MLP_HIDDEN_F)
                for i in range(3)]
        return cls(gain, *nets)


ForceParams = Union[SpringParams, NeuralSpringParams]
MODEL_KINDS = (SpringParams.kind, NeuralSpringParams.kind)


# --- batched evaluation and vector-Jacobian products -------------------------
#
# The backward pass needs, for an upstream scalar per magnitude, the gradient
# with respect to the flat parameter vector plus dL/ddist (the only feature
# that depends on positions).  The force VJPs return the magnitudes too, so the
# backward pass evaluates each MLP once per direction.


def edge_statics(node_features: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The edge feature matrix of the edges (a, b) seen from a, column-major, so
    the MLPs read each feature as one contiguous run: columns 1-6 hold the static
    features [deg_a, deg_b, neg_a, neg_b, pos_a, pos_b] from node feature rows
    [deg, neg, pos], and column 0 is left for the lengths, which every force
    batch over these edges writes in place."""
    out = np.empty((a.size, EDGE_FEATURE_DIM), order="F")
    out[:, 0] = 0.0
    for j, column in enumerate(node_features.T.copy()):   # contiguous columns gather fast
        out[:, 1 + 2 * j] = column[a]
        out[:, 2 + 2 * j] = column[b]
    return out


def _features(dist: np.ndarray, features: np.ndarray) -> np.ndarray:
    """`features`, an `edge_statics` matrix, with the lengths written into its
    first column."""
    features[:, 0] = dist
    return features


def spring_force_batch(p: SpringParams, sign: int, dist: np.ndarray) -> np.ndarray:
    if sign == 0:
        return p.a_neu * (dist - p.l_neu)
    if sign > 0:
        return p.a_pos * np.maximum(dist - p.l_pos, 0.0)
    return -p.a_neg * np.maximum(p.l_neg - dist, 0.0)


def spring_force_batch_vjp(p: SpringParams, sign: int, dist: np.ndarray,
                           upstream: np.ndarray, grad: np.ndarray):
    """`force_batch_vjp` for springs, given dL/df_uv + dL/df_vu as `upstream`."""
    if sign == 0:
        grad[4] = np.dot(upstream, dist - p.l_neu)               # a_neu
        grad[1] = -p.a_neu * upstream.sum()                      # l_neu
        dfdd = p.a_neu
    elif sign > 0:
        active = dist > p.l_pos
        grad[3] = np.dot(upstream, np.maximum(dist - p.l_pos, 0.0))   # a_pos
        grad[0] = -p.a_pos * np.dot(upstream, active)                 # l_pos
        dfdd = p.a_pos * active
    else:
        active = dist < p.l_neg
        grad[5] = -np.dot(upstream, np.maximum(p.l_neg - dist, 0.0))  # a_neg
        grad[2] = -p.a_neg * np.dot(upstream, active)                 # l_neg
        dfdd = p.a_neg * active
    f = spring_force_batch(p, sign, dist)
    return f, f, upstream * dfdd


def mlp_batch(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the MLP on rows of x, shape (n, in) -> (n,)."""
    pre = p.w0 @ x.T
    pre += p.b0[:, None]
    return p.w1 @ np.maximum(pre, 0.0, out=pre) + p.b1


def mlp_batch_vjp(p: MlpParams, x: np.ndarray, upstream: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over rows of x: (outputs as `mlp_batch` gives them, grad wrt the
    flat MLP params given dL/doutput rows, raw doutput/dx[:, 0] per row)."""
    # hidden units run along rows of length n: the bias, the ReLU and the
    # reductions then stream over long rows instead of n rows of a few columns
    pre = p.w0 @ x.T
    pre += p.b0[:, None]
    slope = (pre > 0) * p.w1[:, None]   # relu subgradient at 0 is 0
    hidden = np.maximum(pre, 0.0, out=pre)
    d_x0 = p.w0[:, 0] @ slope
    d_hidden = np.multiply(slope, upstream, out=slope)   # slope is read above
    grad = np.concatenate([(d_hidden @ x).ravel(), d_hidden.sum(axis=1),
                           hidden @ upstream, [upstream.sum()]])
    return p.w1 @ hidden + p.b1, grad, d_x0


def gain_batch(params: ForceParams, node_features: np.ndarray) -> np.ndarray:
    """Per-node gain; `node_features` rows are [deg_norm, neg_frac, pos_frac]."""
    if isinstance(params, SpringParams):
        return node_features[:, 0] * params.beta + 1.0
    return mlp_batch(params.gain_net, node_features)


def gain_batch_vjp(params: ForceParams, node_features: np.ndarray,
                   upstream: np.ndarray) -> np.ndarray:
    grad = np.zeros(params.n_params)
    if isinstance(params, SpringParams):
        grad[6] = np.dot(upstream, node_features[:, 0])
    else:
        _, grad[: params.gain_net.n_params], _ = mlp_batch_vjp(
            params.gain_net, node_features, upstream)
    return grad


def _force_net(p: NeuralSpringParams, sign: int) -> tuple[MlpParams, slice]:
    """The force MLP of an edge sign and its slots in the flat parameter vector."""
    slot, size = (0, 1, -1).index(sign), p.f_neutral.n_params
    start = p.gain_net.n_params + slot * size
    return (p.f_neutral, p.f_positive, p.f_negative)[slot], slice(start, start + size)


def force_batch(params: ForceParams, sign: int, dist: np.ndarray,
                static_uv: np.ndarray, static_vu: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes (f_uv, f_vu) toward u and toward v of a batch of edges of one
    sign, from their lengths and their `edge_statics` seen from u and from v.
    The neural model writes the lengths into column 0 of static_uv and
    static_vu in place, so two threads must not pass the same matrices at once."""
    if isinstance(params, SpringParams):
        f = spring_force_batch(params, sign, dist)
        return f, f
    net, _ = _force_net(params, sign)
    return (mlp_batch(net, _features(dist, static_uv)),
            mlp_batch(net, _features(dist, static_vu)))


def force_batch_vjp(params: ForceParams, sign: int, dist: np.ndarray,
                    static_uv: np.ndarray, static_vu: np.ndarray,
                    up_uv: np.ndarray, up_vu: np.ndarray, grad: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over a batch of one sign: (f_uv, f_vu as `force_batch` gives them,
    dL/ddist) for the upstream dL/df_uv and dL/df_vu.  The gradient wrt the
    sign's own parameters goes into their slots of the flat vector `grad`,
    which must hold zeros there; no other sign touches them.  Like
    `force_batch`, the neural model overwrites column 0 of static_uv and
    static_vu with the lengths."""
    if isinstance(params, SpringParams):
        return spring_force_batch_vjp(params, sign, dist, up_uv + up_vu, grad)
    net, slots = _force_net(params, sign)
    f_uv, g_uv, dfdd_uv = mlp_batch_vjp(net, _features(dist, static_uv), up_uv)
    f_vu, g_vu, dfdd_vu = mlp_batch_vjp(net, _features(dist, static_vu), up_vu)
    grad[slots] += g_uv
    grad[slots] += g_vu
    return f_uv, f_vu, up_uv * dfdd_uv + up_vu * dfdd_vu


# --- initialization -----------------------------------------------------------

INIT_TAG = "param-init"


def _glorot_mlp(seed: int, block: str, n_in: int, hidden: int) -> MlpParams:
    def uniform(tag, count, bound):
        return rng.uniform_sym(seed, tag, np.arange(count)) * bound

    s0 = np.sqrt(6.0 / (n_in + hidden))
    s1 = np.sqrt(6.0 / (hidden + 1))
    w0 = uniform(f"{INIT_TAG}:{block}:w0", hidden * n_in, s0).reshape(hidden, n_in)
    w1 = uniform(f"{INIT_TAG}:{block}:w1", hidden, s1)
    return MlpParams(w0=w0, b0=np.zeros(hidden), w1=w1, b1=0.0)


def init_params(kind: str, seed: int = 0) -> ForceParams:
    """Fresh parameters: ordered rest lengths for springs, Glorot-uniform MLPs."""
    if kind == "spring":
        return SpringParams()
    if kind == "spring-nn":
        return NeuralSpringParams(
            gain_net=_glorot_mlp(seed, "gain", NODE_FEATURE_DIM, MLP_HIDDEN_G),
            f_neutral=_glorot_mlp(seed, "f0", EDGE_FEATURE_DIM, MLP_HIDDEN_F),
            f_positive=_glorot_mlp(seed, "f+", EDGE_FEATURE_DIM, MLP_HIDDEN_F),
            f_negative=_glorot_mlp(seed, "f-", EDGE_FEATURE_DIM, MLP_HIDDEN_F),
        )
    raise ValueError(f"unknown model kind {kind!r} (expected one of {list(MODEL_KINDS)})")


# --- parameter files -----------------------------------------------------------
#
# Versioned JSON with the flat vector stored as base64 of little-endian float64
# bytes so round-trips are bit-exact, plus a rounded preview for humans.

PARAMS_FORMAT = "graphspring-params"
PARAMS_VERSION = 1


def encode_flat(vec: np.ndarray) -> str:
    return base64.b64encode(vec.astype("<f8").tobytes()).decode("ascii")


def decode_flat(text: str, count: int) -> np.ndarray:
    vec = np.frombuffer(base64.b64decode(text), dtype="<f8")
    if vec.shape != (count,):
        raise ValueError(f"parameter payload has {vec.shape[0]} values, expected {count}")
    return vec.astype(np.float64)


def params_to_json(params: ForceParams) -> str:
    flat = params.flatten()
    doc = {
        "format": PARAMS_FORMAT,
        "version": PARAMS_VERSION,
        "kind": params.kind,
        "n_params": int(flat.shape[0]),
        "data_b64": encode_flat(flat),
        "preview": [round(float(x), 6) for x in flat[:16]],
    }
    return json.dumps(doc, indent=2) + "\n"


def params_from_json(text: str) -> ForceParams:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != PARAMS_FORMAT:
        raise ValueError("not a parameter file")
    # a type check first: json gives True for true, and True == 1
    if type(doc.get("version")) is not int or doc["version"] != PARAMS_VERSION:
        raise ValueError(f"unsupported parameter file version "
                         f"{json.dumps(doc.get('version'))}")
    if type(doc["n_params"]) is not int:
        raise ValueError(f"n_params must be an integer, not {json.dumps(doc['n_params'])}")
    flat = decode_flat(doc["data_b64"], doc["n_params"])
    if doc["kind"] == "spring":
        return SpringParams.from_flat(flat)
    if doc["kind"] == "spring-nn":
        return NeuralSpringParams.from_flat(flat)
    raise ValueError(f"unknown model kind {doc['kind']!r}")
