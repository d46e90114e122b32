"""Scalar force models: Hooke-style springs and their neural-network variant.

Both models define the same two functions, evaluated in batches: a per-edge
force magnitude `f` (positive values attract the endpoints along the edge
direction, negative values repel) dispatched on the observed edge sign, and a
per-node gain `g` scaling the aggregated force.  Parameters flatten to a
single float64 vector whose layout is fixed here and used by the optimizer,
the gradient code and the parameter files:

    SpringParams.flatten()       -> [l_pos, l_neu, l_neg, a_pos, a_neu, a_neg, beta]
    NeuralSpringParams.flatten() -> [gain_net, f_neutral, f_positive, f_negative]
        where each MLP block is [W0 row-major, b0, W1, b1]

Edge feature vectors for the neural model are laid out as
[dist, deg_i, deg_j, neg_i, neg_j, pos_i, pos_j]; node gain features as
[deg, neg_frac, pos_frac], with degrees normalized to min(1, deg / p80).
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
        h, n_in = self.w0.shape
        if self.b0.shape != (h,) or self.w1.shape != (h,):
            raise ValueError("MLP parameter shapes are inconsistent")
        for arr in (self.w0, self.b0, self.w1):
            if not np.isfinite(arr).all():
                raise ValueError("MLP parameters must be finite")
        if not np.isfinite(self.b1):
            raise ValueError("MLP parameters must be finite")

    @property
    def n_params(self) -> int:
        h, n_in = self.w0.shape
        return h * n_in + h + h + 1

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


# --- batched evaluation and vector-Jacobian products -------------------------
#
# The simulation evaluates f over all directed edges and g over all nodes each
# step; the backward pass needs, for an upstream scalar per edge/node, the
# gradient with respect to the flat parameter vector plus df/ddist (the only
# feature that depends on positions).  The force VJPs return the magnitudes
# too, so the backward pass evaluates each MLP once.


def spring_force_batch(p: SpringParams, signs: np.ndarray, dist: np.ndarray) -> np.ndarray:
    neutral = p.a_neu * (dist - p.l_neu)
    positive = p.a_pos * np.maximum(dist - p.l_pos, 0.0)
    negative = -p.a_neg * np.maximum(p.l_neg - dist, 0.0)
    return np.where(signs == 0, neutral, np.where(signs > 0, positive, negative))


def spring_force_batch_vjp(p: SpringParams, signs: np.ndarray, dist: np.ndarray,
                           upstream: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (magnitudes, grad wrt flat params, raw df/ddist with no upstream applied)."""
    grad = np.zeros(7)
    dfdd = np.zeros_like(dist)

    m = signs == 0
    if m.any():
        grad[4] = np.dot(upstream[m], dist[m] - p.l_neu)          # a_neu
        grad[1] = -p.a_neu * upstream[m].sum()                    # l_neu
        dfdd[m] = p.a_neu

    m = signs > 0
    if m.any():
        stretched = np.maximum(dist[m] - p.l_pos, 0.0)
        active = dist[m] > p.l_pos
        grad[3] = np.dot(upstream[m], stretched)                  # a_pos
        grad[0] = -p.a_pos * np.dot(upstream[m], active)          # l_pos
        dfdd[m] = p.a_pos * active

    m = signs < 0
    if m.any():
        compressed = np.maximum(p.l_neg - dist[m], 0.0)
        active = dist[m] < p.l_neg
        grad[5] = -np.dot(upstream[m], compressed)                # a_neg
        grad[2] = -p.a_neg * np.dot(upstream[m], active)          # l_neg
        dfdd[m] = p.a_neg * active

    return spring_force_batch(p, signs, dist), grad, dfdd


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
    d_hidden = slope * upstream
    grad = np.concatenate([(d_hidden @ x).ravel(), d_hidden.sum(axis=1),
                           hidden @ upstream, [upstream.sum()]])
    return p.w1 @ hidden + p.b1, grad, p.w0[:, 0] @ slope


def _sign_blocks(p: NeuralSpringParams, signs: np.ndarray):
    """(parameter slot, force net, row selector) for each sign present in `signs`.
    A batch of one sign is selected by a full slice, so its rows are not copied."""
    for slot, (sign_val, net) in enumerate(((0, p.f_neutral), (1, p.f_positive),
                                            (-1, p.f_negative))):
        m = signs == sign_val
        if m.all():
            yield slot, net, slice(None)
        elif m.any():
            yield slot, net, m


def neural_force_batch(p: NeuralSpringParams, signs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.zeros(z.shape[0])
    for _, net, rows in _sign_blocks(p, signs):
        out[rows] = mlp_batch(net, z[rows])
    return out


def neural_force_batch_vjp(p: NeuralSpringParams, signs: np.ndarray, z: np.ndarray,
                           upstream: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (magnitudes, grad wrt flat params, raw df/ddist) where dist is column 0
    of z; one MLP pass per sign."""
    n_g = p.gain_net.n_params
    n_f = p.f_neutral.n_params
    out = np.zeros(z.shape[0])
    grad = np.zeros(p.n_params)
    dfdd = np.zeros(z.shape[0])
    for slot, net, rows in _sign_blocks(p, signs):
        out[rows], grad[n_g + slot * n_f: n_g + (slot + 1) * n_f], dfdd[rows] = \
            mlp_batch_vjp(net, z[rows], upstream[rows])
    return out, grad, dfdd


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


def force_batch(params: ForceParams, signs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-edge force magnitudes; z rows are edge features with dist in column 0."""
    if isinstance(params, SpringParams):
        return spring_force_batch(params, signs, z[:, 0])
    return neural_force_batch(params, signs, z)


def force_batch_vjp(params: ForceParams, signs: np.ndarray, z: np.ndarray,
                    upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over the edges: (magnitudes as `force_batch` gives them, grad wrt the
    flat params given dL/dmagnitude per edge, raw dmagnitude/ddist per edge)."""
    if isinstance(params, SpringParams):
        return spring_force_batch_vjp(params, signs, z[:, 0], upstream)
    return neural_force_batch_vjp(params, signs, z, upstream)


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
    raise ValueError(f"unknown model kind {kind!r} (expected 'spring' or 'spring-nn')")


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
    if doc.get("format") != PARAMS_FORMAT:
        raise ValueError("not a parameter file")
    if doc.get("version") != PARAMS_VERSION:
        raise ValueError(f"unsupported parameter file version {doc.get('version')}")
    flat = decode_flat(doc["data_b64"], doc["n_params"])
    if doc["kind"] == "spring":
        return SpringParams.from_flat(flat)
    if doc["kind"] == "spring-nn":
        return NeuralSpringParams.from_flat(flat)
    raise ValueError(f"unknown model kind {doc['kind']!r}")
