"""Loss, reverse-mode gradients through the unrolled simulation, and Adam.

The forward pass is `simulate.simulate` with an `on_step` hook that records
every intermediate position matrix (memory grows linearly with the step
count); the backward pass walks the recorded states in reverse, applying the
hand-derived vector-Jacobian products of the Euler update and of the force
field.  Gradients are flat vectors aligned with `params.flatten()`.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from . import rng
from .artifacts import atomic_write
from .forces import (ForceParams, decode_flat, encode_flat, init_params,
                     params_from_json, params_to_json)
from .forcefield import FieldContext, force_field_vjp, prepare
from .graphs import NodeStatics, SignedGraph, compute_node_statics
from .metrics import auc, f1_scores, predict
from .simulate import (SimConfig, SimState, SimulationDivergedError, init_state,
                       simulate, worst_node)

EPOCH_INIT_TAG = "epoch-init"
VAL_TAG = "val-hide"


def predict_prob(dist, mu: float):
    """Probability that an edge is positive: logistic in (mu - dist)."""
    return expit(mu - np.asarray(dist, dtype=np.float64))


@dataclass(frozen=True)
class LossConfig:
    mu: float = 2.5
    domain: str = "visible_only"          # or "all_edges_oracle"
    target_encoding: str = "signed"  # or "zero_one"

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.domain not in ("visible_only", "all_edges_oracle"):
            raise ValueError(f"unknown loss domain {self.domain!r}")
        if self.target_encoding not in ("signed", "zero_one"):
            raise ValueError(f"unknown target encoding {self.target_encoding!r}")


def _loss_terms(graph: SignedGraph, cfg: LossConfig):
    if cfg.domain == "visible_only":
        mask = graph.observed_sign != 0
        class_sign = graph.observed_sign[mask]
    else:
        mask = np.ones(graph.n_edges, dtype=bool)
        class_sign = graph.true_sign[mask]
    n_pos = int((class_sign == 1).sum())
    n_neg = int((class_sign == -1).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("loss domain must contain both positive and negative edges")
    weight = np.where(class_sign == 1, 1.0 / n_pos, 1.0 / n_neg)
    target = graph.true_sign[mask].astype(np.float64)
    if cfg.target_encoding == "zero_one":
        target = (target + 1.0) / 2.0
    return np.flatnonzero(mask), weight, target


def _edge_residuals(graph: SignedGraph, X: np.ndarray, cfg: LossConfig):
    """Per loss edge: endpoints, X[v] - X[u], its length, the predicted
    probability, target - probability, and the class weight."""
    edges, weight, target = _loss_terms(graph, cfg)
    u, v = graph.u[edges], graph.v[edges]
    diff = X[v] - X[u]
    dist = np.sqrt((diff * diff).sum(axis=1))
    prob = predict_prob(dist, cfg.mu)
    return u, v, diff, dist, prob, target - prob, weight


def loss(graph: SignedGraph, X: np.ndarray, cfg: LossConfig) -> float:
    """Weighted squared error between edge targets and logistic distance scores."""
    *_, resid, weight = _edge_residuals(graph, X, cfg)
    return float((resid * resid * weight).sum())


def loss_with_grad(graph: SignedGraph, X: np.ndarray,
                   cfg: LossConfig) -> tuple[float, np.ndarray]:
    """`loss` and its gradient with respect to X."""
    u, v, diff, dist, prob, resid, weight = _edge_residuals(graph, X, cfg)
    value = float((resid * resid * weight).sum())

    # d value / d dist = 2 (target - p) w * p (1 - p); then distribute along diff
    ddist = 2.0 * resid * weight * prob * (1.0 - prob)
    scale = np.zeros_like(dist)
    live = dist > 0
    scale[live] = ddist[live] / dist[live]
    ddiff = scale[:, None] * diff
    dX = np.zeros_like(X, dtype=np.float64)
    np.add.at(dX, v, ddiff)
    np.add.at(dX, u, -ddiff)
    return value, dX


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    sim: SimConfig = field(default_factory=SimConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    model_kind: str = "spring-nn"
    lr: float = 0.03
    clip_lo: float = -1.0
    clip_hi: float = 1.0
    seed: int = 0
    init_policy: str = "resample_each_epoch"  # or "fixed"
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.init_policy not in ("resample_each_epoch", "fixed"):
            raise ValueError(f"unknown init policy {self.init_policy!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        if self.clip_lo >= self.clip_hi:
            raise ValueError("clip_lo must be below clip_hi")


def loss_and_grad(graph: SignedGraph, statics: NodeStatics, params: ForceParams,
                  sim_cfg: SimConfig, loss_cfg: LossConfig,
                  state0: SimState | None = None,
                  ctx: FieldContext | None = None
                  ) -> tuple[float, np.ndarray, SimState]:
    """Loss of the simulated embedding and its gradient wrt the parameters.

    Runs the forward simulation with a full per-step position tape, then the
    reverse sweep through every Euler update and force evaluation.  The
    initial state and the graph are held fixed.
    """
    if ctx is None:
        ctx = prepare(graph, statics)
    state = state0 if state0 is not None else init_state(graph.n_nodes, sim_cfg)
    t0 = state.t_step
    tape = [state.X]
    final = simulate(state, graph, statics, params, sim_cfg, ctx=ctx,
                     on_step=lambda s: tape.append(s.X))

    value, gX = loss_with_grad(graph, final.X, loss_cfg)
    gV = np.zeros_like(gX)
    scratch = np.empty_like(gX)
    grad = np.zeros_like(params.flatten())
    dt, damp = sim_cfg.dt, sim_cfg.damping

    for t in range(sim_cfg.n_steps - 1, -1, -1):
        if sim_cfg.semi_implicit:
            gV += np.multiply(gX, dt, out=scratch)   # the adjoint of V1
        dXF, dtheta = force_field_vjp(ctx, params, tape[t],
                                      np.multiply(gV, dt, out=scratch),
                                      seed=sim_cfg.seed, step=t0 + t)
        gV *= 1.0 - damp
        if not sim_cfg.semi_implicit:
            gV += np.multiply(gX, dt, out=scratch)
        gX += dXF
        grad += dtheta
        if not np.isfinite(grad).all():
            raise SimulationDivergedError(t0 + t, worst_node(gX, gV), "gradient")
    return value, grad, final


def clip_gradient(g: np.ndarray, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """Elementwise clamp of the gradient vector."""
    if lo >= hi:
        raise ValueError("lo must be below hi")
    return np.clip(g, lo, hi)


@dataclass(frozen=True)
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    m: np.ndarray = None  # type: ignore[assignment]
    v: np.ndarray = None  # type: ignore[assignment]
    t: int = 0

    @classmethod
    def fresh(cls, n_params: int, lr: float) -> "AdamState":
        return cls(lr=lr, m=np.zeros(n_params), v=np.zeros(n_params), t=0)


def adam_step(state: AdamState, params: ForceParams,
              g: np.ndarray) -> tuple[AdamState, ForceParams]:
    """One bias-corrected Adam update of the flat parameter vector."""
    flat = params.flatten()
    if g.shape != flat.shape or state.m.shape != flat.shape:
        raise ValueError("gradient/moment shapes do not match the parameters")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    flat = flat - state.lr * m_hat / (np.sqrt(v_hat) + state.eps_hat)
    new_state = replace(state, m=m, v=v, t=t)
    return new_state, type(params).from_flat(flat)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    auc_l: float
    f1_macro: float
    wall_ms: float


def _stratified_validation(graph: SignedGraph, fraction: float,
                           seed: int) -> np.ndarray:
    """Pick ~fraction of visible edges per sign class, by smallest stream draw."""
    if fraction <= 0:
        return np.zeros(0, dtype=np.int64)
    draws = rng.uniform01(seed, VAL_TAG, np.arange(graph.n_edges))
    chosen = []
    for sign_val in (1, -1):
        idx = np.flatnonzero(graph.observed_sign == sign_val)
        if idx.size == 0:
            continue
        n_take = int(np.ceil(fraction * idx.size))
        order = np.argsort(draws[idx], kind="stable")
        chosen.append(idx[order[:n_take]])
    if not chosen:
        return np.zeros(0, dtype=np.int64)
    return np.sort(np.concatenate(chosen)).astype(np.int64)


def _validation_metrics(graph: SignedGraph, val_edges: np.ndarray,
                        X: np.ndarray, mu: float) -> tuple[float, float]:
    if val_edges.size == 0:
        return float("nan"), float("nan")
    pred = predict(graph, val_edges, X, mu)
    truth = pred.true_sign
    _, macro, _, _ = f1_scores(truth, pred.pred_sign)
    if (truth == 1).any() and (truth == -1).any():
        auc_l = auc(pred, "L")
    else:
        auc_l = float("nan")
    return auc_l, macro


def train(graph: SignedGraph, statics: NodeStatics | None, cfg: TrainConfig,
          params0: ForceParams | None = None,
          resume: "Checkpoint | None" = None,
          on_epoch=None,
          ) -> tuple[ForceParams, list[EpochStats]]:
    """Optimize force parameters by gradient descent through the simulation.

    A stratified share of the visible edges is re-hidden as a validation set
    for the per-epoch metrics; those edges leave the loss domain (they act as
    neutral springs, like any hidden edge).  Statics are recomputed on the
    training view so no validation sign leaks into the features.
    """
    val_edges = _stratified_validation(graph, cfg.val_fraction, cfg.seed)
    observed = graph.observed_sign.copy()
    observed[val_edges] = 0
    train_graph = graph.with_observed(observed)
    train_statics = compute_node_statics(train_graph) if (
        val_edges.size or statics is None) else statics
    ctx = prepare(train_graph, train_statics)
    _loss_terms(train_graph, cfg.loss)  # validate the domain up front

    if resume is not None:
        params = resume.params
        adam = resume.adam
        start_epoch = resume.epoch
    else:
        params = params0 if params0 is not None else init_params(
            cfg.model_kind, rng.derive_seed(cfg.seed, "param-init"))
        adam = AdamState.fresh(params.flatten().shape[0], cfg.lr)
        start_epoch = 0

    history: list[EpochStats] = []
    for epoch in range(start_epoch, cfg.epochs):
        started = time.perf_counter()
        epoch_index = epoch if cfg.init_policy == "resample_each_epoch" else 0
        sim_cfg = replace(cfg.sim, seed=rng.derive_seed(cfg.seed, EPOCH_INIT_TAG,
                                                        epoch_index))
        try:
            value, grad, final = loss_and_grad(train_graph, train_statics, params,
                                               sim_cfg, cfg.loss, ctx=ctx)
        except SimulationDivergedError as err:
            raise SimulationDivergedError(err.step, err.node, err.what,
                                          epoch + 1) from err
        grad = clip_gradient(grad, cfg.clip_lo, cfg.clip_hi)
        adam, params = adam_step(adam, params, grad)
        auc_l, f1_macro = _validation_metrics(graph, val_edges, final.X, cfg.loss.mu)
        wall_ms = (time.perf_counter() - started) * 1000.0
        stats = EpochStats(epoch + 1, value, auc_l, f1_macro, wall_ms)
        history.append(stats)
        if on_epoch is not None:
            on_epoch(Checkpoint(params=params, adam=adam, epoch=epoch + 1), stats)
    return params, history


def write_history_csv(path, history: list[EpochStats]) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "auc_l", "f1_macro", "wall_ms"])
        for row in history:
            writer.writerow([row.epoch, f"{row.loss:.17g}", f"{row.auc_l:.17g}",
                             f"{row.f1_macro:.17g}", f"{row.wall_ms:.3f}"])


# --- checkpoints -----------------------------------------------------------------

CHECKPOINT_FORMAT = "graphspring-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    params: ForceParams
    adam: AdamState
    epoch: int


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "epoch": ckpt.epoch,
        "params": json.loads(params_to_json(ckpt.params)),
        "adam": {
            "lr": ckpt.adam.lr, "beta1": ckpt.adam.beta1, "beta2": ckpt.adam.beta2,
            "eps_hat": ckpt.adam.eps_hat, "t": ckpt.adam.t,
            "m_b64": encode_flat(ckpt.adam.m), "v_b64": encode_flat(ckpt.adam.v),
        },
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT or doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError("not a supported checkpoint file")
    params = params_from_json(json.dumps(doc["params"]))
    n = params.n_params
    a = doc["adam"]
    adam = AdamState(lr=a["lr"], beta1=a["beta1"], beta2=a["beta2"],
                     eps_hat=a["eps_hat"], m=decode_flat(a["m_b64"], n),
                     v=decode_flat(a["v_b64"], n), t=a["t"])
    return Checkpoint(params=params, adam=adam, epoch=doc["epoch"])
