"""Loss, reverse-mode gradients through the unrolled simulation, and Adam.

The forward pass is `simulate.simulate` run a segment of steps at a time,
keeping a tape: each segment keeps the state it starts from and the m edge
lengths that `force_field` computed at each of its steps but the last.  The
backward pass walks the steps in reverse, applying the hand-derived
vector-Jacobian products of the Euler update and of the force field, whose
position gradient is added into the running one in place.  On reaching a
segment it replays the positions in between with `simulate`'s loop again, from
the segment's start state and at the kept lengths, bitwise the simulated ones;
the loop advances the segment's own velocities, which the sweep drops with the
segment, and the VJPs of those steps read the same lengths instead of
computing them again.
The count of what the tape holds is the same under either ordering.  The
segment lengths are the schedule whose sweep holds the fewest floats at once
(`tape_floats`, `_segment_lengths`).  The sweep frees each segment once it
has passed it, so the segments shorten toward the end of the epoch, where
every earlier start state is still held: 24, 21, 18, ..., 3, 1, 1 steps at
BitcoinOTC size, k = 64 and 120 steps, and all 1s, the plain tape of every
position, where a step's lengths are not fewer floats than its positions (a
dense graph at small k).  Gradients are flat vectors aligned with
`params.flatten()`.

The loss goes through its edges a block of forcefield.BLOCK_BYTES of edge
vectors at a time, and adds its gradient into the (n, k) result with scipy's
CSC kernel, a column block of the edge incidence at a time, bitwise equal to
one product with the whole incidence.  So an epoch's peak memory is
`tape_floats`, which counts the positions the sweep replays and the velocities
the replay advances, plus the final V, gX, gV, w and the VJP's per-edge
scalars: 4.7 (n, k) arrays above the count on `graphspring bench`'s graph.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .artifacts import atomic_write
from .forces import (MODEL_KINDS, ForceParams, decode_flat, encode_flat, init_params,
                     params_from_json, params_to_json)
from .forcefield import (FieldContext, _block_rows, _csc_matvecs, force_field_vjp,
                         node_gain, prepare)
from .graphs import NodeStatics, SignedGraph, compute_node_statics
from .metrics import auc, f1_scores, predict, predict_prob
from .simulate import (SimConfig, SimState, SimulationDivergedError, _advance,
                       init_state, simulate, worst_node)

EPOCH_INIT_TAG = "epoch-init"
VAL_TAG = "val-hide"

# Adam's constants (Kingma & Ba, ICLR 2015), fixed by the method
BETA1, BETA2, EPS_HAT = 0.9, 0.999, 1e-8

@dataclass(frozen=True)
class LossConfig:
    mu: float = 2.5

    def __post_init__(self):
        if not 0 < self.mu < np.inf:
            raise ValueError("mu must be positive and finite")


def _loss_terms(graph: SignedGraph):
    """The loss edges, the visible ones, with their class-balancing weights
    and their +-1 signs as targets."""
    edges = np.flatnonzero(graph.observed_sign)
    target = graph.observed_sign[edges].astype(np.float64)
    n_pos = int((target == 1).sum())
    n_neg = target.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("the visible edges must hold both positive and negative signs")
    weight = np.where(target == 1, 1.0 / n_pos, 1.0 / n_neg)
    return edges, weight, target


def _streamed_loss(graph: SignedGraph, X: np.ndarray, cfg: LossConfig,
                   grad: np.ndarray | None = None) -> float:
    """The loss at X, through the loss edges a block of forcefield.BLOCK_BYTES
    of edge vectors at a time; given `grad` (C-contiguous float64, X's shape),
    it also adds the loss's gradient with respect to X into it.  Every per-edge
    value, the sum and each node's gradient come out bitwise as over the whole
    edge array at once."""
    edges, weight, target = _loss_terms(graph)
    u, v = graph.u[edges], graph.v[edges]
    m, k = edges.size, X.shape[1]
    # take and the kernel index X and grad unchecked: check the endpoints here
    if m and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= X.shape[0]):
        raise ValueError(f"an edge endpoint is not a row of X, which has shape {X.shape}")
    rows = _block_rows(m, k)
    terms = np.empty(m)
    at_u, at_v = np.empty((rows, k)), np.empty((rows, k))
    # a column block of the incidence B, in CSC form: +1 at v and -1 at u of each edge
    indptr, signs = np.arange(0, 2 * rows + 1, 2), np.tile([1.0, -1.0], rows)
    ends = np.empty((rows, 2), dtype=np.int64)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        b = hi - lo
        # mode="clip" lets take write into the buffers unbuffered; the indices are in range
        diff = np.take(X, v[lo:hi], axis=0, out=at_v[:b], mode="clip")
        diff -= np.take(X, u[lo:hi], axis=0, out=at_u[:b], mode="clip")
        dist = np.sqrt((diff * diff).sum(axis=1))
        prob = predict_prob(dist, cfg.mu)
        resid = target[lo:hi] - prob
        terms[lo:hi] = resid * resid * weight[lo:hi]
        if grad is None:
            continue
        # d value / d dist = 2 (target - p) w * p (1 - p); then distribute along diff
        ddist = 2.0 * resid * weight[lo:hi] * prob * (1.0 - prob)
        scale = np.zeros_like(dist)
        live = dist > 0
        scale[live] = ddist[live] / dist[live]
        diff *= scale[:, None]
        # grad += B[:, lo:hi] ddiff; column by column, so each node adds its
        # terms in ascending edge order, the order of the whole CSR product
        ends[:b, 0], ends[:b, 1] = v[lo:hi], u[lo:hi]
        _csc_matvecs(grad.shape[0], b, k, indptr[:b + 1], ends[:b].ravel(),
                     signs[:2 * b], diff.ravel(), grad.ravel())
    return float(terms.sum())


def loss(graph: SignedGraph, X: np.ndarray, cfg: LossConfig) -> float:
    """Weighted squared error between edge targets and logistic distance scores."""
    return _streamed_loss(graph, np.asarray(X, dtype=np.float64), cfg)


def loss_with_grad(graph: SignedGraph, X: np.ndarray,
                   cfg: LossConfig) -> tuple[float, np.ndarray]:
    """`loss` and its gradient with respect to X."""
    X = np.asarray(X, dtype=np.float64)
    grad = np.zeros(X.shape)
    return _streamed_loss(graph, X, cfg, grad), grad


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    sim: SimConfig = field(default_factory=SimConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    model_kind: str = "spring-nn"
    lr: float = 0.03
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be positive and finite")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {list(MODEL_KINDS)}, "
                             f"not {self.model_kind!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")


def _add_scaled(out: np.ndarray, a: np.ndarray, factor: float,
                buf: np.ndarray) -> None:
    """out += a * factor, a block of buf's rows at a time through buf."""
    rows = buf.shape[0]
    for lo in range(0, out.shape[0], rows):
        part = np.multiply(a[lo:lo + rows], factor, out=buf[:out.shape[0] - lo])
        out[lo:lo + rows] += part


@dataclass
class _Segment:
    """Steps start .. start + steps - 1 of the reverse sweep: the state
    `simulate` starts them from, whose velocities only a segment of more than
    one step keeps, and the edge lengths of each step but the last, which the
    replay of the positions after the first reads.  The replay advances V in
    place, so a segment replays once."""
    start: int
    steps: int
    X: np.ndarray
    V: np.ndarray | None
    lengths: list


def _kept_floats(n_nodes: int, n_edges: int, k: int, steps):
    """The floats a segment of `steps` steps keeps until the sweep reaches it:
    the positions at its first step, the velocities there if it has more, and
    the m edge lengths of each step but its last.  `steps` may be an array."""
    return n_nodes * k * (1 + (steps > 1)) + (steps - 1) * n_edges


def tape_floats(n_nodes: int, n_edges: int, k: int, lengths) -> int:
    """The most floats an epoch holds at once for its reverse sweep in
    segments of `lengths` steps, first to last: the final positions, which the
    loss reads, and, while the sweep replays a segment, what that segment and
    every earlier one keeps (`_kept_floats`) and the positions after its first
    that it replays.  The later segments are swept and gone."""
    held = peak = n_nodes * k
    for steps in lengths:
        held += _kept_floats(n_nodes, n_edges, k, steps)
        peak = max(peak, held + n_nodes * k * (steps - 1))
    return int(peak)


def _segment_lengths(n_nodes: int, n_edges: int, k: int, n_steps: int) -> list[int]:
    """The segment lengths, first to last, whose tape holds the fewest floats
    at once (`tape_floats`); all 1s is the plain position tape.  The sweep
    frees each segment as it passes it, so the last segment is swept with
    every start state alive and the first with only its own: the lengths
    shorten toward the end.  h(t), the least peak of steps t .. T - 1 above
    the final positions, is min over L of kept(L) + max(n k (L - 1), h(t + L))
    with h(T) below every window, taking the shorter L on a tie; one
    backward pass over t computes it, O(T^2) in all and vectorized over L.
    Where a step's lengths are not fewer floats than its positions (a dense
    graph at small k), every length is 1."""
    steps = np.arange(1, n_steps + 1, dtype=np.int64)
    kept = _kept_floats(n_nodes, n_edges, k, steps)
    window = n_nodes * k * (steps - 1)
    least = np.full(n_steps + 1, -1, dtype=np.int64)   # -1: below every window
    first = np.zeros(n_steps, dtype=np.int64)
    for t in range(n_steps - 1, -1, -1):
        rest = n_steps - t
        peak = kept[:rest] + np.maximum(window[:rest], least[t + 1:])
        first[t] = np.argmin(peak)   # the first least, the shorter on a tie
        least[t] = peak[first[t]]
    lengths, t = [], 0
    while t < n_steps:
        lengths.append(int(first[t]) + 1)
        t += lengths[-1]
    return lengths


def _taped_forward(graph: SignedGraph, statics: NodeStatics, params: ForceParams,
                   sim_cfg: SimConfig, state: SimState, ctx: FieldContext
                   ) -> tuple[SimState, list[_Segment]]:
    """`simulate` from `state` a segment at a time, keeping the tape of the
    reverse sweep: the segments of every step, first step first, of the
    lengths `_segment_lengths` gives."""
    segments: list[_Segment] = []
    start = 0
    for steps in _segment_lengths(ctx.n_nodes, ctx.n_edges, state.X.shape[1],
                                  sim_cfg.n_steps):
        # simulate advances a copy of V, so the state it starts from stays as it is
        seg = _Segment(start, steps, state.X, state.V if steps > 1 else None, [])
        state = simulate(state, graph, statics, params, replace(sim_cfg, n_steps=steps),
                         ctx=ctx, on_lengths=seg.lengths.append)
        del seg.lengths[steps - 1:]   # the replay stops at the last step's positions
        segments.append(seg)
        start += steps
    return state, segments


def _replay(seg: _Segment, params: ForceParams, sim_cfg: SimConfig, ctx: FieldContext,
            t0: int) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """A segment's steps, first to last, each as its positions and the lengths
    the tape kept for it (None for the last).  The positions after the first
    are `simulate`'s loop run again from the segment's start state, at the
    kept lengths, bitwise the simulated ones.  The loop advances the segment's
    own V, not a copy: the sweep drops the segment once this returns."""
    positions = [seg.X]
    if seg.steps > 1:
        _advance(SimState(seg.X, seg.V, t0 + seg.start), seg.V, ctx, params,
                 replace(sim_cfg, n_steps=seg.steps - 1),
                 on_step=lambda s: positions.append(s.X), lengths=seg.lengths)
    return list(zip(positions, seg.lengths + [None]))


def loss_and_grad(graph: SignedGraph, statics: NodeStatics, params: ForceParams,
                  sim_cfg: SimConfig, loss_cfg: LossConfig,
                  state0: SimState | None = None,
                  ctx: FieldContext | None = None
                  ) -> tuple[float, np.ndarray, SimState]:
    """Loss of the simulated embedding and its gradient wrt the parameters.

    Runs the forward simulation with a tape of segments (`_taped_forward`),
    then the reverse sweep through every Euler update and force evaluation,
    replaying each segment's positions as it reaches them; a step's VJP reads
    the lengths the tape kept for it.  The initial state and the graph are
    held fixed: a given `state0` is left as it is.
    """
    if ctx is None:
        ctx = prepare(graph, statics)
    if state0 is None:
        state0 = init_state(graph.n_nodes, sim_cfg)
    else:
        # the replay advances the first segment's V in place: this copy keeps
        # the caller's as it is
        state0 = SimState(state0.X, state0.V.copy(), state0.t_step)
    t0 = state0.t_step
    final, segments = _taped_forward(graph, statics, params, sim_cfg, state0, ctx)

    value, gX = loss_with_grad(graph, final.X, loss_cfg)
    gV, w = np.zeros_like(gX), np.empty_like(gX)
    # gV += dt gX goes through this block of rows, not a whole (n, k) temporary
    buf = np.empty((_block_rows(*gX.shape), gX.shape[1]))
    dt, damp = sim_cfg.dt, sim_cfg.damping
    gain = node_gain(ctx, params)
    grad = np.zeros_like(params.flatten())
    window: list[tuple[np.ndarray, np.ndarray | None]] = []

    # w = dt gV is the cotangent of the step's force; its VJP adds into gX
    for t in range(sim_cfg.n_steps - 1, -1, -1):
        if sim_cfg.semi_implicit:
            _add_scaled(gV, gX, dt, buf)   # the adjoint of V1
        np.multiply(gV, dt, out=w)
        gV *= 1.0 - damp
        if not sim_cfg.semi_implicit:
            _add_scaled(gV, gX, dt, buf)
        if not window:
            window = _replay(segments.pop(), params, sim_cfg, ctx, t0)
        X, lengths = window.pop()
        _, dtheta = force_field_vjp(ctx, params, X, w, seed=sim_cfg.seed, step=t0 + t,
                                    out=gX, gain=gain, lengths=lengths)
        del X, lengths   # held on, they would outlive the next segment's replay
        grad += dtheta
        if not np.isfinite(grad).all():
            raise SimulationDivergedError(t0 + t, worst_node(gX, gV), "gradient")
    return value, grad, final


def clip_gradient(g: np.ndarray) -> np.ndarray:
    """Elementwise clamp of the gradient vector to [-1, 1]."""
    return np.clip(g, -1.0, 1.0)


@dataclass(frozen=True)
class AdamState:
    """Adam's moment estimates and step count; the run owns the learning rate."""
    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def fresh(cls, n_params: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), t=0)


def adam_step(state: AdamState, params: ForceParams, g: np.ndarray,
              lr: float) -> tuple[AdamState, ForceParams]:
    """One bias-corrected Adam update of the flat parameter vector."""
    flat = params.flatten()
    if g.shape != flat.shape or state.m.shape != flat.shape:
        raise ValueError("gradient/moment shapes do not match the parameters")
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * g
    v = BETA2 * state.v + (1.0 - BETA2) * g * g
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    flat = flat - lr * m_hat / (np.sqrt(v_hat) + EPS_HAT)
    return AdamState(m=m, v=v, t=t), type(params).from_flat(flat)


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
        n_take = int(np.ceil(fraction * idx.size))
        order = np.argsort(draws[idx], kind="stable")
        chosen.append(idx[order[:n_take]])
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
          resume: "Checkpoint | None" = None,
          on_epoch=None,
          ) -> tuple[ForceParams, list[EpochStats]]:
    """Optimize force parameters by gradient descent through the simulation.

    A stratified share of the visible edges is re-hidden as a validation set
    for the per-epoch metrics; those edges leave the loss domain (they act as
    neutral springs, like any hidden edge).  Statics are recomputed on the
    training view so no validation sign leaks into the features.  A resumed run
    takes every setting from `cfg`; its model kind and epochs must fit the checkpoint.
    """
    if resume is None:
        params = init_params(cfg.model_kind, rng.derive_seed(cfg.seed, "param-init"))
        resume = Checkpoint(params, AdamState.fresh(params.n_params), epoch=0)
    check_resume(resume, cfg)
    params, adam, done = resume.params, resume.adam, resume.epoch

    val_edges = _stratified_validation(graph, cfg.val_fraction, cfg.seed)
    observed = graph.observed_sign.copy()
    observed[val_edges] = 0
    train_graph = graph.with_observed(observed)
    train_statics = compute_node_statics(train_graph) if (
        val_edges.size or statics is None) else statics
    ctx = prepare(train_graph, train_statics)
    _loss_terms(train_graph)  # check both signs are visible up front

    history: list[EpochStats] = []
    for epoch in range(done, cfg.epochs):
        started = time.perf_counter()
        sim_cfg = replace(cfg.sim, seed=rng.derive_seed(cfg.seed, EPOCH_INIT_TAG, epoch))
        # the previous epoch's final positions are released only once this
        # returns: freed before, they would leave the whole tape free at the
        # top of the heap, which glibc's malloc gives back to the system, and
        # each epoch would fault its tape in again page by page.  Holding them
        # is enough to stop that, so the velocities go with their epoch
        try:
            value, grad, final = loss_and_grad(train_graph, train_statics, params,
                                               sim_cfg, cfg.loss, ctx=ctx)
        except SimulationDivergedError as err:
            raise SimulationDivergedError(err.step, err.node, err.what,
                                          epoch + 1) from err
        grad = clip_gradient(grad)
        adam, params = adam_step(adam, params, grad, cfg.lr)
        auc_l, f1_macro = _validation_metrics(graph, val_edges, final.X, cfg.loss.mu)
        held, final = final.X, None
        wall_ms = (time.perf_counter() - started) * 1000.0
        stats = EpochStats(epoch + 1, value, auc_l, f1_macro, wall_ms)
        history.append(stats)
        if on_epoch is not None:
            on_epoch(Checkpoint(params=params, adam=adam, epoch=epoch + 1), stats)
    return params, history


def check_resume(resume: "Checkpoint", cfg: TrainConfig) -> None:
    """Raise ValueError, naming both values, when a checkpoint holds another
    model kind than the run's or a later epoch than its last."""
    kind, done = resume.params.kind, resume.epoch
    if kind != cfg.model_kind or done > cfg.epochs:
        raise ValueError(f"cannot resume a {kind!r} checkpoint of epoch {done} in a "
                         f"run of {cfg.epochs} epochs of {cfg.model_kind!r}")


def write_history_csv(path, history: list[EpochStats]) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "auc_l", "f1_macro", "wall_ms"])
        for row in history:
            writer.writerow([row.epoch, f"{row.loss:.17g}", f"{row.auc_l:.17g}",
                             f"{row.f1_macro:.17g}", f"{row.wall_ms:.3f}"])


# --- checkpoints -----------------------------------------------------------------

CHECKPOINT_FORMAT = "graphspring-checkpoint"
# version 1 also stored Adam's learning rate and constants; a load ignores them
CHECKPOINT_VERSION = 2


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
        "adam": {"t": ckpt.adam.t, "m_b64": encode_flat(ckpt.adam.m),
                 "v_b64": encode_flat(ckpt.adam.v)},
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    """Read a `save_checkpoint` file; a malformed one raises ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        # a type check first: json gives True for true, and True == 1
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT \
                or type(doc.get("version")) is not int \
                or doc["version"] not in (1, CHECKPOINT_VERSION):
            raise ValueError("not a supported checkpoint file")
        params = params_from_json(json.dumps(doc["params"]))
        a, n = doc["adam"], params.n_params
        if type(doc["epoch"]) is not int or type(a["t"]) is not int:
            raise ValueError(f"epoch and adam.t must be integers, not "
                             f"{json.dumps(doc['epoch'])} and {json.dumps(a['t'])}")
        adam = AdamState(decode_flat(a["m_b64"], n), decode_flat(a["v_b64"], n), a["t"])
        return Checkpoint(params=params, adam=adam, epoch=doc["epoch"])
    except KeyError as err:
        raise ValueError(f"checkpoint {path} has no {err} entry") from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"checkpoint {path}: {err}") from None
