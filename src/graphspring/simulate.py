"""Damped explicit-Euler time integration of the spring system.

One step reads the whole state at time t: positions advance with the old
velocities, then velocities are damped and accelerated by the force field
evaluated at the old positions.  An optional semi-implicit mode advances
positions with the freshly updated velocities instead, the usual stability
fix for stiff springs; the default matches the plain explicit ordering.
The force field adds dt times the force straight into the damped velocities,
so a step writes no n x k force array.

`simulate`'s loop, `_advance`, is the only loop that steps the system.
Embedding calls `simulate`, whose one hook sees each state.  Training drives
the loop itself: its forward pass runs it a segment of steps at a time,
keeping the edge lengths of each step's field through the loop's own hook,
and its reverse sweep runs it again from a segment's start state at those
lengths, so the replayed positions are bitwise the simulated ones.  The
replay, which drops the segment once its positions are out, lets the loop
advance the segment's own velocities; every other call advances a copy.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from . import rng
from .artifacts import atomic_write
from .forces import ForceParams
from .forcefield import FieldContext, force_field, node_gain, prepare
from .graphs import NodeStatics, SignedGraph

INIT_TAG = "init"


class SimulationDivergedError(RuntimeError):
    """State became non-finite.  Carries the step, the node at fault (see
    `worst_node`) and, when raised by training, the epoch."""

    def __init__(self, step: int, node: int, what: str = "state",
                 epoch: int | None = None):
        where = f"step {step}" if epoch is None else f"step {step} of epoch {epoch}"
        super().__init__(f"simulation diverged at {where}: non-finite {what} "
                         f"at node {node}")
        self.step, self.node, self.what, self.epoch = step, node, what, epoch


def worst_node(X: np.ndarray, V: np.ndarray) -> int:
    """The first node whose row of X or V is non-finite, else the node with the
    largest |V|."""
    bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(V).all(axis=1))
    if bad.any():
        return int(np.argmax(bad))
    return int(np.argmax(np.einsum("ij,ij->i", V, V)))


@dataclass(frozen=True)
class SimConfig:
    k: int = 64
    dt: float = 0.005
    damping: float = 0.05
    n_steps: int = 120
    seed: int = 0
    semi_implicit: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")


@dataclass(frozen=True)
class SimState:
    X: np.ndarray
    V: np.ndarray
    t_step: int = 0

    def __post_init__(self):
        if self.X.shape != self.V.shape:
            raise ValueError("X and V must have the same shape")


def init_state(n_nodes: int, config: SimConfig) -> SimState:
    """Positions i.i.d. uniform on (-1, 1) from the documented stream, V = 0."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be at least 1")
    idx = np.arange(n_nodes * config.k)
    X = rng.uniform_sym(config.seed, INIT_TAG, idx).reshape(n_nodes, config.k)
    return SimState(X, np.zeros((n_nodes, config.k)), 0)


def simulate(state: SimState, graph: SignedGraph, statics: NodeStatics,
             model: ForceParams, config: SimConfig, ctx: FieldContext | None = None,
             on_step=None) -> SimState:
    """Apply `config.n_steps` damped Euler steps to a copy of `state.V`, so
    `state` stays as it is; `on_step(state)` is called after each.  Every
    state it sees shares that one velocity array, so a hook that keeps
    velocities must copy them.  Each step allocates only its new positions."""
    if ctx is None:
        ctx = prepare(graph, statics)
    return _advance(state, state.V.copy(), ctx, model, config, on_step)


def _advance(state: SimState, V: np.ndarray, ctx: FieldContext, model: ForceParams,
             config: SimConfig, on_step=None, on_lengths=None, lengths=()) -> SimState:
    """`simulate`'s loop from `state`, advancing V, an array that holds its
    velocities, in place: a caller that drops its start state once the steps
    are out, as training's replay does, saves `simulate`'s copy.  The gain is
    evaluated once per call, and each step damps V and then adds dt times the
    force straight into it.  A step whose state sums to a finite number is
    finite; only one that does not is checked entry by entry.
    Training's tape has two more hooks.  `on_lengths` goes to each step's
    `force_field` call, before that step's `on_step`; where `lengths[j]` is
    given, step j's call takes it as `lengths=` instead of computing them, and
    the step is not checked: it replays bitwise the state of a run that
    stepped and checked it, so the check would cost a pass over X and V for
    nothing (training's replay gives every step)."""
    gain = node_gain(ctx, model, config.dt)
    for j in range(config.n_steps):
        X = state.X
        with np.errstate(over="ignore", invalid="ignore"):
            if not config.semi_implicit:
                X1 = config.dt * V                  # the old velocities
            V *= 1.0 - config.damping
            force_field(ctx, model, X, seed=config.seed, step=state.t_step, out=V,
                        gain=gain, on_lengths=on_lengths,
                        lengths=lengths[j] if j < len(lengths) else None)
            if config.semi_implicit:
                X1 = config.dt * V                  # the new ones
            X1 += X
            # a sum of finite terms may overflow, but one with a non-finite
            # term is never finite; a step given its lengths replays a
            # checked one
            finite = j < len(lengths) or np.isfinite(X1.sum() + V.sum())
        if not finite and not (np.isfinite(X1).all() and np.isfinite(V).all()):
            raise SimulationDivergedError(state.t_step + 1, worst_node(X1, V))
        state = SimState(X1, V, state.t_step + 1)
        if on_step is not None:
            on_step(state)
    return state


def mean_abs_velocity(state: SimState) -> float:
    return float(np.abs(state.V).mean())


# --- embedding files ------------------------------------------------------------

_MAGIC = b"SGEMB001"


def write_embeddings_text(path, X: np.ndarray) -> None:
    """Header "N k" then one row of %.17g floats per node (exact round-trip)."""
    X = np.asarray(X, dtype=np.float64)
    with atomic_write(path) as fh:
        fh.write(f"{X.shape[0]} {X.shape[1]}\n")
        for row in X:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def read_embeddings_text(path) -> np.ndarray:
    """Read `write_embeddings_text`'s format; a malformed file, or one holding a
    value that is not finite, raises ValueError naming it and, for a bad header
    or row, the line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            n, k = (int(tok) for tok in fh.readline().split())
        except ValueError:
            raise ValueError(f"{path}:1: expected the header 'n k'") from None
        try:
            X = np.loadtxt(fh, dtype=np.float64, ndmin=2)
            err = None if np.isfinite(X).all() else "a value is not finite"
        except ValueError as exc:
            err = exc
        if err is not None:
            # numpy's row numbers do not count the blank and comment lines it skips
            fh.seek(0)
            fh.readline()
            for lineno, line in enumerate(fh, 2):
                row = line.split("#", 1)[0].split()
                try:
                    values = [float(tok) for tok in row]
                    ok = len(values) in (0, k) and np.isfinite(values).all()
                except ValueError:
                    ok = False
                if not ok:
                    raise ValueError(f"{path}:{lineno}: expected {k} finite numbers")
            raise ValueError(f"{path}: {err}")
    if X.shape != (n, k):
        raise ValueError(f"embedding file {path} header says {(n, k)}, data is {X.shape}")
    return X


def write_embeddings_binary(path, X: np.ndarray) -> None:
    """Magic, version, N, k (little-endian u32/u64), then row-major float64."""
    X = np.ascontiguousarray(X, dtype="<f8")
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQQ", 1, X.shape[0], X.shape[1]))
        fh.write(X.tobytes())


def read_embeddings_binary(path) -> np.ndarray:
    """Read `write_embeddings_binary`'s format; a malformed file raises ValueError
    naming it and, for a value that is not finite, its row, counted from 0."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path} is not an embedding file (bad magic)")
        header = fh.read(20)
        if len(header) != 20:
            raise ValueError(f"embedding file {path} ends inside its header")
        version, n, k = struct.unpack("<IQQ", header)
        if version != 1:
            raise ValueError(f"embedding file {path} has unsupported version {version}")
        if os.fstat(fh.fileno()).st_size - fh.tell() < 8 * n * k:
            raise ValueError(f"embedding file {path} is shorter than its {n} x {k} "
                             f"header says")
        X = np.frombuffer(fh.read(8 * n * k), dtype="<f8").reshape(n, k)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"embedding file {path}: row {bad[0]} holds a value that is "
                         f"not finite")
    return X.astype(np.float64)

