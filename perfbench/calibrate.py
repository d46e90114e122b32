"""A fixed reference kernel that measures how fast the host runs right now.

On a small shared VM the guest's speed drifts with the host's load for
seconds to minutes at a time, in CPU time as much as in wall time.  A run
cannot average that drift away, but it can measure it: between operations
the benchmark times this kernel, which never changes and shares nothing with
graphspring, and scales each operation's time by NOMINAL_S over the kernel's
time around it.  A change to graphspring moves the operations and not the
kernel, so the scaled times compare commits at a common host speed.

The kernel does what one explicit-Euler force-field step does, at the size
of the benchmark's graphs: an incidence-matrix gather of k=64 positions, row
norms, a small tanh MLP over 7 per-edge features, a logistic magnitude and
the scatter back to the nodes.  Its inputs come from a fixed seed, not from
the run's seed, so every run of every commit times the same work.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

NOMINAL_S = 0.2   # the kernel's median time on the machine of the seed baseline
N_NODES, N_EDGES, K, STEPS = 4000, 16000, 64, 24


class Kernel:
    def __init__(self) -> None:
        g = np.random.default_rng(20241217)
        u, v = g.integers(0, N_NODES, N_EDGES), g.integers(0, N_NODES, N_EDGES)
        rows = np.arange(N_EDGES)
        self.diff = sp.csr_matrix(
            (np.r_[np.ones(N_EDGES), -np.ones(N_EDGES)], (np.r_[rows, rows], np.r_[v, u])),
            shape=(N_EDGES, N_NODES))
        self.diff_t = self.diff.T.tocsr()
        self.x0 = g.standard_normal((N_NODES, K))
        self.features = g.standard_normal((N_EDGES, 7))
        self.w1 = 0.3 * g.standard_normal((7, 7))
        self.w2 = 0.3 * g.standard_normal(7)

    def step(self, x: np.ndarray) -> np.ndarray:
        d = self.diff @ x
        r = np.sqrt((d * d).sum(axis=1))
        self.features[:, 0] = r / (1.0 + r)
        h = np.tanh(self.features @ self.w1) @ self.w2
        f = 1.0 / (1.0 + np.exp(-h)) - 0.5
        return x + 1e-3 * (self.diff_t @ (d * (f / (r + 1e-9))[:, None]))

    def seconds(self) -> float:
        """Wall time of one pass of STEPS steps."""
        started = time.perf_counter()
        x = self.x0
        for _ in range(STEPS):
            x = self.step(x)
        elapsed = time.perf_counter() - started
        if not np.isfinite(x).all():
            raise FloatingPointError("calibration kernel diverged")
        return elapsed
