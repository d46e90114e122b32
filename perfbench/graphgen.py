"""Seeded signed trust graphs for the benchmark, emitted as `src,dst,rating,time` text.

The generator is the benchmark's own on purpose: it must not follow changes
to the library's synthetic-graph helper, or the workload would drift silently.

Degrees follow a Chung-Lu model with power-law weights, so the graphs have
the hubs and the small 80th-percentile degree of the SNAP trust networks.
Every node gets at least one edge, so the loader sees exactly `n` nodes.
About two thirds of the pairs are rated in both directions with the same
sign, as in BitcoinOTC, so the undirected merge has work to do.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GraphSpec:
    n: int              # nodes, all with degree >= 1
    m: int              # undirected edges after the merge
    pos_frac: float     # share of positive pairs
    gamma: float = 2.3  # power-law exponent of the Chung-Lu weights
    reciprocal: float = 0.65  # share of pairs also rated the other way round


def _unique_in_order(codes: np.ndarray) -> np.ndarray:
    _, first = np.unique(codes, return_index=True)
    return codes[np.sort(first)]


def rating_csv(spec: GraphSpec, seed: int, tag: str) -> list[str]:
    """Directed rating lines whose undirected merge has exactly spec.n nodes, spec.m edges."""
    if not 1 <= spec.n <= spec.m <= spec.n * (spec.n - 1) // 2:
        raise ValueError(f"cannot place {spec.m} edges on {spec.n} nodes")
    gen = np.random.default_rng([seed, zlib.crc32(tag.encode())])
    n = spec.n
    weight = (np.arange(n) + 1.0) ** (-1.0 / (spec.gamma - 1.0))
    prob = weight / weight.sum()

    # one anchor edge per node first, then weight-proportional pairs
    anchors = np.stack([np.arange(n), gen.choice(n, n, p=prob)], axis=1)
    pairs = anchors[anchors[:, 0] != anchors[:, 1]]
    # a node whose anchor hit itself gets a uniform partner instead
    lonely = np.setdiff1d(np.arange(n), pairs.ravel())
    partner = (lonely + 1 + gen.integers(0, n - 1, lonely.size)) % n
    pairs = np.concatenate([pairs, np.stack([lonely, partner], axis=1)])
    codes = _unique_in_order(np.minimum(pairs[:, 0], pairs[:, 1]) * n
                             + np.maximum(pairs[:, 0], pairs[:, 1]))
    while codes.size < spec.m:
        batch = 2 * (spec.m - codes.size) + 1024
        a = gen.choice(n, batch, p=prob)
        b = gen.choice(n, batch, p=prob)
        keep = a != b
        fresh = np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep]
        codes = _unique_in_order(np.concatenate([codes, fresh]))
    codes = codes[:spec.m]

    lo, hi = codes // n, codes % n
    positive = gen.random(spec.m) < spec.pos_frac
    flip = gen.random(spec.m) < 0.5
    src, dst = np.where(flip, hi, lo), np.where(flip, lo, hi)
    both = gen.random(spec.m) < spec.reciprocal
    src, dst = np.concatenate([src, dst[both]]), np.concatenate([dst, src[both]])
    positive = np.concatenate([positive, positive[both]])
    magnitude = gen.integers(1, 11, src.size)
    rating = np.where(positive, magnitude, -magnitude)
    raw_id = gen.permutation(10 * n)[:n] + 1
    order = gen.permutation(src.size)
    stamp = 1_300_000_000 + np.sort(gen.integers(0, 200_000_000, src.size))
    return [f"{s},{d},{r},{t}" for s, d, r, t in
            zip(raw_id[src[order]].tolist(), raw_id[dst[order]].tolist(),
                rating[order].tolist(), stamp.tolist())]
