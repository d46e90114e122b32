"""Counter-based deterministic random streams.

Every random draw in this package comes from a splittable counter-based
generator so that results are bit-identical across platforms, processes and
runs, and so that any single draw can be replayed in isolation.

The construction is SplitMix64 applied to a keyed counter.  Bit-exact
definition (all arithmetic mod 2**64):

    mix64(z):
        z = z + 0x9E3779B97F4A7C15
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    tag_key(tag)        = first 8 bytes of SHA-256(tag as UTF-8),
                          read little-endian
    stream_key(seed, tag) = mix64(seed XOR tag_key(tag))

    raw(seed, tag, i)   = mix64(stream_key(seed, tag) + i * 0x9E3779B97F4A7C15)

    uniform01(seed, tag, i) = (float(raw >> 11) + 0.5) * 2.0**-53   # open (0, 1)
    uniform_sym(...)        = 2 * uniform01 - 1                     # open (-1, 1)

`raw` is exactly the i-th output of the SplitMix64 sequence whose state starts
at `stream_key`, so a stream can be produced either one index at a time or as
a vectorised block; both give identical bits.  Tags split streams by purpose
("hide", "init", ...) so adding draws to one purpose never perturbs another.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def tag_key(tag: str) -> int:
    """First 8 bytes of SHA-256(tag), little-endian unsigned."""
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def mix64(z: np.ndarray | int) -> np.ndarray | int:
    """SplitMix64 finalizer, vectorised over uint64 arrays."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = z + np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
    return z


def stream_key(seed: int, tag: str) -> int:
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(tag_key(tag))
    return int(mix64(key))


def raw_uint64(seed: int, tag: str, indices: np.ndarray | int) -> np.ndarray:
    """SplitMix64 outputs at the given counter indices of the (seed, tag) stream."""
    idx = np.atleast_1d(np.asarray(indices, dtype=np.uint64))
    key = np.uint64(stream_key(seed, tag))
    with np.errstate(over="ignore"):
        state = key + idx * np.uint64(_GOLDEN)
    return mix64(state)


def uniform01(seed: int, tag: str, indices: np.ndarray | int) -> np.ndarray:
    """Doubles in the open interval (0, 1), one per counter index."""
    bits = raw_uint64(seed, tag, indices)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def uniform_sym(seed: int, tag: str, indices: np.ndarray | int) -> np.ndarray:
    """Doubles in the open interval (-1, 1), one per counter index."""
    return 2.0 * uniform01(seed, tag, indices) - 1.0


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    """A child seed for an independent sub-stream (e.g. per-epoch init)."""
    return int(raw_uint64(seed, tag, index)[0])
