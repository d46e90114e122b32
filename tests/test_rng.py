"""The counter-based stream must match an independent replay of its definition."""

import hashlib

import numpy as np

from graphspring import rng

MASK = (1 << 64) - 1


def mix64_py(z: int) -> int:
    """Pure-Python transcription of the documented mixer."""
    z = (z + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def raw_py(seed: int, tag: str, i: int) -> int:
    tag_key = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")
    key = mix64_py((seed & MASK) ^ tag_key)
    return mix64_py((key + i * 0x9E3779B97F4A7C15) & MASK)


def uniform01_py(seed: int, tag: str, i: int) -> float:
    return ((raw_py(seed, tag, i) >> 11) + 0.5) * 2.0 ** -53


def test_raw_matches_documented_replay():
    for seed in (0, 1, 42, 2**63 + 17):
        for tag in ("hide", "init", "tiebreak:3"):
            got = rng.raw_uint64(seed, tag, np.arange(16))
            want = [raw_py(seed, tag, i) for i in range(16)]
            assert [int(x) for x in got] == want


def test_counters_wrap_silently_at_the_ends_of_uint64():
    # uint64 arithmetic wraps mod 2**64 by itself; no mask and no warning
    import warnings
    ends = np.array([0, 5, MASK], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 5, MASK):
            got = rng.raw_uint64(seed, "init", ends)
            assert [int(x) for x in got] == [raw_py(seed, "init", int(i)) for i in ends]
            assert int(rng.mix64(np.uint64(seed))) == mix64_py(seed)


def test_uniform01_matches_replay_bitwise():
    got = rng.uniform01(123, "hide", np.arange(64))
    want = np.array([uniform01_py(123, "hide", i) for i in range(64)])
    assert np.array_equal(got, want)


def test_uniform_ranges_are_open():
    u = rng.uniform01(7, "x", np.arange(100000))
    assert (u > 0).all() and (u < 1).all()
    s = rng.uniform_sym(7, "x", np.arange(100000))
    assert (s > -1).all() and (s < 1).all()


def test_streams_split_by_tag_and_seed():
    base = rng.uniform01(5, "a", np.arange(32))
    assert not np.array_equal(base, rng.uniform01(5, "b", np.arange(32)))
    assert not np.array_equal(base, rng.uniform01(6, "a", np.arange(32)))
    assert np.array_equal(base, rng.uniform01(5, "a", np.arange(32)))


def test_indexing_is_random_access():
    block = rng.uniform01(11, "t", np.arange(100))
    single = rng.uniform01(11, "t", 57)
    assert block[57] == single[0]


def test_rough_uniformity():
    u = rng.uniform01(3, "u", np.arange(200000))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs((u < 0.25).mean() - 0.25) < 0.005
