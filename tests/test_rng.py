"""Counter-based RNG: scalar/vector agreement and stream determinism."""

from fractions import Fraction

import numpy as np
import pytest

from bipcover.models import _CHUNK_SLOTS
from bipcover.rng import (LANE, RandomStream, combine, hash_at, hash_block, mix64,
                          threshold_u64)
from conftest import naive_hash_block


def test_scalar_and_vector_hashes_agree():
    seed = 0xDEADBEEFCAFE
    block = hash_block(seed, 17, 64)
    for k in range(64):
        assert int(block[k]) == hash_at(seed, 17 + k)


def test_hash_is_order_independent():
    assert hash_at(5, 1000) == int(hash_block(5, 1000, 1)[0])
    assert hash_at(5, 0) != hash_at(5, 1)
    assert hash_at(5, 0) != hash_at(6, 0)


def test_mix64_is_bijective_on_samples():
    values = {mix64(x) for x in range(10000)}
    assert len(values) == 10000


def test_stream_is_deterministic():
    a = RandomStream(99)
    b = RandomStream(99)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_stream_coin_is_roughly_fair():
    s = RandomStream(4242)
    heads = sum(s.coin() for _ in range(10000))
    assert 4700 < heads < 5300


def test_bernoulli_matches_threshold():
    # P(u < t) with t = floor(p * 2^64): empirical rate near p.
    s = RandomStream(7)
    p = Fraction(1, 5)
    hits = sum(s.bernoulli(p) for _ in range(20000))
    assert 3700 < hits < 4300


def test_threshold_extremes():
    assert threshold_u64(Fraction(0)) == 0
    assert threshold_u64(Fraction(1)) == 1 << 64
    with pytest.raises(ValueError):
        threshold_u64(Fraction(3, 2))


def test_combine_sensitivity():
    assert combine(1, 2, 3) != combine(1, 3, 2)
    assert combine(0) != combine(0, 0)


def test_block_dtype_and_mask():
    block = hash_block(3, 0, 8)
    assert block.dtype == np.uint64
    assert all(0 <= int(v) < (1 << 64) for v in block)


@pytest.mark.parametrize("count", [0, 1, _CHUNK_SLOTS - 1, _CHUNK_SLOTS, _CHUNK_SLOTS + 1])
@pytest.mark.parametrize("start", [0, 5, _CHUNK_SLOTS - 3, (1 << 40) + 7])
def test_in_place_hash_matches_all_at_once(count, start):
    for seed in (0, 0xDEADBEEFCAFE, (1 << 64) - 1):
        assert np.array_equal(hash_block(seed, start, count),
                              naive_hash_block(seed, start, count))


@pytest.mark.parametrize("k", [0, 1, 2, 63, 1000])
def test_stream_block_is_k_scalar_draws(k):
    stream, ref = RandomStream(31337), RandomStream(31337)
    assert stream.next_u64() == ref.next_u64()  # start off counter 0
    block = stream.block(k)
    assert block.dtype == np.uint64
    assert block.tolist() == [ref.next_u64() for _ in range(k)]
    assert stream.next_u64() == ref.next_u64()


@pytest.mark.parametrize("count", [0, 1, LANE - 1, LANE, LANE + 1, 3 * LANE + 5])
@pytest.mark.parametrize("start", [0, LANE - 2, 2 * LANE - 1])
def test_lanes_match_scalar_hashes(count, start):
    for seed in ((1 << 63) + 0x5EED, 12345):
        block = hash_block(seed, start, count)
        assert block.dtype == np.uint64 and block.shape == (count,)
        assert block.tolist() == [hash_at(seed, start + k) for k in range(count)]


def test_stream_block_across_a_lane_boundary_is_scalar_draws():
    stream, ref = RandomStream(2024), RandomStream(2024)
    stream.block(LANE - 3)
    for _ in range(LANE - 3):
        ref.next_u64()
    assert stream.block(LANE + 7).tolist() == [ref.next_u64() for _ in range(LANE + 7)]
    assert stream.next_u64() == ref.next_u64()
