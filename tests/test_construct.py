"""The steps almost_cover and partition3 share: seeded splits and retries."""

import pytest

from bipcover.construct import coin_split, retry_draw
from bipcover.graph import iter_bits, select
from bipcover.rng import RandomStream

MASKS = (0, 1, 0b1011_0010_0110, (1 << 70) | (1 << 3) | 1, (1 << 64) - 1)


def reference_split(rng: RandomStream, mask: int) -> int:
    """Heads of one coin per set bit, lowest bit first."""
    heads = 0
    for i in iter_bits(mask):
        if rng.coin():
            heads |= 1 << i
    return heads


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("seed", (0, 7, 2 ** 63 + 5))
def test_coin_split_one_coin_per_bit_ascending(mask, seed):
    rng, ref = RandomStream(seed), RandomStream(seed)
    heads, tails = coin_split(rng, mask)
    assert heads == reference_split(ref, mask)
    assert tails == mask & ~heads
    assert rng.next_u64() == ref.next_u64()


def test_select_tests_bits_ascending():
    seen = []
    kept = select(0b110101, lambda i: seen.append(i) or i % 2 == 0)
    assert seen == [0, 2, 4, 5]
    assert kept == 0b010101


@pytest.mark.parametrize("limit", (1, 3, 8))
def test_retry_draw_consumes_one_split_per_attempt(limit):
    mask = 0b1101_1011
    rng, ref = RandomStream(11), RandomStream(11)
    expected = [reference_split(ref, mask) for _ in range(limit)]
    attempts = []

    def draw():
        heads, _ = coin_split(rng, mask)
        attempts.append(heads)
        return heads

    last, failed = retry_draw(limit, draw, lambda heads: "always fails")
    assert attempts == expected
    assert (last, failed) == (expected[-1], "always fails")
    assert rng.next_u64() == ref.next_u64()


def test_retry_draw_stops_at_first_clean_draw():
    draws = iter(range(100))
    checked = []

    def failures(x):
        checked.append(x)
        return 3 - x if x < 3 else 0

    assert retry_draw(10, lambda: next(draws), failures) == (3, 0)
    assert checked == [0, 1, 2, 3]
    assert next(draws) == 4


def test_retry_draw_returns_last_draw_and_failures_on_exhaustion():
    draws = iter(range(100))
    assert retry_draw(2, lambda: next(draws), lambda x: {x}) == (1, {1})
    assert retry_draw(1, lambda: next(draws), lambda x: [x]) == (2, [2])
