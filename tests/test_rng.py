import pytest

from homlie import random_algebra, rng
from homlie.field import QQ


def test_streams_are_deterministic():
    a = [rng.stream(123, 5).word() for _ in range(3)]
    b = [rng.stream(123, 5).word() for _ in range(3)]
    assert a == b


def test_slots_give_distinct_streams():
    words = {rng.stream(7, slot).word() for slot in range(64)}
    assert len(words) == 64


def test_frozen_words_guard_the_generator():
    # regression pin: if these move, every frozen experiment count breaks
    s = rng.stream(0, 0)
    assert s.word() == 12035550249420947055
    assert s.word() == 12935080325729570654
    assert rng.stream(20260810, 0).word() == 7192728251870658275
    assert rng.split(12345, 6) == 12320176549710012092


def test_below_is_uniformly_in_range():
    s = rng.stream(1, 2)
    draws = [s.below(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    assert set(draws) == set(range(10))


def test_randint_covers_closed_interval():
    s = rng.stream(1, 3)
    draws = [s.randint(-3, 3) for _ in range(500)]
    assert all(-3 <= d <= 3 for d in draws)
    assert set(draws) == set(range(-3, 4))


def test_bad_bounds_raise():
    s = rng.stream(0, 0)
    with pytest.raises(ValueError):
        s.below(0)
    with pytest.raises(ValueError):
        s.randint(2, 1)
    # one 64-bit word per try cannot draw from more than 2^64 values (the
    # rejection limit would be 0, and the loop would never end)
    with pytest.raises(ValueError):
        s.below(2**64 + 1)
    with pytest.raises(ValueError):
        random_algebra(3, QQ, 1, bound=2**63)  # randint(-2^63, 2^63): 2^64 + 1 values
    assert 0 <= s.below(2**64) < 2**64
