"""Steal-based selection of calm samples."""

import pytest

from host import STEAL_LIMIT, StealClock, calm


def test_calm_keeps_the_stretches_under_the_limit_in_order():
    steal = [0.0, STEAL_LIMIT, 0.2, 0.01, 0.5, 0.0]
    assert calm(list("abcdef"), steal) == ["a", "b", "d", "f"]


def test_calm_falls_back_to_the_least_stolen_third():
    steal = [0.4, 0.1, 0.3, 0.2, 0.5, 0.6]
    assert calm(list("abcdef"), steal) == ["b", "d"]
    assert calm(["only"], [0.9]) == ["only"]
    assert calm([], []) == []


def test_calm_needs_one_share_per_sample():
    with pytest.raises(ValueError):
        calm([1.0, 2.0], [0.0])


def test_steal_clock_laps_are_shares():
    clock = StealClock()
    sum(range(200_000))
    assert 0.0 <= clock.lap() <= 1.0
