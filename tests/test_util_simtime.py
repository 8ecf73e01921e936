"""Tests for repro.util.simtime."""

import pytest

from repro.util.simtime import (
    SECONDS_PER_DAY,
    STUDY_START,
    SimClock,
    Timestamp,
)


class TestTimestamp:
    def test_ordering(self):
        assert Timestamp(1) < Timestamp(2)

    def test_plus_days(self):
        t = Timestamp(0).plus_days(2)
        assert t.unix == 2 * SECONDS_PER_DAY

    def test_plus_years(self):
        t = Timestamp(0).plus_years(1)
        assert t.unix == 365 * SECONDS_PER_DAY

    def test_negative_days(self):
        assert Timestamp(SECONDS_PER_DAY).plus_days(-1).unix == 0

    def test_days_until(self):
        assert Timestamp(0).days_until(Timestamp(SECONDS_PER_DAY)) == 1.0

    def test_hashable_and_frozen(self):
        t = Timestamp(5)
        assert hash(t) == hash(Timestamp(5))
        with pytest.raises(Exception):
            t.unix = 6


class TestSimClock:
    def test_starts_at_study_epoch(self):
        assert SimClock().now == STUDY_START

    def test_advance(self):
        clock = SimClock()
        clock.advance(30)
        assert clock.now.unix == STUDY_START.unix + 30

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)
