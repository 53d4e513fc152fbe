"""Tests for the engine time sources."""

import time

import pytest

from repro.engine import VirtualClock, WallClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0
        assert VirtualClock(start=5.0).now() == 5.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(0.25)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(0.75)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError, match="advance"):
            VirtualClock().advance(-0.1)

    def test_wait_until_jumps_forward(self):
        clock = VirtualClock()
        clock.wait_until(3.0)
        assert clock.now() == 3.0

    def test_wait_until_never_goes_backwards(self):
        clock = VirtualClock(start=10.0)
        clock.wait_until(3.0)
        assert clock.now() == 10.0

    def test_is_virtual_flag(self):
        assert VirtualClock().is_virtual
        assert not WallClock().is_virtual


class TestWallClock:
    def test_now_tracks_real_time(self):
        clock = WallClock()
        a = clock.now()
        time.sleep(0.01)
        assert clock.now() > a

    def test_advance_is_noop(self):
        clock = WallClock()
        before = clock.now()
        clock.advance(100.0)
        assert clock.now() - before < 1.0  # no 100 s jump happened

    def test_wait_until_sleeps_until_the_deadline(self):
        clock = WallClock()
        target = clock.now() + 0.005
        clock.wait_until(target)
        assert clock.now() >= target

    def test_wait_until_past_deadline_returns_immediately(self):
        clock = WallClock()
        began = time.perf_counter()
        clock.wait_until(-1.0)
        assert time.perf_counter() - began < 0.1
