"""Channel model: path loss, shadowing, detection floor, trajectories."""

import math

import numpy as np
import pytest

from beaconveil import (ChannelParams, Trajectory, TxPowerLevels, distance_at,
                        path_loss, received_power)


class TestPathLoss:
    def test_reference_distance(self):
        p = ChannelParams(pl0_db=40.0, d0=0.5, gamma=2.7, sigma_db=0.0)
        assert path_loss(0.5, p) == pytest.approx(40.0)

    def test_log_distance_value(self):
        # independent recomputation: PL = pl0 + 10*gamma*log10(d/d0)
        p = ChannelParams(pl0_db=40.0, d0=0.5, gamma=2.7, sigma_db=0.0)
        expected = 40.0 + 10.0 * 2.7 * math.log10(9.0 / 0.5)
        assert expected == pytest.approx(73.89235763778926, abs=1e-9)
        assert path_loss(9.0, p) == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_distance(self):
        p = ChannelParams()
        losses = [path_loss(d, p) for d in (0.5, 1, 2, 5, 10, 20, 40)]
        assert losses == sorted(losses)
        assert len(set(losses)) == len(losses)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss(0.0, ChannelParams())
        with pytest.raises(ValueError):
            path_loss(-1.0, ChannelParams())


class TestReceivedPower:
    def test_at_reference(self):
        assert received_power(13.0, 0.5, ChannelParams()) == pytest.approx(-27.0)
        assert received_power(7.0, 0.5, ChannelParams()) == pytest.approx(-33.0)

    def test_high_far_below_low_near(self):
        # the covert channel only works because distance dominates txpower
        p = ChannelParams()
        far_high = received_power(13.0, 3.0, p)
        near_low = received_power(7.0, 0.5, p)
        assert far_high == pytest.approx(-52.67899126266025, abs=1e-9)
        assert far_high < near_low

    def test_detection_floor_cutoff(self):
        p = ChannelParams()
        assert received_power(13.0, 40.0, p) == pytest.approx(-89.80196957073414, abs=1e-9)
        assert received_power(13.0, 41.0, p) is None
        assert received_power(7.0, 26.0, p) is not None
        assert received_power(7.0, 27.0, p) is None

    def test_shadowing_needs_rng(self):
        p = ChannelParams(sigma_db=2.0)
        with pytest.raises(ValueError):
            received_power(13.0, 5.0, p)

    def test_shadowing_deterministic_under_seed(self):
        p = ChannelParams(sigma_db=2.0)
        a = [received_power(13.0, 5.0, p, rng=np.random.default_rng(42))
             for _ in range(5)]
        b = [received_power(13.0, 5.0, p, rng=np.random.default_rng(42))
             for _ in range(5)]
        assert a == b
        spread = [received_power(13.0, 5.0, p, rng=np.random.default_rng(s))
                  for s in range(50)]
        assert len(set(spread)) > 1

    def test_sigma_zero_matches_deterministic(self):
        p = ChannelParams(sigma_db=0.0)
        with_rng = received_power(13.0, 5.0, p, rng=np.random.default_rng(1))
        assert with_rng == received_power(13.0, 5.0, p)


class TestTxPowerLevels:
    def test_bit_to_level(self):
        tx = TxPowerLevels()
        assert tx.level("1") == tx.level(1) == 13.0
        assert tx.level("0") == tx.level(0) == 7.0

    def test_high_must_exceed_low(self):
        with pytest.raises(ValueError):
            TxPowerLevels(high_dbm=7.0, low_dbm=13.0)


class TestTrajectory:
    def test_constant(self):
        traj = Trajectory(((0.0, 5.0),))
        assert distance_at(traj, 0.0) == 5.0
        assert distance_at(traj, 100.0) == 5.0

    def test_linear_interpolation(self):
        traj = Trajectory(((0.0, 10.0), (10.0, 20.0)))
        assert distance_at(traj, 5.0) == pytest.approx(15.0)
        # clamped outside the waypoint span
        assert distance_at(traj, -1.0) == pytest.approx(10.0)
        assert distance_at(traj, 11.0) == pytest.approx(20.0)

    def test_steep_segment_stays_between_its_ranges(self):
        # Waypoints a subnormal time apart: the segment's slope overflows,
        # and np.interp gives -inf inside it.
        traj = Trajectory(((0.0, 1.0), (2.225073858507e-311, 0.5), (4.0, 2.5)))
        t = np.array([-1.0, 0.0, 1e-312, 2.225073858507e-311, 2.0, 4.0, 9.0])
        d = distance_at(traj, t)
        assert d[0] == d[1] == 1.0 and d[3] == 0.5 and d[5] == d[6] == 2.5
        assert 0.5 < d[2] < 1.0 and d[4] == pytest.approx(1.5)
        assert distance_at(traj, 1e-312) == d[2]
        assert not Trajectory(((0.0, 10.0), (10.0, 20.0)))._steep

    def test_rejects_bad_waypoints(self):
        with pytest.raises(ValueError):
            Trajectory(())
        with pytest.raises(ValueError):
            Trajectory(((0.0, 5.0), (0.0, 6.0)))
        with pytest.raises(ValueError):
            Trajectory(((0.0, 0.0),))
