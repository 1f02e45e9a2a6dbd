"""Log-distance path loss with Gaussian shadowing, plus range trajectories.

The default calibration is pinned by two anchors: the high power level (13
dBm) becomes undetectable between 40 and 41 m, and at 3 m it already reads
below what the low level (7 dBm) reads at the 0.5 m reference distance. With
pl0=40 dB at 0.5 m and a noise floor of -90 dBm that forces gamma = 3.3; the
same numbers put the low-level cutoff near 27 m, which is where high/low
discrimination starts to die.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import _check_finite


@dataclass(frozen=True)
class ChannelParams:
    pl0_db: float = 40.0  # path loss at d0
    d0: float = 0.5  # reference distance, m
    gamma: float = 3.3  # path-loss exponent
    sigma_db: float = 0.0  # shadowing standard deviation
    noise_floor_dbm: float = -90.0  # below this the sample is absent

    def __post_init__(self) -> None:
        _check_finite(pl0_db=self.pl0_db, d0=self.d0, gamma=self.gamma,
                      sigma_db=self.sigma_db, noise_floor_dbm=self.noise_floor_dbm)
        if not self.d0 > 0:
            raise ValueError("d0 must be > 0")
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if not self.sigma_db >= 0:
            raise ValueError("sigma_db must be >= 0")


@dataclass(frozen=True)
class TxPowerLevels:
    high_dbm: float = 13.0
    low_dbm: float = 7.0

    def __post_init__(self) -> None:
        _check_finite(high_dbm=self.high_dbm, low_dbm=self.low_dbm)
        if not self.high_dbm > self.low_dbm:
            raise ValueError("high_dbm must exceed low_dbm")

    def level(self, bit) -> float:
        return self.high_dbm if str(bit) == "1" else self.low_dbm


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear emitter-to-sensor range over time, clamped outside.

    The waypoint times and ranges are also kept as two read-only float64
    arrays, built once, for distance_at; only the waypoints pickle. So is
    whether a segment is steep: closer in time than its change of range
    over float64's largest value, so that its slope overflows.
    """

    waypoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "waypoints",
                           tuple((float(t), float(d)) for t, d in self.waypoints))
        if not self.waypoints:
            raise ValueError("trajectory needs at least one waypoint")
        for t, d in self.waypoints:
            _check_finite(waypoint_time=t, waypoint_distance=d)
        times = [t for t, _ in self.waypoints]
        if not all(b > a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")
        if not all(d > 0 for _, d in self.waypoints):
            raise ValueError("waypoint distances must be > 0")
        for name, col in (("_xp", times), ("_fp", [d for _, d in self.waypoints])):
            a = np.array(col, dtype=np.float64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_steep", bool(np.any(
            np.abs(np.diff(self._fp)) / np.finfo(np.float64).max > np.diff(self._xp))))

    def __reduce__(self):
        return Trajectory, (self.waypoints,)


def path_loss(d: Union[float, np.ndarray],
              p: ChannelParams) -> Union[float, np.ndarray]:
    """Log-distance loss in dB at a distance or an array of them; strictly
    increasing in d. Returns a float for a scalar d, else an array."""
    d = np.asarray(d, dtype=float)
    if d.min() <= 0:
        raise ValueError("distance must be > 0")
    loss = p.pl0_db + 10.0 * p.gamma * np.log10(d / p.d0)
    return loss if loss.ndim else float(loss)


def received_power(tx_dbm: float, d: float, p: ChannelParams,
                   rng: Optional[np.random.Generator] = None) -> Optional[float]:
    """One received-power draw in dBm, or None when below the noise floor."""
    rssi = tx_dbm - path_loss(d, p)
    if p.sigma_db > 0:
        if rng is None:
            raise ValueError("shadowing draw requires an rng when sigma_db > 0")
        rssi += float(rng.normal(0.0, p.sigma_db))
    return rssi if rssi >= p.noise_floor_dbm else None


def distance_at(traj: Trajectory,
                t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Range at a time or an array of times, clamped outside the waypoints.
    Returns a float for a scalar t, else an array. np.interp steps along a
    segment by its slope, which is infinite on a steep one, so a trajectory
    with one takes each time's fraction of its segment instead."""
    if traj._steep:
        xp, fp = traj._xp, traj._fp
        x = np.clip(t, xp[0], xp[-1])
        j = np.minimum(np.searchsorted(xp, x, side="right"), len(xp) - 1) - 1
        d = fp[j] + (x - xp[j]) / (xp[j + 1] - xp[j]) * (fp[j + 1] - fp[j])
    else:
        d = np.interp(t, traj._xp, traj._fp)
    return d if d.ndim else float(d)
