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


@dataclass(frozen=True)
class ChannelParams:
    pl0_db: float = 40.0  # path loss at d0
    d0: float = 0.5  # reference distance, m
    gamma: float = 3.3  # path-loss exponent
    sigma_db: float = 0.0  # shadowing standard deviation
    noise_floor_dbm: float = -90.0  # below this the sample is absent

    def __post_init__(self) -> None:
        if self.d0 <= 0:
            raise ValueError("d0 must be > 0")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be >= 0")


@dataclass(frozen=True)
class TxPowerLevels:
    high_dbm: float = 13.0
    low_dbm: float = 7.0

    def __post_init__(self) -> None:
        if self.high_dbm <= self.low_dbm:
            raise ValueError("high_dbm must exceed low_dbm")

    def level(self, bit) -> float:
        return self.high_dbm if str(bit) == "1" else self.low_dbm


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear emitter-to-sensor range over time, clamped outside."""

    waypoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "waypoints",
                           tuple((float(t), float(d)) for t, d in self.waypoints))
        if not self.waypoints:
            raise ValueError("trajectory needs at least one waypoint")
        times = [t for t, _ in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")
        if any(d <= 0 for _, d in self.waypoints):
            raise ValueError("waypoint distances must be > 0")


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
    Returns a float for a scalar t, else an array."""
    d = np.interp(t, [w[0] for w in traj.waypoints], [w[1] for w in traj.waypoints])
    return d if d.ndim else float(d)
