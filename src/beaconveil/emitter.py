"""Compile a credential into an absolute-time emission timeline, and build
the adversarial variants: single-field mutations, uniform random credentials,
raw brute-force candidates, and verbatim replays.

Bit transport: each beacon is immediately followed by n equal power slots
carrying that triplet's bits as high/low levels; between bursts the carrier
idles at the low level. Beacon i sits at t_0 = 0, t_1 = tu_s, and from there
t_i = t_{i-1} + interval_tu_i * tu_s.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .core import (BandPlan, PatternError, SecretPattern, Triplet, TxPattern,
                   _structural_violations)
from .radio import TxPowerLevels


class SlotFitError(ValueError):
    """The bit burst does not fit between consecutive beacons."""


@dataclass(frozen=True)
class SlotConfig:
    slot_s: float = 0.6  # seconds per power bit slot
    tu_s: float = 4.0  # seconds per time unit
    guard_s: float = 0.2  # idle tail after the last burst

    def __post_init__(self) -> None:
        if self.slot_s <= 0 or self.tu_s <= 0 or self.guard_s < 0:
            raise ValueError("slot_s and tu_s must be > 0, guard_s >= 0")

    def check_fit(self, p: SecretPattern) -> None:
        # Burst plus guard must end before the earliest next beacon.
        n = p.bit_count
        min_interval = min(t.interval_tu for t in p.triplets[1:])
        if n * self.slot_s + self.guard_s > min_interval * self.tu_s + 1e-12:
            raise SlotFitError(
                f"burst {n}*{self.slot_s}s + guard {self.guard_s}s exceeds "
                f"min interval {min_interval}*{self.tu_s}s")


@dataclass(frozen=True)
class BeaconEmission:
    t_s: float
    channel: int
    seq_no: int
    nonce: str


@dataclass(frozen=True)
class PowerStep:
    t_start: float
    t_end: float
    level_dbm: float


@dataclass(frozen=True)
class EmissionTimeline:
    beacons: tuple[BeaconEmission, ...]
    power_steps: tuple[PowerStep, ...]
    duration_s: float
    replayed: bool = False  # ground-truth flag, never visible to the sensor

    def levels_at(self, t: Union[float, np.ndarray]
                  ) -> Union[float, np.ndarray]:
        """Power level at a time or an array of times; steps are right-open,
        the last is closed. Returns a float for a scalar t, else an array."""
        starts = np.array([s.t_start for s in self.power_steps])
        levels = np.array([s.level_dbm for s in self.power_steps])
        idx = np.maximum(starts.searchsorted(t, side="right") - 1, 0)
        return levels[idx] if idx.ndim else float(levels[idx])

    def nonces(self) -> frozenset[str]:
        return frozenset(b.nonce for b in self.beacons)

    def dump(self) -> str:
        """Structured text form, one line per beacon and per power step."""
        lines = [f"beacon seq={b.seq_no} t={b.t_s:.6f} ch={b.channel} nonce={b.nonce}"
                 for b in self.beacons]
        lines += [f"power {s.t_start:.6f} {s.t_end:.6f} {s.level_dbm:.3f}"
                  for s in self.power_steps]
        return "\n".join(lines) + "\n"


def compile_schedule(p: SecretPattern, cfg: SlotConfig, tx: TxPowerLevels,
                     nonce_prefix: str = "n", require_valid: bool = True) -> EmissionTimeline:
    """Compile a pattern into beacons plus a piecewise-constant power profile.

    require_valid=False skips the structural pattern checks so that raw
    adversarial candidates (possibly with all-equal bit patterns) can still
    be put on the air; the fit check always applies.
    """
    if require_valid:
        problems = _structural_violations(p)
        if problems:
            raise PatternError(f"pattern {p.pattern_id!r}: " + "; ".join(str(v) for v in problems))
    if p.length < 2 or any(t.interval_tu is None or t.interval_tu < 1 for t in p.triplets[1:]):
        raise PatternError(f"pattern {p.pattern_id!r}: cannot schedule without positive intervals")
    cfg.check_fit(p)

    n = p.bit_count
    beacons = []
    steps: list[PowerStep] = []
    t = 0.0
    for i, trip in enumerate(p.triplets):
        if i > 0:
            t += trip.interval_tu * cfg.tu_s
        beacons.append(BeaconEmission(t, trip.channel, i, f"{nonce_prefix}.{i}"))
        for k, bit in enumerate(trip.tx_pattern.bits):
            steps.append(PowerStep(t + k * cfg.slot_s, t + (k + 1) * cfg.slot_s, tx.level(bit)))
        burst_end = t + n * cfg.slot_s
        if i + 1 < p.length:
            next_t = t + p.triplets[i + 1].interval_tu * cfg.tu_s
            if next_t > burst_end:
                steps.append(PowerStep(burst_end, next_t, tx.low_dbm))
    duration = beacons[-1].t_s + n * cfg.slot_s + cfg.guard_s
    if duration > beacons[-1].t_s + n * cfg.slot_s:
        steps.append(PowerStep(beacons[-1].t_s + n * cfg.slot_s, duration, tx.low_dbm))
    return EmissionTimeline(tuple(beacons), tuple(steps), duration)


@dataclass(frozen=True)
class FlipTxBit:
    triplet_index: int
    bit_index: int


@dataclass(frozen=True)
class WrongChannel:
    triplet_index: int
    channel: int


@dataclass(frozen=True)
class WrongInterval:
    triplet_index: int
    interval_tu: int


Mutation = Union[FlipTxBit, WrongChannel, WrongInterval]


def mutate(p: SecretPattern, m: Mutation) -> SecretPattern:
    """Return p with exactly one field changed; the result must differ from p.

    A flip that would produce an all-equal bit pattern is refused: such a
    pattern is undecodable by design and useless even to an adversary.
    """
    if not isinstance(m, (FlipTxBit, WrongChannel, WrongInterval)):
        raise TypeError(f"unknown mutation {m!r}")
    if not 0 <= m.triplet_index < p.length:
        raise ValueError(f"triplet_index {m.triplet_index} outside pattern of length {p.length}")
    trip = p.triplets[m.triplet_index]
    if isinstance(m, FlipTxBit):
        bits = list(trip.tx_pattern.bits)
        if not 0 <= m.bit_index < len(bits):
            raise ValueError(f"bit_index {m.bit_index} outside {len(bits)}-bit pattern")
        bits[m.bit_index] = "0" if bits[m.bit_index] == "1" else "1"
        flipped = "".join(bits)
        if len(set(flipped)) == 1:
            raise PatternError("mutation would produce an all-equal tx_pattern")
        new = dataclasses.replace(trip, tx_pattern=TxPattern(flipped))
    elif isinstance(m, WrongChannel):
        if m.channel == trip.channel:
            raise ValueError("mutation must change the pattern")
        new = dataclasses.replace(trip, channel=m.channel)
    elif isinstance(m, WrongInterval):
        if m.triplet_index == 0:
            raise ValueError("triplet 0 carries no interval to mutate")
        if m.interval_tu < 1:
            raise ValueError("interval_tu must be >= 1")
        if m.interval_tu == trip.interval_tu:
            raise ValueError("mutation must change the pattern")
        new = dataclasses.replace(trip, interval_tu=m.interval_tu)
    else:
        raise TypeError(f"unknown mutation {m!r}")
    triplets = list(p.triplets)
    triplets[m.triplet_index] = new
    return dataclasses.replace(p, triplets=tuple(triplets))


def _random_mixed_bits(rng: np.random.Generator, n: int) -> str:
    # Uniform over n-bit strings containing both symbols. For n <= 62 the
    # all-zero and all-one values are excluded by drawing in [1, 2^n - 2].
    if n <= 62:
        v = 1 + int(rng.integers(0, (1 << n) - 2))
        return format(v, f"0{n}b")
    while True:
        bits = "".join("1" if b else "0" for b in rng.integers(0, 2, size=n))
        if "0" in bits and "1" in bits:
            return bits


def random_pattern(rng: np.random.Generator, n: int, L: int, band: BandPlan,
                   max_tu: int, pattern_id: str = "rnd") -> SecretPattern:
    """Uniform draw over valid patterns; deterministic given the rng state."""
    if n < 2 or L < 2:
        raise ValueError("need n >= 2 and L >= 2")
    triplets = []
    for i in range(L):
        bits = _random_mixed_bits(rng, n)
        channel = 1 + int(rng.integers(0, band.channel_count))
        interval = None if i == 0 else (1 if i == 1 else 1 + int(rng.integers(0, max_tu)))
        triplets.append(Triplet(TxPattern(bits), channel, interval))
    return SecretPattern(pattern_id, tuple(triplets))


def random_candidate(rng: np.random.Generator, n: int, L: int, channels: int,
                     max_tu: int, pattern_id: str = "cand") -> SecretPattern:
    """Uniform draw over the *raw* candidate space counted by
    pattern_space_size: every bit string (all-equal included), every channel,
    every interval. This is the brute-force adversary's sample space."""
    if n < 1 or L < 2 or channels < 1 or max_tu < 1:
        raise ValueError("need n >= 1, L >= 2, channels >= 1, max_tu >= 1")
    triplets = []
    for i in range(L):
        bits = "".join("1" if b else "0" for b in rng.integers(0, 2, size=n))
        channel = 1 + int(rng.integers(0, channels))
        interval = None if i == 0 else (1 if i == 1 else 1 + int(rng.integers(0, max_tu)))
        triplets.append(Triplet(TxPattern(bits), channel, interval))
    return SecretPattern(pattern_id, tuple(triplets))


def candidate_from_index(index: int, n: int, L: int, channels: int,
                         max_tu: int) -> SecretPattern:
    """Bijection from [0, pattern_space_size) onto raw candidates.

    Digits are consumed least-significant-first as, per triplet: bits value,
    then channel, then (from the third triplet) interval.
    """
    triplets = []
    rem = index
    for i in range(L):
        bits_val = rem % (1 << n)
        rem //= (1 << n)
        ch = rem % channels
        rem //= channels
        if i >= 2:
            tu = rem % max_tu
            rem //= max_tu
            interval: Optional[int] = 1 + tu
        else:
            interval = None if i == 0 else 1
        triplets.append(Triplet(TxPattern(format(bits_val, f"0{n}b")), 1 + ch, interval))
    if rem:
        raise ValueError("index outside the candidate space")
    return SecretPattern(f"cand{index}", tuple(triplets))


def iter_candidates(n: int, L: int, channels: int, max_tu: int) -> Iterator[SecretPattern]:
    """All raw candidates, in candidate_from_index order."""
    per_triplet = []
    for i in range(L):
        bits = ["".join(c) for c in itertools.product("01", repeat=n)]
        chans = range(1, channels + 1)
        tus = [None] if i == 0 else ([1] if i == 1 else range(1, max_tu + 1))
        per_triplet.append([(b, c, t) for t in tus for c in chans for b in bits])
    for idx, combo in enumerate(itertools.product(*reversed(per_triplet))):
        triplets = tuple(Triplet(TxPattern(b), c, t) for b, c, t in reversed(combo))
        yield SecretPattern(f"cand{idx}", triplets)


def replay_timeline(t: EmissionTimeline) -> EmissionTimeline:
    """Verbatim copy with stale nonces; flagged for ground-truth scoring."""
    return dataclasses.replace(t, replayed=True)
