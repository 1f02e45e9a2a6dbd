"""Compile a credential into an absolute-time emission timeline, and build
the adversarial variants: single-field mutations, uniform random credentials
and raw brute-force candidates. A replay puts the same timeline on the air
again.

Bit transport: each beacon is immediately followed by n equal power slots
carrying that triplet's bits as high/low levels; between bursts the carrier
idles at the low level. Beacon i sits at t_0 = 0, t_1 = tu_s, and from there
t_i = t_{i-1} + interval_tu_i * tu_s.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .core import (BandPlan, PatternError, SecretPattern, Triplet, TxPattern,
                   _check_finite, pattern_space_size)
from .radio import TxPowerLevels


class SlotFitError(ValueError):
    """The bit burst does not fit between consecutive beacons."""


@dataclass(frozen=True)
class SlotConfig:
    slot_s: float = 0.6  # seconds per power bit slot
    tu_s: float = 4.0  # seconds per time unit
    guard_s: float = 0.2  # idle tail after the last burst

    def __post_init__(self) -> None:
        _check_finite(slot_s=self.slot_s, tu_s=self.tu_s, guard_s=self.guard_s)
        if not (self.slot_s > 0 and self.tu_s > 0 and self.guard_s >= 0):
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
class Beacon:
    """One beacon frame: on the emitter clock in a timeline, on the sensor
    clock (quantized to the sampling grid) once observed."""

    t_s: float
    channel: int
    seq_no: int
    nonce: str


@dataclass(frozen=True, eq=False)
class EmissionTimeline:
    """Beacons plus a piecewise-constant power profile: step k holds
    levels[k] from starts[k] to starts[k+1], the last step up to duration_s.
    starts and levels are read-only float64 arrays, and so is beacon_times,
    the beacons' t_s in order, built once for the radio."""

    beacons: tuple[Beacon, ...]
    starts: np.ndarray
    levels: np.ndarray
    duration_s: float

    def __post_init__(self) -> None:
        columns = {"starts": self.starts, "levels": self.levels,
                   "beacon_times": [b.t_s for b in self.beacons]}
        for name, col in columns.items():
            a = np.array(col, dtype=np.float64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def levels_at(self, t: Union[float, np.ndarray]
                  ) -> Union[float, np.ndarray]:
        """Power level at a time or an array of times; steps are right-open,
        the last is closed. Returns a float for a scalar t, else an array."""
        idx = np.maximum(self.starts.searchsorted(t, side="right") - 1, 0)
        return self.levels[idx] if idx.ndim else float(self.levels[idx])

    def dump(self) -> str:
        """Structured text form, one line per beacon and per power step."""
        lines = [f"beacon seq={b.seq_no} t={b.t_s:.6f} ch={b.channel} nonce={b.nonce}"
                 for b in self.beacons]
        starts = self.starts.tolist()
        lines += [f"power {s:.6f} {e:.6f} {lv:.3f}" for s, e, lv
                  in zip(starts, starts[1:] + [self.duration_s], self.levels.tolist())]
        return "\n".join(lines) + "\n"


def compile_schedule(p: SecretPattern, cfg: SlotConfig, tx: TxPowerLevels,
                     nonce_prefix: str = "n") -> EmissionTimeline:
    """Compile a pattern into beacons plus a piecewise-constant power profile.

    Any pattern that can be laid out compiles: two or more triplets of one
    bit count, each after the first with an interval >= 1, and bursts that
    fit. Raw candidates and mutants need not be valid credentials; whether a
    pattern is one is validate_pattern's question.
    """
    n = p.bit_count
    if p.length < 2 or any(len(t.tx_pattern.bits) != n for t in p.triplets) \
            or any(t.interval_tu is None or t.interval_tu < 1 for t in p.triplets[1:]):
        raise PatternError(f"pattern {p.pattern_id!r}: cannot lay out; need two or more "
                           "triplets of one bit count and intervals >= 1 after the first")
    cfg.check_fit(p)

    beacons = []
    starts: list[float] = []
    levels: list[float] = []
    t = 0.0
    for i, trip in enumerate(p.triplets):
        if i > 0:
            t += trip.interval_tu * cfg.tu_s
        beacons.append(Beacon(t, trip.channel, i, f"{nonce_prefix}.{i}"))
        for k, bit in enumerate(trip.tx_pattern.bits):
            starts.append(t + k * cfg.slot_s)
            levels.append(tx.level(bit))
        # Idle low up to the next beacon, or over the guard after the last.
        burst_end = t + n * cfg.slot_s
        idle_end = (t + p.triplets[i + 1].interval_tu * cfg.tu_s if i + 1 < p.length
                    else burst_end + cfg.guard_s)
        if idle_end > burst_end:
            starts.append(burst_end)
            levels.append(tx.low_dbm)
    return EmissionTimeline(tuple(beacons), starts, levels, burst_end + cfg.guard_s)


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
    else:
        if m.triplet_index == 0:
            raise ValueError("triplet 0 carries no interval to mutate")
        if m.interval_tu < 1:
            raise ValueError("interval_tu must be >= 1")
        if m.interval_tu == trip.interval_tu:
            raise ValueError("mutation must change the pattern")
        new = dataclasses.replace(trip, interval_tu=m.interval_tu)
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


# The largest bound numpy's int64 rng.integers takes: its values end at 2^63 - 1.
_MAX_BOUND = 1 << 63


def _candidate_digits(n: int, L: int, channels: int, max_tu: int) -> list[int]:
    """The bounds of a uniform raw candidate's digits, in draw order: each
    digit is drawn below its bound. Per triplet: n bits, most significant
    first, the channel less one, and from the third triplet the interval
    less one. A candidate's digits in this order are its row, which
    _raw_candidate builds. A bound above 2^63 raises ValueError, as numpy's
    int64 draw does."""
    if n < 1 or L < 2 or channels < 1 or max_tu < 1:
        raise ValueError("need n >= 1, L >= 2, channels >= 1, max_tu >= 1")
    if channels > _MAX_BOUND or (L >= 3 and max_tu > _MAX_BOUND):
        raise ValueError("high is out of bounds for int64")
    triplet = [2] * n + [channels]
    return triplet * 2 + (triplet + [max_tu]) * (L - 2)


def _raw_candidate(row: Sequence[int], n: int, L: int,
                   pattern_id: str = "cand") -> SecretPattern:
    """The raw candidate whose digits, in _candidate_digits' order, are
    row."""
    triplets = []
    k = 0
    for i in range(L):
        bits = "".join(map(str, row[k:k + n]))
        channel = 1 + row[k + n]
        k += n + 1
        interval: Optional[int] = None if i == 0 else 1
        if i >= 2:
            interval = 1 + row[k]
            k += 1
        triplets.append(Triplet(TxPattern(bits), channel, interval))
    return SecretPattern(pattern_id, tuple(triplets))


def random_candidate(rng: np.random.Generator, n: int, L: int, channels: int,
                     max_tu: int) -> SecretPattern:
    """Uniform draw over the *raw* candidate space counted by
    pattern_space_size: every bit string (all-equal included), every channel,
    every interval. This is the brute-force adversary's sample space.

    The digits (see _candidate_digits) are drawn in one rng.integers call
    over an array of bounds. numpy draws such an array element by element
    with the bounded-integer routine a one-value call uses (Lemire, 2019),
    so the digits and the generator's final state are those of one call per
    digit; a simulated run draws the same digits for a whole block of
    trials at once (sim._trial_draws). A bound above 2^63 raises ValueError,
    as numpy's int64 draw does. The candidate's id is "cand"; nothing reads
    it."""
    bounds = _candidate_digits(n, L, channels, max_tu)
    return _raw_candidate(rng.integers(0, np.array(bounds, dtype=np.uint64)).tolist(),
                          n, L)


def candidate_from_index(index: int, n: int, L: int, channels: int,
                         max_tu: int) -> SecretPattern:
    """Bijection from [0, pattern_space_size) onto raw candidates, with id
    "cand<index>".

    Digits are consumed least-significant-first as, per triplet: bits value,
    then channel, then (from the third triplet) interval.
    """
    row = []
    rem = index
    for i in range(L):
        rem, bits_val = divmod(rem, 1 << n)
        row += [bits_val >> b & 1 for b in reversed(range(n))]
        rem, ch = divmod(rem, channels)
        row.append(ch)
        if i >= 2:
            rem, tu = divmod(rem, max_tu)
            row.append(tu)
    if rem:
        raise ValueError("index outside the candidate space")
    # Decimal prints every digit; str() of an int over 4300 digits raises.
    # It is imported here: the module costs about 0.4 MiB resident, and a
    # simulated run never names a candidate by its index.
    from decimal import Decimal
    return _raw_candidate(row, n, L, f"cand{Decimal(index)}")


def iter_candidates(n: int, L: int, channels: int, max_tu: int) -> Iterator[SecretPattern]:
    """All raw candidates, in index order."""
    for i in range(pattern_space_size(n, L, channels, max_tu)):
        yield candidate_from_index(i, n, L, channels, max_tu)

