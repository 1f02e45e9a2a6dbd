"""Sensor-side decoding and the authentication session.

The authenticator is a dumb device: it samples received power on a fixed
grid, timestamps beacon frames, and turns each beacon's slot window into one
observed triplet. The samples travel as one Samples value, a pair of arrays
(times sorted, power with NaN below the noise floor), and a window is the
run of it that searchsorted cuts. Power bits are recovered by shape, not
absolute level: the median of every slot is thresholded at the midrange of
the window's medians, so a common offset (the emitter being nearer or
farther) cancels out. The time unit is measured from the first two beacons,
never configured, and all later intervals must quantize onto integer
multiples of it.

Where each slot's samples sit depends on the sample times alone, so it is
compiled into a slot grid (_SlotGrid): one row of sample indices per
(window, slot). A read gathers the rssi through it, sorts each row once and
takes every slot's median in one pass (_SlotGrid.medians). Samples that
observe_emission returns carry the grid their sampling layout compiled to;
any other Samples get one built from their times when they are read.
decode_slots is the one-window case of the same grid and pass.

Anything the device cannot read cleanly rejects the session rather than
being guessed at: a silent slot, a window without high/low structure, a
transition smaller than delta_db, an interval off the measured grid.

One reader turns a window into a triplet: SensorSession.run, a single walk
over an observation's beacons, and the offline extract_triplets both go
through it. Both take the beacons in (t_s, seq_no) order whatever order
they are given in, refuse a beacon time that is NaN or infinite, and close
a window by one rule (n slots after its beacon, or at the next beacon if
that comes first), so they read a window the same way. A session's
observation lasts until its watchdog fires. A SensorNode keeps what outlives
a session, and nothing else: the last 4096 beacon nonces heard, and a
lockout; a reject locks it for lockout_s, a lockout refusal aside.
"""

from __future__ import annotations

import hmac
import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (ACCEPTED, DEFAULT_MAX_TU, REJECTED, MatcherState,
                   RejectReason, SecretPattern, Triplet, TxPattern,
                   _check_finite, match_step, new_matcher)
from .emitter import Beacon, SlotConfig

TIMED_OUT = "timed_out"


class Samples:
    """RSSI samples on the sensor clock: t_s finite and sorted (stably) by
    time, and rssi_dbm, NaN where the signal sat below the noise floor."""

    __slots__ = ("t_s", "rssi_dbm", "_grid")

    def __init__(self, t_s=(), rssi_dbm=()):
        t = np.asarray(t_s, dtype=np.float64)
        r = np.asarray(rssi_dbm, dtype=np.float64)
        if t.ndim != 1 or t.shape != r.shape:
            raise ValueError("t_s and rssi_dbm must be 1-d and of one length")
        if not np.isfinite(t).all():
            raise ValueError("t_s must be finite")
        if not (t[1:] >= t[:-1]).all():
            order = np.argsort(t, kind="stable")
            t, r = t[order], r[order]
        self.t_s, self.rssi_dbm, self._grid = t, r, None

    @classmethod
    def _sorted(cls, t_s: np.ndarray, rssi_dbm: np.ndarray,
                grid: Optional["_SlotGrid"] = None) -> "Samples":
        # Unchecked: float64 arrays of one length, t_s finite and sorted, and
        # grid, if given, built on these t_s.
        out = object.__new__(cls)
        out.t_s, out.rssi_dbm, out._grid = t_s, rssi_dbm, grid
        return out

    def __len__(self) -> int:
        return len(self.t_s)

    def between(self, lo: float, hi: float) -> "Samples":
        """The samples with lo <= t_s < hi, as views."""
        i, j = self.t_s.searchsorted((lo, hi)).tolist()
        # A slice of sorted times is sorted.
        return Samples._sorted(self.t_s[i:j], self.rssi_dbm[i:j])


@dataclass(frozen=True)
class SensorConfig:
    f_s: float = 5.0  # sampling rate, Hz
    n: int = 3  # expected bits per triplet
    eps_tu: float = 0.10  # relative interval tolerance
    delta_db: float = 3.0  # minimum decodable transition
    rtt_limit_s: float = 0.1  # app-layer round trips above this look relayed
    # Quiet period after a rejection, on the node the session ran on. A
    # simulated trial gets a fresh node, so there it acts only between the
    # two sessions of a Replay trial; a brute-force FAR is per attempt.
    lockout_s: float = 0.0
    app_secret: Optional[str] = None  # None disables the app-layer gate
    watchdog_s: Optional[float] = None  # None: see _watchdog_s

    def __post_init__(self) -> None:
        _check_finite(f_s=self.f_s, eps_tu=self.eps_tu, delta_db=self.delta_db,
                      rtt_limit_s=self.rtt_limit_s, lockout_s=self.lockout_s,
                      watchdog_s=self.watchdog_s)
        if not self.f_s > 0:
            raise ValueError("f_s must be > 0")
        if not self.n >= 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.eps_tu < 0.5:
            raise ValueError("eps_tu must be in [0, 0.5) or rounding is ambiguous")
        if not self.delta_db > 0:
            raise ValueError("delta_db must be > 0")
        if not self.lockout_s >= 0 or (self.watchdog_s is not None and not self.watchdog_s > 0):
            raise ValueError("lockout_s must be >= 0 and watchdog_s > 0")


class ExtractionError(Exception):
    """A triplet could not be read from the air."""

    kind = "extraction"

    def __init__(self, detail: str, index: Optional[int] = None):
        super().__init__(detail if index is None else f"triplet {index}: {detail}")
        self.detail = detail
        self.index = index

    def reason(self) -> RejectReason:
        return RejectReason(self.kind, self.index)


class UndecodableWindow(ExtractionError):
    kind = "undecodable"


class QuantizationFailure(ExtractionError):
    kind = "quantization"


class _SlotGrid:
    """Where each slot of an observation's windows finds its samples, from
    the sample times alone, so it serves every rssi drawn on those times.

    idx has one row per (window, slot), window-major: the indices of the
    samples in that slot, padded with len(t_s), where medians puts a NaN,
    to one column more than the fullest slot. key is (n, slot_s, window
    starts) and closes the windows' ends, in window order; empty[w] is
    whether window w holds no sample at all.
    """

    __slots__ = ("idx", "key", "closes", "empty", "_twice")

    def __init__(self, idx: np.ndarray, key: tuple = (), closes: Sequence[float] = (),
                 empty: Sequence[bool] = ()):
        self.idx, self.key, self.closes, self.empty = idx, key, closes, empty
        self._twice = np.arange(0, 2 * idx.size, 2 * idx.shape[1])  # 2 * row start

    def medians(self, rssi: np.ndarray) -> tuple[list[int], list[float]]:
        """Per row, how many of its samples were heard and their median, in
        one pass over rssi. NaN sorts last, so a row's c heard values lead
        it and its first NaN sits at c; the median is
        (v[(c - 1) // 2] + v[c // 2]) / 2, statistics.median's rule: the
        middle value, or the mean of the two middle ones. A row with nothing
        heard has count 0 and a median that means nothing."""
        v = np.concatenate((rssi, _NAN))[self.idx]
        v.sort(axis=1)
        c = np.isnan(v).argmax(axis=1)
        t = self._twice + c
        flat = v.ravel()
        med = (flat[(t - 1) >> 1] + flat[t >> 1]) / 2
        return c.tolist(), med.tolist()


_NAN = np.array([np.nan])
_NAN.flags.writeable = False


def _slot_index(t_s: np.ndarray, lo: list[int], hi: list[int], t0: np.ndarray,
                n: int, slot_s: float) -> np.ndarray:
    """The idx of _SlotGrid for windows that hold the samples lo[w]:hi[w]
    and open at t0[w]. A sample is in slot floor((t - t0) / slot_s) if that
    is in [0, n); times are sorted, so each slot is one run of a window."""
    lens = [b - a for a, b in zip(lo, hi)]
    pos = np.array(lo)[:, None] + np.arange(max(lens))
    # q < j exactly when floor(q) < j, so the quotients need no floor.
    q = ((t_s.take(pos, mode="clip") - t0[:, None]) / slot_s).tolist()
    first, count = [], []
    for row, a, m in zip(q, lo, lens):
        # Where each slot's run starts in the window, and where the last ends.
        e = [bisect_left(row, j, 0, m) for j in range(n + 1)]
        first += [a + x for x in e[:-1]]
        count += [y - x for x, y in zip(e, e[1:])]
    cols = np.arange(max(count) + 1)
    return np.where(cols < np.array(count)[:, None], np.array(first)[:, None] + cols,
                    len(t_s))


def _slot_grid(t_s: np.ndarray, starts: tuple[float, ...], n: int,
               slot_s: float) -> _SlotGrid:
    """The grid of windows opened at starts (sorted, at least one), each
    reading the samples from its start up to where it closes: n slots
    later, or at the next start if that comes first."""
    span = n * slot_s
    closes = [min(a + span, b) for a, b in zip(starts, starts[1:])]
    closes.append(starts[-1] + span)
    edges = np.array((starts, closes))
    lo, hi = t_s.searchsorted(edges).tolist()
    idx = _slot_index(t_s, lo, hi, edges[0], n, slot_s)
    return _SlotGrid(idx, (n, slot_s, starts), closes, [a == b for a, b in zip(lo, hi)])


def _bits(counts: list[int], med: list[float], delta_db: float,
          index: Optional[int] = None) -> str:
    """The bit string of one window's slot counts and medians.

    Level shape only, never absolute power: the medians are thresholded at
    their midrange, so adding a constant offset to every sample (a farther
    emitter) leaves the bits unchanged. delta_db gates both the overall
    spread and every adjacent bit flip; windows that fail it are
    undecodable, not guessed. Errors carry index."""
    if 0 in counts:
        raise UndecodableWindow(
            f"slot {counts.index(0)} has no detectable samples", index)
    lo, hi = min(med), max(med)
    if hi - lo < delta_db:
        raise UndecodableWindow(
            f"median spread {hi - lo:.2f} dB below delta_db {delta_db:g}", index)
    threshold = (hi + lo) / 2.0
    bits = "".join(["1" if m > threshold else "0" for m in med])
    for k in range(len(med) - 1):
        jump = abs(med[k + 1] - med[k])
        if bits[k] != bits[k + 1] and jump < delta_db:
            raise UndecodableWindow(
                f"bit flip at slot {k} rides a {jump:.2f} dB step, below delta_db",
                index)
    return bits


def decode_slots(samples: Samples, n: int, cfg: SensorConfig,
                 slot_s: float = SlotConfig.slot_s,
                 t0: Optional[float] = None) -> TxPattern:
    """Decode one beacon's slot window into an n-bit power pattern.

    Every sample is the window's; slot j holds those with
    floor((t - t0) / slot_s) == j, t0 defaulting to the first sample's time.
    Each slot's median is taken over its heard samples, and the medians are
    read by shape (see _bits): delta_db gates the spread and every flip.
    """
    if n < 1 or slot_s <= 0:
        raise ValueError("need n >= 1 and slot_s > 0")
    t_s = samples.t_s
    if not len(t_s):
        raise UndecodableWindow("no samples in window")
    t0 = t_s[0] if t0 is None else t0
    idx = _slot_index(t_s, [0], [len(t_s)], np.array([t0], dtype=np.float64), n, slot_s)
    return TxPattern(_bits(*_SlotGrid(idx).medians(samples.rssi_dbm), cfg.delta_db))


def quantize_interval(raw_s: float, tu_s: float,
                      eps: float = SensorConfig.eps_tu) -> Optional[int]:
    """Snap a raw beacon interval onto the measured time-unit grid.

    Returns k = round(raw_s/tu_s) when k >= 1 and the residual stays within
    eps*tu_s, otherwise None; also None when raw_s/tu_s overflows. Raises
    ValueError naming raw_s or tu_s if it is NaN or infinite.
    """
    _check_finite(raw_s=raw_s, tu_s=tu_s)
    if tu_s <= 0:
        raise ValueError("tu_s must be > 0")
    ratio = raw_s / tu_s
    # A ratio past float range is on no grid: k = 0 is refused below.
    k = round(ratio) if math.isfinite(ratio) else 0
    if k < 1 or abs(raw_s - k * tu_s) > eps * tu_s:
        return None
    return int(k)


def _in_order(beacons: Iterable[Beacon]) -> list[Beacon]:
    """The beacons sorted by (t_s, seq_no), the order both readers take them
    in. Raises ValueError if any beacon's time is NaN or infinite: a NaN key
    does not sort, so every beacon is checked, not just the ends."""
    bs = list(beacons)
    for b in bs:
        if not math.isfinite(b.t_s):
            raise ValueError(f"beacon {b.seq_no} t_s must be finite, got {b.t_s!r}")
    bs.sort(key=attrgetter("t_s", "seq_no"))
    return bs


def _read_windows(bs: Sequence[Beacon], samples: Samples, n: int,
                  slot_s: float) -> tuple[_SlotGrid, list[int], list[float], list]:
    """The slot grid of the windows bs (in order, at least one) open on
    samples, with every slot's heard count and median from one pass, and
    what each window decodes to, None until it is first read (see
    _window_bits). The grid samples carry is used if it was built for
    these windows; otherwise one is built from samples.t_s."""
    starts = tuple([b.t_s for b in bs])
    grid = samples._grid
    if grid is None or grid.key != (n, slot_s, starts):
        grid = _slot_grid(samples.t_s, starts, n, slot_s)
    return (grid, *grid.medians(samples.rssi_dbm), [None] * len(bs))


def _read_triplet(beacons: Sequence[Beacon], j: int, read: tuple,
                  cfg: SensorConfig) -> Triplet:
    """Read triplet j from the slot window its beacon opened; read is
    _read_windows' result.

    The bits come from the level shape; the time unit is the gap between
    beacons 0 and 1, so the second interval is 1 by definition and later
    intervals quantize onto it. That gap is positive, since beacons at one
    time leave window 0 empty and undecodable. Raises UndecodableWindow or
    QuantizationFailure carrying j.
    """
    bits = _window_bits(read, j, cfg)
    if bits is None:
        raise UndecodableWindow(read[3][j][0], j)
    pattern, b = TxPattern(bits), beacons[j]
    if j == 0:
        return Triplet(pattern, b.channel, None)
    if j == 1:
        return Triplet(pattern, b.channel, 1)
    tu_s = beacons[1].t_s - beacons[0].t_s
    raw = b.t_s - beacons[j - 1].t_s
    k = quantize_interval(raw, tu_s, cfg.eps_tu)
    if k is None:
        raise QuantizationFailure(
            f"interval {raw:.3f} s off the {tu_s:.3f} s time-unit grid", index=j)
    return Triplet(pattern, b.channel, k)


def _window(read: tuple, j: int, cfg: SensorConfig) -> str:
    """The bit string of window j of read (_read_windows' result) by _bits's
    rule. Raises UndecodableWindow carrying j where it is empty or does not
    decode."""
    grid, counts, med, _ = read
    if grid.empty[j]:
        raise UndecodableWindow("no samples in window", index=j)
    n = cfg.n
    return _bits(counts[j * n:j * n + n], med[j * n:j * n + n], cfg.delta_db, j)


def _window_bits(read: tuple, j: int, cfg: SensorConfig) -> Optional[str]:
    """What window j of read decodes to: its bit string, or None where it
    is empty or undecodable. The window is decoded (_window) on its first
    read only: read keeps its bits, or why it did not decode as a 1-tuple,
    never the exception, whose traceback would pin the frames it passed."""
    decoded = read[3]
    got = decoded[j]
    if got is None:
        try:
            got = decoded[j] = _window(read, j, cfg)
        except UndecodableWindow as e:
            decoded[j] = (e.detail,)
            return None
        return got
    return got if got.__class__ is str else None


def extract_triplets(beacons: Sequence[Beacon], samples: Samples, cfg: SensorConfig,
                     slot_s: float = SlotConfig.slot_s) -> tuple[Triplet, ...]:
    """Offline pipeline: read every beacon's slot window in turn, in
    (t_s, seq_no) order, each cut short at the next beacon as a session
    cuts it.

    Stops at the first triplet it cannot read, as a session does, and
    raises ValueError on a beacon time that is NaN or infinite. Scale
    invariance falls out of measuring the time unit: multiplying every
    timestamp by k > 0 rescales the time unit and all raw intervals
    together, leaving every quantized interval unchanged.
    """
    bs = _in_order(beacons)
    if not bs:
        raise ValueError("need at least one beacon")
    if slot_s <= 0:
        raise ValueError("need n >= 1 and slot_s > 0")
    read = _read_windows(bs, samples, cfg.n, slot_s)
    out = [_read_triplet(bs, j, read, cfg) for j in range(len(bs))]
    if len(out) < 2:
        raise QuantizationFailure("need two beacons to measure the time unit", index=1)
    return tuple(out)


_LEDGER_SIZE = 4096  # nonces a node remembers


@dataclass
class SensorNode:
    """Device-lifetime state that outlives one session: a ledger of the last
    4096 beacon nonces heard, and the end of the lockout, whose length is the
    ended session's lockout_s."""

    locked_until: float = float("-inf")
    # Each nonce once, oldest first; popitem(last=False) evicts in O(1).
    _nonces: OrderedDict[str, None] = field(default_factory=OrderedDict,
                                            init=False, repr=False)

    def heard(self, nonce: str) -> bool:
        """Whether nonce was heard before. A new nonce is recorded, evicting
        the oldest first once the ledger is full; an old one is not moved."""
        if nonce in self._nonces:
            return True
        if len(self._nonces) >= _LEDGER_SIZE:
            self._nonces.popitem(last=False)
        self._nonces[nonce] = None
        return False

    def locked_at(self, t: float) -> bool:
        return t < self.locked_until

    def note_result(self, result: "AuthResult", lockout_s: float) -> None:
        if (result.verdict == REJECTED and lockout_s > 0
                and result.reason.kind != "lockout"):
            self.locked_until = max(self.locked_until, result.terminal_t + lockout_s)


@dataclass(frozen=True)
class AuthResult:
    verdict: str  # accepted | rejected | timed_out
    pattern_id: Optional[str]  # set only on accept
    reason: Optional[RejectReason]
    phy_ok: bool
    app_ok: Optional[bool]  # None unless phy passed and the app gate is on
    transcript: tuple[Triplet, ...]
    duration_s: float
    terminal_t: float  # when the verdict fell, on the sensor clock

    @property
    def bucket(self) -> str:
        """Aggregation key for per-reason counting."""
        return ACCEPTED if self.verdict == ACCEPTED else self.reason.code


def _watchdog_s(max_tu: int, tu_s: float) -> float:
    """The unset watchdog: 8 time units, or max_tu + 2 if that is longer."""
    return max(8, max_tu + 2) * tu_s


class SensorSession:
    """One authentication attempt, decided in one walk over its beacons.

    run walks the beacons of a whole observation in (time, seq_no) order.
    Each beacon opens an n-slot window that closes after n slots, or at the
    next beacon if that comes first, and reads one triplet that is streamed
    into the matcher; a verdict is stamped when its window closed. Replay
    and lockout are enforced against the shared SensorNode. A watchdog
    abandons the session when no beacon arrives for watchdog_s after the
    last one (unset: 18 time units, the simulator's rule at DEFAULT_MAX_TU).

    The session starts from matcher, an initial state from new_matcher; one
    such state serves every session against the same store.
    """

    def __init__(self, matcher: MatcherState, cfg: SensorConfig,
                 slot_cfg: Optional[SlotConfig] = None, *,
                 node: Optional[SensorNode] = None, t_start: float = 0.0):
        self.cfg = cfg
        self.slot_cfg = slot_cfg if slot_cfg is not None else SlotConfig()
        if cfg.f_s * self.slot_cfg.slot_s < 2:
            raise ValueError("need f_s*slot_s >= 2 samples per slot")
        self.node = node if node is not None else SensorNode()
        self.t_start = t_start
        self.watchdog_s = (cfg.watchdog_s if cfg.watchdog_s is not None
                           else _watchdog_s(DEFAULT_MAX_TU, self.slot_cfg.tu_s))
        self._matcher = matcher

    def run(self, beacons: Iterable[Beacon], samples: Samples) -> AuthResult:
        """The verdict on a whole observation, which lasts until the
        watchdog fires.

        A window reads the samples from its beacon up to where it closed (a
        sample at a beacon's own time is the new window's). A beacon time
        that is NaN or infinite raises ValueError.
        """
        bs = _in_order(beacons)
        # Every window's slot medians in one pass; the walk reads them in turn.
        read = None
        if bs and not self.node.locked_at(self.t_start):
            read = _read_windows(bs, samples, self.cfg.n, self.slot_cfg.slot_s)
        return self._walk(bs, read)

    def _walk(self, bs: Sequence[Beacon], read: Optional[tuple]) -> AuthResult:
        """run's walk over the beacons bs, in (t_s, seq_no) order, whose
        windows read (_read_windows' result, None without a beacon or on a
        locked node) gives. A window read already decoded is not decoded
        again."""
        triplets: list[Triplet] = []
        if self.node.locked_at(self.t_start):
            return self._end(REJECTED, self.t_start, triplets, RejectReason("lockout"))
        node, matcher = self.node, self._matcher
        deadline = self.t_start + self.watchdog_s
        span = self.cfg.n * self.slot_cfg.slot_s
        for j, b in enumerate(bs):
            if deadline <= b.t_s:
                return self._end(TIMED_OUT, deadline, triplets)
            if node.heard(b.nonce):
                return self._end(REJECTED, b.t_s, triplets, RejectReason("replay"))
            deadline = b.t_s + self.watchdog_s
            end = read[0].closes[j]
            if deadline < b.t_s + span and deadline <= end:
                return self._end(TIMED_OUT, deadline, triplets)
            try:
                trip = _read_triplet(bs, j, read, self.cfg)
            except ExtractionError as e:
                return self._end(REJECTED, end, triplets, e.reason())
            triplets.append(trip)
            matcher = match_step(matcher, trip)
            if matcher.terminal:
                return self._end(matcher.status, end, triplets, matcher.reason,
                                 matcher.accepted_id)
        return self._end(TIMED_OUT, deadline, triplets)

    def _end(self, verdict: str, t: float, triplets: list[Triplet],
             reason: Optional[RejectReason] = RejectReason("timeout"),
             pattern_id: Optional[str] = None) -> AuthResult:
        return AuthResult(
            verdict, pattern_id, reason, phy_ok=(verdict == ACCEPTED), app_ok=None,
            transcript=tuple(triplets), duration_s=t - self.t_start, terminal_t=t)


def apply_app_stage(result: AuthResult, message: Optional[str],
                    rtt_s: Optional[float], cfg: SensorConfig) -> AuthResult:
    """Second factor after a physical accept: delay check, then the secret.

    No-op unless the physical layer accepted and an app_secret is configured.
    A round trip over rtt_limit_s rejects before the secret is even compared
    in constant time (a missing message compares as "").
    """
    if result.verdict != ACCEPTED or cfg.app_secret is None:
        return result
    if rtt_s is not None and rtt_s > cfg.rtt_limit_s:
        kind = "mitm-delay"
    elif not hmac.compare_digest((message or "").encode(), cfg.app_secret.encode()):
        kind = "app-secret"
    else:
        return AuthResult(result.verdict, result.pattern_id, result.reason, result.phy_ok,
                          True, result.transcript, result.duration_s, result.terminal_t)
    return AuthResult(REJECTED, None, RejectReason(kind), result.phy_ok, False,
                      result.transcript, result.duration_s, result.terminal_t)


def authenticate(beacons: Iterable[Beacon], samples: Samples,
                 store: Iterable[SecretPattern], cfg: SensorConfig,
                 slot_cfg: Optional[SlotConfig] = None, *,
                 node: Optional[SensorNode] = None, t_start: float = 0.0,
                 app_message: Optional[str] = None,
                 rtt_s: Optional[float] = None) -> AuthResult:
    """Run a complete observation through a session and the app stage.

    Offline wrapper over SensorSession.run, the walk the simulator uses; the
    observation lasts until the default watchdog fires. The app stage gets
    rtt_s as given. A reject locks node for cfg.lockout_s, a lockout refusal
    aside.
    """
    session = SensorSession(new_matcher(store), cfg, slot_cfg, node=node,
                            t_start=t_start)
    result = apply_app_stage(session.run(beacons, samples), app_message, rtt_s, cfg)
    if node is not None:
        node.note_result(result, cfg.lockout_s)
    return result
