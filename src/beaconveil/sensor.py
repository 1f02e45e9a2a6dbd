"""Sensor-side decoding and the authentication session state machine.

The authenticator is a dumb device: it samples received power on a fixed
grid, timestamps beacon frames, and turns each beacon's slot window into one
observed triplet. Power bits are recovered by shape, not absolute level: the
median of every slot is thresholded at the midrange of the window's medians,
so a common offset (the emitter being nearer or farther) cancels out. The
time unit is measured from the first two beacons, never configured, and all
later intervals must quantize onto integer multiples of it.

Anything the device cannot read cleanly rejects the session rather than
being guessed at: a silent slot, a window without high/low structure, a
transition smaller than delta_db, an interval off the measured grid.

One reader turns a window into a triplet, and one event feed orders an
observation: the online SensorSession and the offline extract_triplets and
authenticate all go through them, so they read an observation the same way.
"""

from __future__ import annotations

import hmac
import math
from collections import deque
from dataclasses import dataclass, field, replace
from statistics import median
from typing import Iterable, Optional, Sequence

from .core import (ACCEPTED, IN_PROGRESS, REJECTED, RejectReason,
                   SecretPattern, Triplet, TxPattern, match_step, new_matcher)
from .emitter import SlotConfig

TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class ObservedSample:
    t_s: float
    rssi_dbm: Optional[float]  # None when the signal sat below the noise floor


@dataclass(frozen=True)
class BeaconObservation:
    t_s: float  # sensor clock, quantized to the sampling grid
    channel: int
    seq_no: int
    nonce: str


@dataclass(frozen=True)
class SensorConfig:
    f_s: float = 5.0  # sampling rate, Hz
    n: int = 3  # expected bits per triplet
    eps_tu: float = 0.10  # relative interval tolerance
    delta_db: float = 3.0  # minimum decodable transition
    rtt_limit_s: float = 0.1  # app-layer round trips above this look relayed
    lockout_s: float = 0.0  # quiet period after a rejection
    app_secret: Optional[str] = None  # None disables the app-layer gate
    watchdog_s: Optional[float] = None  # None: 8 nominal time units

    def __post_init__(self) -> None:
        if self.f_s <= 0:
            raise ValueError("f_s must be > 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.eps_tu < 0.5:
            raise ValueError("eps_tu must be in [0, 0.5) or rounding is ambiguous")
        if self.delta_db <= 0:
            raise ValueError("delta_db must be > 0")
        if self.lockout_s < 0 or (self.watchdog_s is not None and self.watchdog_s <= 0):
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


def decode_slots(samples: Iterable[ObservedSample], n: int, cfg: SensorConfig,
                 slot_s: float = 0.6, t0: Optional[float] = None) -> TxPattern:
    """Decode one beacon's slot window into an n-bit power pattern.

    Level shape only, never absolute power: per-slot medians are thresholded
    at the midrange of the window, so adding a constant offset to every
    sample (a farther emitter) leaves the bits unchanged. delta_db gates both
    the overall spread and every adjacent bit flip; windows that fail it are
    undecodable, not guessed.
    """
    if n < 1 or slot_s <= 0:
        raise ValueError("need n >= 1 and slot_s > 0")
    pts = list(samples)
    if not pts:
        raise UndecodableWindow("no samples in window")
    if t0 is None:
        t0 = min(s.t_s for s in pts)
    slots: list[list[float]] = [[] for _ in range(n)]
    for s in pts:
        if s.rssi_dbm is None:
            continue
        k = math.floor((s.t_s - t0) / slot_s)
        if 0 <= k < n:
            slots[k].append(s.rssi_dbm)
    for k, vals in enumerate(slots):
        if not vals:
            raise UndecodableWindow(f"slot {k} has no detectable samples")
    med = [median(vals) for vals in slots]
    lo, hi = min(med), max(med)
    if hi - lo < cfg.delta_db:
        raise UndecodableWindow(
            f"median spread {hi - lo:.2f} dB below delta_db {cfg.delta_db:g}")
    threshold = (hi + lo) / 2.0
    bits = "".join("1" if m > threshold else "0" for m in med)
    for k in range(n - 1):
        jump = abs(med[k + 1] - med[k])
        if bits[k] != bits[k + 1] and jump < cfg.delta_db:
            raise UndecodableWindow(
                f"bit flip at slot {k} rides a {jump:.2f} dB step, below delta_db")
    return TxPattern(bits)


def quantize_interval(raw_s: float, tu_s: float, eps: float = 0.10) -> Optional[int]:
    """Snap a raw beacon interval onto the measured time-unit grid.

    Returns k = round(raw_s/tu_s) when k >= 1 and the residual stays within
    eps*tu_s, otherwise None.
    """
    if tu_s <= 0:
        raise ValueError("tu_s must be > 0")
    k = round(raw_s / tu_s)
    if k < 1 or abs(raw_s - k * tu_s) > eps * tu_s:
        return None
    return int(k)


def _read_triplet(beacons: Sequence[BeaconObservation], j: int,
                  window: Iterable[ObservedSample], cfg: SensorConfig,
                  slot_s: float) -> Triplet:
    """Read triplet j from the slot window its beacon opened.

    The bits come from the level shape; the time unit is the gap between
    beacons 0 and 1, so the second interval is 1 by definition and later
    intervals quantize onto it. Raises UndecodableWindow or
    QuantizationFailure carrying j.
    """
    b = beacons[j]
    try:
        bits = decode_slots(window, cfg.n, cfg, slot_s, t0=b.t_s)
    except UndecodableWindow as e:
        raise UndecodableWindow(e.detail, index=j) from None
    if j == 0:
        return Triplet(bits, b.channel, None)
    tu_s = beacons[1].t_s - beacons[0].t_s
    if j == 1:
        if tu_s <= 0:
            raise QuantizationFailure("first interval is empty, no time unit", index=1)
        return Triplet(bits, b.channel, 1)
    raw = b.t_s - beacons[j - 1].t_s
    k = quantize_interval(raw, tu_s, cfg.eps_tu)
    if k is None:
        raise QuantizationFailure(
            f"interval {raw:.3f} s off the {tu_s:.3f} s time-unit grid", index=j)
    return Triplet(bits, b.channel, k)


def extract_triplets(beacons: Sequence[BeaconObservation],
                     samples: Iterable[ObservedSample], cfg: SensorConfig,
                     slot_s: float = 0.6) -> tuple[Triplet, ...]:
    """Offline pipeline: read every beacon's full slot window in turn.

    Stops at the first triplet it cannot read, as a session does. Scale
    invariance falls out of measuring the time unit: multiplying every
    timestamp by k > 0 rescales the time unit and all raw intervals
    together, leaving every quantized interval unchanged.
    """
    if not beacons:
        raise ValueError("need at least one beacon")
    pts = sorted(samples, key=lambda s: s.t_s)
    out = []
    for j, b in enumerate(beacons):
        end = b.t_s + cfg.n * slot_s
        window = [s for s in pts if b.t_s <= s.t_s < end]
        out.append(_read_triplet(beacons, j, window, cfg, slot_s))
    if len(out) < 2:
        raise QuantizationFailure("need two beacons to measure the time unit", index=1)
    return tuple(out)


class NonceHistory:
    """Bounded ledger of seen beacon nonces, FIFO eviction."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._order: deque[str] = deque()
        self._seen: set[str] = set()

    def __contains__(self, nonce: str) -> bool:
        return nonce in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def record(self, nonce: str) -> None:
        if nonce in self._seen:
            return
        if len(self._order) >= self.capacity:
            self._seen.discard(self._order.popleft())
        self._order.append(nonce)
        self._seen.add(nonce)


@dataclass
class SensorNode:
    """Device-lifetime state that outlives one session: nonce ledger, lockout."""

    lockout_s: float = 0.0
    history: NonceHistory = field(default_factory=NonceHistory)
    locked_until: float = float("-inf")

    def locked_at(self, t: float) -> bool:
        return t < self.locked_until

    def note_result(self, result: "AuthResult", t_terminal: float) -> None:
        if result.verdict == REJECTED and self.lockout_s > 0:
            self.locked_until = max(self.locked_until, t_terminal + self.lockout_s)


@dataclass(frozen=True)
class AuthResult:
    verdict: str  # accepted | rejected | timed_out
    pattern_id: Optional[str]  # set only on accept
    reason: Optional[RejectReason]
    phy_ok: bool
    app_ok: Optional[bool]  # None unless phy passed and the app gate is on
    transcript: tuple[Triplet, ...]
    duration_s: float

    @property
    def bucket(self) -> str:
        """Aggregation key for per-reason counting."""
        return ACCEPTED if self.verdict == ACCEPTED else self.reason.code


class _Window:
    __slots__ = ("index", "beacon", "end", "samples")

    def __init__(self, index: int, beacon: BeaconObservation, end: float):
        self.index = index
        self.beacon = beacon
        self.end = end
        self.samples: list[ObservedSample] = []


class SensorSession:
    """One authentication attempt as an online state machine.

    Consumes a time-ordered stream of beacon observations and power samples.
    Each beacon opens an n-slot window; a window is decoded once the event
    clock passes its end, producing one triplet that is streamed into the
    matcher. Replay and lockout are enforced against the shared SensorNode.
    A watchdog abandons the session when no beacon arrives for watchdog_s
    (default 8 nominal time units) after the last one.
    """

    def __init__(self, store: Iterable[SecretPattern], cfg: SensorConfig,
                 slot_cfg: Optional[SlotConfig] = None, *,
                 node: Optional[SensorNode] = None, t_start: float = 0.0):
        self.cfg = cfg
        self.slot_cfg = slot_cfg if slot_cfg is not None else SlotConfig()
        if cfg.f_s * self.slot_cfg.slot_s < 2:
            raise ValueError("need f_s*slot_s >= 2 samples per slot")
        self.store = tuple(store)
        self.node = node if node is not None else SensorNode(cfg.lockout_s)
        self.t_start = t_start
        self.watchdog_s = (cfg.watchdog_s if cfg.watchdog_s is not None
                           else 8.0 * self.slot_cfg.tu_s)
        self.status = IN_PROGRESS
        self.result: Optional[AuthResult] = None
        self.terminal_t: Optional[float] = None
        self._deadline = t_start + self.watchdog_s
        self._matcher = new_matcher(self.store)
        self._beacons: list[BeaconObservation] = []
        self._triplets: list[Triplet] = []
        self._window: Optional[_Window] = None
        if self.node.locked_at(t_start):
            self._reject(RejectReason("lockout"), t_start)

    @property
    def terminal(self) -> bool:
        return self.status != IN_PROGRESS

    def observe_beacon(self, b: BeaconObservation) -> None:
        if self.terminal:
            return
        self._advance(b.t_s)
        if self.terminal:
            return
        if self._window is not None:
            # Next frame announced before the previous window ran out; close
            # the old window on what it has.
            self._close_window()
            if self.terminal:
                return
        if b.nonce in self.node.history:
            self._reject(RejectReason("replay"), b.t_s)
            return
        self.node.history.record(b.nonce)
        self._beacons.append(b)
        end = b.t_s + self.cfg.n * self.slot_cfg.slot_s
        self._window = _Window(len(self._beacons) - 1, b, end)
        self._deadline = b.t_s + self.watchdog_s

    def observe_sample(self, s: ObservedSample) -> None:
        if self.terminal:
            return
        self._advance(s.t_s)
        w = self._window
        if w is not None and w.beacon.t_s <= s.t_s < w.end:
            w.samples.append(s)

    def feed(self, beacons: Iterable[BeaconObservation],
             samples: Iterable[ObservedSample]) -> None:
        """Drive a whole observation through the session in event order:
        time, then beacon before sample, then beacon seq_no, then sample
        order. Stops early once the session is terminal."""
        events = [(b.t_s, 0, b.seq_no, b) for b in beacons]
        events += [(s.t_s, 1, i, s) for i, s in enumerate(samples)]
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        for _, tag, _, ev in events:
            if self.terminal:
                break
            if tag == 0:
                self.observe_beacon(ev)
            else:
                self.observe_sample(ev)

    def finish(self, t_end: Optional[float] = None) -> AuthResult:
        """Declare the observation over; an unresolved session times out."""
        if not self.terminal:
            if t_end is None:
                t_end = self._deadline
            self._advance(t_end)
            if not self.terminal:
                self._timeout(t_end)
        return self.result

    def _advance(self, t: float) -> None:
        # Deferred events (window end, watchdog) up to time t, in time order.
        while not self.terminal:
            w_end = self._window.end if self._window is not None else math.inf
            next_t = min(w_end, self._deadline)
            if next_t > t:
                return
            if w_end <= self._deadline:
                self._close_window()
            else:
                self._timeout(self._deadline)

    def _close_window(self) -> None:
        w = self._window
        self._window = None
        try:
            trip = _read_triplet(self._beacons, w.index, w.samples, self.cfg,
                                 self.slot_cfg.slot_s)
        except ExtractionError as e:
            self._reject(e.reason(), w.end)
            return
        self._triplets.append(trip)
        self._matcher = match_step(self._matcher, trip, self.store)
        if self._matcher.status == ACCEPTED:
            self._accept(self._matcher.accepted_id, w.end)
        elif self._matcher.status == REJECTED:
            self._reject(self._matcher.reason, w.end)

    def _result(self, verdict: str, t: float, pattern_id: Optional[str] = None,
                reason: Optional[RejectReason] = None) -> None:
        self.status = verdict
        self.terminal_t = t
        self.result = AuthResult(
            verdict, pattern_id, reason, phy_ok=(verdict == ACCEPTED), app_ok=None,
            transcript=tuple(self._triplets), duration_s=t - self.t_start)

    def _accept(self, pattern_id: str, t: float) -> None:
        self._result(ACCEPTED, t, pattern_id=pattern_id)

    def _reject(self, reason: RejectReason, t: float) -> None:
        self._result(REJECTED, t, reason=reason)

    def _timeout(self, t: float) -> None:
        self._result(TIMED_OUT, t, reason=RejectReason("timeout"))


def app_gate(received: str, cfg: SensorConfig) -> bool:
    """Constant-time comparison of the app-layer secret."""
    if cfg.app_secret is None:
        raise RuntimeError("app gate is disabled: no app_secret configured")
    return hmac.compare_digest(received.encode(), cfg.app_secret.encode())


def mitm_check(rtt_s: float, cfg: SensorConfig) -> bool:
    """True when the app-layer round trip looks relayed (strictly above limit)."""
    return rtt_s > cfg.rtt_limit_s


def apply_app_stage(result: AuthResult, message: Optional[str],
                    rtt_s: Optional[float], cfg: SensorConfig) -> AuthResult:
    """Second factor after a physical accept: delay check, then the secret.

    No-op unless the physical layer accepted and an app_secret is configured.
    A round trip over rtt_limit_s rejects before the secret is even compared.
    """
    if result.verdict != ACCEPTED or cfg.app_secret is None:
        return result
    if rtt_s is not None and mitm_check(rtt_s, cfg):
        return replace(result, verdict=REJECTED, pattern_id=None,
                       reason=RejectReason("mitm-delay"), app_ok=False)
    if not app_gate(message if message is not None else "", cfg):
        return replace(result, verdict=REJECTED, pattern_id=None,
                       reason=RejectReason("app-secret"), app_ok=False)
    return replace(result, app_ok=True)


def authenticate(beacons: Iterable[BeaconObservation],
                 samples: Iterable[ObservedSample],
                 store: Iterable[SecretPattern], cfg: SensorConfig,
                 slot_cfg: Optional[SlotConfig] = None, *,
                 node: Optional[SensorNode] = None, t_start: float = 0.0,
                 t_end: Optional[float] = None, app_message: Optional[str] = None,
                 rtt_s: Optional[float] = None) -> AuthResult:
    """Replay a complete observation through a session and the app stage.

    Offline wrapper over SensorSession.feed, the same feed the simulator
    uses; the app stage gets the round trip rtt_s as given.
    """
    session = SensorSession(store, cfg, slot_cfg, node=node, t_start=t_start)
    session.feed(beacons, samples)
    result = session.finish(t_end)
    result = apply_app_stage(result, app_message, rtt_s, cfg)
    if node is not None:
        node.note_result(result, session.terminal_t)
    return result
