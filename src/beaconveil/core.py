"""Domain types, credential validation, the pattern text codec, and the
incremental triplet matcher.

A credential is an ordered sequence of triplets (txpower bit pattern, channel
id, beacon interval in time units). The first triplet carries no interval and
the second always carries exactly 1 TU, because the authenticator measures its
time unit from the first two beacons; only intervals from the third triplet on
are free credential material.

Type constructors check shape only. Whether a pattern is *usable* (decodable
bit patterns, channels inside the band plan, bounded intervals) is the job of
validate_pattern, which must be able to describe invalid patterns, so invalid
ones stay constructible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

MAX_BITS = 64

IN_PROGRESS = "in_progress"
ACCEPTED = "accepted"
REJECTED = "rejected"


class PatternError(ValueError):
    """A pattern failed structural validation or could not be parsed."""


class MatcherError(RuntimeError):
    """The matcher was driven past a terminal state."""


def _check_finite(**values: Optional[float]) -> None:
    """Raise ValueError naming the first nan or inf among values (None skips)."""
    for name, v in values.items():
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class TxPattern:
    """An ordered string of power bits, high=1 low=0."""

    bits: str

    def __post_init__(self) -> None:
        if not self.bits or any(c not in "01" for c in self.bits):
            raise ValueError(f"bits must be a nonempty 0/1 string, got {self.bits!r}")

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.bits


# Channel ids are plain ints, 1-based within a BandPlan.
ChannelId = int


@dataclass(frozen=True)
class BandPlan:
    name: str
    channel_count: int
    base_freq: float  # MHz of channel 1
    spacing: float  # MHz between adjacent channels

    def __post_init__(self) -> None:
        _check_finite(base_freq=self.base_freq, spacing=self.spacing)
        if not self.channel_count >= 1:
            raise ValueError("channel_count must be >= 1")
        if not self.spacing > 0:
            raise ValueError("spacing must be > 0")

    def channel_freq(self, channel: ChannelId) -> float:
        if not 1 <= channel <= self.channel_count:
            raise ValueError(f"channel {channel} outside band plan {self.name}")
        return self.base_freq + (channel - 1) * self.spacing


#: 14 channels spaced 5 MHz apart starting at 2412 MHz.
DEFAULT_BAND = BandPlan("2.4GHz-14ch", 14, 2412.0, 5.0)

#: Default bound on the interval alphabet for triplets past the second.
DEFAULT_MAX_TU = 16


@dataclass(frozen=True)
class Triplet:
    """One credential element. interval_tu is None only at sequence index 0."""

    tx_pattern: TxPattern
    channel: ChannelId
    interval_tu: Optional[int] = None

    def __str__(self) -> str:
        """The BITS@CHANNEL:INTERVAL token, '-' for a missing interval."""
        iv = "-" if self.interval_tu is None else self.interval_tu
        return f"{self.tx_pattern.bits}@{self.channel}:{iv}"


@dataclass(frozen=True)
class SecretPattern:
    pattern_id: str
    triplets: tuple[Triplet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "triplets", tuple(self.triplets))

    @property
    def length(self) -> int:
        return len(self.triplets)

    @property
    def bit_count(self) -> int:
        """Bits per triplet; meaningful only when the pattern is uniform."""
        return len(self.triplets[0].tx_pattern) if self.triplets else 0


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(str(v) for v in self.violations)


def _all_hold(p: SecretPattern, channel_count: float, max_tu: float) -> bool:
    """Every invariant of validate_pattern, in one walk over the triplets.

    True only when the full listing would find nothing; a False just sends
    the caller to that listing for the messages.
    """
    ts = p.triplets
    if len(ts) < 2:
        return False
    n = len(ts[0].tx_pattern.bits)
    if not 2 <= n <= MAX_BITS:
        return False
    for i, t in enumerate(ts):
        bits, iv = t.tx_pattern.bits, t.interval_tu
        if len(bits) != n or "0" not in bits or "1" not in bits \
                or not 1 <= t.channel <= channel_count:
            return False
        if i == 0:
            if iv is not None:
                return False
        elif iv is None or not 1 <= iv <= max_tu or i == 1 and iv != 1:
            return False
    return True


def _structural_violations(p: SecretPattern) -> list[Violation]:
    # The subset of checks that need no band plan or interval bound.
    if _all_hold(p, math.inf, math.inf):
        return []
    out: list[Violation] = []
    if p.length < 2:
        out.append(Violation("bad-length", f"pattern length L < 2 (got {p.length})"))
        return out
    n = len(p.triplets[0].tx_pattern)
    for i, t in enumerate(p.triplets):
        bits = t.tx_pattern.bits
        if len(bits) != n:
            out.append(Violation("mixed-n", f"triplet {i} has {len(bits)} bits, expected {n}"))
        if not 2 <= len(bits) <= MAX_BITS:
            out.append(Violation("bad-bit-length", f"triplet {i} bit count {len(bits)} outside [2, {MAX_BITS}]"))
        elif len(set(bits)) == 1:
            out.append(Violation("all-equal-bits", f"triplet {i} tx_pattern {bits} has no transition"))
        if i == 0:
            if t.interval_tu is not None:
                out.append(Violation("bad-first-interval", "triplet 0 must carry no interval"))
        elif t.interval_tu is None:
            out.append(Violation("missing-interval", f"triplet {i} must carry an interval"))
        elif i == 1 and t.interval_tu != 1:
            out.append(Violation("bad-second-interval", f"second interval must be 1 TU, got {t.interval_tu}"))
    return out


_VALID = ValidationReport(())


def validate_pattern(p: SecretPattern, band: BandPlan = DEFAULT_BAND,
                     max_tu: int = DEFAULT_MAX_TU) -> ValidationReport:
    """Check every pattern invariant plus channel membership in the band."""
    if _all_hold(p, band.channel_count, max_tu):
        return _VALID
    out = _structural_violations(p)
    for i, t in enumerate(p.triplets):
        if not 1 <= t.channel <= band.channel_count:
            out.append(Violation("channel-out-of-band",
                                 f"triplet {i} channel {t.channel} outside 1..{band.channel_count}"))
        if t.interval_tu is not None and not 1 <= t.interval_tu <= max_tu:
            out.append(Violation("interval-out-of-range",
                                 f"triplet {i} interval {t.interval_tu} outside 1..{max_tu}"))
    return ValidationReport(tuple(out))


def ensure_valid(p: SecretPattern, band: BandPlan = DEFAULT_BAND,
                 max_tu: int = DEFAULT_MAX_TU) -> None:
    report = validate_pattern(p, band, max_tu)
    if not report.ok:
        raise PatternError(f"pattern {p.pattern_id!r}: {report}")


def pattern_space_size(n: int, L: int, channels: int, max_tu: int) -> int:
    """Exact size of the raw candidate space: 2^(nL) * channels^L * max_tu^(L-2).

    The first triplet carries no interval and the second is pinned to 1 TU,
    so only L-2 interval digits are free. Arbitrary precision.
    """
    if min(n, L, channels, max_tu) < 1:
        raise ValueError("all arguments must be >= 1")
    if L < 2:
        raise ValueError("L must be >= 2 (single-triplet patterns have no time unit)")
    return (1 << (n * L)) * channels ** L * max_tu ** (L - 2)


_MISMATCH_MESSAGES = {
    "txpower": "txpower mismatch at index {i}",
    "channel": "channel mismatch at index {i}",
    "interval": "interval mismatch at index {i}",
    "undecodable": "undecodable window at index {i}",
    "quantization": "interval quantization failed at index {i}",
}

_PLAIN_MESSAGES = {
    "replay": "replayed nonce",
    "lockout": "sensor in post-reject lockout",
    "timeout": "watchdog expired",
    "app-secret": "application secret mismatch",
    "mitm-delay": "round-trip delay above limit",
    "no-viable-pattern": "no viable pattern",
}


@dataclass(frozen=True)
class RejectReason:
    """Why a session was rejected. code is the canonical machine form."""

    kind: str
    index: Optional[int] = None

    @property
    def code(self) -> str:
        return self.kind if self.index is None else f"{self.kind}@{self.index}"

    def __str__(self) -> str:
        if self.index is not None and self.kind in _MISMATCH_MESSAGES:
            return _MISMATCH_MESSAGES[self.kind].format(i=self.index)
        return _PLAIN_MESSAGES.get(self.kind, self.code)


class _Node:
    """A prefix-trie node of the credential store (Fredkin's trie memory).

    patterns holds, in pattern_id order, the stored patterns that agree with
    the `depth` triplets on the path here and are longer than depth; done is
    the lowest id that completes exactly here. The children are grouped on
    the first match_step through the node, keyed by the next triplet's
    (bits, channel, interval), the interval None at index 0 where the matcher
    ignores it. Grouping changes no answer, so any number of matchers may
    share one trie.
    """

    __slots__ = ("patterns", "done", "children")

    def __init__(self, patterns: tuple[SecretPattern, ...], done: Optional[str] = None):
        self.patterns = patterns
        self.done = done
        self.children: Optional[dict[tuple, _Node]] = None

    def group(self, depth: int) -> dict[tuple, "_Node"]:
        groups: dict[tuple, list[SecretPattern]] = {}
        for p in self.patterns:
            t = p.triplets[depth]
            key = (t.tx_pattern.bits, t.channel, t.interval_tu if depth else None)
            groups.setdefault(key, []).append(p)
        children = {}
        for key, ps in groups.items():
            done = next((p.pattern_id for p in ps if p.length == depth + 1), None)
            children[key] = _Node(tuple(p for p in ps if p.length > depth + 1), done)
        self.children = children
        return children


_EMPTY = _Node(())


@dataclass(frozen=True)
class MatcherState:
    """Progress of the incremental match against a pattern store.

    node is the trie node reached by the triplets observed so far; its
    patterns are the viable ones, whose first `consumed` triplets equal those
    triplets. Terminal states are accepted (some pattern fully consumed) and
    rejected (nothing viable). States are immutable values: one initial state
    from new_matcher can start any number of matches.
    """

    node: _Node
    consumed: int
    status: str
    accepted_id: Optional[str] = None
    reason: Optional[RejectReason] = None

    @property
    def viable(self) -> tuple[SecretPattern, ...]:
        """The still-viable patterns, in pattern_id order."""
        return self.node.patterns

    @property
    def terminal(self) -> bool:
        return self.status != IN_PROGRESS


def new_matcher(store: Iterable[SecretPattern]) -> MatcherState:
    """The initial state over store, the root of a trie that grows as
    matches visit it; build it once per store and share it."""
    patterns = sorted(store, key=lambda p: p.pattern_id)
    if not patterns:
        raise ValueError("store must be nonempty")
    for a, b in zip(patterns, patterns[1:]):
        if a.pattern_id == b.pattern_id:
            raise ValueError(f"duplicate pattern_id {a.pattern_id!r} in store")
    return MatcherState(_Node(tuple(p for p in patterns if p.length)), 0, IN_PROGRESS)


def _mismatch_kind(observed: Triplet, expected: Triplet, index: int) -> Optional[str]:
    """First differing field in precedence order, or None on a match."""
    if observed.tx_pattern.bits != expected.tx_pattern.bits:
        return "txpower"
    if observed.channel != expected.channel:
        return "channel"
    if index >= 1 and observed.interval_tu != expected.interval_tu:
        return "interval"
    return None


def match_step(state: MatcherState, observed: Triplet) -> MatcherState:
    """Advance the matcher by one observed triplet.

    Keeps each viable pattern p iff observed equals p.triplets[consumed],
    with intervals compared only from index 1 on. Accepts on the first fully
    consumed pattern (lowest pattern_id on ties); rejects when nothing stays
    viable, with the reason taken from the lowest-id pattern just dropped.
    """
    if state.terminal:
        raise MatcherError("match_step called after terminal status")
    i, node = state.consumed, state.node
    children = node.children if node.children is not None else node.group(i)
    child = children.get((observed.tx_pattern.bits, observed.channel,
                          observed.interval_tu if i else None))
    if child is None:
        kind = (_mismatch_kind(observed, node.patterns[0].triplets[i], i)
                if node.patterns else None)
        return MatcherState(_EMPTY, i + 1, REJECTED,
                            reason=RejectReason(kind or "no-viable-pattern", i))
    if child.done is not None:
        return MatcherState(child, i + 1, ACCEPTED, accepted_id=child.done)
    return MatcherState(child, i + 1, IN_PROGRESS)


def _parse_triplet(token: str, position: int, first: bool) -> Triplet:
    body, sep, interval_text = token.partition(":")
    bits_text, sep2, channel_text = body.partition("@")
    if not sep or not sep2:
        raise PatternError(f"triplet {position}: expected BITS@CHANNEL:INTERVAL, got {token!r}")
    if not bits_text or any(c not in "01" for c in bits_text):
        raise PatternError(f"triplet {position}: bits must be a 0/1 string, got {bits_text!r}")
    if not channel_text.isdigit() or int(channel_text) < 1:
        raise PatternError(f"triplet {position}: channel must be a positive integer, got {channel_text!r}")
    if interval_text == "-":
        if not first:
            raise PatternError(f"triplet {position}: only the first triplet may omit its interval")
        interval = None
    else:
        if first:
            raise PatternError("triplet 0: first triplet must use '-' for its interval")
        if not interval_text.isdigit() or int(interval_text) < 1:
            raise PatternError(f"triplet {position}: interval must be a positive integer or '-', got {interval_text!r}")
        interval = int(interval_text)
    return Triplet(TxPattern(bits_text), int(channel_text), interval)


def parse_pattern(text: str, pattern_id: str = "p0") -> SecretPattern:
    """Parse one pattern in the BITS@CHANNEL:INTERVAL grammar.

    Raises PatternError annotated with the offending triplet position, or with
    the structural violation (length, interval shape, mixed n, all-equal bits).
    Channel range and the interval bound need a band plan and are left to
    validate_pattern.
    """
    tokens = text.split()
    if not tokens:
        raise PatternError("empty pattern text")
    triplets = tuple(_parse_triplet(tok, i, i == 0) for i, tok in enumerate(tokens))
    p = SecretPattern(pattern_id, triplets)
    problems = _structural_violations(p)
    if problems:
        raise PatternError(f"pattern {pattern_id!r}: " + "; ".join(str(v) for v in problems))
    return p


def render_pattern(p: SecretPattern) -> str:
    """Canonical text form; parse_pattern(render_pattern(p), p.pattern_id) == p."""
    return " ".join(map(str, p.triplets))


def parse_pattern_file(text: str) -> list[SecretPattern]:
    """Parse a pattern file: one pattern per line, '#' starts a comment."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            out.append(parse_pattern(stripped, pattern_id=f"line{lineno}"))
        except PatternError as e:
            raise PatternError(f"line {lineno}: {e}") from None
    return out
