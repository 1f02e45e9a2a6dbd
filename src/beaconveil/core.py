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
ones stay constructible. The text parser checks token syntax, and the walk
behind validate_pattern judges the structure of what it parsed.
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
        if not self.bits or self.bits.strip("01"):
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


def _violations(p: SecretPattern, channel_count: float, max_tu: float) -> list[Violation]:
    """Every violated invariant, in one walk over the triplets: the
    structural ones first, then channel and interval ranges; with both
    bounds math.inf only the structural ones. A pattern shorter than two
    triplets lists bad-length in place of the per-triplet structure."""
    ts = p.triplets
    shape: list[Violation] = []
    ranges: list[Violation] = []
    whole = len(ts) >= 2
    if not whole:
        shape.append(Violation("bad-length", f"pattern length L < 2 (got {len(ts)})"))
    n = len(ts[0].tx_pattern.bits) if ts else 0
    for i, t in enumerate(ts):
        bits, iv = t.tx_pattern.bits, t.interval_tu
        if whole:
            if len(bits) != n:
                shape.append(Violation("mixed-n", f"triplet {i} has {len(bits)} bits, expected {n}"))
            if not 2 <= len(bits) <= MAX_BITS:
                shape.append(Violation("bad-bit-length", f"triplet {i} bit count {len(bits)} outside [2, {MAX_BITS}]"))
            elif "0" not in bits or "1" not in bits:
                shape.append(Violation("all-equal-bits", f"triplet {i} tx_pattern {bits} has no transition"))
            if i == 0:
                if iv is not None:
                    shape.append(Violation("bad-first-interval", "triplet 0 must carry no interval"))
            elif iv is None:
                shape.append(Violation("missing-interval", f"triplet {i} must carry an interval"))
            elif i == 1 and iv != 1:
                shape.append(Violation("bad-second-interval", f"second interval must be 1 TU, got {iv}"))
        if not 1 <= t.channel <= channel_count:
            ranges.append(Violation("channel-out-of-band",
                                    f"triplet {i} channel {t.channel} outside 1..{channel_count}"))
        if iv is not None and not 1 <= iv <= max_tu:
            ranges.append(Violation("interval-out-of-range",
                                    f"triplet {i} interval {iv} outside 1..{max_tu}"))
    return shape + ranges


_VALID = ValidationReport(())


def validate_pattern(p: SecretPattern, band: BandPlan = DEFAULT_BAND,
                     max_tu: int = DEFAULT_MAX_TU) -> ValidationReport:
    """Check every pattern invariant plus channel membership in the band."""
    out = _violations(p, band.channel_count, max_tu)
    return ValidationReport(tuple(out)) if out else _VALID


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


@dataclass(frozen=True)
class RejectReason:
    """Why a session was rejected. code is the canonical machine form."""

    kind: str
    index: Optional[int] = None

    @property
    def code(self) -> str:
        return self.kind if self.index is None else f"{self.kind}@{self.index}"


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


def _mismatch_kind(observed: Triplet, expected: Triplet) -> str:
    """First differing field of a trie key that differs, in precedence order."""
    if observed.tx_pattern.bits != expected.tx_pattern.bits:
        return "txpower"
    if observed.channel != expected.channel:
        return "channel"
    return "interval"


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
        kind = (_mismatch_kind(observed, node.patterns[0].triplets[i])
                if node.patterns else "no-viable-pattern")
        return MatcherState(_EMPTY, i + 1, REJECTED, reason=RejectReason(kind, i))
    if child.done is not None:
        return MatcherState(child, i + 1, ACCEPTED, accepted_id=child.done)
    return MatcherState(child, i + 1, IN_PROGRESS)


def _parse_triplet(token: str, position: int) -> Triplet:
    body, sep, interval_text = token.partition(":")
    bits_text, sep2, channel_text = body.partition("@")
    if not sep or not sep2:
        raise PatternError(f"triplet {position}: expected BITS@CHANNEL:INTERVAL, got {token!r}")
    if not bits_text or any(c not in "01" for c in bits_text):
        raise PatternError(f"triplet {position}: bits must be a 0/1 string, got {bits_text!r}")
    if not channel_text.isdecimal() or int(channel_text) < 1:
        raise PatternError(f"triplet {position}: channel must be a positive integer, got {channel_text!r}")
    if interval_text != "-" and (not interval_text.isdecimal() or int(interval_text) < 1):
        raise PatternError(f"triplet {position}: interval must be a positive integer or '-', got {interval_text!r}")
    interval = None if interval_text == "-" else int(interval_text)
    return Triplet(TxPattern(bits_text), int(channel_text), interval)


def parse_pattern(text: str, pattern_id: str = "p0") -> SecretPattern:
    """Parse one pattern in the BITS@CHANNEL:INTERVAL grammar.

    A token with bad syntax raises PatternError naming its triplet position;
    then _violations judges the structure (length, where intervals sit, mixed
    n, all-equal bits), and PatternError names each violation's code.
    Channel range and the interval bound need a band plan and are left to
    validate_pattern. Each call parses with a fresh token memo, so two calls
    share no Triplet.
    """
    return _parse_pattern(text, pattern_id, {})


def _parse_pattern(text: str, pattern_id: str, seen: dict[str, Triplet]) -> SecretPattern:
    """parse_pattern, taking each token's Triplet from seen when an equal
    token was parsed before; a token that fails to parse never enters it."""
    triplets = []
    for i, tok in enumerate(text.split()):
        t = seen.get(tok)
        if t is None:
            t = seen[tok] = _parse_triplet(tok, i)
        triplets.append(t)
    p = SecretPattern(pattern_id, tuple(triplets))
    problems = _violations(p, math.inf, math.inf)
    if problems:
        raise PatternError(f"pattern {pattern_id!r}: " + "; ".join(str(v) for v in problems))
    return p


def render_pattern(p: SecretPattern) -> str:
    """Canonical text form; parse_pattern(render_pattern(p), p.pattern_id) == p."""
    return " ".join(map(str, p.triplets))
