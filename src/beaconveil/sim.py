"""Deterministic discrete-event engine and Monte Carlo harness.

Binds the pieces together: an actor compiles an emission timeline, the radio
model places it on the sensor's sampling grid along a trajectory as beacons
plus one Samples array pair, and SensorSession.run walks the beacons in time
order (a window reads the samples from its beacon up to its end or the next
beacon). There is no wall clock anywhere; trial i draws all its
randomness from the stream numpy.random.default_rng([seed, i]) starts, so
results are independent of run order and worker count. A block of trials
does not build those generators one by one. It hashes the block's seeds
together and makes every trial's first draws, a brute-force candidate's
digits and the first emission phase, for the whole block at once, with
numpy's PCG64 and its draws restated over uint64 lane arrays (_Lanes).
Only a trial that draws again, normals under shadowing or a replay's
second session, gets a Generator, set to the state its stream is in after
those first draws; so every trial draws the same stream.

Everything about an observation except its draws follows from the heard
beacons' grid ticks and the session's start: the window ticks, their range
and path loss, and where each slot's samples sit. A config's memo (_Memo)
compiles that layout once per distinct (start, ticks). The phase, too,
acts through a few cells (_PhaseCells) that depend on the emission's
on-air shape alone, not on its beacons' channels, the noise or the
trajectory: within one, the beacons' ticks, the power each window tick
would see without noise and which ticks fall outside the emission are
fixed. The memo keeps the ticks with the cell, the rest for each set of
heard beacons, and each timeline's heard beacons with their read key
(_Kept). Without shadowing at a fixed range the whole observation is
fixed in a cell. The memo then keeps the placement of each cell a trial of
a shape has landed in, with one read of its windows for all the shape's
timelines (a read decodes each window once), and for each timeline that
landed there its _Kept. The verdict of one session on a fresh node (every
actor but Replay) is a pure function of what the session reads, whatever
timeline emitted it: its start, its beacons, and what each window up to
the one its verdict falls in decodes to. The memo keeps one verdict
table, keyed by the read (_read_verdict); a noiseless _Kept holds its
entry. A trial still draws its phase and its normals, and observes its
emission, but builds beacons only in a cell no earlier trial of its
timeline had, and a node and a session only on a read no earlier trial
made.

Timing model: the sensor samples at ticks k/f_s of its own clock. An
emission starts at a uniform random phase inside one tick, and beacon
timestamps are quantized to the nearest tick. The timing error is therefore
common-mode across a session's beacons (pure grid quantization), which is
what lets a slow sensor still read intervals spanning many time units; with
tu_s an exact multiple of the tick, measured intervals are exact.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from typing import (Callable, Iterator, NamedTuple, Optional, Sequence, TypeVar,
                    Union)

import numpy as np

from .core import (ACCEPTED, MAX_BITS, BandPlan, DEFAULT_BAND, SecretPattern,
                   Triplet, TxPattern, _check_finite, new_matcher,
                   validate_pattern)
from .emitter import (_MAX_BOUND, Beacon, EmissionTimeline, Mutation,
                      SlotConfig, SlotFitError, _candidate_digits,
                      _raw_candidate, compile_schedule, mutate, random_pattern)
from .radio import (ChannelParams, Trajectory, TxPowerLevels, distance_at,
                    path_loss)
from .sensor import (AuthResult, Samples, SensorConfig, SensorNode,
                     SensorSession, _in_order, _read_windows, _slot_grid,
                     _watchdog_s, _window_bits, apply_app_stage)

LIGHT_SPEED_M_S = 3.0e8

LEGIT = "legit"
ADVERSARY = "adversary"


@dataclass(frozen=True)
class Legit:
    pattern_id: str


@dataclass(frozen=True)
class Mutant:
    pattern_id: str
    mutation: Mutation


@dataclass(frozen=True)
class BruteForce:
    """Draws a fresh uniform raw-space candidate every trial."""

    n: int
    L: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.L < 2:
            raise ValueError("bruteforce needs n >= 1 and L >= 2")
        if self.n > MAX_BITS:  # no stored pattern has more bits
            raise ValueError(
                f"bruteforce n must be <= MAX_BITS ({MAX_BITS}), got {self.n}")


@dataclass(frozen=True)
class Replay:
    """Self-contained replay attack: the trial first runs a legitimate
    session of pattern_id (teaching the sensor its nonces), then replays the
    identical timeline; that second session is the one scored."""

    pattern_id: str


@dataclass(frozen=True)
class Mitm:
    """Relay that forwards the legitimate emission and app exchange
    unchanged but adds extra_delay_s to the app-layer round trip."""

    pattern_id: str
    extra_delay_s: float

    def __post_init__(self) -> None:
        _check_finite(extra_delay_s=self.extra_delay_s)
        if not self.extra_delay_s >= 0:
            raise ValueError("mitm extra_delay_s must be >= 0")


@dataclass(frozen=True)
class Proto:
    """Two-emitter bench check: even trials emit pattern_a on the base time
    unit, odd trials emit pattern_b on tu_b_s. Both are stored, both count
    as legitimate; their raw triplets must come out distinct."""

    pattern_a: str
    pattern_b: str
    tu_b_s: float

    def __post_init__(self) -> None:
        _check_finite(tu_b_s=self.tu_b_s)
        if not self.tu_b_s > 0:
            raise ValueError("proto tu_b_s must be > 0")


Actor = Union[Legit, Mutant, BruteForce, Replay, Mitm, Proto]

_ACTOR_KIND = {Legit: "legit", Mutant: "mutant", BruteForce: "bruteforce",
               Replay: "replay", Mitm: "mitm", Proto: "proto"}


def actor_kind(actor: Actor) -> str:
    return _ACTOR_KIND[type(actor)]


def actor_label(actor: Actor) -> str:
    return ADVERSARY if isinstance(actor, (Mutant, BruteForce, Replay, Mitm)) else LEGIT


T = TypeVar("T")


class _Store(tuple):
    """A config's credential store: its patterns, plus the forms compiled
    from them (id index, matcher trie, dump text, the store's half of
    validation, once per (band, max_tu, slot_cfg), and the report digest's
    sha256 state after the dump text, once per text before it). Every
    config that `replace` makes from a config shares its store, so each
    form is built once. Only the patterns pickle; each process compiles its
    own forms."""

    def __init__(self, patterns=()):
        # tuple.__new__ has taken the patterns; this adds the kept forms.
        self._forms: dict = {}

    def __reduce__(self):
        return _Store, (tuple(self),)

    def compiled(self, build: Callable[..., T], *args) -> T:
        """build(self, *args), run once per store and args and kept. A build
        that raises keeps nothing, so the next call raises again."""
        # Keyed on the args' repr, not their equality: 16 == 16.0 and
        # 0.0 == -0.0, but a build's messages print them differently.
        key = (build, repr(args))
        if key not in self._forms:
            self._forms[key] = build(self, *args)
        return self._forms[key]


def _index_by_id(store: _Store) -> dict[str, SecretPattern]:
    # On a duplicate id the first pattern wins.
    return {p.pattern_id: p for p in reversed(store)}


class _Memo:
    """What a config's trials build and later trials reuse, in five tables,
    each emptied at _MEMO_CAP entries (_keep): candidates, BruteForce's
    compiled timelines by digit row (see _trial_draws); layouts, the grid
    layouts by (t_start, *ticks) and, at a fixed range, the beacons' path
    loss by beacon count; cells, the phase cells by (on-air shape
    (_shape_key), t_start), only that key's hash after its first sighting;
    timelines, by (timeline, t_start), its cells and what is kept for it in
    them (see _kept_cells); and verdicts, one verdict table for
    every single-session trial, keyed by the read: start, beacons and the
    bits of the windows read (see _read_verdict). Every array in them is
    read-only, so trials share them."""

    __slots__ = ("candidates", "layouts", "cells", "timelines", "verdicts")

    def __init__(self):
        self.candidates, self.layouts, self.cells, self.timelines = {}, {}, {}, {}
        self.verdicts = {}


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: a store, an actor, the radio and sensor set-up, and
    the trials to run.

    Forms derived from a config are built on first use and kept with it:
    the sensor config with its watchdog filled in, the actor's compiled
    timelines (first compiled by validate_scenario), and the memo of what
    its trials have built (_Memo). The store keeps its own forms (see
    _Store), the costly half of validation and the report digest's hash
    state among them. None of them travel in a pickle; each worker builds
    its own.
    """

    store: tuple[SecretPattern, ...]
    actor: Actor
    band: BandPlan = DEFAULT_BAND
    channel: ChannelParams = ChannelParams()
    tx_levels: TxPowerLevels = TxPowerLevels()
    slot_cfg: SlotConfig = SlotConfig()
    sensor_cfg: SensorConfig = SensorConfig()
    trajectory: Trajectory = Trajectory(((0.0, 5.0),))
    seed: int = 0
    trials: int = 1
    max_tu: int = 16

    def __post_init__(self) -> None:
        if not isinstance(self.store, _Store):
            object.__setattr__(self, "store", _Store(self.store))

    @cached_property
    def _effective_sensor(self) -> SensorConfig:
        # The sensor config with the default watchdog set for this max_tu.
        if self.sensor_cfg.watchdog_s is not None:
            return self.sensor_cfg
        return replace(self.sensor_cfg,
                       watchdog_s=_watchdog_s(self.max_tu, self.slot_cfg.tu_s))

    @cached_property
    def _timelines(self) -> tuple[tuple[SlotConfig, EmissionTimeline], ...]:
        # What the actor emits, as (slot layout, timeline): one for Legit,
        # Replay, Mitm and Mutant, Proto's even and odd half. BruteForce
        # draws a candidate every trial; the memo keeps those.
        a = self.actor
        slot = self.slot_cfg
        if isinstance(a, (Legit, Replay, Mitm)):
            emitted = [(self.pattern(a.pattern_id), slot)]
        elif isinstance(a, Mutant):
            # A wrong second interval merely redefines the observed time unit.
            emitted = [(mutate(self.pattern(a.pattern_id), a.mutation), slot)]
        elif isinstance(a, Proto):
            emitted = [(self.pattern(a.pattern_a), slot),
                       (self.pattern(a.pattern_b), replace(slot, tu_s=a.tu_b_s))]
        elif isinstance(a, BruteForce):
            emitted = []
        else:
            raise TypeError(f"unknown actor {a!r}")
        return tuple((s, compile_schedule(p, s, self.tx_levels)) for p, s in emitted)

    @cached_property
    def _memo(self) -> _Memo:
        return _Memo()

    @cached_property
    def _tags(self) -> tuple[str, str]:
        # The actor's kind and label, which each of its TrialResults carries.
        return actor_kind(self.actor), actor_label(self.actor)

    def _candidate_timeline(self, row: tuple[int, ...]) -> EmissionTimeline:
        tl = self._memo.candidates.get(row)
        if tl is None:
            p = _raw_candidate(row, self.actor.n, self.actor.L)
            tl = compile_schedule(p, self.slot_cfg, self.tx_levels)
            _keep(self._memo.candidates, row, tl)
        return tl

    def pattern(self, pattern_id: str) -> SecretPattern:
        return self.store.compiled(_index_by_id)[pattern_id]

    def __getstate__(self) -> dict:
        # Only the fields travel to a worker; it rebuilds the caches itself.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _store_problems(store: _Store, band: BandPlan, max_tu: int,
                    slot_cfg: SlotConfig) -> tuple[str, ...]:
    """The store's half of validation; it reads nothing else of a config."""
    problems: list[str] = []
    if not store:
        problems.append("store is empty")
    seen = set()
    fitting = set()  # bit counts whose burst is known to fit
    for p in store:
        if p.pattern_id in seen:
            problems.append(f"duplicate pattern_id {p.pattern_id!r} in store")
        seen.add(p.pattern_id)
        report = validate_pattern(p, band, max_tu)
        if not report.ok:
            problems.append(f"pattern {p.pattern_id!r}: {report}")
            continue
        # A valid pattern's smallest interval is its second, 1 TU, so
        # whether its burst fits depends on its bit count alone.
        if p.bit_count in fitting:
            continue
        try:
            slot_cfg.check_fit(p)
            fitting.add(p.bit_count)
        except SlotFitError as e:
            problems.append(f"pattern {p.pattern_id!r}: {e}")
    return tuple(problems)


def _bit_counts(store: _Store) -> frozenset[int]:
    return frozenset(p.bit_count for p in store)


class ConfigError(ValueError):
    """A scenario that cannot run: a file that does not parse into a
    config, or a config or sweep row that validate_scenario refuses."""


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Every config inconsistency, reported before any trial runs, as a
    fresh list.

    The store's own checks (its patterns' invariants and burst fit) run
    once per store and per (band, max_tu, slot_cfg) and are kept with the
    store, as is its set of bit counts, which a store that passes its own
    checks must share with the sensor's n. The actor's emission is compiled
    as the run compiles it, and kept with the config (its values were
    checked when it was built); the rest, a few checks of the config's
    scalars, runs on every call.
    """
    problems: list[str] = []
    if cfg.trials < 1:
        problems.append(f"trials must be >= 1, got {cfg.trials}")
    if cfg.seed < 0:
        problems.append(f"seed must be >= 0, got {cfg.seed}")
    if cfg.max_tu < 1:
        problems.append(f"max_tu must be >= 1, got {cfg.max_tu}")
    try:
        cfg._effective_sensor
    except (OverflowError, ValueError):
        # Only an unset watchdog is computed: max(8, max_tu + 2) * tu_s.
        problems.append("[run] max_tu puts the default watchdog, max(8, max_tu + 2) "
                        "time units, past float range; lower it or set [sensor] watchdog_s")
    store_problems = cfg.store.compiled(_store_problems, cfg.band, cfg.max_tu,
                                        cfg.slot_cfg)
    problems += store_problems
    if not store_problems:
        # A sensor reads n slots per beacon, so it can never read another
        # bit count. A faulty store is reported by its own checks first.
        n = cfg.sensor_cfg.n
        for bits in sorted(cfg.store.compiled(_bit_counts) - {n}):
            problems.append(f"store holds {bits}-bit patterns, the sensor reads n = {n}")
    if cfg.sensor_cfg.f_s * cfg.slot_cfg.slot_s < 2:
        problems.append("sensor undersamples: need f_s*slot_s >= 2")
    a = cfg.actor
    if isinstance(a, BruteForce):
        # A raw candidate's second interval is always 1 TU, so whether its
        # burst fits depends on n alone: check the all-zero two-triplet one.
        try:
            cfg.slot_cfg.check_fit(_raw_candidate([0] * (2 * a.n + 2), a.n, 2))
        except SlotFitError as e:
            problems.append(f"bruteforce burst does not fit: {e}")
        # numpy draws a digit below a bound of at most 2^63.
        if cfg.band.channel_count > _MAX_BOUND:
            problems.append("bruteforce draws a channel below [band] channel_count, "
                            f"which must be <= 2^63, got {cfg.band.channel_count}")
        if a.L >= 3 and cfg.max_tu > _MAX_BOUND:
            problems.append("bruteforce draws an interval below [run] max_tu, which "
                            f"must be <= 2^63 at L >= 3, got {cfg.max_tu}")
    ids = cfg.store.compiled(_index_by_id)
    refs = [getattr(a, f.name) for f in fields(a) if f.name.startswith("pattern_")]
    unknown = [pid for pid in refs if pid not in ids]
    problems += [f"actor references unknown pattern_id {pid!r}" for pid in unknown]
    if not unknown and not store_problems:
        # The emission the run will put on air, compiled as the run
        # compiles it; a faulty store is reported by its own checks first.
        try:
            cfg._timelines
        except (ValueError, TypeError, OverflowError) as e:
            problems.append(f"{actor_kind(a)} emission does not compile: {e}")
        else:
            if not _last_tick(cfg) < _MAX_TICK:
                problems.append(
                    f"{actor_kind(a)} emission can end at or past sensor tick 2^53 "
                    "(f_s times its end time), where float64 no longer holds every tick")
    return problems


# Sensor ticks from here on are not all exact float64 values.
_MAX_TICK = float(1 << 53)


def _last_tick(cfg: ScenarioConfig) -> float:
    """A bound on the sensor tick at which any emission of a trial ends:
    the longest timeline (a brute-force candidate with every interval past
    the second at max_tu), Replay's recorded copy counted, plus one tick
    of start phase. A max_tu past the draw bound, refused on its own,
    counts as the bound."""
    a, f, s = cfg.actor, cfg.sensor_cfg.f_s, cfg.slot_cfg
    if isinstance(a, BruteForce):
        longest = (s.tu_s * (1 + (a.L - 2) * min(cfg.max_tu, _MAX_BOUND))
                   + a.n * s.slot_s + s.guard_s)
    else:
        longest = max(tl.duration_s for _, tl in cfg._timelines)
    if isinstance(a, Replay):
        # run_trial starts the copy within tu_s and a tick of the original's end.
        longest += longest + s.tu_s + 1.0 / f
    return longest * f + 1.0


def observe_emission(timeline: EmissionTimeline, traj: Trajectory,
                     chan: ChannelParams, tx: TxPowerLevels, scfg: SensorConfig,
                     slot_cfg: SlotConfig, rng: Optional[np.random.Generator],
                     t_start: float = 0.0, *, memo: Optional[_Memo] = None,
                     drawn: Optional[float] = None):
    """Place one emission on the sensor's sampling grid.

    Returns (beacons, samples): beacon frames that cleared the noise floor,
    timestamped on the grid, plus the Samples of every decode window a
    detected beacon opens, NaN where a tick heard nothing. Ticks outside
    those windows carry no information and are not materialized. The
    trajectory is anchored at t_start.

    Range and path loss are evaluated at the emitted beacons, and at every
    tick of the windows the heard ones open; windows that overlap are
    merged. All of the latter depends only on the heard beacons' grid ticks
    and t_start, so it is compiled once into a layout (_grid_layout) that
    the samples carry to the reader. memo, if given, is one config's
    (_Memo), whose observations share one trajectory, channel, f_s, n and
    slot_s; it keeps those layouts, and at a fixed range (one waypoint) the
    beacons' path loss. The draws, in order: the emission phase, then with
    sigma_db > 0 one normal per emitted beacon and one per kept tick.
    drawn, if given, is that phase already drawn from rng's stream (a
    trial takes it from its block, see run_trial); rng then draws only the
    normals, and may be None if there are none.

    Without memo, a fresh one serves the call. The memo also keeps the
    phase cells of each on-air shape by t_start (_PhaseCells, see
    _kept_cells): timelines that differ only in their beacons' channels
    share them. Under shadowing or along a moving trajectory, a cell keeps
    the emitted beacons' ticks, and for each set of heard beacons the window
    ticks' power without noise, which ticks fall outside the emission, and
    each timeline's heard beacons with their read key, which its samples
    carry (_Kept); a later such trial adds only its normals. Without
    shadowing (not sigma_db > 0) at a fixed range, the phase is the only
    draw, and the whole observation is a step function of it. A cell a
    trial of the shape has landed in then keeps its placement, and each
    timeline that lands there its _Kept, which goes to that trial and every
    later one of the timeline in the cell, each with a beacon list of its
    own. A phase within the guard of a cell's edge is placed in full and
    keeps nothing. Either way the draws and the bytes are those of the full
    placement.
    """
    f = scfg.f_s
    if drawn is None:
        drawn = rng.uniform(0.0, 1.0 / f)
    phase = t_start + drawn  # emission start on the sensor clock
    memo = _Memo() if memo is None else memo
    found = _kept_cells(memo, timeline, t_start, scfg, slot_cfg)
    cell = None if found is None else found[0].find(drawn * f)
    if cell is None:
        return _place(timeline, traj, chan, tx, scfg, slot_cfg, rng, t_start, phase,
                      memo)[1:]
    cells, own = found
    if chan.sigma_db > 0 or len(traj.waypoints) > 1:
        if cells.placed[cell] is None:
            cells.placed[cell] = _ticks(timeline, phase, f), {}
        if own[cell] is None:
            own[cell] = {}
        _, beacons, samples = _place(timeline, traj, chan, tx, scfg, slot_cfg, rng,
                                     t_start, phase, memo, (*cells.placed[cell], own[cell]))
        return list(beacons), samples
    kept = own[cell]
    if kept is None:
        placed = cells.placed[cell]
        if placed is None:
            placed = cells.placed[cell] = [*_place(timeline, traj, chan, tx, scfg, slot_cfg,
                                                   rng, t_start, phase, memo), None]
            placed[2].rssi_dbm.flags.writeable = False
        kept = own[cell] = _Kept(timeline, placed, t_start)
    return list(kept.beacons), kept


class _Kept(Samples):
    """A kept observation of one timeline in a phase cell: samples, the
    heard beacons on the timeline's channels, in walk order (one emission's
    beacons already are), and their read key (_read_key). Noiseless at a
    fixed range, placed is the cell's placement [rows, beacons, samples,
    read], whose read-only samples these are, and whose read, made on the
    cell's first lookup, serves all the shape's timelines (they differ only
    in channel); verdict is then the read's entry in the one verdict table
    once a trial has looked it up (see run_trial), else None. Otherwise the
    samples are the trial's own, placed is None and verdict unset."""

    __slots__ = ("beacons", "key", "placed", "verdict")

    def __init__(self, timeline: EmissionTimeline, placed: list, t_start: float):
        # The placement's beacons are the heard rows of a timeline of this
        # shape, which may put them on other channels.
        rows, beacons, samples, _ = placed
        emitted = timeline.beacons
        self.t_s, self.rssi_dbm, self._grid = samples.t_s, samples.rssi_dbm, samples._grid
        self.beacons = tuple([b if b.channel == emitted[k].channel
                              else Beacon(b.t_s, emitted[k].channel, b.seq_no, b.nonce)
                              for k, b in zip(rows, beacons)])
        self.key = _read_key(t_start, self.beacons)
        self.placed, self.verdict = placed, None


def _place(timeline: EmissionTimeline, traj: Trajectory, chan: ChannelParams,
           tx: TxPowerLevels, scfg: SensorConfig, slot_cfg: SlotConfig,
           rng: np.random.Generator, t_start: float, phase: float, memo: _Memo,
           cell: Optional[tuple] = None) -> tuple[list[int], Sequence[Beacon], Samples]:
    """observe_emission's placement of an emission started at phase: every
    beacon and window tick, with its normals drawn from rng, as the rows
    of timeline.beacons that were heard, their beacons and the samples.
    cell, if given, is what a phase cell keeps under shadowing or along a
    moving trajectory: the emitted beacons' ticks; the shape's table, by
    layout key, of the window ticks, slot grid, noiseless power and
    outside-emission mask; and the timeline's table, by heard mask, of its
    rows, beacons, that fix and read key. Samples then come as _Kept."""
    f = scfg.f_s
    sigma = chan.sigma_db
    emitted = timeline.beacons
    ms, fixes, records = cell or (_ticks(timeline, phase, f), None, None)
    # At a fixed range every observation's beacons lose the same; the memo
    # keeps that loss too, by beacon count.
    fixed = len(traj.waypoints) == 1
    pl = memo.layouts.get(len(emitted)) if fixed else None
    if pl is None:
        pl = path_loss(distance_at(traj, phase + timeline.beacon_times - t_start), chan)
        if fixed:
            pl.flags.writeable = False
            _keep(memo.layouts, len(emitted), pl)
    rssi = tx.high_dbm - pl
    if sigma > 0:
        rssi += rng.normal(0.0, sigma, size=len(emitted))
    # A frame lost under the noise floor opens no window.
    heard = rssi >= chan.noise_floor_dbm
    got = records.get(heard.tobytes()) if records is not None else None
    if got is None:
        rows = [k for k, h in enumerate(heard.tolist()) if h]
        beacons = [Beacon(ms[k] / f, emitted[k].channel, emitted[k].seq_no,
                          emitted[k].nonce) for k in rows]
        if not rows:
            return rows, beacons, Samples()
        key = (t_start, *[ms[k] for k in rows])
        held = fixes.get(key) if fixes is not None else None
        if held is None:
            layout = memo.layouts.get(key)
            if layout is None:
                layout = _grid_layout(key, traj, chan, scfg, slot_cfg)
                _keep(memo.layouts, key, layout)
            t_ticks, pl, grid = layout
            local = t_ticks - phase
            # The noiseless power, and the ticks outside the emission.
            mean = timeline.levels_at(local) - pl
            outside = (local < 0.0) | (local > timeline.duration_s)
            held = t_ticks, grid, mean, outside
            if fixes is not None:
                mean.flags.writeable = outside.flags.writeable = False
                _keep(fixes, key, held)
        if records is not None:
            got = rows, tuple(beacons), held, _read_key(t_start, beacons)
            _keep(records, heard.tobytes(), got)
    else:
        rows, beacons, held, _ = got
    t_ticks, grid, mean, outside = held
    if sigma > 0:
        rssi = rng.normal(0.0, sigma, size=mean.shape)
        rssi += mean
        absent = rssi < chan.noise_floor_dbm
        absent |= outside
        rssi[absent] = np.nan
    else:
        rssi = np.where(outside | (mean < chan.noise_floor_dbm), np.nan, mean)
    if got is None:
        return rows, beacons, Samples._sorted(t_ticks, rssi, grid)
    samples = _Kept._sorted(t_ticks, rssi, grid)
    samples.beacons, samples.key, samples.placed = got[1], got[3], None
    return rows, beacons, samples


def _ticks(timeline: EmissionTimeline, phase: float, f: float) -> list[int]:
    # Each emitted beacon's grid tick, half to even as round() does.
    return np.rint((phase + timeline.beacon_times) * f).astype(np.int64).tolist()


class _PhaseCells:
    """The phase cells of one on-air shape (_shape_key) observed from
    t_start, and what is kept for each cell a trial of the shape landed
    in: noiseless at a fixed range its placement, as _place returns it
    (heard rows, beacons, read-only samples) plus its read, None until its
    first lookup (see _Kept); otherwise the emitted beacons' ticks and
    _place's table of what the cell fixes, by layout key. Each timeline of
    the shape keeps its own records in the cells (see _kept_cells).

    Write a trial's phase as t_start + u / f_s, u in [0, 1). With one range
    and no normals, which beacons are heard does not depend on u, and what
    _place returns follows from a few integers: each heard beacon's tick
    rint((t_start + t_b) * f_s + u), and for each of the window ticks m
    they open, the power step that m / f_s - phase falls in, and whether it
    falls before 0 or past duration_s. In exact arithmetic the first
    changes only at u = frac(0.5 - (t_b + t_start) * f_s), and the second
    only at u = frac(-(e + t_start) * f_s) for a step start e, 0 or
    duration_s. These breakpoints, with 0 and 1, are the edges. Between two
    edges the integers, and so the ticks, the layout, the levels, the NaNs,
    the beacons and the samples' bytes, are the same. Under normals or
    along a moving trajectory, which beacons are heard varies within a
    cell, and so does the power; the integers do not, so for each set of
    heard beacons the ticks, the layout, the levels and the ticks outside
    the emission are the same.

    The guard covers the float error. Let eps = 2^-53 and let T, the last
    tick, bound every magnitude involved in tick units: (t_start +
    duration_s) * f_s, plus a window's ticks, plus 2 (see _phase_cells).
    Each rounding errs by at most eps times its result, at most eps * T:
    - a beacon's tick is rint of (t_start + drawn + t_b) * f_s after three
      roundings (phase, phase + t_b, times f_s), so it moves (rint itself
      is exact) within 3 eps * T of its exact breakpoint;
    - a window tick's step compares m / f_s - phase with e after three
      roundings (m / f_s, phase, the difference), so it moves within
      3 eps * T of its exact breakpoint;
    - an edge is frac of a value rounded three times (t + t_start, times
      f_s, 0.5 less it), within 3 eps * T; x - floor(x) is exact by
      Sterbenz's lemma except for x in (-1, 0), where it errs by eps;
    - the trial's u = drawn * f_s errs by eps.
    So every float breakpoint, in the trial's u, lies within 6 eps * T +
    3 eps < 8 eps * T of an edge (T >= 2). Each of those integers is
    monotone in the phase (float +, *, rint and the comparisons are), so it
    is the same at all u in a cell that lie more than the guard, 32 eps * T
    = 2^-48 * T, from both of its edges. find gives no cell for any other
    u: that trial is placed in full and its observation is not kept. A
    cell no wider than twice the guard, between two edges that are one in
    exact arithmetic, is never found.
    """

    __slots__ = ("edges", "guard", "placed")

    def __init__(self, edges: list[float], guard: float):
        self.edges, self.guard = edges, guard
        self.placed: list = [None] * max(0, len(edges) - 1)

    def find(self, u: float) -> Optional[int]:
        """The index of the cell u lies in, more than the guard from both of
        its edges, or None."""
        edges, guard = self.edges, self.guard
        i = bisect_right(edges, u)
        if 0 < i < len(edges) and edges[i - 1] + guard < u < edges[i] - guard:
            return i - 1
        return None


def _phase_cells(timeline: EmissionTimeline, t_start: float, scfg: SensorConfig,
                 slot_cfg: SlotConfig) -> _PhaseCells:
    """The timeline's phase cells from t_start (see _PhaseCells), computed
    in one numpy pass. A cell no wider than twice the guard (ticks near
    2^53, or a guard_s of float-noise size) is never found, so its trials
    are placed in full."""
    f = scfg.f_s
    steps = np.append(timeline.starts, (0.0, timeline.duration_s))
    x = np.concatenate((0.5 - (timeline.beacon_times + t_start) * f,
                        -(steps + t_start) * f))
    edges = _distinct(np.concatenate((x - np.floor(x), (0.0, 1.0))))
    last = (t_start + timeline.duration_s) * f + _window_ticks(scfg, slot_cfg) + 2
    return _PhaseCells(edges.tolist(), 2.0 ** -48 * last)


def _distinct(a: np.ndarray) -> np.ndarray:
    """a's distinct values, flattened and sorted, as np.unique gives them
    for values without NaN. numpy 2's np.unique imports numpy.ma on its
    first call, over 1 MiB resident, which a run that merely builds phase
    cells should not pay."""
    a = np.sort(a, axis=None)
    return a[np.append(True, a[1:] != a[:-1])]


def _shape_key(timeline: EmissionTimeline) -> tuple:
    """The timeline's on-air shape: everything _place and _phase_cells read
    of it but its beacons' channels. Timelines with one shape put the same
    power on the air at the same times, in beacons that differ at most in
    channel, so they share their phase cells and placements."""
    return (timeline.beacon_times.tobytes(), timeline.starts.tobytes(),
            timeline.levels.tobytes(), timeline.duration_s,
            *[(b.seq_no, b.nonce) for b in timeline.beacons])


def _kept_cells(memo: _Memo, timeline: EmissionTimeline, t_start: float,
                scfg: SensorConfig, slot_cfg: SlotConfig
                ) -> Optional[tuple[_PhaseCells, list]]:
    """The phase cells of the timeline's shape from t_start, and the list
    of what the timeline keeps in them, None per cell or its record:
    noiseless at a fixed range its observation (_Kept), else its heard
    beacons by heard mask (_place). memo.cells keeps the cells by (shape
    key, t_start), and memo.timelines the pair by (timeline, t_start), so
    a kept timeline's shape key is computed once per start. The first time
    a shape is observed from a start, cells notes only that key's hash, and
    this returns None and keeps nothing for the timeline: most of a large
    brute-force space's shapes are drawn once, and they then cost no cells.
    Two keys that share a hash merely get their cells one sighting early."""
    kept = memo.timelines.get((timeline, t_start))
    if kept is None:
        key = _shape_key(timeline), t_start
        cells = memo.cells.get(key)
        if cells is None:
            mark = hash(key)
            if mark not in memo.cells:
                _keep(memo.cells, mark, None)
                return None
            del memo.cells[mark]
            cells = _phase_cells(timeline, t_start, scfg, slot_cfg)
            _keep(memo.cells, key, cells)
        kept = cells, [None] * len(cells.placed)
        _keep(memo.timelines, (timeline, t_start), kept)
    return kept


def _keep(memo: dict, key, value) -> None:
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value


def _grid_layout(key: tuple, traj: Trajectory, chan: ChannelParams,
                 scfg: SensorConfig, slot_cfg: SlotConfig):
    """(tick times, path loss at them, slot grid) of the windows that beacons
    heard on the grid ticks key[1:] (sorted) open, the trajectory anchored
    at key[0]: everything about an observation but its draws. Each window
    materializes ceil(n * slot_s * f_s) ticks from its beacon's; windows
    that share a tick are merged. The arrays are read-only, so
    observations share them."""
    t_start, heard = key[0], key[1:]
    f = scfg.f_s
    win_ticks = _window_ticks(scfg, slot_cfg)
    ticks = np.add.outer(np.array(heard, dtype=np.int64), np.arange(win_ticks))
    # Rows of windows that do not overlap are already in strict tick order.
    if any(b - a < win_ticks for a, b in zip(heard, heard[1:])):
        ticks = _distinct(ticks)
    t_ticks = ticks.ravel() / f
    pl = path_loss(distance_at(traj, t_ticks - t_start), chan)
    grid = _slot_grid(t_ticks, tuple([m / f for m in heard]), scfg.n, slot_cfg.slot_s)
    for a in (t_ticks, pl, grid.idx):
        a.flags.writeable = False
    return t_ticks, pl, grid


def _window_ticks(scfg: SensorConfig, slot_cfg: SlotConfig) -> int:
    """How many grid ticks each window materializes, ceil(n * slot_s * f_s):
    the grid layout's rule, which _phase_cells' guard bound T must share."""
    return math.ceil(scfg.n * slot_cfg.slot_s * scfg.f_s - 1e-9)


# How many trials _trial_draws draws in one pass. Each seeding or draw pass
# costs a fixed number of numpy calls whatever its width, so 4096 trials (a
# desk block is one chunk) spread that cost thin, while a desk chunk's draws
# peak at about 1 MiB traced.
_SEED_CHUNK = 4096
# How many entries each table of a config's memo (_Memo) keeps before it
# starts over.
_MEMO_CAP = 4096

# numpy's SeedSequence hash constants, and PCG64's 128-bit multiplier as
# (high, low) 64-bit limbs.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_M32 = (1 << 32) - 1
_LOW32 = np.uint64(_M32)
_U1, _U11, _U32, _U58, _U63, _U64 = map(np.uint64, (1, 11, 32, 58, 63, 64))
_U16 = np.uint32(16)
# The pool words a source word mixes into, while it stays as it is.
_OTHERS = [[d for d in range(4) if d != s] for s in range(4)]


def _words(x: int) -> int:
    # How many 32-bit words SeedSequence splits a non-negative int into.
    return max(1, (x.bit_length() + 31) // 32)


@lru_cache(maxsize=8)
def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) of SeedSequence's first count word hashes from
    hash constant init, as uint32 columns: the k-th xors with init * mult^k
    and multiplies by init * mult^(k + 1), whatever word it hashes."""
    hc = np.array([init * pow(mult, k, 1 << 32) & _M32 for k in range(count + 1)],
                  dtype=np.uint32)[:, None]
    return hc[:-1], hc[1:]


def _hash(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    # SeedSequence's word hash, one row per constant pair.
    v = v ^ xor
    v *= mult
    v ^= v >> _U16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> _U16
    return r


def _pcg64_seeds(seed: int, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """PCG64(SeedSequence([seed, i])) for each i in [lo, hi), where every i
    splits into as many 32-bit words as lo, as uint64 limb arrays: (state
    high, state low, inc high, inc low). The SeedSequence hashing runs once
    over the range, in uint32 arrays (numpy NEP 19; O'Neill, PCG, 2014).

    It runs in a few row passes, not one per hash, on two facts: the hash
    multipliers advance once per hash whatever word is hashed, so they are
    constants (_hash_consts); and while a source word mixes into the other
    three pool words it does not change, so its three hash-and-mix steps
    are one (3, N) pass. The four first hashes and generate_state's eight
    words are one pass each."""
    n = hi - lo
    ws, wi = _words(seed), _words(lo)
    entropy = np.zeros((max(4, ws + wi), n), dtype=np.uint32)
    for k in range(ws):
        entropy[k] = (seed >> 32 * k) & _M32
    # lo's words plus each lane's offset, carried 32 bits at a time.
    carry = np.arange(n, dtype=np.uint64)
    for k in range(wi):
        carry += np.uint64((lo >> 32 * k) & _M32)
        entropy[ws + k] = carry & _LOW32
        carry >>= _U32
    xor, mult = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * (len(entropy) - 4))
    pool = _hash(entropy[:4], xor[:4], mult[:4])
    for src in range(4):
        k, dst = 4 + 3 * src, _OTHERS[src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k:k + 3], mult[k:k + 3]))
    for w, word in enumerate(entropy[4:]):
        k = 16 + 4 * w
        pool = _mix(pool, _hash(word, xor[k:k + 4], mult[k:k + 4]))
    # generate_state(4, uint64): eight words off the cycled pool, paired
    # little-endian into the seed's (high, low) and the stream's (high, low).
    xor, mult = _hash_consts(_INIT_B, _MULT_B, 8)
    out = _hash(np.concatenate((pool, pool)), xor, mult).astype(np.uint64)
    s_hi, s_lo, q_hi, q_lo = out[1::2] << _U32 | out[0::2]
    # pcg_setseq_128_srandom_r: inc = 2 q + 1; from state 0 one step gives
    # inc, then the seed is added and the state stepped once more.
    inc_hi, inc_lo = q_hi << _U1 | q_lo >> _U63, q_lo << _U1 | _U1
    lo_sum = inc_lo + s_lo
    hi_sum = inc_hi + s_hi + (lo_sum < inc_lo)
    return (*_pcg64_step(hi_sum, lo_sum, inc_hi, inc_lo), inc_hi, inc_lo)


def _mulhi(a: np.ndarray, b) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b of uint64s, from
    their 32-bit halves."""
    a1, a0 = a >> _U32, a & _LOW32
    b1, b0 = b >> _U32, b & _LOW32
    cross0, cross1 = a1 * b0, a0 * b1
    mid = (a0 * b0 >> _U32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return a1 * b1 + (cross0 >> _U32) + (cross1 >> _U32) + (mid >> _U32)


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
                inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step, state * mult + inc mod 2^128, on (high, low) limbs;
    uint64 arithmetic wraps mod 2^64."""
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = _mulhi(lo, _MULT_LO) + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


class _Lanes:
    """The PCG64 streams of a chunk of trials, one lane per trial, drawn
    together. A lane holds what numpy's PCG64 holds: the 128-bit state and
    increment as uint64 limbs, and the half-word cache (has_uint32,
    uinteger). Its draws restate numpy's: the XSL-RR output of the stepped
    state (O'Neill, PCG, 2014), next_uint32 (the low half of a new word
    first, its high half cached), Generator.integers' bounded draw and
    next_double. A draw under a mask steps only the masked lanes, and
    gives the others a value to ignore."""

    __slots__ = ("hi", "lo", "inc_hi", "inc_lo", "has", "cached")

    def __init__(self, hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
                 inc_lo: np.ndarray):
        self.hi, self.lo, self.inc_hi, self.inc_lo = hi, lo, inc_hi, inc_lo
        self.has = np.zeros(len(hi), dtype=bool)
        self.cached = np.zeros(len(hi), dtype=np.uint64)

    def next64(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """numpy's next_uint64 in the masked lanes (None: all of them)."""
        hi, lo = _pcg64_step(self.hi, self.lo, self.inc_hi, self.inc_lo)
        if mask is not None:
            hi, lo = np.where(mask, hi, self.hi), np.where(mask, lo, self.lo)
        self.hi, self.lo = hi, lo
        x, rot = hi ^ lo, hi >> _U58
        return (x >> rot) | (x << ((_U64 - rot) & _U63))

    def next32(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """numpy's next_uint32 in the masked lanes (None: all of them): a
        lane's cached half if it holds one, which stays as uinteger, else
        the low half of a new word, whose high half it caches."""
        fresh = ~self.has if mask is None else mask & ~self.has
        out = self.cached
        if fresh.any():
            x = self.next64(fresh)
            out = np.where(fresh, x & _LOW32, out)
            self.cached = np.where(fresh, x >> _U32, self.cached)
        self.has = ~self.has if mask is None else self.has ^ mask
        return out

    def integers(self, bound: int) -> np.ndarray:
        """Every lane's Generator.integers(0, bound), 1 <= bound <= 2^63, as
        numpy's random_bounded_uint64 draws it (Lemire, "Fast Random
        Integer Generation in an Interval", ACM TOMACS, 2019). Bound 1 draws
        nothing. Up to 2^32 the draw multiplies next_uint32 by the bound and
        rejects a low word below 2^32 mod bound; at exactly 2^32 that is the
        plain half, which is what numpy takes, and nothing rejects. Past
        2^32 it does the same with next_uint64 and the 128-bit product,
        leaving the cache alone. Rejected lanes redraw under a mask."""
        if bound == 1:
            return np.zeros(len(self.hi), dtype=np.uint64)
        wide = bound > 1 << 32
        b = np.uint64(bound)
        threshold = np.uint64((1 << (64 if wide else 32)) % bound)
        todo = None  # every lane
        while True:
            if wide:
                x = self.next64(todo)
                value, leftover = _mulhi(x, b), x * b
            else:
                m = self.next32(todo) * b
                value, leftover = m >> _U32, m & _LOW32
            out = value if todo is None else np.where(todo, value, out)
            reject = leftover < threshold
            todo = reject if todo is None else todo & reject
            if not todo.any():
                return out

    def doubles(self) -> np.ndarray:
        """Every lane's next_double, (x >> 11) * 2^-53; the cache stays."""
        return (self.next64() >> _U11).astype(np.float64) * 2.0 ** -53

    def states(self) -> Iterator[dict]:
        """Every lane's bit_generator.state, as numpy's PCG64 gives it, one
        lane at a time."""
        hi, lo, inc_hi, inc_lo, has, cached = (
            self.hi, self.lo, self.inc_hi, self.inc_lo, self.has, self.cached)
        for k in range(len(hi)):
            yield {"bit_generator": "PCG64",
                   "state": {"state": hi.item(k) << 64 | lo.item(k),
                             "inc": inc_hi.item(k) << 64 | inc_lo.item(k)},
                   "has_uint32": int(has.item(k)), "uinteger": cached.item(k)}


def _trial_draws(cfg: ScenarioConfig, lo: int, hi: int
                 ) -> Iterator[tuple[Optional[tuple[int, ...]], float,
                                     Optional[np.random.Generator]]]:
    """Each trial in [lo, hi)'s first draws from the stream that
    default_rng([seed, i]) starts, as (row, phase, rng).

    The draws are made _SEED_CHUNK (4096) trials at a time, as _Lanes. A
    seeding or draw pass costs a fixed number of numpy calls whatever its
    width, so a wide chunk spreads that cost over more trials (a 4000-trial
    desk block is one pass), while its arrays stay about 1 MiB. The draws
    are a BruteForce trial's candidate digits (emitter._candidate_digits)
    as its row, a tuple in draw order made as the trial is taken, else
    None; then the first session's emission phase, as observe_emission's
    uniform(0, 1 / f_s) draws it. A trial that draws again, normals at
    sigma_db > 0 or Replay's second session, gets rng, one kept Generator
    set to the state its stream is in after those draws; any other trial
    gets None and sets no state.
    """
    if cfg.seed < 0 or lo < 0:
        raise ValueError("expected non-negative integer")
    a = cfg.actor
    bounds = []
    if isinstance(a, BruteForce):
        bounds = _candidate_digits(a.n, a.L, cfg.band.channel_count, cfg.max_tu)
    scale = 1.0 / cfg._effective_sensor.f_s
    rng = None
    if isinstance(a, Replay) or cfg.channel.sigma_db > 0:
        rng = np.random.Generator(np.random.PCG64(0))
    start = lo
    while start < hi:
        # A chunk ends early where the trial index takes one more word.
        stop = min(hi, start + _SEED_CHUNK, 1 << 32 * _words(start))
        lanes = _Lanes(*_pcg64_seeds(cfg.seed, start, stop))
        digits = [lanes.integers(b).tolist() for b in bounds]
        rows = zip(*digits) if bounds else [None] * (stop - start)
        phases = (scale * lanes.doubles()).tolist()
        if rng is None:
            yield from zip(rows, phases, [None] * (stop - start))
        else:
            for row, phase, state in zip(rows, phases, lanes.states()):
                rng.bit_generator.state = state
                yield row, phase, rng
        start = stop


class TrialResult(NamedTuple):
    """One trial's outcome. A NamedTuple, so it compares as the tuple of its
    fields (a plain tuple of them included), and _replace makes a copy with
    a field changed."""

    trial: int
    actor: str
    label: str  # legit | adversary, the ground truth for FAR/FRR
    result: AuthResult


def run_trial(cfg: ScenarioConfig, trial_index: int,
              draws: Optional[tuple] = None) -> TrialResult:
    """One fully deterministic trial; randomness from (seed, trial_index).

    draws is the trial's share of its block's draws, as _trial_draws
    yields it: a BruteForce trial's candidate digits (its row), the first
    session's phase, and the Generator that makes any later draw, None for
    a noiseless single-session trial. Without it the trial is a block of
    one. The emission is the config's compiled timeline (Proto's even or
    odd half); a BruteForce trial takes its candidate's timeline from the
    config's memo by row, built and compiled on the row's first draw. The
    trial's sessions (two for Replay, one otherwise) run on one fresh
    SensorNode, so lockout_s acts only between a Replay trial's two
    sessions, never across trials: a brute-force FAR is a per-attempt
    rate. A single session's node is built only if it is scored; the
    actor's kind and label are read once per config.

    A trial that scores one session (every actor but Replay) takes its
    verdict from one verdict table, keyed by the read (see _read_verdict),
    which a noiseless _Kept holds once its timeline's first trial in the
    cell looked it up. Replay's sessions are scored afresh and kept nowhere.
    """
    if draws is None:
        draws = next(_trial_draws(cfg, trial_index, trial_index + 1))
    row, phase, rng = draws
    eff = cfg._effective_sensor
    a = cfg.actor
    if isinstance(a, BruteForce):
        slot, tl = cfg.slot_cfg, cfg._candidate_timeline(row)
    else:
        slot, tl = cfg._timelines[trial_index % len(cfg._timelines)]
    args = (tl, cfg.trajectory, cfg.channel, cfg.tx_levels, eff, slot, rng)
    if isinstance(a, Replay):
        # The recorded copy goes on air after the original, on a grid tick,
        # to the same sensor node; that second session is the one scored.
        node = SensorNode()
        for t_start in (0.0, math.ceil((tl.duration_s + slot.tu_s) * eff.f_s) / eff.f_s):
            beacons, samples = observe_emission(*args, t_start=t_start, memo=cfg._memo,
                                                drawn=phase)
            phase = None  # the second session draws its own
            result = _scored_session(cfg, slot, beacons, samples, node, t_start)
    else:
        beacons, samples = observe_emission(*args, memo=cfg._memo, drawn=phase)
        if isinstance(samples, _Kept) and samples.placed is not None:
            result = samples.verdict
            if result is None:
                result = samples.verdict = _read_verdict(cfg, slot, tl, beacons, samples, 0.0)
        else:
            result = _read_verdict(cfg, slot, tl, beacons, samples, 0.0)
    return TrialResult(trial_index, *cfg._tags, result)


def _read_verdict(cfg: ScenarioConfig, slot: SlotConfig, timeline: EmissionTimeline,
                  beacons: list[Beacon], samples: Samples, t_start: float) -> AuthResult:
    """The verdict of the one session of a trial on a fresh node, on an
    observation of timeline: once the timeline has a record in the memo,
    from one verdict table, keyed by the read (_read_key, then what each
    window up to the one the verdict fell in decodes to, by
    sensor._window_bits). The walk reads nothing of a later window, so a
    trial decodes its windows in turn until the read so far finds a kept
    verdict; a miss walks that read, which decodes no window again. A
    _Kept carries its beacons in walk order and its read key, and a
    noiseless one takes the read its cell made on its first lookup."""
    memo = cfg._memo
    placed = None
    if isinstance(samples, _Kept):
        bs, key, placed = samples.beacons, samples.key, samples.placed
    elif (timeline, t_start) in memo.timelines:
        bs = _in_order(beacons)
        key = _read_key(t_start, bs)
    else:
        # A first sighting keys nothing: most of a large brute-force space's
        # candidates are drawn once, and keying their reads cost fig3a's
        # BruteForce(3, 4) 10-40% more CPU a trial and over 2 MiB more RSS.
        return _scored_session(cfg, slot, beacons, samples, SensorNode(), t_start)
    if not bs and key in memo.verdicts:  # a read of no beacon: (t_start, ())
        return memo.verdicts[key]
    eff = cfg._effective_sensor
    read = None if placed is None else placed[3]
    if read is None and bs:
        read = _read_windows(bs, samples, eff.n, slot.slot_s)
        if placed is not None:
            placed[3] = read
    for j in range(len(bs)):
        key += (_window_bits(read, j, eff),)
        result = memo.verdicts.get(key)
        if result is not None:
            return result
    result = _scored_session(cfg, slot, bs, samples, SensorNode(), t_start, read)
    # The walk read up to the window its verdict fell in: the one a reject
    # names, else its transcript's last. One that timed out before it read
    # a window is kept by its first.
    reason = result.reason
    last = len(result.transcript) - 1 if reason is None or reason.index is None else reason.index
    _keep(memo.verdicts, key[:3 + max(0, last)], result)
    return result


def _read_key(t_start: float, bs: list[Beacon]) -> tuple:
    # A read's key in _Memo.verdicts: the start, then the beacons as plain
    # tuples. Not the timeline: within one config every timeline's slot has
    # the same slot_s (Proto's halves differ only in tu_s, which the walk
    # does not read), the watchdog is the config's _effective_sensor's, and
    # the app stage reads only the config and the verdict.
    return t_start, tuple([(b.t_s, b.channel, b.seq_no, b.nonce) for b in bs])


def _scored_session(cfg: ScenarioConfig, slot: SlotConfig, beacons: Sequence[Beacon],
                    samples: Samples, node: SensorNode, t_start: float,
                    read: Optional[tuple] = None) -> AuthResult:
    """The verdict of one session on node, after the app stage, noted on
    node. read, if given, is _read_windows' result for beacons, already in
    walk order, which the walk takes instead of reading the windows again,
    with the windows it has decoded. Mutant and BruteForce emit a
    credential of their own making, which need not be valid, and they do
    not know the app secret; Mitm's relay adds its delay to the app-layer
    round trip."""
    eff = cfg._effective_sensor
    a = cfg.actor
    session = SensorSession(cfg.store.compiled(new_matcher), eff, slot, node=node,
                            t_start=t_start)
    result = session.run(beacons, samples) if read is None else session._walk(beacons, read)
    if result.verdict == ACCEPTED and eff.app_secret is not None:
        message = "" if isinstance(a, (Mutant, BruteForce)) else eff.app_secret
        extra = a.extra_delay_s if isinstance(a, Mitm) else 0.0
        d = distance_at(cfg.trajectory, result.duration_s)
        result = apply_app_stage(result, message, 2.0 * d / LIGHT_SPEED_M_S + extra, eff)
    node.note_result(result, eff.lockout_s)
    return result


Z95 = 1.959963984540054


def wilson(p_hat: float, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson 95% score interval; stays sane at p_hat near 0 or 1."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2 * n)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)) / denom
    # At p_hat 0 or 1 the touching bound is exactly 0 or 1; computing it
    # leaves ~1e-18 of float residue, which would leak into reports.
    lo = 0.0 if p_hat <= 0.0 else max(0.0, center - half)
    hi = 1.0 if p_hat >= 1.0 else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class Metrics:
    trials: int
    far: Optional[float]  # None when the scenario has no adversarial trials
    frr: Optional[float]  # None when it has no legitimate trials
    far_ci_95: Optional[tuple[float, float]]
    frr_ci_95: Optional[tuple[float, float]]
    mean_session_s: float
    per_reason_counts: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "far": self.far,
            "frr": self.frr,
            "far_ci_95": list(self.far_ci_95) if self.far_ci_95 else None,
            "frr_ci_95": list(self.frr_ci_95) if self.frr_ci_95 else None,
            "mean_session_s": self.mean_session_s,
            "per_reason_counts": dict(sorted(self.per_reason_counts.items())),
        }


def compute_metrics(trials: Sequence[TrialResult]) -> Metrics:
    """The metrics of trials, counted as a run counts its own (_Outcome)."""
    return _Outcome.of(trials).metrics()


def _table(values: list, keys: list) -> tuple[list, np.ndarray]:
    """values' distinct entries, one per key (equal keys name equal values),
    in the order of their first sighting, and each value's entry (uint32)."""
    entries = dict(zip(keys, values))
    position = dict(zip(entries, range(len(entries))))
    return list(entries.values()), np.array([position[k] for k in keys], dtype=np.uint32)


class _Outcome(NamedTuple):
    """Trials as a verdict table plus per-trial indices: the distinct
    (actor, label, AuthResult) entries in the order of their first trial,
    each trial's entry (uint32) and the trials' numbers, in trial order."""

    entries: list[tuple[str, str, AuthResult]]
    index: np.ndarray
    numbers: Sequence[int]

    @classmethod
    def of(cls, trials: Sequence[TrialResult]) -> _Outcome:
        """One entry per (actor, label, result object)."""
        entries, index = _table([(t.actor, t.label, t.result) for t in trials],
                                [(t.actor, t.label, id(t.result)) for t in trials])
        return cls(entries, index, [t.trial for t in trials])

    def metrics(self) -> Metrics:
        """Counted per entry from one np.bincount over the index. The mean
        session is the built-in sum of the trials' durations in trial
        order, whose float the report prints."""
        counts = np.bincount(self.index, minlength=len(self.entries)).tolist()
        n, n_adv, false_accepts, false_rejects, buckets = len(self.index), 0, 0, 0, {}
        for (_, label, r), c in zip(self.entries, counts):
            if label == ADVERSARY:
                n_adv += c
                false_accepts += c if r.verdict == ACCEPTED else 0
            elif label == LEGIT and r.verdict != ACCEPTED:
                false_rejects += c
            buckets[r.bucket] = buckets.get(r.bucket, 0) + c
        n_leg = n - n_adv
        far = false_accepts / n_adv if n_adv else None
        frr = false_rejects / n_leg if n_leg else None
        durations = np.array([r.duration_s for _, _, r in self.entries], dtype=np.float64)
        return Metrics(
            trials=n, far=far, frr=frr,
            far_ci_95=wilson(far, n_adv) if far is not None else None,
            frr_ci_95=wilson(frr, n_leg) if frr is not None else None,
            mean_session_s=sum(durations[self.index].tolist()) / n if n else 0.0,
            per_reason_counts=buckets)


class RunReport:
    """A run's metrics and its trials, TrialResults in trial order. A run
    makes its report from its outcome (_Outcome, see _run_rows) and builds
    the trials on first access, which the CLI, sweep and the renderers
    never make: the renderers read the outcome, which a report made as
    RunReport(metrics, trials) builds from its trials."""

    def __init__(self, metrics: Metrics, trials: Sequence[TrialResult]):
        self.metrics, self.trials = metrics, tuple(trials)

    @classmethod
    def _of(cls, outcome: _Outcome) -> RunReport:
        report = cls.__new__(cls)
        report.metrics, report._outcome = outcome.metrics(), outcome
        return report

    @cached_property
    def trials(self) -> tuple[TrialResult, ...]:
        entries, index, numbers = self._outcome
        return tuple([TrialResult(n, *entries[e]) for n, e in zip(numbers, index.tolist())])

    @cached_property
    def _outcome(self) -> _Outcome:
        return _Outcome.of(self.trials)

    def __eq__(self, other):
        if not isinstance(other, RunReport):
            return NotImplemented
        return (self.metrics, self.trials) == (other.metrics, other.trials)

    def __repr__(self) -> str:
        return f"RunReport(metrics={self.metrics!r}, trials={self.trials!r})"


def _run_block(cfg: ScenarioConfig, lo: int, hi: int) -> tuple[list[AuthResult], np.ndarray]:
    """Trials lo to hi - 1 as a verdict table and each trial's entry
    (_table); a worker's block pickles as that, each distinct verdict once."""
    results = [run_trial(cfg, i, draws).result
               for i, draws in zip(range(lo, hi), _trial_draws(cfg, lo, hi))]
    return _table(results, list(map(id, results)))


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says, else the
    machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_rows(rows: Sequence[ScenarioConfig], workers: int) -> list[RunReport]:
    """Every trial of every row, as one RunReport per row, made from the
    row's outcome (_Outcome); none builds its trials.

    workers > 1, capped at the CPUs this process may use, cuts each row
    into blocks of ceil(trials / workers) trials. The calling process
    counts as one of the workers: a pool of workers - 1 processes runs
    every block but each row's first, which the calling process runs
    meanwhile. A row's blocks are merged in block order, which is trial
    order: their tables are concatenated, with the actor's kind and label
    in each entry, and each block's indices offset by the entries before
    it. So its trials and metrics are identical for any worker count.
    """
    # The pool starts all its processes on the first submit.
    workers = min(workers, _usable_cpus())
    if workers <= 1 or sum(cfg.trials for cfg in rows) < 2 * workers:
        results = [[_run_block(cfg, 0, cfg.trials)] for cfg in rows]
    else:
        blocks = [math.ceil(cfg.trials / workers) for cfg in rows]
        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            futures = [[pool.submit(_run_block, cfg, lo, min(lo + block, cfg.trials))
                        for lo in range(block, cfg.trials, block)]
                       for cfg, block in zip(rows, blocks)]
            try:
                firsts = [_run_block(cfg, 0, block)
                          for cfg, block in zip(rows, blocks)]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
            results = [[first, *(fut.result() for fut in row)]
                       for first, row in zip(firsts, futures)]
    reports = []
    for cfg, row in zip(rows, results):
        entries, index = [], []
        for table, part in row:
            index.append(part + len(entries))
            entries += [(*cfg._tags, r) for r in table]
        outcome = _Outcome(entries, np.concatenate(index), range(cfg.trials))
        reports.append(RunReport._of(outcome))
    return reports


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> RunReport:
    """All trials plus aggregate metrics, identical for any worker count
    (see _run_rows); ConfigError ("invalid scenario: ...") if
    validate_scenario refuses cfg."""
    problems = validate_scenario(cfg)
    if problems:
        raise ConfigError("invalid scenario: " + "; ".join(problems))
    return _run_rows([cfg], workers)[0]


SWEEP_AXES = ("distance", "sigma_db", "n", "L", "eps_tu")


def _apply_axis(cfg: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    if axis == "distance":
        return replace(cfg, trajectory=Trajectory(((0.0, float(value)),)))
    if axis == "sigma_db":
        return replace(cfg, channel=replace(cfg.channel, sigma_db=float(value)))
    if axis == "eps_tu":
        return replace(cfg, sensor_cfg=replace(cfg.sensor_cfg, eps_tu=float(value)))
    if axis in ("n", "L"):
        iv = int(value)
        if iv != value:
            raise ValueError("must be an integer")
        if axis == "n" and not 2 <= iv <= MAX_BITS:
            # Refused before the store is redrawn: the draw is linear in n.
            raise ValueError(f"n must be in [2, {MAX_BITS}]")
        if axis == "L" and (iv - 1) * cfg.slot_cfg.tu_s * cfg.sensor_cfg.f_s >= _MAX_TICK:
            # Refused before the redraw too, as validation would refuse the
            # row: every emission has L triplets, so it lasts (L - 1) * tu_s
            # at least.
            raise ValueError("every L-triplet emission ends at or past sensor tick 2^53 "
                             "(f_s times its end time), where float64 no longer holds "
                             "every tick")
        if cfg.seed < 0:  # the redraw below is seeded from it
            raise ValueError(f"seed must be >= 0, got {cfg.seed}")
        store = []
        for idx, p in enumerate(cfg.store):
            n2 = iv if axis == "n" else p.bit_count
            l2 = iv if axis == "L" else p.length
            # Store credentials are part of the experiment: re-drawn per row,
            # deterministically, in a stream disjoint from the trial streams.
            rng = np.random.default_rng([cfg.seed, 0x5EED, iv, idx])
            store.append(random_pattern(rng, n2, l2, cfg.band, cfg.max_tu,
                                        pattern_id=p.pattern_id))
        out = replace(cfg, store=tuple(store))
        if axis == "n":
            out = replace(out, sensor_cfg=replace(out.sensor_cfg, n=iv))
        if isinstance(cfg.actor, BruteForce):
            out = replace(out, actor=replace(cfg.actor, **{axis: iv}))
        return out
    raise ValueError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")


def sweep(cfg: ScenarioConfig, axis: str, values, workers: int = 1
          ) -> list[tuple[float, Metrics]]:
    """Each axis value with its row's metrics, all rows sharing cfg.seed so
    rows are paired comparisons; empty values give an empty table.

    Every row is built and validated once before any runs: ConfigError
    ("invalid sweep: ...") names each bad one by its value. Then the trials
    of all the rows run on one pool of workers, as run_scenario runs one.
    """
    rows, problems = [], []
    for v in values:
        try:
            row = _apply_axis(cfg, axis, v)
        except ValueError as e:
            problems.append(f"{axis} = {v}: {e}")
            continue
        problems += [f"{axis} = {v}: {msg}" for msg in validate_scenario(row)]
        rows.append((v, row))
    if problems:
        raise ConfigError("invalid sweep: " + "; ".join(problems))
    reports = _run_rows([row for _, row in rows], workers)
    return [(v, report.metrics) for (v, _), report in zip(rows, reports)]


def eavesdrop(timeline: EmissionTimeline, slot_cfg: SlotConfig,
              tx: TxPowerLevels, n: int) -> tuple[Triplet, ...]:
    """Passive perfect-receiver observer: reconstruct the covert triplets
    straight off the air. Exists to demonstrate that the credential is
    visible to any listener; hiding it is encryption's job, not this layer's.
    """
    bs = timeline.beacons
    mid = (tx.high_dbm + tx.low_dbm) / 2.0
    centres = [b.t_s + (k + 0.5) * slot_cfg.slot_s for b in bs for k in range(n)]
    high = (timeline.levels_at(np.array(centres)) > mid).tolist()
    out = []
    for j, b in enumerate(bs):
        bits = "".join("1" if h else "0" for h in high[j * n:(j + 1) * n])
        if j == 0:
            interval = None
        elif j == 1:
            interval = 1
        else:
            tu = bs[1].t_s - bs[0].t_s
            interval = int(round((b.t_s - bs[j - 1].t_s) / tu))
        out.append(Triplet(TxPattern(bits), b.channel, interval))
    return tuple(out)
