"""Deterministic discrete-event engine and Monte Carlo harness.

Binds the pieces together: an actor compiles an emission timeline, the radio
model places it on the sensor's sampling grid along a trajectory as beacons
plus one Samples array pair, and SensorSession.feed plays them into a session
in time order (a window reads the samples from its beacon up to its end or the
next beacon). There is no wall clock anywhere; trial i draws all its
randomness from numpy.random.default_rng([seed, i]), so results are
independent of run order and worker count.

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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable, Optional, Sequence, TypeVar, Union

import numpy as np

from .core import (ACCEPTED, BandPlan, DEFAULT_BAND, SecretPattern, Triplet,
                   TxPattern, _check_finite, new_matcher, validate_pattern)
from .emitter import (Beacon, EmissionTimeline, Mutation, SlotConfig,
                      SlotFitError, candidate_from_index, compile_schedule,
                      mutate, random_candidate, random_pattern)
from .radio import (ChannelParams, Trajectory, TxPowerLevels, distance_at,
                    path_loss)
from .sensor import (AuthResult, Samples, SensorConfig, SensorNode,
                     SensorSession, apply_app_stage)

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
    from them (id index, matcher trie, dump text). Every config that
    `replace` makes from a config shares its store, so each form is built
    once. Only the patterns pickle; each process compiles its own forms."""

    def __init__(self, patterns=()):
        # tuple.__new__ has taken the patterns; this adds the kept forms.
        self._forms: dict = {}

    def __reduce__(self):
        return _Store, (tuple(self),)

    def compiled(self, build: Callable[["_Store"], T]) -> T:
        """build(self), run once per store and kept. A build that raises
        keeps nothing, so the next call raises again."""
        if build not in self._forms:
            self._forms[build] = build(self)
        return self._forms[build]


def _index_by_id(store: _Store) -> dict[str, SecretPattern]:
    # On a duplicate id the first pattern wins.
    return {p.pattern_id: p for p in reversed(store)}


@dataclass(frozen=True)
class ScenarioConfig:
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
    def _problems(self) -> tuple[str, ...]:
        return tuple(_find_problems(self))

    @cached_property
    def _effective_sensor(self) -> SensorConfig:
        # Watchdog default: 8 nominal time units, widened when the protocol
        # itself allows longer beacon gaps than that.
        if self.sensor_cfg.watchdog_s is not None:
            return self.sensor_cfg
        units = max(8, self.max_tu + 2)
        return replace(self.sensor_cfg, watchdog_s=units * self.slot_cfg.tu_s)

    def pattern(self, pattern_id: str) -> SecretPattern:
        return self.store.compiled(_index_by_id)[pattern_id]

    def __getstate__(self) -> dict:
        # Only the fields travel to a worker; it rebuilds the caches itself.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Every config inconsistency, reported before any trial runs.

    The check runs once per config (configs are frozen); each call returns
    a fresh list.
    """
    return list(cfg._problems)


def _find_problems(cfg: ScenarioConfig) -> list[str]:
    problems: list[str] = []
    if cfg.trials < 1:
        problems.append(f"trials must be >= 1, got {cfg.trials}")
    if cfg.seed < 0:
        problems.append(f"seed must be >= 0, got {cfg.seed}")
    if cfg.max_tu < 1:
        problems.append(f"max_tu must be >= 1, got {cfg.max_tu}")
    if not cfg.store:
        problems.append("store is empty")
    seen = set()
    fitting = set()  # bit counts whose burst is known to fit
    for p in cfg.store:
        if p.pattern_id in seen:
            problems.append(f"duplicate pattern_id {p.pattern_id!r} in store")
        seen.add(p.pattern_id)
        report = validate_pattern(p, cfg.band, cfg.max_tu)
        if not report.ok:
            problems.append(f"pattern {p.pattern_id!r}: {report}")
            continue
        # A valid pattern's smallest interval is its second, 1 TU, so
        # whether its burst fits depends on its bit count alone.
        if p.bit_count in fitting:
            continue
        try:
            cfg.slot_cfg.check_fit(p)
            fitting.add(p.bit_count)
        except SlotFitError as e:
            problems.append(f"pattern {p.pattern_id!r}: {e}")
    if cfg.sensor_cfg.f_s * cfg.slot_cfg.slot_s < 2:
        problems.append("sensor undersamples: need f_s*slot_s >= 2")
    a = cfg.actor
    ref_ids = []
    if isinstance(a, (Legit, Mutant, Replay, Mitm)):
        ref_ids = [a.pattern_id]
    elif isinstance(a, Proto):
        ref_ids = [a.pattern_a, a.pattern_b]
        if not a.tu_b_s > 0:
            problems.append("proto tu_b_s must be > 0")
    elif isinstance(a, BruteForce):
        if a.n < 1 or a.L < 2:
            problems.append("bruteforce needs n >= 1 and L >= 2")
        else:
            # A raw candidate's second interval is always 1 TU, so whether
            # its burst fits depends on n alone.
            try:
                cfg.slot_cfg.check_fit(candidate_from_index(0, a.n, 2, 1, 1))
            except SlotFitError as e:
                problems.append(f"bruteforce burst does not fit: {e}")
    for pid in ref_ids:
        if pid not in seen:
            problems.append(f"actor references unknown pattern_id {pid!r}")
    if isinstance(a, Mutant) and a.pattern_id in seen:
        try:
            cfg.slot_cfg.check_fit(mutate(cfg.pattern(a.pattern_id), a.mutation))
        except (ValueError, TypeError) as e:
            problems.append(f"mutation does not apply: {e}")
    if isinstance(a, Proto) and a.tu_b_s > 0 and a.pattern_b in seen:
        try:
            replace(cfg.slot_cfg, tu_s=a.tu_b_s).check_fit(cfg.pattern(a.pattern_b))
        except (ValueError, TypeError) as e:
            problems.append(f"proto pattern_b does not fit tu_b_s: {e}")
    if isinstance(a, Mitm) and not a.extra_delay_s >= 0:
        problems.append("mitm extra_delay_s must be >= 0")
    return problems


def observe_emission(timeline: EmissionTimeline, traj: Trajectory,
                     chan: ChannelParams, tx: TxPowerLevels, scfg: SensorConfig,
                     slot_cfg: SlotConfig, rng: np.random.Generator,
                     t_start: float = 0.0):
    """Place one emission on the sensor's sampling grid.

    Returns (beacons, samples): beacon frames that cleared the noise floor,
    timestamped on the grid, plus the Samples of every decode window a
    detected beacon opens, NaN where a tick heard nothing. Ticks outside
    those windows carry no information and are not materialized. The
    trajectory is anchored at t_start.
    """
    f = scfg.f_s
    phase = t_start + rng.uniform(0.0, 1.0 / f)  # emission start on the sensor clock
    sigma = chan.sigma_db
    emitted = timeline.beacons
    t_true = phase + np.array([b.t_s for b in emitted])
    rssi = tx.high_dbm - path_loss(distance_at(traj, t_true - t_start), chan)
    if sigma > 0:
        rssi += rng.normal(0.0, sigma, size=len(emitted))
    beacons = []
    ticks_parts = []
    win_ticks = math.ceil(scfg.n * slot_cfg.slot_s * f - 1e-9)
    for b, t, r in zip(emitted, t_true.tolist(), rssi.tolist()):
        if r < chan.noise_floor_dbm:
            continue  # frame lost; its window never opens
        m = int(round(t * f))
        beacons.append(Beacon(m / f, b.channel, b.seq_no, b.nonce))
        ticks_parts.append(np.arange(m, m + win_ticks, dtype=np.int64))
    if not ticks_parts:
        return beacons, Samples()
    ticks = np.unique(np.concatenate(ticks_parts))
    t_ticks = ticks / f
    local = t_ticks - phase
    pl = path_loss(distance_at(traj, t_ticks - t_start), chan)
    rssi = timeline.levels_at(local) - pl
    if sigma > 0:
        rssi += rng.normal(0.0, sigma, size=rssi.shape)
    absent = (local < 0.0) | (local > timeline.duration_s) | (rssi < chan.noise_floor_dbm)
    return beacons, Samples(t_ticks, np.where(absent, np.nan, rssi))


def _run_session(cfg: ScenarioConfig, eff: SensorConfig, slot_cfg: SlotConfig,
                 timeline: EmissionTimeline, rng: np.random.Generator,
                 node: SensorNode, t_start: float, app_message: Optional[str],
                 rtt_extra_s: float = 0.0) -> AuthResult:
    beacons, samples = observe_emission(
        timeline, cfg.trajectory, cfg.channel, cfg.tx_levels, eff, slot_cfg, rng,
        t_start=t_start)
    session = SensorSession(cfg.store.compiled(new_matcher), eff, slot_cfg,
                            node=node, t_start=t_start)
    session.feed(beacons, samples)
    result = session.finish()
    if result.verdict == ACCEPTED and eff.app_secret is not None:
        d = distance_at(cfg.trajectory, session.terminal_t - t_start)
        rtt = 2.0 * d / LIGHT_SPEED_M_S + rtt_extra_s
        result = apply_app_stage(result, app_message, rtt, eff)
    node.note_result(result, session.terminal_t)
    return result


@dataclass(frozen=True)
class TrialResult:
    trial: int
    actor: str
    label: str  # legit | adversary, the ground truth for FAR/FRR
    result: AuthResult


def run_trial(cfg: ScenarioConfig, trial_index: int) -> TrialResult:
    """One fully deterministic trial; randomness from (seed, trial_index)."""
    rng = np.random.default_rng([cfg.seed, trial_index])
    eff = cfg._effective_sensor
    node = SensorNode(eff.lockout_s)
    a = cfg.actor
    slot = cfg.slot_cfg
    # Mutant and BruteForce emit a credential of their own making, which need
    # not be well-formed, and they do not know the app secret.
    guessing = isinstance(a, (Mutant, BruteForce))
    if isinstance(a, (Legit, Replay, Mitm)):
        p = cfg.pattern(a.pattern_id)
    elif isinstance(a, Mutant):
        # A wrong second interval merely redefines the observed time unit.
        p = mutate(cfg.pattern(a.pattern_id), a.mutation)
    elif isinstance(a, BruteForce):
        p = random_candidate(rng, a.n, a.L, cfg.band.channel_count, cfg.max_tu,
                             pattern_id=f"cand.{trial_index}")
    elif isinstance(a, Proto):
        if trial_index % 2 == 0:
            p = cfg.pattern(a.pattern_a)
        else:
            p, slot = cfg.pattern(a.pattern_b), replace(slot, tu_s=a.tu_b_s)
    else:
        raise TypeError(f"unknown actor {a!r}")
    tl = compile_schedule(p, slot, cfg.tx_levels, nonce_prefix=f"t{trial_index}.s0",
                          require_valid=not guessing)
    message = "" if guessing else eff.app_secret
    extra = a.extra_delay_s if isinstance(a, Mitm) else 0.0
    result = _run_session(cfg, eff, slot, tl, rng, node, 0.0, message, extra)
    if isinstance(a, Replay):
        # The recorded copy goes on air after the original, on a grid tick,
        # to the same sensor node; that second session is the one scored.
        t1 = math.ceil((tl.duration_s + slot.tu_s) * eff.f_s) / eff.f_s
        result = _run_session(cfg, eff, slot, tl, rng, node, t1, message)
    return TrialResult(trial_index, actor_kind(a), actor_label(a), result)


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
    n_adv = sum(1 for t in trials if t.label == ADVERSARY)
    n_leg = len(trials) - n_adv
    false_accepts = sum(1 for t in trials
                        if t.label == ADVERSARY and t.result.verdict == ACCEPTED)
    false_rejects = sum(1 for t in trials
                        if t.label == LEGIT and t.result.verdict != ACCEPTED)
    far = false_accepts / n_adv if n_adv else None
    frr = false_rejects / n_leg if n_leg else None
    counts = Counter(t.result.bucket for t in trials)
    mean_s = sum(t.result.duration_s for t in trials) / len(trials) if trials else 0.0
    return Metrics(
        trials=len(trials), far=far, frr=frr,
        far_ci_95=wilson(far, n_adv) if far is not None else None,
        frr_ci_95=wilson(frr, n_leg) if frr is not None else None,
        mean_session_s=mean_s, per_reason_counts=dict(counts))


@dataclass(frozen=True)
class RunReport:
    metrics: Metrics
    trials: tuple[TrialResult, ...]


def _run_block(cfg: ScenarioConfig, lo: int, hi: int) -> list[TrialResult]:
    return [run_trial(cfg, i) for i in range(lo, hi)]


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> RunReport:
    """All trials plus aggregate metrics.

    workers > 1 fans trials out over processes, at most one per CPU;
    aggregation is pure counting over per-trial results keyed by index, so
    the outcome is identical for any worker count.
    """
    problems = validate_scenario(cfg)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))
    # The pool starts all its processes on the first submit.
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or cfg.trials < 2 * workers:
        results = _run_block(cfg, 0, cfg.trials)
    else:
        block = math.ceil(cfg.trials / workers)
        bounds = [(lo, min(lo + block, cfg.trials))
                  for lo in range(0, cfg.trials, block)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, cfg, lo, hi) for lo, hi in bounds]
            results = [t for fut in futures for t in fut.result()]
        results.sort(key=lambda t: t.trial)
    return RunReport(compute_metrics(results), tuple(results))


def monte_carlo(cfg: ScenarioConfig, workers: int = 1) -> Metrics:
    return run_scenario(cfg, workers=workers).metrics


SWEEP_AXES = ("distance", "sigma_db", "n", "L", "eps_tu")


def _apply_axis(cfg: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    if axis == "distance":
        return replace(cfg, trajectory=Trajectory(((0.0, float(value)),)))
    if axis == "sigma_db":
        return replace(cfg, channel=replace(cfg.channel, sigma_db=float(value)))
    if axis == "eps_tu":
        return replace(cfg, sensor_cfg=replace(cfg.sensor_cfg, eps_tu=float(value)))
    if axis in ("n", "L"):
        iv = int(value)
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
            out = replace(out, actor=BruteForce(
                iv if axis == "n" else cfg.actor.n,
                iv if axis == "L" else cfg.actor.L))
        return out
    raise ValueError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")


def sweep(cfg: ScenarioConfig, axis: str, values, workers: int = 1
          ) -> list[tuple[float, Metrics]]:
    """One monte_carlo row per axis value, all rows sharing cfg.seed so rows
    are paired comparisons; empty values give an empty table."""
    return [(v, monte_carlo(_apply_axis(cfg, axis, v), workers=workers))
            for v in values]


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
