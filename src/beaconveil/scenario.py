"""Scenario files, canonical fixtures, and report serialization.

A scenario is an INI file with sections [band] [channel] [tx] [slots]
[sensor] [store] [actor] [trajectory] [run]; keys match the config dataclass
fields, store entries are `id = pattern` lines in the pattern grammar, and
waypoints are `t:d` pairs. Loading is strict about unknown keys so typos
fail loudly instead of silently falling back to defaults.

Reports are written as report.json (config digest, metrics, one record per
trial) plus trials.csv for external plotting. Identical configs produce
byte-identical files: no timestamps, sorted keys, fixed float formatting.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

from .core import (DEFAULT_BAND, BandPlan, PatternError, SecretPattern,
                   parse_pattern, render_pattern)
from .emitter import FlipTxBit, SlotConfig, WrongChannel, WrongInterval
from .radio import ChannelParams, Trajectory, TxPowerLevels
from .sensor import SensorConfig
from .sim import (Actor, BruteForce, Legit, Metrics, Mitm, Mutant, Proto,
                  Replay, RunReport, ScenarioConfig)


class ConfigError(ValueError):
    """A scenario file could not be parsed into a valid configuration."""


def _conv(section: str, key: str, text: str, kind: Callable):
    # Every scenario number passes through here. A nan or inf would validate
    # and then crash the run or leave its metrics meaningless.
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {text!r} is not a finite number")
    return value


def _section_kwargs(cp: configparser.ConfigParser, section: str,
                    fields: dict[str, Callable]) -> dict:
    # Missing keys fall back to the dataclass defaults; unknown keys fail.
    out = {}
    if section in cp:
        for key, text in cp[section].items():
            if key not in fields:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            out[key] = _conv(section, key, text, fields[key])
    return out


def _make(section: str, ctor: Callable, kwargs: dict):
    try:
        return ctor(**kwargs)
    except ValueError as e:
        raise ConfigError(f"[{section}] {e}") from None


def _req(sec: configparser.SectionProxy, key: str, section: str = "actor") -> str:
    if key not in sec:
        raise ConfigError(f"[{section}] missing key {key!r}")
    return sec[key]


def _parse_actor(cp: configparser.ConfigParser) -> Actor:
    if "actor" not in cp:
        raise ConfigError("missing [actor] section")
    sec = cp["actor"]
    kind = _req(sec, "kind")
    if kind == "legit":
        return Legit(_req(sec, "pattern_id"))
    if kind == "mutant":
        ti = _conv("actor", "triplet_index", _req(sec, "triplet_index"), int)
        mname = _req(sec, "mutation")
        if mname == "flip_tx_bit":
            mut = FlipTxBit(ti, _conv("actor", "bit_index", _req(sec, "bit_index"), int))
        elif mname == "wrong_channel":
            mut = WrongChannel(ti, _conv("actor", "channel", _req(sec, "channel"), int))
        elif mname == "wrong_interval":
            mut = WrongInterval(ti, _conv("actor", "interval_tu", _req(sec, "interval_tu"), int))
        else:
            raise ConfigError(f"[actor] unknown mutation {mname!r}")
        return Mutant(_req(sec, "pattern_id"), mut)
    if kind == "bruteforce":
        return BruteForce(_conv("actor", "n", _req(sec, "n"), int),
                          _conv("actor", "L", _req(sec, "L"), int))
    if kind == "replay":
        return Replay(_req(sec, "pattern_id"))
    if kind == "mitm":
        return Mitm(_req(sec, "pattern_id"),
                    _conv("actor", "extra_delay_s", _req(sec, "extra_delay_s"), float))
    if kind == "proto":
        return Proto(_req(sec, "pattern_a"), _req(sec, "pattern_b"),
                     _conv("actor", "tu_b_s", _req(sec, "tu_b_s"), float))
    raise ConfigError(f"[actor] unknown kind {kind!r}")


def _parse_waypoints(text: str) -> Trajectory:
    pts = []
    for tok in text.split():
        t, sep, d = tok.partition(":")
        if not sep:
            raise ConfigError(f"[trajectory] waypoint {tok!r} is not t:d")
        pts.append((_conv("trajectory", "waypoints", t, float),
                    _conv("trajectory", "waypoints", d, float)))
    if not pts:
        raise ConfigError("[trajectory] waypoints is empty")
    return _make("trajectory", Trajectory, {"waypoints": tuple(pts)})


def loads_scenario(text: str) -> ScenarioConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # store ids and L are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"bad scenario syntax: {e}") from None

    band = _make("band", lambda **kw: replace(DEFAULT_BAND, **kw), _section_kwargs(
        cp, "band", {"name": str, "channel_count": int,
                     "base_freq": float, "spacing": float}))
    channel = _make("channel", ChannelParams, _section_kwargs(
        cp, "channel", {"pl0_db": float, "d0": float, "gamma": float,
                        "sigma_db": float, "noise_floor_dbm": float}))
    tx = _make("tx", TxPowerLevels, _section_kwargs(
        cp, "tx", {"high_dbm": float, "low_dbm": float}))
    slots = _make("slots", SlotConfig, _section_kwargs(
        cp, "slots", {"slot_s": float, "tu_s": float, "guard_s": float}))
    sensor = _make("sensor", SensorConfig, _section_kwargs(
        cp, "sensor", {"f_s": float, "n": int, "eps_tu": float, "delta_db": float,
                       "rtt_limit_s": float, "lockout_s": float,
                       "app_secret": str, "watchdog_s": float}))
    if "store" not in cp or not list(cp["store"]):
        raise ConfigError("missing or empty [store] section")
    store = []
    for pid, ptext in cp["store"].items():
        try:
            store.append(parse_pattern(ptext, pattern_id=pid))
        except PatternError as e:
            raise ConfigError(f"[store] {pid}: {e}") from None
    actor = _parse_actor(cp)
    if "trajectory" in cp and "waypoints" in cp["trajectory"]:
        traj = _parse_waypoints(cp["trajectory"]["waypoints"])
    else:
        traj = Trajectory(((0.0, 5.0),))
    run = _section_kwargs(cp, "run", {"seed": int, "trials": int, "max_tu": int})
    return ScenarioConfig(store=tuple(store), actor=actor, band=band,
                          channel=channel, tx_levels=tx, slot_cfg=slots,
                          sensor_cfg=sensor, trajectory=traj,
                          seed=run.get("seed", 0), trials=run.get("trials", 1),
                          max_tu=run.get("max_tu", 16))


def load_scenario(path) -> ScenarioConfig:
    return loads_scenario(Path(path).read_text(encoding="utf-8"))


def _verbatim(section: str, key: str, text: str, as_key: bool = False) -> str:
    # A str is written as is, so it must read back as itself: the parser
    # strips a value's ends and splits lines, and a key also ends at the
    # first = or :, cannot be empty, and must not open a comment or a
    # section header.
    if (text != text.strip() or "\n" in text or as_key and (
            not text or text[0] in "#;[" or "=" in text or ":" in text)):
        raise ValueError(f"[{section}] {key}: {text!r} would not load back as written")
    return text


def _actor_lines(a: Actor) -> list[str]:
    for key in ("pattern_id", "pattern_a", "pattern_b"):
        if hasattr(a, key):
            _verbatim("actor", key, getattr(a, key))
    if isinstance(a, Legit):
        return ["kind = legit", f"pattern_id = {a.pattern_id}"]
    if isinstance(a, Mutant):
        m = a.mutation
        lines = ["kind = mutant", f"pattern_id = {a.pattern_id}",
                 f"triplet_index = {m.triplet_index}"]
        if isinstance(m, FlipTxBit):
            lines[2:2] = ["mutation = flip_tx_bit"]
            lines.append(f"bit_index = {m.bit_index}")
        elif isinstance(m, WrongChannel):
            lines[2:2] = ["mutation = wrong_channel"]
            lines.append(f"channel = {m.channel}")
        else:
            lines[2:2] = ["mutation = wrong_interval"]
            lines.append(f"interval_tu = {m.interval_tu}")
        return lines
    if isinstance(a, BruteForce):
        return ["kind = bruteforce", f"n = {a.n}", f"L = {a.L}"]
    if isinstance(a, Replay):
        return ["kind = replay", f"pattern_id = {a.pattern_id}"]
    if isinstance(a, Mitm):
        return ["kind = mitm", f"pattern_id = {a.pattern_id}",
                f"extra_delay_s = {a.extra_delay_s!r}"]
    if isinstance(a, Proto):
        return ["kind = proto", f"pattern_a = {a.pattern_a}",
                f"pattern_b = {a.pattern_b}", f"tu_b_s = {a.tu_b_s!r}"]
    raise TypeError(f"unknown actor {a!r}")


def _store_text(store: Sequence[SecretPattern]) -> str:
    """The [store] lines, once the ids are known to load back."""
    ids = [_verbatim("store", "pattern_id", p.pattern_id, as_key=True) for p in store]
    if len(set(ids)) < len(ids) or not ids:
        raise ValueError("[store] needs at least one pattern and no repeated id")
    return "\n".join(f"{p.pattern_id} = {render_pattern(p)}" for p in store)


def dump_scenario(cfg: ScenarioConfig) -> str:
    """Canonical text form; loads_scenario(dump_scenario(cfg)) == cfg.

    Raises ValueError, naming the section and key, for a config whose text
    would not load back equal: a str that cannot be written verbatim, an
    empty store or a repeated store id.
    """
    store_text = cfg.store.compiled(_store_text)
    out = []
    out += ["[band]", f"name = {_verbatim('band', 'name', cfg.band.name)}",
            f"channel_count = {cfg.band.channel_count}",
            f"base_freq = {cfg.band.base_freq!r}",
            f"spacing = {cfg.band.spacing!r}", ""]
    c = cfg.channel
    out += ["[channel]", f"pl0_db = {c.pl0_db!r}", f"d0 = {c.d0!r}",
            f"gamma = {c.gamma!r}", f"sigma_db = {c.sigma_db!r}",
            f"noise_floor_dbm = {c.noise_floor_dbm!r}", ""]
    out += ["[tx]", f"high_dbm = {cfg.tx_levels.high_dbm!r}",
            f"low_dbm = {cfg.tx_levels.low_dbm!r}", ""]
    s = cfg.slot_cfg
    out += ["[slots]", f"slot_s = {s.slot_s!r}", f"tu_s = {s.tu_s!r}",
            f"guard_s = {s.guard_s!r}", ""]
    sc = cfg.sensor_cfg
    out += ["[sensor]", f"f_s = {sc.f_s!r}", f"n = {sc.n}",
            f"eps_tu = {sc.eps_tu!r}", f"delta_db = {sc.delta_db!r}",
            f"rtt_limit_s = {sc.rtt_limit_s!r}", f"lockout_s = {sc.lockout_s!r}"]
    if sc.app_secret is not None:
        out.append(f"app_secret = {_verbatim('sensor', 'app_secret', sc.app_secret)}")
    if sc.watchdog_s is not None:
        out.append(f"watchdog_s = {sc.watchdog_s!r}")
    out.append("")
    out.append("[store]")
    out.append(store_text)
    out.append("")
    out += ["[actor]"] + _actor_lines(cfg.actor) + [""]
    way = " ".join(f"{t!r}:{d!r}" for t, d in cfg.trajectory.waypoints)
    out += ["[trajectory]", f"waypoints = {way}", ""]
    out += ["[run]", f"seed = {cfg.seed}", f"trials = {cfg.trials}",
            f"max_tu = {cfg.max_tu}", ""]
    return "\n".join(out)


def config_sha256(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(dump_scenario(cfg).encode("utf-8")).hexdigest()


def report_dict(report: RunReport, cfg: ScenarioConfig) -> dict:
    trials = []
    for tr in report.trials:
        r = tr.result
        trials.append({
            "trial": tr.trial,
            "actor": tr.actor,
            "label": tr.label,
            "verdict": r.verdict,
            "reason": r.reason.code if r.reason is not None else None,
            "pattern_id": r.pattern_id,
            "phy_ok": r.phy_ok,
            "app_ok": r.app_ok,
            "duration_s": r.duration_s,
            "transcript": [str(t) for t in r.transcript],
        })
    return {"config_sha256": config_sha256(cfg), "seed": cfg.seed,
            "metrics": report.metrics.to_dict(), "trials": trials}


def render_report_json(report: RunReport, cfg: ScenarioConfig) -> str:
    return json.dumps(report_dict(report, cfg), sort_keys=True,
                      separators=(",", ":")) + "\n"


def render_trials_csv(report: RunReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["trial", "actor", "verdict", "reason", "duration_s"])
    for tr in report.trials:
        r = tr.result
        w.writerow([tr.trial, tr.actor, r.verdict,
                    r.reason.code if r.reason is not None else "",
                    f"{r.duration_s:.6f}"])
    return buf.getvalue()


def write_report(report: RunReport, cfg: ScenarioConfig, out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    csv_path = out / "trials.csv"
    json_path.write_bytes(render_report_json(report, cfg).encode("utf-8"))
    csv_path.write_bytes(render_trials_csv(report).encode("utf-8"))
    return json_path, csv_path


def render_sweep_csv(axis: str, rows: Sequence[tuple[float, Metrics]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["axis", "value", "trials", "far", "frr",
                "far_lo", "far_hi", "frr_lo", "frr_hi", "mean_session_s"])
    for value, m in rows:
        far_ci = m.far_ci_95 or ("", "")
        frr_ci = m.frr_ci_95 or ("", "")
        w.writerow([axis, repr(value), m.trials,
                    "" if m.far is None else repr(m.far),
                    "" if m.frr is None else repr(m.frr),
                    *(repr(x) if x != "" else "" for x in far_ci),
                    *(repr(x) if x != "" else "" for x in frr_ci),
                    repr(m.mean_session_s)])
    return buf.getvalue()


def write_sweep(axis: str, rows: Sequence[tuple[float, Metrics]], out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    path.write_bytes(render_sweep_csv(axis, rows).encode("utf-8"))
    return path


# --- canonical fixtures ---

FIG3_PATTERN = "010@1:- 101@6:1 010@6:2 101@11:2"

_FIG3_ACTORS = {
    "a": lambda: Legit("fig3"),
    "b": lambda: Mutant("fig3", FlipTxBit(1, 0)),  # 101 -> 001 at the second beacon
    "c": lambda: Mutant("fig3", WrongChannel(1, 9)),
    "d": lambda: Mutant("fig3", WrongInterval(2, 1)),
}


def build_fig3(case: str) -> ScenarioConfig:
    """The four bench cases: one correct emitter and three single-field
    mutants (txpower, channel, interval), noiseless at a fixed 5 m."""
    if case not in _FIG3_ACTORS:
        raise ValueError(f"case must be one of a/b/c/d, got {case!r}")
    return ScenarioConfig(
        store=(parse_pattern(FIG3_PATTERN, "fig3"),),
        actor=_FIG3_ACTORS[case](),
        channel=ChannelParams(sigma_db=0.0),
        sensor_cfg=SensorConfig(f_s=5.0, n=3, app_secret="1234567890"),
        trajectory=Trajectory(((0.0, 5.0),)),
        seed=7, trials=1, max_tu=16)


def build_proto() -> ScenarioConfig:
    """Two bench emitters with distinct credentials and time bases; even
    trials run the first, odd trials the second, both legitimately stored."""
    return ScenarioConfig(
        store=(parse_pattern("110@6:- 110@6:1", "pi1"),
               parse_pattern("101@1:- 101@1:1", "pi2")),
        actor=Proto("pi1", "pi2", 2.0),
        channel=ChannelParams(sigma_db=0.0),
        slot_cfg=SlotConfig(slot_s=0.25, tu_s=1.0, guard_s=0.05),
        sensor_cfg=SensorConfig(f_s=10.0, n=3, app_secret="1234567890"),
        trajectory=Trajectory(((0.0, 5.0),)),
        seed=11, trials=2, max_tu=16)


def build_flyover(trials: int = 10000) -> ScenarioConfig:
    """Noisy overflight regression scenario: 2 dB shadowing, a 30->5->30 m
    hyperbolic pass timed so the closest approach falls inside the last
    decode window, and a 50 Hz sensor tuned for it (delta_db 2, floor -95
    so beacons stay detectable at the 30 m endpoints)."""
    a = math.sqrt(875.0) / 13.0  # 30 m at t=0 and t=26, 5 m at t=13
    waypoints = tuple((t / 2.0, math.sqrt(25.0 + (a * (t / 2.0 - 13.0)) ** 2))
                      for t in range(0, 53))
    return ScenarioConfig(
        store=(parse_pattern("010@1:- 101@6:1 010@6:2 101@11:3", "flyover"),),
        actor=Legit("flyover"),
        channel=ChannelParams(sigma_db=2.0, noise_floor_dbm=-95.0),
        sensor_cfg=SensorConfig(f_s=50.0, n=3, delta_db=2.0,
                                app_secret="1234567890"),
        trajectory=Trajectory(waypoints),
        seed=2026, trials=trials, max_tu=16)


def write_fixtures(out_dir) -> list[Path]:
    """Write the five canonical scenario files into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in "abcd":
        p = out / f"fig3{case}.scn"
        p.write_text(dump_scenario(build_fig3(case)), encoding="utf-8")
        paths.append(p)
    p = out / "proto.scn"
    p.write_text(dump_scenario(build_proto()), encoding="utf-8")
    paths.append(p)
    return paths
