"""Scenario files, canonical fixtures, and report serialization.

A scenario is an INI file with sections [band] [channel] [tx] [slots]
[sensor] [store] [actor] [trajectory] [run]. The keys of a section are the
fields of the config class it holds, read with the field's type and
defaulting to the dataclass's default; [run] holds ScenarioConfig's int
fields. [actor] names its class with `kind`, a mutant its mutation with
`mutation`, each followed by that class's fields. Store entries are
`id = pattern` lines in the pattern grammar, and waypoints are `t:d` pairs.
An unknown section or key is refused, so a typo fails loudly instead of
silently falling back to a default.

Reports are written as report.json (config digest, metrics, one record per
trial) plus trials.csv for external plotting. Identical configs produce
byte-identical files: no timestamps, sorted keys, fixed float formatting.
The renderers read a report's outcome, its distinct (actor, label, result)
entries and each trial's entry (sim._Outcome): a record and a row are
formatted once per call for each entry, and every trial is that text with
its own trial number spliced in. The bytes are those of one json.dumps call
over the whole report and one csv.writer row per trial.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import re
from dataclasses import Field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from .core import (PatternError, SecretPattern, _parse_pattern, parse_pattern,
                   render_pattern)
from .emitter import FlipTxBit, SlotConfig, WrongChannel, WrongInterval
from .radio import ChannelParams, Trajectory
from .sensor import AuthResult, SensorConfig
from .sim import (_ACTOR_KIND, ConfigError, Legit, Metrics, Mutant, Proto,
                  RunReport, ScenarioConfig)


# Sections holding one config object each: the keys are its fields.
_SECTIONS = {"band": "band", "channel": "channel", "tx": "tx_levels",
             "slots": "slot_cfg", "sensor": "sensor_cfg"}
_FIELD = {f.name: f for f in fields(ScenarioConfig)}
# [actor] holds the actor; [run] holds the config's own int fields.
_ACTOR = [_FIELD["actor"]]
_RUN = [f for f in _FIELD.values() if f.type == "int"]
# A field of a union type is written `tag = <name>`, followed by the
# fields of the class that name picks.
_TAGGED = {
    "Actor": ("kind", _ACTOR_KIND),
    "Mutation": ("mutation", {FlipTxBit: "flip_tx_bit", WrongChannel: "wrong_channel",
                              WrongInterval: "wrong_interval"}),
}


def _parser(f: Field) -> Callable:
    # Annotations are strings (postponed evaluation); Optional[X] reads as X.
    return {"int": int, "float": float, "str": str}[
        f.type.removeprefix("Optional[").removesuffix("]")]


def _conv(section: str, key: str, text: str, kind: Callable):
    # Each number reaches its config class through _make, which refuses nan or inf.
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {text!r}") from None


def _make(section: str, ctor: Callable, kwargs: dict):
    try:
        return ctor(**kwargs)
    except ValueError as e:
        raise ConfigError(f"[{section}] {e}") from None


def _read(section: str, fs: Sequence[Field], sec: Mapping[str, str],
          used: set[str], required: bool) -> dict:
    """Keyword arguments for the fields fs from the keys of sec named after
    them; the keys read are added to used."""
    out = {}
    for f in fs:
        if f.type in _TAGGED:
            tag, names = _TAGGED[f.type]
            if tag not in sec:
                raise ConfigError(f"[{section}] missing key {tag!r}")
            used.add(tag)
            cls = next((c for c, name in names.items() if name == sec[tag]), None)
            if cls is None:
                raise ConfigError(f"[{section}] unknown {tag} {sec[tag]!r}")
            out[f.name] = _make(section, cls, _read(section, fields(cls), sec, used, True))
        elif f.name in sec:
            used.add(f.name)
            out[f.name] = _conv(section, f.name, sec[f.name], _parser(f))
        elif required:
            raise ConfigError(f"[{section}] missing key {f.name!r}")
    return out


def _refuse_unknown(section: str, sec: Mapping[str, str], used) -> None:
    for key in sec:
        if key not in used:
            raise ConfigError(f"[{section}] unknown key {key!r}")


def _parse_waypoints(text: str) -> Trajectory:
    pts = []
    for tok in text.split():
        t, sep, d = tok.partition(":")
        if not sep:
            raise ConfigError(f"[trajectory] waypoint {tok!r} is not t:d")
        pts.append((_conv("trajectory", "waypoints", t, float),
                    _conv("trajectory", "waypoints", d, float)))
    return _make("trajectory", Trajectory, {"waypoints": tuple(pts)})


def loads_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text into a ScenarioConfig, refusing bad input with
    ConfigError. The [store] patterns are parsed with one token memo per
    load, so equal tokens give one shared Triplet and a store loads at the
    cost of its distinct triplets."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # store ids and L are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"bad scenario syntax: {e}") from None
    if cp.defaults():  # its keys would be read as keys of every section
        raise ConfigError(f"unknown section [{cp.default_section}]")
    for section in cp.sections():
        if section not in (*_SECTIONS, "store", "actor", "trajectory", "run"):
            raise ConfigError(f"unknown section [{section}]")

    def keys(section: str, fs: Sequence[Field]) -> dict:
        sec = cp[section] if section in cp else {}
        used: set[str] = set()
        out = _read(section, fs, sec, used, required=False)
        _refuse_unknown(section, sec, used)
        return out

    kwargs = {}
    for section, name in _SECTIONS.items():
        base = _FIELD[name].default
        kwargs[name] = _make(section, partial(replace, base), keys(section, fields(base)))
    if "store" not in cp or not list(cp["store"]):
        raise ConfigError("missing or empty [store] section")
    # raw=True reads the values without the section proxy; with
    # interpolation off and [DEFAULT] refused, the pairs are the same.
    store, seen = [], {}
    for pid, ptext in cp.items("store", raw=True):
        try:
            store.append(_parse_pattern(ptext, pid, seen))
        except PatternError as e:
            raise ConfigError(f"[store] {pid}: {e}") from None
    if "actor" not in cp:
        raise ConfigError("missing [actor] section")
    kwargs.update(keys("actor", _ACTOR))
    if "trajectory" in cp:
        _refuse_unknown("trajectory", cp["trajectory"], {"waypoints"})
        if "waypoints" in cp["trajectory"]:
            kwargs["trajectory"] = _parse_waypoints(cp["trajectory"]["waypoints"])
    kwargs.update(keys("run", _RUN))
    return ScenarioConfig(store=tuple(store), **kwargs)


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


def _lines(section: str, obj, fs: Sequence[Field]) -> list[str]:
    """`key = value` for each field of fs in order, None skipped."""
    out = []
    for f in fs:
        value = getattr(obj, f.name)
        if f.type in _TAGGED:
            tag, names = _TAGGED[f.type]
            if type(value) not in names:
                raise TypeError(f"unknown {tag} {value!r}")
            out += [f"{tag} = {names[type(value)]}", *_lines(section, value, fields(value))]
        elif value is not None:
            parser = _parser(f)
            text = (_verbatim(section, f.name, value) if parser is str
                    else repr(value) if parser is float else str(value))
            out.append(f"{f.name} = {text}")
    return out


def _store_text(store: Sequence[SecretPattern]) -> str:
    """The [store] lines, once the ids are known to load back."""
    ids = [_verbatim("store", "pattern_id", p.pattern_id, as_key=True) for p in store]
    if len(set(ids)) < len(ids) or not ids:
        raise ValueError("[store] needs at least one pattern and no repeated id")
    return "\n".join(f"{p.pattern_id} = {render_pattern(p)}" for p in store)


def _dump_parts(cfg: ScenarioConfig) -> tuple[str, str, str]:
    """dump_scenario's text in three parts: up to [store]'s lines, the
    store's lines (kept with the store), and the rest."""
    store_text = cfg.store.compiled(_store_text)
    head = []
    for section, name in _SECTIONS.items():
        obj = getattr(cfg, name)
        head += [f"[{section}]", *_lines(section, obj, fields(obj)), ""]
    way = " ".join(f"{t!r}:{d!r}" for t, d in cfg.trajectory.waypoints)
    tail = ["", "",
            "[actor]", *_lines("actor", cfg, _ACTOR), "",
            "[trajectory]", f"waypoints = {way}", "",
            "[run]", *_lines("run", cfg, _RUN), ""]
    return "\n".join([*head, "[store]", ""]), store_text, "\n".join(tail)


def dump_scenario(cfg: ScenarioConfig) -> str:
    """Canonical text form; loads_scenario(dump_scenario(cfg)) == cfg.

    Raises ValueError, naming the section and key, for a config whose text
    would not load back equal: a str that cannot be written verbatim, an
    empty store or a repeated store id.
    """
    return "".join(_dump_parts(cfg))


def _hash_through_store(store, head: str):
    # sha256 of head and the store's lines; the store's text is its own form.
    h = hashlib.sha256(head.encode("utf-8"))
    h.update(store.compiled(_store_text).encode("utf-8"))
    return h


def config_sha256(cfg: ScenarioConfig) -> str:
    """sha256 of dump_scenario(cfg). The hash state after the [store] lines
    is kept with the store, per text before them, so a large store is
    hashed once and each config feeds only what follows it."""
    head, _, tail = _dump_parts(cfg)
    h = cfg.store.compiled(_hash_through_store, head).copy()
    h.update(tail.encode("utf-8"))
    return h.hexdigest()


# report.json's spellings, as json.dumps writes them by default: a str
# ASCII-escaped, a float as float.__repr__ or NaN/Infinity/-Infinity.
_json_str = json.encoder.encode_basestring_ascii
_JSON_CONST = {None: "null", True: "true", False: "false"}
# A trials.csv cell holding one of these is left to csv.writer, which quotes
# or refuses it (quoting '\r' depends on the Python version).
_CSV_SPECIAL = re.compile('[\x00\r\n",]').search


def _json_opt(text: Optional[str]) -> str:
    return "null" if text is None else _json_str(text)


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _code(reason) -> Optional[str]:
    return None if reason is None else reason.code


def _json_record(actor: str, label: str, r: AuthResult) -> tuple[str, str]:
    """The report.json record of a trial with this outcome, cut where its
    trial number goes: sorted keys put "trial" between "transcript" and
    "verdict"."""
    transcript = ",".join(map(_json_str, map(str, r.transcript)))
    return (f'{{"actor":{_json_str(actor)},"app_ok":{_JSON_CONST[r.app_ok]},'
            f'"duration_s":{_json_float(r.duration_s)},"label":{_json_str(label)},'
            f'"pattern_id":{_json_opt(r.pattern_id)},"phy_ok":{_JSON_CONST[r.phy_ok]},'
            f'"reason":{_json_opt(_code(r.reason))},"transcript":[{transcript}],"trial":',
            f',"verdict":{_json_str(r.verdict)}}}')


def _csv_row(actor: str, r: AuthResult) -> str:
    """The trials.csv row of a trial with this outcome, after its trial
    number."""
    code = _code(r.reason) or ""
    if _CSV_SPECIAL(actor + r.verdict + code):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(
            ["", actor, r.verdict, code, f"{r.duration_s:.6f}"])
        return buf.getvalue()
    return f",{actor},{r.verdict},{code},{r.duration_s:.6f}\n"


def render_report_json(report: RunReport, cfg: ScenarioConfig) -> str:
    """json.dumps of the report with sorted keys and no spaces: the config
    digest, metrics and seed, then one record per trial. A record is
    formatted once per entry of the report's outcome, and each trial gets
    its entry's with its trial number spliced in."""
    head = json.dumps({"config_sha256": config_sha256(cfg), "seed": cfg.seed,
                       "metrics": report.metrics.to_dict()},
                      sort_keys=True, separators=(",", ":"))
    entries, index, numbers = report._outcome
    cuts = [_json_record(*e) for e in entries]
    heads, tails = [c[0] for c in cuts], [c[1] for c in cuts]
    out = [f"{heads[e]}{n}{tails[e]}" for n, e in zip(numbers, index.tolist())] or [""]
    # "trials" sorts last, so its list goes where head's closing brace was.
    # The ends go into the list, so one join copies the records once.
    out[0] = f'{head[:-1]},"trials":[{out[0]}'
    out[-1] += "]}\n"
    return ",".join(out)


def render_trials_csv(report: RunReport) -> str:
    """One row per trial, as csv.writer writes it. A row is formatted once
    per entry of the report's outcome, with each trial number spliced in."""
    entries, index, numbers = report._outcome
    rows = [_csv_row(actor, r) for actor, _, r in entries]
    return "".join(["trial,actor,verdict,reason,duration_s\n",
                    *[f"{n}{rows[e]}" for n, e in zip(numbers, index.tolist())]])


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
