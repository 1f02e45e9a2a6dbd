"""The benchmark's workloads: scenario text, outcome checks, recorded outcomes.

Every workload is scenario text generated here from a seed, so the program
under test sees only what `beaconveil run` would read from a file. Nothing is
imported from the tests or from the program's own fixture builders, so edits
there cannot move the benchmark. Every config key is written out, so a change
of a dataclass default cannot move it either. This module uses the standard
library only; the checks read RunReport fields by name.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

ACCEPTED = "accepted"

# A single run pools many batches, so a check at the textbook z = 1.96 would
# fail about one correct run in twenty. z = 4 fails about one in 16,000.
CHECK_Z = 4.0

DESK_PATTERN = "01@1:- 10@2:1"
FLYOVER_PATTERN = "010@1:- 101@6:1 010@6:2 101@11:3"
FIG3_PATTERN = "010@1:- 101@6:1 010@6:2 101@11:2"
APP_SECRET = "1234567890"

STORE_SIZE = 10_000
STORE_SEED = 0x5EED_10C  # the 10k store is fixed input data, not per-run
_MIXED_3BIT = ("001", "010", "011", "100", "101", "110")

_CHANNEL_DEFAULTS = {"pl0_db": 40.0, "d0": 0.5, "gamma": 3.3,
                     "sigma_db": 0.0, "noise_floor_dbm": -90.0}
_SENSOR_DEFAULTS = {"eps_tu": 0.1, "rtt_limit_s": 0.1, "lockout_s": 0.0}
_BAND_24GHZ = {"name": "2.4GHz-14ch", "channel_count": 14,
               "base_freq": 2412.0, "spacing": 5.0}
_SLOTS_DEFAULT = {"slot_s": 0.6, "tu_s": 4.0, "guard_s": 0.2}
_TX = {"high_dbm": 13.0, "low_dbm": 7.0}


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _section(name: str, keys: dict) -> list[str]:
    return [f"[{name}]"] + [f"{k} = {_fmt(v)}" for k, v in keys.items()] + [""]


def scenario_text(*, band: dict, channel: dict, slots: dict, sensor: dict,
                  store: list[tuple[str, str]], actor: dict,
                  waypoints: list[tuple[float, float]], seed: int, trials: int,
                  max_tu: int) -> str:
    lines = _section("band", band)
    lines += _section("channel", {**_CHANNEL_DEFAULTS, **channel})
    lines += _section("tx", _TX)
    lines += _section("slots", slots)
    lines += _section("sensor", {**sensor, **_SENSOR_DEFAULTS})
    lines += ["[store]"] + [f"{pid} = {text}" for pid, text in store] + [""]
    lines += _section("actor", actor)
    lines += ["[trajectory]",
              "waypoints = " + " ".join(f"{t!r}:{d!r}" for t, d in waypoints), ""]
    lines += _section("run", {"seed": seed, "trials": trials, "max_tu": max_tu})
    return "\n".join(lines)


def desk_text(seed: int, trials: int) -> str:
    """Criterion-3 desk: 2-channel band, n=2, L=2, 16 Hz, 1 s time unit, 5 m,
    noiseless, brute force over the 64-pattern raw space."""
    return scenario_text(
        band={"name": "desk-2ch", "channel_count": 2, "base_freq": 2412.0,
              "spacing": 5.0},
        channel={}, slots={"slot_s": 0.25, "tu_s": 1.0, "guard_s": 0.05},
        sensor={"f_s": 16.0, "n": 2, "delta_db": 2.5},
        store=[("desk", DESK_PATTERN)], actor={"kind": "bruteforce", "n": 2, "L": 2},
        waypoints=[(0.0, 5.0)], seed=seed, trials=trials, max_tu=2)


def flyover_waypoints() -> list[tuple[float, float]]:
    # 30 m at t=0 and t=26 s, 5 m at t=13 s, on a hyperbolic pass.
    a = math.sqrt(875.0) / 13.0
    return [(t / 2.0, math.sqrt(25.0 + (a * (t / 2.0 - 13.0)) ** 2))
            for t in range(0, 53)]


def flyover_text(seed: int, trials: int) -> str:
    """Noisy flyover: 2 dB shadowing, 30->5->30 m pass, 50 Hz sensor, Legit."""
    return scenario_text(
        band=_BAND_24GHZ, channel={"sigma_db": 2.0, "noise_floor_dbm": -95.0},
        slots=_SLOTS_DEFAULT,
        sensor={"f_s": 50.0, "n": 3, "delta_db": 2.0, "app_secret": APP_SECRET},
        store=[("flyover", FLYOVER_PATTERN)],
        actor={"kind": "legit", "pattern_id": "flyover"},
        waypoints=flyover_waypoints(), seed=seed, trials=trials, max_tu=16)


def random_store(size: int = STORE_SIZE - 1, seed: int = STORE_SEED
                 ) -> list[tuple[str, str]]:
    """Valid random n=3, L=4 credentials on the 14-channel band. Their ids
    sort after "fig3", so a draw equal to fig3 cannot take its accepts."""
    rng = random.Random(seed)
    out = []
    for k in range(1, size + 1):
        toks = []
        for i in range(4):
            iv = "-" if i == 0 else ("1" if i == 1 else str(rng.randint(1, 16)))
            toks.append(f"{rng.choice(_MIXED_3BIT)}@{rng.randint(1, 14)}:{iv}")
        out.append((f"s{k:04d}", " ".join(toks)))
    return out


def store_10k_text(seed: int, trials: int) -> str:
    """fig3 case a (Legit, app secret on) against fig3 plus 9,999 others."""
    return scenario_text(
        band=_BAND_24GHZ, channel={}, slots=_SLOTS_DEFAULT,
        sensor={"f_s": 5.0, "n": 3, "delta_db": 3.0, "app_secret": APP_SECRET},
        store=[("fig3", FIG3_PATTERN)] + random_store(),
        actor={"kind": "legit", "pattern_id": "fig3"},
        waypoints=[(0.0, 5.0)], seed=seed, trials=trials, max_tu=16)


# --- outcome checks -------------------------------------------------------

def wilson(p: float, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval around proportion p at n trials."""
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def triplet_token(t) -> str:
    iv = "-" if t.interval_tu is None else t.interval_tu
    return f"{t.tx_pattern.bits}@{t.channel}:{iv}"


def trial_digest(trials) -> str:
    """sha256 over each trial's outcome, read from RunReport fields rather
    than report bytes, so additions to the report format do not move it."""
    h = hashlib.sha256()
    for tr in trials:
        r = tr.result
        code = r.reason.code if r.reason is not None else "-"
        tokens = " ".join(triplet_token(t) for t in r.transcript)
        h.update(f"{tr.trial}|{r.verdict}|{code}|{r.pattern_id}|"
                 f"{r.duration_s!r}|{tokens}\n".encode())
    return h.hexdigest()


def outcome_record(report) -> dict:
    m = report.metrics
    return {"digest": trial_digest(report.trials), "far": m.far, "frr": m.frr,
            "per_reason_counts": dict(sorted(m.per_reason_counts.items()))}


def _accepts_as(pattern_id: str, pattern_text: str) -> Callable:
    tokens = pattern_text.split()

    def check(tr) -> bool:
        r = tr.result
        return (r.pattern_id == pattern_id
                and [triplet_token(t) for t in r.transcript] == tokens)
    return check


def _desk_trial_ok(tr) -> bool:
    # The desk is noiseless: a guess is accepted iff it is the credential.
    r = tr.result
    if tr.label != "adversary":
        return False
    if r.verdict == ACCEPTED:
        return _accepts_as("desk", DESK_PATTERN)(tr)
    return r.reason is not None and r.pattern_id is None


def _flyover_trial_ok(tr) -> bool:
    # A legitimate trial may be rejected (that is the FRR being measured),
    # but an accept must be the enrolled credential through the app gate.
    r = tr.result
    if tr.label != "legit":
        return False
    if r.verdict == ACCEPTED:
        return _accepts_as("flyover", FLYOVER_PATTERN)(tr) and r.app_ok is True
    return r.reason is not None


def _store_trial_ok(tr) -> bool:
    r = tr.result
    return (r.verdict == ACCEPTED and r.app_ok is True
            and _accepts_as("fig3", FIG3_PATTERN)(tr))


def _desk_pooled(accepted: int, n: int) -> Optional[str]:
    # The interval is centred on the observed FAR rather than on 1/64: the
    # two agree at large n, but a band around 1/64 excludes FAR = 0, the
    # likely outcome of a correct run of a few dozen trials.
    far = accepted / n
    lo, hi = wilson(far, n, CHECK_Z)
    if not lo <= 1.0 / 64.0 <= hi:
        return f"desk FAR {far:.5f} at n={n}: 1/64 outside [{lo:.5f}, {hi:.5f}]"
    return None


def _flyover_pooled(accepted: int, n: int) -> Optional[str]:
    frr = (n - accepted) / n
    if frr > 0.01:
        return f"flyover FRR {frr:.5f} above 0.01 at n={n}"
    return None


def _store_pooled(accepted: int, n: int) -> Optional[str]:
    return None if accepted == n else f"store_10k accepted {accepted} of {n}"


def check_serialised(report, report_json: bytes, trials_csv: bytes) -> list[str]:
    """The rendered bytes must describe the report they came from."""
    problems = []
    n = len(report.trials)
    doc = json.loads(report_json)
    if len(doc["trials"]) != n or doc["metrics"]["trials"] != n:
        problems.append("report.json trial count differs from the run")
    m = report.metrics
    if (doc["metrics"]["far"], doc["metrics"]["frr"]) != (m.far, m.frr):
        problems.append("report.json FAR/FRR differ from the run")
    if doc["metrics"]["per_reason_counts"] != dict(m.per_reason_counts):
        problems.append("report.json per_reason_counts differ from the run")
    if trials_csv.count(b"\n") != n + 1:
        problems.append("trials.csv row count differs from the run")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    text: Callable[[int, int], str]  # (seed, trials) -> scenario text
    default_seed: int
    batch_trials: int  # trials per timed run_scenario call
    workers: int
    trial_ok: Callable
    pooled_check: Callable[[int, int], Optional[str]]  # (accepted, n) -> problem
    record_key: str  # whose recorded outcome applies at the default seed


WORKLOADS = {w.name: w for w in (
    Workload("desk_bruteforce",
             "criterion-3 desk brute force: short trials, emitter, observe_emission "
             "and per-trial set-up dominate; the store has one credential",
             desk_text, 20, 4000, 1, _desk_trial_ok, _desk_pooled, "desk_bruteforce"),
    Workload("flyover",
             "noisy flyover: 360 samples fed one by one per trial, the per-sample "
             "sensor path that the array-native path must speed up",
             flyover_text, 2026, 1000, 1, _flyover_trial_ok, _flyover_pooled, "flyover"),
    Workload("store_10k",
             "fig3 Legit against a 10k-credential store: match_step re-indexes the "
             "store per triplet, the cost an indexed store must flatten",
             store_10k_text, 7, 40, 1, _store_trial_ok, _store_pooled, "store_10k"),
    Workload("desk_bruteforce_w2",
             "desk brute force at workers=2: the fan-out in run_scenario (split, "
             "pickling back, merge); outcome must equal desk_bruteforce",
             desk_text, 20, 4000, 2, _desk_trial_ok, _desk_pooled, "desk_bruteforce"),
)}

# Outcome of the first batch at each default seed, recorded at the commit
# that introduced this benchmark. A later commit must reproduce it exactly.
RECORDED = {
    "desk_bruteforce": {
        "digest": "c20b51f1cabbb46fe7ee1564b8f4d91a1bfafb6918ee1fe766cf50dd229118d2",
        "far": 0.01575, "frr": None,
        "per_reason_counts": {"accepted": 63, "channel@0": 502, "channel@1": 55,
                              "txpower@0": 1003, "txpower@1": 106,
                              "undecodable@0": 2027, "undecodable@1": 244}},
    "flyover": {
        "digest": "f923f2e77a98ee6604e55ccbce782e68840f817e7f6df4f9093e84dcfaee8331",
        "far": None, "frr": 0.003,
        "per_reason_counts": {"accepted": 997, "txpower@1": 3}},
    "store_10k": {
        "digest": "56bb8472137a47a0be0b1cf236b700b6b3e83b3a674f90c20abcec84b09838c0",
        "far": None, "frr": 0.0, "per_reason_counts": {"accepted": 40}},
}
