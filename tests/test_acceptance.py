"""End-to-end acceptance gate.

Every test here records exactly one

    [criterion NN] PASS <what was checked>

line, replayed by the terminal-summary hook in conftest so a log scan shows
the whole gate at a glance. Statistical checks run at fixed seeds and are
therefore deterministic; golden baselines live in tests/golden/.
"""

import functools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from beaconveil import (
    ACCEPTED,
    BruteForce,
    ChannelParams,
    Replay,
    Samples,
    SensorConfig,
    SlotConfig,
    TxPowerLevels,
    authenticate,
    build_fig3,
    build_flyover,
    candidate_from_index,
    compile_schedule,
    config_sha256,
    decode_slots,
    dump_scenario,
    extract_triplets,
    iter_candidates,
    match_step,
    new_matcher,
    observe_emission,
    pattern_space_size,
    random_candidate,
    random_pattern,
    received_power,
    run_scenario,
    wilson,
)
from beaconveil.core import DEFAULT_BAND

from scenario_builders import build_desk

GOLDEN = Path(__file__).parent / "golden"

#: (number, PASS|FAIL, description) per executed criterion; the conftest
#: terminal-summary hook prints these at the end of the run.
RESULTS: list[tuple[int, str, str]] = []


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((num, "FAIL", desc))
                raise
            RESULTS.append((num, "PASS", desc))
        return wrapper
    return deco


@criterion(1, "fixture suite: accept, then txpower@1 / channel@1 / interval@2")
def test_criterion_01():
    t0 = time.perf_counter()
    outcomes = {}
    for case in "abcd":
        result = run_scenario(build_fig3(case)).trials[0].result
        outcomes[case] = (result.verdict,
                          result.reason.code if result.reason else None)
    elapsed = time.perf_counter() - t0
    assert outcomes == {
        "a": ("accepted", None),
        "b": ("rejected", "txpower@1"),
        "c": ("rejected", "channel@1"),
        "d": ("rejected", "interval@2"),
    }
    assert elapsed < 1.0, f"fixture suite took {elapsed:.2f} s"


@criterion(2, "exhaustive 64-candidate emission: only the stored pattern accepted")
def test_criterion_02():
    t0 = time.perf_counter()
    cfg = build_desk(actor=None, trials=1)
    stored = cfg.store[0]
    accepted = []
    for idx, cand in enumerate(iter_candidates(2, 2, 2, 2)):
        tl = compile_schedule(cand, cfg.slot_cfg, cfg.tx_levels,
                              nonce_prefix=f"c{idx}")
        rng = np.random.default_rng([99, idx])
        beacons, samples = observe_emission(
            tl, cfg.trajectory, cfg.channel, cfg.tx_levels,
            cfg.sensor_cfg, cfg.slot_cfg, rng)
        result = authenticate(beacons, samples, cfg.store,
                              cfg.sensor_cfg, cfg.slot_cfg)
        if result.verdict == ACCEPTED:
            accepted.append(cand)
    elapsed = time.perf_counter() - t0
    assert idx == 63
    assert len(accepted) == 1, f"{len(accepted)} of 64 candidates accepted"
    assert accepted[0].triplets == stored.triplets
    assert elapsed < 10.0, f"enumeration took {elapsed:.2f} s"


@criterion(3, "brute-force FAR at 1e5 trials inside the Wilson band around 1/64")
def test_criterion_03():
    t0 = time.perf_counter()
    cfg = build_desk(BruteForce(2, 2), trials=100_000, seed=20)
    metrics = run_scenario(cfg).metrics
    elapsed = time.perf_counter() - t0
    lo, hi = wilson(1.0 / 64.0, cfg.trials)
    assert lo <= metrics.far <= hi, \
        f"FAR {metrics.far:.5f} outside [{lo:.5f}, {hi:.5f}]"
    assert elapsed < 60.0, f"1e5 trials took {elapsed:.1f} s"


def _guess_accepted(cand, store):
    state = new_matcher(store)
    for t in cand.triplets:
        state = match_step(state, t)
        if state.terminal:
            break
    return state.status == ACCEPTED


@criterion(4, "random-guess accept rate halves per secret bit at nL = 4, 5, 6")
def test_criterion_04():
    # The guessing game is checked at the matcher. nL = 5 only factors as
    # 1-bit triplets, which the slot decoder refuses by design (a midrange
    # threshold needs both symbols in a window), so no emission can carry
    # that point; the matcher is the layer where the 2^-(nL) law lives.
    # End-to-end FAR over the air is criterion 3's job.
    trials = 100_000
    rates = []
    for n, L in [(2, 2), (1, 5), (2, 3)]:
        space = pattern_space_size(n, L, channels=1, max_tu=1)
        assert space == 1 << (n * L)
        stored = candidate_from_index(space // 3, n, L, 1, 1)
        store = [stored]
        # Exhaustive oracle: exactly one point of the space matches.
        hits = [c for c in iter_candidates(n, L, 1, 1)
                if _guess_accepted(c, store)]
        assert len(hits) == 1 and hits[0].triplets == stored.triplets
        rng = np.random.default_rng([2718, n, L])
        far = sum(_guess_accepted(random_candidate(rng, n, L, 1, 1), store)
                  for _ in range(trials)) / trials
        lo, hi = wilson(far, trials)
        assert lo <= 2.0 ** -(n * L) <= hi, \
            f"nL={n * L}: FAR {far:.5f} CI [{lo:.5f}, {hi:.5f}] misses {2.0 ** -(n * L):.5f}"
        rates.append(far)
    for a, b in zip(rates, rates[1:]):
        assert 0.4 <= b / a <= 0.6, f"consecutive FAR ratio {b / a:.3f} not 0.5 +- 0.1"


@criterion(5, "decoded bits invariant under constant RSSI offsets in [-40, 0] dB")
def test_criterion_05():
    rng = np.random.default_rng(505)
    cfg = SensorConfig(n=2)  # n is per-window below; delta_db default 3
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        bits = "".join(rng.choice(["0", "1"], size=n))
        if len(set(bits)) == 1:
            flip = int(rng.integers(0, n))
            bits = bits[:flip] + ("1" if bits[flip] == "0" else "0") + bits[flip + 1:]
        slot_s = float(rng.choice([0.2, 0.6, 1.0]))
        high = float(rng.uniform(-60.0, -30.0))
        low = high - float(rng.uniform(4.0, 20.0))
        samples = Samples(*zip(*[
            ((k + frac) * slot_s,
             (high if bit == "1" else low) + float(rng.uniform(-0.4, 0.4)))
            for k, bit in enumerate(bits)
            for frac in (0.25, 0.5, 0.75)
        ]))
        base = decode_slots(samples, n, cfg, slot_s, t0=0.0)
        offset = float(rng.uniform(-40.0, 0.0))
        shifted = Samples(samples.t_s, samples.rssi_dbm + offset)
        moved = decode_slots(shifted, n, cfg, slot_s, t0=0.0)
        assert moved.bits == base.bits == bits


@criterion(6, "rx(13 dBm, 3 m) < rx(7 dBm, 0.5 m); rx(13 dBm, 41 m) below floor")
def test_criterion_06():
    chan = ChannelParams()
    tx = TxPowerLevels()
    assert (tx.high_dbm, tx.low_dbm) == (13.0, 7.0)
    assert chan.sigma_db == 0.0
    high_far = received_power(13.0, 3.0, chan)
    low_near = received_power(7.0, 0.5, chan)
    assert high_far is not None and low_near is not None
    assert high_far < low_near
    assert received_power(13.0, 41.0, chan) is None


def _exact_observation(timeline, n, slot_s, pl_db):
    """Noiseless sensor view at a fixed range: beacons at their true times,
    three in-slot samples per bit."""
    beacons = list(timeline.beacons)
    ts = [b.t_s + (k + f) * slot_s
          for b in timeline.beacons
          for k in range(n)
          for f in (0.25, 0.5, 0.75)]
    return beacons, Samples(ts, [timeline.levels_at(t) - pl_db for t in ts])


@criterion(7, "extracted interval counts unchanged when the time unit scales x0.5/2/10")
def test_criterion_07():
    rng = np.random.default_rng(707)
    tx = TxPowerLevels()
    for _ in range(100):
        L = int(rng.integers(2, 6))
        p = random_pattern(rng, 3, L, DEFAULT_BAND, max_tu=16)
        true_intervals = [t.interval_tu for t in p.triplets]
        extracted = {}
        for k in (1.0, 0.5, 2.0, 10.0):
            slot = SlotConfig(slot_s=0.2 * k, tu_s=1.0 * k, guard_s=0.05 * k)
            cfg = SensorConfig(f_s=16.0 / k, n=3)
            tl = compile_schedule(p, slot, tx, nonce_prefix=f"k{k}")
            beacons, samples = _exact_observation(tl, 3, slot.slot_s, pl_db=73.0)
            trips = extract_triplets(beacons, samples, cfg, slot.slot_s)
            extracted[k] = [t.interval_tu for t in trips]
        assert extracted[1.0] == true_intervals
        for k in (0.5, 2.0, 10.0):
            assert extracted[k] == extracted[1.0]


@criterion(8, "replayed credentials rejected as replay in 100/100 trials")
def test_criterion_08():
    cfg = replace(build_fig3("a"), actor=Replay("fig3"), trials=100, seed=808)
    report = run_scenario(cfg)
    assert len(report.trials) == 100
    assert all(t.result.verdict == "rejected" for t in report.trials)
    assert {t.result.reason.code for t in report.trials} == {"replay"}
    assert report.metrics.far == 0.0


@criterion(9, "noisy flyover FRR within +0.005 of the golden baseline and <= 0.01")
def test_criterion_09():
    cfg = build_flyover(trials=10_000)
    sha = config_sha256(cfg)
    frr = run_scenario(cfg).metrics.frr
    golden = GOLDEN / "flyover_frr.json"
    if not golden.exists():
        GOLDEN.mkdir(exist_ok=True)
        golden.write_text(json.dumps(
            {"config_sha256": sha, "frr": frr, "trials": cfg.trials},
            indent=2) + "\n", encoding="utf-8")
    base = json.loads(golden.read_text(encoding="utf-8"))
    assert base["config_sha256"] == sha, \
        "flyover config changed; delete tests/golden/flyover_frr.json to rebaseline"
    assert base["trials"] == cfg.trials
    assert frr <= base["frr"] + 0.005, \
        f"FRR {frr:.4f} regressed past baseline {base['frr']:.4f} + 0.005"
    assert frr <= 0.01, f"FRR {frr:.4f} above the 0.01 target"


@criterion(10, "two identical run invocations produce byte-identical reports")
def test_criterion_10(tmp_path):
    cfg = build_flyover(trials=200)
    scn = tmp_path / "pass.scn"
    scn.write_text(dump_scenario(cfg), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "BEACONVEIL_SEED"}
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "beaconveil", "run", str(scn),
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for fname in ("report.json", "trials.csv"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
