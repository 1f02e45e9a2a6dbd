"""Engine behavior: determinism, actors, metrics, sweeps."""

import dataclasses
import itertools
import math
import pickle
import re
import time
import tracemalloc
from collections import Counter
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import beaconveil.sim
from beaconveil import (ACCEPTED, REJECTED, TIMED_OUT, AuthResult, BandPlan,
                        Beacon, BruteForce, ChannelParams, ConfigError,
                        EmissionTimeline, FlipTxBit, Legit, Mitm, Mutant,
                        Proto, RejectReason, Replay, Samples, SecretPattern,
                        SensorConfig, SensorNode, SensorSession, SlotConfig,
                        SlotFitError, Trajectory, TrialResult, Triplet,
                        TxPattern, TxPowerLevels, UndecodableWindow, WrongChannel,
                        WrongInterval, authenticate, build_fig3,
                        build_flyover, build_proto, candidate_from_index,
                        compile_schedule, compute_metrics, distance_at,
                        dump_scenario, eavesdrop, extract_triplets,
                        loads_scenario, match_step, new_matcher,
                        observe_emission, parse_pattern, path_loss,
                        pattern_space_size, quantize_interval,
                        random_candidate, render_report_json,
                        render_trials_csv, run_scenario, run_trial, sweep,
                        validate_scenario, wilson)
from beaconveil.sensor import ExtractionError
from beaconveil.emitter import _candidate_digits
from beaconveil.sim import _Lanes, _pcg64_seeds, _trial_draws

from scenario_builders import build_desk, build_desk_multi
from test_sensor import median_decode


class InlinePool:
    """A fake ProcessPoolExecutor: it runs each submitted block inline, and
    records the size it was asked for, each submitted function and (lo,
    hi), and each shutdown's cancel_futures, in the lists inline_pool
    gives each of its copies."""

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, cfg, lo, hi):
        self.submitted.append((fn, cfg, lo, hi))
        fut = Future()
        fut.set_result(fn(cfg, lo, hi))
        return fut

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.cancels.append(cancel_futures)


def inline_pool(monkeypatch):
    """Put a fresh InlinePool class in the engine's place; returns it."""
    pool = type("InlinePool", (InlinePool,), {"sizes": [], "submitted": [], "cancels": []})
    monkeypatch.setattr(beaconveil.sim, "ProcessPoolExecutor", pool)
    return pool


def usable_cpus(monkeypatch, usable, machine=None):
    """Make the process see usable CPUs of its own, on a machine of
    machine (default: usable) CPUs."""
    monkeypatch.setattr(beaconveil.sim.os, "cpu_count",
                        lambda: usable if machine is None else machine)
    monkeypatch.setattr(beaconveil.sim.os, "sched_getaffinity",
                        lambda pid: set(range(usable)), raising=False)


def verdicts(report):
    return [(t.trial, t.result.verdict, t.result.duration_s) for t in report.trials]


def report_bytes(cfg, workers=1):
    report = run_scenario(cfg, workers=workers)
    return render_report_json(report, cfg) + render_trials_csv(report)


class TestDeterminism:
    def test_identical_reruns(self):
        cfg = build_flyover(40)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert verdicts(a) == verdicts(b)
        assert a.metrics == b.metrics

    def test_trial_reproducible_in_isolation(self):
        cfg = build_flyover(40)
        full = run_scenario(cfg)
        alone = run_trial(cfg, 17)
        assert alone == full.trials[17]

    def test_worker_count_invariance(self):
        cfg = build_flyover(60)
        serial = run_scenario(cfg, workers=1)
        parallel = run_scenario(cfg, workers=3)
        assert verdicts(serial) == verdicts(parallel)
        assert serial.metrics == parallel.metrics

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # A pool forks all its processes on the first submit, so --threads
        # beyond the CPUs this process may use must not reach it, and the
        # calling process, which runs a block too, counts as one of them.
        pool = inline_pool(monkeypatch)
        cfg = build_desk(BruteForce(2, 2), 40)
        serial = run_scenario(cfg)
        for machine, usable in [(2, 2), (None, 2), (2, 1), (8, 3)]:
            pool.sizes.clear()
            usable_cpus(monkeypatch, usable, machine)
            assert run_scenario(cfg, workers=4096) == serial
            # With the calling process, one process per usable CPU.
            assert pool.sizes == ([] if usable == 1 else [usable - 1])
        # Where the platform cannot say, the machine's count is all there is.
        monkeypatch.delattr(beaconveil.sim.os, "sched_getaffinity", raising=False)
        for machine, usable in [(None, 1), (2, 2)]:
            pool.sizes.clear()
            monkeypatch.setattr(beaconveil.sim.os, "cpu_count", lambda: machine)
            assert run_scenario(cfg, workers=4096) == serial
            assert pool.sizes == ([] if usable == 1 else [usable - 1])

    def test_seed_changes_outcome_stream(self):
        cfg = build_desk(BruteForce(2, 2), 64, seed=1)
        other = dataclasses.replace(cfg, seed=2)
        assert verdicts(run_scenario(cfg)) != verdicts(run_scenario(other))


class TestBlockFanOut:
    """How _run_rows shares a run's blocks between the calling process and
    a pool of workers - 1 processes, and what a worker's block ships."""

    def calls_to_run_block(self, monkeypatch):
        # Every block run, by the pool or the calling process: the pool
        # must submit _run_block as the module names it, so it gets this.
        calls = []
        real = beaconveil.sim._run_block

        def recording(cfg, lo, hi):
            calls.append((cfg, lo, hi))
            return real(cfg, lo, hi)

        monkeypatch.setattr(beaconveil.sim, "_run_block", recording)
        return calls, recording

    @pytest.mark.parametrize("workers, firsts, rest", [
        (2, [(0, 20)], [(20, 40)]),
        (3, [(0, 14)], [(14, 28), (28, 40)]),
    ])
    def test_parent_runs_first_block(self, monkeypatch, workers, firsts, rest):
        cfg = build_desk(BruteForce(2, 2), 40)
        serial = run_scenario(cfg)
        pool = inline_pool(monkeypatch)
        usable_cpus(monkeypatch, 4)
        calls, recording = self.calls_to_run_block(monkeypatch)
        assert run_scenario(cfg, workers=workers) == serial
        assert pool.sizes == [workers - 1]
        assert all(fn is recording for fn, *_ in pool.submitted)
        assert [(lo, hi) for _, _, lo, hi in pool.submitted] == rest
        # The inline pool runs each block as it is submitted, so the
        # calling process's own blocks are the calls after those.
        assert [(lo, hi) for _, lo, hi in calls[len(rest):]] == firsts

    def test_parent_runs_each_rows_first_block(self, monkeypatch):
        cfg = build_desk(BruteForce(2, 2), 30)
        values = [5.0, 20.0, 45.0]
        serial = sweep(cfg, "distance", values)
        pool = inline_pool(monkeypatch)
        usable_cpus(monkeypatch, 4)
        calls, _ = self.calls_to_run_block(monkeypatch)
        assert sweep(cfg, "distance", values, workers=4) == serial
        assert pool.sizes == [3]

        def blocks(runs):
            return [(c.trajectory.waypoints[0][1], lo, hi) for c, lo, hi in runs]

        rest = [(v, lo, min(lo + 8, 30)) for v in values for lo in (8, 16, 24)]
        assert blocks(run[1:] for run in pool.submitted) == rest
        assert blocks(calls[len(rest):]) == [(v, 0, 8) for v in values]

    def test_parent_block_raising_cancels_the_queued_blocks(self, monkeypatch):
        pool = inline_pool(monkeypatch)
        usable_cpus(monkeypatch, 2)
        real = beaconveil.sim._run_block

        def failing_first(cfg, lo, hi):
            if lo == 0:
                raise RuntimeError("first block")
            return real(cfg, lo, hi)

        monkeypatch.setattr(beaconveil.sim, "_run_block", failing_first)
        with pytest.raises(RuntimeError, match="first block"):
            run_scenario(build_desk(BruteForce(2, 2), 40), workers=2)
        assert pool.cancels == [True]

    @staticmethod
    def assert_block_is_its_trials(cfg, lo, hi, block):
        """block is trials lo to hi - 1 as a verdict table plus per-trial
        indices: distinct entries in the order of their first trial, and
        each trial's verdict, as the trial gets it run in order."""
        table, index = block
        assert index.dtype == np.uint32 and len(index) == hi - lo
        assert list(dict.fromkeys(index.tolist())) == list(range(len(table)))
        fresh = dataclasses.replace(cfg)
        assert [table[e] for e in index.tolist()] == [
            run_trial(fresh, i).result for i in range(lo, hi)]

    def test_block_ships_its_distinct_verdicts_once(self):
        cfg = build_desk(BruteForce(2, 2), 4000)
        block = beaconveil.sim._run_block(cfg, 2000, 4000)
        data = pickle.dumps(block)
        # 2000 TrialResults pickle to about 81 KB; the block's verdict table
        # and uint32 indices to about 13 KB.
        assert len(data) <= 20_000
        back = pickle.loads(data)
        self.assert_block_is_its_trials(cfg, 2000, 4000, back)
        assert back[0] == block[0] and back[1].tolist() == block[1].tolist()
        # One verdict for each of the 16 shapes' first sightings, and one for
        # each of the 32 distinct reads of the 64 candidates in their 3
        # phase cells, each read up to the window its verdict fell in.
        assert len({id(r) for r in block[0]}) == 16 + 32
        assert len({id(r) for r in back[0]}) == 16 + 32

    def test_flyover_block_ships_its_few_verdicts_once(self):
        cfg = build_flyover(1000)
        block = beaconveil.sim._run_block(cfg, 500, 1000)
        data = pickle.dumps(block)
        # Each of the 500 trials' verdicts was its own object before the
        # memo kept them by read: about 100 KB.
        assert len(data) <= 8_000
        back = pickle.loads(data)
        self.assert_block_is_its_trials(cfg, 500, 1000, back)
        assert back[0] == block[0] and back[1].tolist() == block[1].tolist()

    def test_real_pool_matches_serial(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        # Rows of fewer trials than workers: blocks of one trial each.
        rows = [dataclasses.replace(build_desk(BruteForce(2, 2), 2),
                                    trajectory=Trajectory(((0.0, d),)))
                for d in (5.0, 20.0, 45.0)]
        run_rows = beaconveil.sim._run_rows
        assert run_rows(rows, 3) == run_rows(rows, 1)
        # A row whose last block is short: 3, 3 and 1 trials.
        cfg = build_flyover(7)
        assert run_scenario(cfg, workers=3) == run_scenario(cfg)


class TestTrialGenerators:
    """A block's draws against default_rng([seed, i]), the stream the
    determinism contract names: a noisy trial's phase, and the generator it
    draws its normals from."""

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 7, 2**100 + 3])
    @pytest.mark.parametrize("lo, hi", [(0, 300), (2**32 - 5, 2**32 + 3),
                                        (2**64 - 2, 2**64 + 1)],
                             ids=["first-chunks", "index-crosses-2^32",
                                  "index-crosses-2^64"])
    def test_matches_default_rng(self, seed, lo, hi):
        cfg = dataclasses.replace(build_flyover(1), seed=seed)
        draws = _trial_draws(cfg, lo, hi)
        for i, (index, phase, rng) in zip(range(lo, hi), draws, strict=True):
            ref = np.random.default_rng([seed, i])
            assert index is None and phase == ref.uniform(0.0, 1.0 / cfg.sensor_cfg.f_s), i
            assert rng.bit_generator.state == ref.bit_generator.state, i
            # An odd count of 32-bit draws leaves half a word buffered,
            # which the next trial's generator must not inherit.
            draws = [(g.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
                      g.normal(size=2).tolist(), int(g.integers(0, 14)))
                     for g in (rng, ref)]
            assert draws[0] == draws[1], i
            assert rng.bit_generator.state == ref.bit_generator.state, i

    def test_negative_seed_refused_as_default_rng_refuses_it(self):
        with pytest.raises(ValueError):
            np.random.default_rng([-1, 0])
        with pytest.raises(ValueError):
            next(_trial_draws(dataclasses.replace(build_flyover(1), seed=-1), 0, 1))


# Bounds of numpy's bounded draw: none drawn, 32-bit Lemire (2^31 + 1
# rejects almost half its draws), the plain 32-bit half, and 64-bit Lemire
# (3 * 2^61 rejects a quarter).
DRAW_BOUNDS = [1, 2, 14, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**61, 2**63]


class TestBlockDrawDifferential:
    """A block's candidate digits, phase and the generator state after
    them, drawn as PCG64 lane arrays, against default_rng([seed, i]) trial
    by trial, the half-word cache included."""

    @given(seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 7]) | st.integers(0, 2**70),
           lo=st.sampled_from([0, 2**32 - 3, 2**64 - 3]) | st.integers(0, 2**66),
           count=st.integers(1, 300), n=st.integers(1, 3), L=st.integers(2, 4),
           channels=st.sampled_from(DRAW_BOUNDS), max_tu=st.sampled_from(DRAW_BOUNDS))
    @example(seed=0, lo=0, count=300, n=1, L=4, channels=2**31 + 1, max_tu=3 * 2**61)
    @example(seed=2**32, lo=2**32 - 3, count=6, n=2, L=3, channels=2**32, max_tu=2**32 - 1)
    @example(seed=2**64 + 7, lo=2**64 - 3, count=6, n=3, L=3, channels=2**32 + 1,
             max_tu=2**63)
    @example(seed=5, lo=250, count=20, n=2, L=2, channels=14, max_tu=1)
    @example(seed=9, lo=0, count=1, n=1, L=3, channels=1, max_tu=2**31 + 1)
    @settings(max_examples=40, deadline=None)
    def test_digits_phase_and_state_match_default_rng(self, seed, lo, count, n, L,
                                                      channels, max_tu):
        cfg = dataclasses.replace(
            build_desk(BruteForce(n, L), 1), seed=seed, max_tu=max_tu,
            band=BandPlan("wide", channels, 2412.0, 5.0),
            channel=ChannelParams(sigma_db=1.5))
        bounds = _candidate_digits(n, L, channels, max_tu)
        draws = _trial_draws(cfg, lo, lo + count)
        for i, (row, phase, rng) in zip(range(lo, lo + count), draws, strict=True):
            ref = np.random.default_rng([seed, i])
            assert list(row) == [int(ref.integers(0, b)) for b in bounds], i
            assert phase == ref.uniform(0.0, 1.0 / cfg.sensor_cfg.f_s), i
            assert rng.bit_generator.state == ref.bit_generator.state, i

    def test_lanes_that_reject_at_different_draws(self):
        # Across 256 lanes some reject a 32-bit draw and some do not, so
        # their caches part; a 64-bit draw then leaves each cache alone.
        lanes = _Lanes(*_pcg64_seeds(3, 0, 256))
        first = lanes.integers(2**31 + 1).tolist()
        assert 0 < lanes.has.sum() < 256
        wide = lanes.integers(3 * 2**61).tolist()
        second = lanes.integers(14).tolist()
        units = lanes.doubles().tolist()
        for i, state in enumerate(lanes.states()):
            ref = np.random.default_rng([3, i])
            assert [int(ref.integers(0, b)) for b in (2**31 + 1, 3 * 2**61, 14)] == [
                first[i], wide[i], second[i]], i
            assert units[i] == ref.random(), i
            assert state == ref.bit_generator.state, i

    def test_noiseless_single_session_trials_get_no_generator(self):
        desk = build_desk(BruteForce(2, 2), 1)
        assert {rng for _, _, rng in _trial_draws(desk, 0, 300)} == {None}
        replay = build_desk(Replay("desk"), 1)
        assert None not in {rng for _, _, rng in _trial_draws(replay, 0, 300)}


class TestSeedLimbDifferential:
    """_pcg64_seeds' (state, inc) limbs against numpy's PCG64 seeded by
    SeedSequence([seed, i]), lane by lane."""

    # Index ranges in which a higher 32-bit word of i carries inside one
    # chunk: word 1 at 2^33, word 1 at 5 * 2^32, and word 1 at 2^64 + 2^32
    # where i has three words.
    CARRIES = [range(2**33 - 3, 2**33 + 4), range(5 * 2**32 - 3, 5 * 2**32 + 4),
               range(2**64 + 2**32 - 2, 2**64 + 2**32 + 3)]

    # 2^100 + 3 has four words, so with i's words the entropy runs past the
    # four-word pool (SeedSequence's entropy[4:] mixing).
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 7, 2**100 + 3])
    @pytest.mark.parametrize("trials", [range(0, 5), *CARRIES],
                             ids=["start", "2^33", "5*2^32", "2^64+2^32"])
    def test_limbs_match_seed_sequence(self, seed, trials):
        limbs = zip(*(a.tolist() for a in _pcg64_seeds(seed, trials[0], trials[-1] + 1)))
        for i, (s_hi, s_lo, inc_hi, inc_lo) in zip(trials, limbs, strict=True):
            ref = np.random.PCG64(np.random.SeedSequence([seed, i])).state["state"]
            assert (s_hi << 64 | s_lo, inc_hi << 64 | inc_lo) == (
                ref["state"], ref["inc"]), i


MEMOS = ("candidates", "layouts", "cells", "timelines", "verdicts")


def assert_memos_within(cfg, cap):
    """Every table of cfg's memo holds at most cap entries, and the memo
    does not pickle."""
    assert all(len(getattr(cfg._memo, name)) <= cap for name in MEMOS)
    assert "_memo" not in vars(pickle.loads(pickle.dumps(cfg)))


def kept_cells(cfg):
    """The observations kept in cfg's memo, one for each timeline and phase
    cell a trial of that timeline landed in without shadowing at a fixed
    range."""
    return [kept for _, by_start in cfg._memo.timelines.values()
            for _, own in by_start.values() for kept in own
            if isinstance(kept, beaconveil.sim._Kept)]


def kept_heard(cfg):
    """The heard-beacon records kept in cfg's memo under shadowing or along
    a moving trajectory, one for each timeline, phase cell and set of heard
    beacons a trial of that timeline landed there with."""
    return [got for _, by_start in cfg._memo.timelines.values()
            for _, own in by_start.values() for heard in own
            if isinstance(heard, dict) for got in heard.values()]


def kept_verdicts(cfg):
    """The single-session verdicts that cfg's kept observations hold."""
    return [kept.verdict for kept in kept_cells(cfg) if kept.verdict is not None]


class TestBlockState:
    """The candidate memo and the seeding chunks carry state from trial to
    trial within a block; no trial's outcome may depend on it."""

    @pytest.mark.parametrize("cfg", [
        build_desk(BruteForce(2, 2), beaconveil.sim._SEED_CHUNK + 2),
        build_desk(Replay("desk"), 300),
        dataclasses.replace(build_proto(), trials=300),
        build_flyover(beaconveil.sim._SEED_CHUNK + 2),
    ], ids=["bruteforce", "replay", "proto", "flyover"])
    def test_trial_alone_equals_trial_in_block(self, cfg):
        # The trials on both sides of the first seeding chunk's seam, where
        # the block's cases reach it.
        report = run_scenario(cfg)
        chunk = beaconveil.sim._SEED_CHUNK
        for i in (0, chunk - 1, chunk, chunk + 1, cfg.trials - 1):
            if i < cfg.trials:
                fresh = dataclasses.replace(cfg)
                assert run_trial(fresh, i) == report.trials[i], i

    def test_workers_agree_on_an_odd_bruteforce_run(self):
        cfg = build_desk(BruteForce(2, 2), 777)
        assert report_bytes(cfg, workers=2) == report_bytes(cfg, workers=1)

    def test_emptied_memo_gives_the_same_report(self, monkeypatch):
        cfg = build_desk(BruteForce(2, 2), 500)
        kept = report_bytes(cfg)
        assert len(cfg._memo.candidates) > 2
        # At a cap of 1 or 2 a shape's first-sighting mark is gone by its
        # second sighting, so no cell forms; at 40 the timelines table of the
        # 64 candidates is emptied with kept verdicts in it.
        for cap in (1, 2, 40):
            monkeypatch.setattr(beaconveil.sim, "_MEMO_CAP", cap)
            fresh = dataclasses.replace(cfg)
            assert report_bytes(fresh) == kept
            assert_memos_within(fresh, cap)
            assert 1 <= len(fresh._memo.candidates)
        assert len(fresh._memo.timelines) < 64 and kept_verdicts(fresh)


class TestActors:
    def test_legit_noiseless_always_accepts(self):
        m = run_scenario(build_desk(Legit("desk"), 200)).metrics
        assert m.frr == 0.0
        assert m.far is None
        assert m.per_reason_counts == {"accepted": 200}

    def test_mutant_channel(self):
        m = run_scenario(build_desk(Mutant("desk", WrongChannel(1, 1)), 20)).metrics
        assert m.far == 0.0
        assert m.frr is None
        assert m.per_reason_counts == {"channel@1": 20}

    def test_mutant_txpower_on_wide_pattern(self):
        cfg = build_fig3("b")
        cfg = dataclasses.replace(cfg, trials=10)
        m = run_scenario(cfg).metrics
        assert m.per_reason_counts == {"txpower@1": 10}

    def test_mutant_second_interval_rescales_time_unit(self):
        # stretching the TU-defining interval is invisible by construction:
        # the sensor measures the unit from that very interval
        m = run_scenario(build_desk(Mutant("desk", WrongInterval(1, 2)), 10)).metrics
        assert m.per_reason_counts == {"accepted": 10}
        assert m.far == 1.0

    def test_replay_always_rejected(self):
        m = run_scenario(build_desk(Replay("desk"), 25)).metrics
        assert m.far == 0.0
        assert m.per_reason_counts == {"replay": 25}

    def test_mitm_detected_by_round_trip(self):
        cfg = build_desk(Mitm("desk", 0.2), 10, app_secret="s3cr3t")
        m = run_scenario(cfg).metrics
        assert m.per_reason_counts == {"mitm-delay": 10}

    def test_mitm_with_negligible_delay_passes(self):
        # a relay adding no measurable delay is indistinguishable on purpose
        cfg = build_desk(Mitm("desk", 0.0), 10, app_secret="s3cr3t")
        m = run_scenario(cfg).metrics
        assert m.per_reason_counts == {"accepted": 10}

    def test_mutant_fails_app_stage_even_if_phy_accepts(self):
        cfg = build_desk(Mutant("desk", WrongInterval(1, 2)), 6, app_secret="s3cr3t")
        m = run_scenario(cfg).metrics
        assert m.per_reason_counts == {"app-secret": 6}

    def test_proto_interleaves_two_credentials(self):
        rep = run_scenario(build_proto())
        assert [t.result.pattern_id for t in rep.trials] == ["pi1", "pi2"]
        assert all(t.result.verdict == ACCEPTED for t in rep.trials)
        assert all(t.label == "legit" for t in rep.trials)

    def test_bruteforce_labelled_adversary(self):
        rep = run_scenario(build_desk(BruteForce(2, 2), 4))
        assert all(t.actor == "bruteforce" for t in rep.trials)
        assert all(t.label == "adversary" for t in rep.trials)


    def test_lockout_does_not_carry_across_trials(self):
        # Each trial runs on a fresh SensorNode, so a brute-force FAR is a
        # per-attempt rate however long a reject locks the node.
        def outcomes(lockout_s):
            rep = run_scenario(build_desk(BruteForce(2, 2), 500, lockout_s=lockout_s))
            return [(t.result.verdict, t.result.reason, t.result.duration_s)
                    for t in rep.trials]

        free = outcomes(0.0)
        assert {v for v, _, _ in free} == {ACCEPTED, REJECTED}
        assert outcomes(1e6) == free

    def test_offline_default_watchdog_is_the_simulators(self):
        # Beacons 10 TU apart outlast 8 TU. authenticate, given the
        # scenario's own sensor_cfg with no watchdog, waits as long as a
        # simulated session does, and on the same draws reaches its verdict.
        p = parse_pattern("010@1:- 101@6:1 010@6:10 101@11:2", "long")
        cfg = dataclasses.replace(build_fig3("a"), store=(p,), actor=Legit("long"))
        scfg = cfg.sensor_cfg
        assert scfg.watchdog_s is None
        beacons, samples = observe_emission(
            compile_schedule(p, cfg.slot_cfg, cfg.tx_levels), cfg.trajectory,
            cfg.channel, cfg.tx_levels, scfg, cfg.slot_cfg,
            np.random.default_rng([cfg.seed, 0]))
        res = authenticate(beacons, samples, cfg.store, scfg, cfg.slot_cfg,
                           app_message=scfg.app_secret, rtt_s=0.0)
        assert res.verdict == ACCEPTED and res.transcript == p.triplets
        assert res == run_trial(cfg, 0).result


class TestWilson:
    def test_frozen_values(self):
        lo, hi = wilson(0.5, 10)
        assert lo == pytest.approx(0.236593090512564, abs=1e-12)
        assert hi == pytest.approx(0.7634069094874361, abs=1e-12)
        lo0, hi0 = wilson(0.0, 100)
        assert lo0 == pytest.approx(0.0, abs=1e-12)
        assert hi0 == pytest.approx(0.03699349820698568, abs=1e-12)
        lo1, hi1 = wilson(1.0, 100)
        assert lo1 == pytest.approx(0.9630065017930143, abs=1e-12)
        assert hi1 == 1.0

    def test_matches_textbook_formula(self):
        z = 1.959963984540054
        for p, n in ((0.3, 50), (0.015625, 100000), (0.9, 12)):
            denom = 1.0 + z * z / n
            center = (p + z * z / (2 * n)) / denom
            half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
            lo, hi = wilson(p, n)
            assert lo == pytest.approx(max(0.0, center - half), abs=1e-12)
            assert hi == pytest.approx(min(1.0, center + half), abs=1e-12)

    def test_interval_is_clamped(self):
        lo, hi = wilson(0.0, 5)
        assert 0.0 <= lo <= hi <= 1.0

    def test_needs_a_trial(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            wilson(0.5, 0)


class TestMetrics:
    def test_counts_partition_trials(self):
        m = run_scenario(build_desk(BruteForce(2, 2), 400)).metrics
        assert sum(m.per_reason_counts.values()) == 400 == m.trials

    def test_no_adversaries_means_no_far(self):
        m = run_scenario(build_desk(Legit("desk"), 10)).metrics
        assert m.far is None and m.far_ci_95 is None
        assert m.frr == 0.0 and m.frr_ci_95 is not None

    def test_no_legit_means_no_frr(self):
        m = run_scenario(build_desk(BruteForce(2, 2), 10)).metrics
        assert m.frr is None and m.frr_ci_95 is None

    def test_mean_session_duration(self):
        rep = run_scenario(build_desk(Legit("desk"), 8))
        mean = sum(t.result.duration_s for t in rep.trials) / 8
        assert rep.metrics.mean_session_s == pytest.approx(mean)

    def test_to_dict_shape(self):
        d = run_scenario(build_desk(Legit("desk"), 4)).metrics.to_dict()
        assert d["trials"] == 4
        assert d["far"] is None
        assert isinstance(d["frr_ci_95"], list)
        assert d["per_reason_counts"] == {"accepted": 4}

    def test_empty_trials(self):
        m = compute_metrics([])
        assert m.trials == 0 and m.far is None and m.frr is None


class TestValidation:
    def test_fixtures_validate_clean(self):
        for cfg in (build_fig3("a"), build_fig3("d"), build_proto(),
                    build_flyover(5), build_desk(Legit("desk"), 1)):
            assert validate_scenario(cfg) == []

    def test_unknown_pattern_reference(self):
        cfg = build_desk(Legit("ghost"), 1)
        assert any("ghost" in p for p in validate_scenario(cfg))
        with pytest.raises(ValueError):
            run_scenario(cfg)

    def test_unschedulable_store(self):
        cfg = build_desk(Legit("desk"), 1)
        cfg = dataclasses.replace(cfg, slot_cfg=SlotConfig(slot_s=0.6, tu_s=1.0, guard_s=0.2))
        assert any("exceeds min interval" in p for p in validate_scenario(cfg))

    def test_every_pattern_that_does_not_fit_is_named(self):
        # 3 slots of 0.4 s plus the guard overrun the 1 s time unit; 2 do not.
        slot = SlotConfig(slot_s=0.4, tu_s=1.0, guard_s=0.05)
        desk = build_desk(Legit("desk"), 1)
        store = desk.store + tuple(parse_pattern(text, pid) for pid, text in (
            ("a3", "011@1:- 101@2:1 110@1:2"), ("b2", "10@2:- 01@1:1"),
            ("c3", "001@2:- 100@1:1")))
        cfg = dataclasses.replace(desk, store=store, slot_cfg=slot)
        expected = []
        for p in store[1::2]:
            with pytest.raises(SlotFitError) as e:
                slot.check_fit(p)
            expected.append(f"pattern {p.pattern_id!r}: {e.value}")
        assert validate_scenario(cfg) == expected

    def test_bruteforce_burst_that_does_not_fit(self):
        # 9 slots of 0.6 s plus the guard overrun fig3's 4 s time unit
        cfg = dataclasses.replace(build_fig3("a"), actor=BruteForce(9, 2))
        assert any("bruteforce burst does not fit" in p for p in validate_scenario(cfg))
        with pytest.raises(ValueError, match="invalid scenario"):
            run_scenario(cfg)
        assert validate_scenario(dataclasses.replace(cfg, actor=BruteForce(6, 2))) == []

    def test_bruteforce_n_above_max_bits_refused_before_a_candidate(self, monkeypatch):
        edge = dataclasses.replace(build_fig3("a"),
                                   actor=BruteForce(beaconveil.sim.MAX_BITS, 2))
        assert not any("MAX_BITS" in p for p in validate_scenario(edge))
        # Building a candidate is linear in n; no stored pattern has more
        # than MAX_BITS bits, so a larger n is refused at construction,
        # from Python or from a file, without one.
        built = []
        monkeypatch.setattr(beaconveil.sim, "_raw_candidate",
                            lambda *args: built.append(args))
        with pytest.raises(ValueError, match=r"MAX_BITS \(64\), got 1000000"):
            BruteForce(10**6, 2)
        text = dump_scenario(build_fig3("a")).replace(
            "kind = legit\npattern_id = fig3\n", "kind = bruteforce\nn = 1000000\nL = 2\n")
        with pytest.raises(ConfigError, match=r"^\[actor\] .*got 1000000"):
            loads_scenario(text)
        assert built == []

    def test_proto_pattern_b_that_does_not_fit_tu_b_s(self):
        cfg = dataclasses.replace(build_proto(), actor=Proto("pi1", "pi2", 0.5))
        assert any("proto emission does not compile" in p for p in validate_scenario(cfg))
        with pytest.raises(ValueError, match="invalid scenario"):
            run_scenario(cfg)

    def test_undersampling_flagged(self):
        cfg = build_desk(Legit("desk"), 1, f_s=4.0)
        assert any("undersample" in p for p in validate_scenario(cfg))

    def test_impossible_mutation_flagged(self):
        cfg = build_desk(Mutant("desk", FlipTxBit(0, 0)), 1)  # 01 -> 11
        assert any("mutation" in p for p in validate_scenario(cfg))

    def test_duplicate_pattern_id_reported(self):
        cfg = build_desk(Legit("desk"), 1)
        cfg = dataclasses.replace(cfg, store=cfg.store * 2)
        assert any("duplicate pattern_id 'desk'" in p for p in validate_scenario(cfg))
        with pytest.raises(ValueError):
            run_scenario(cfg)

    @pytest.mark.parametrize("ctor, kwargs", [
        (BandPlan, dict(name="b", channel_count=2, base_freq=math.nan, spacing=5.0)),
        (BandPlan, dict(name="b", channel_count=2, base_freq=2412.0, spacing=math.inf)),
        (ChannelParams, dict(sigma_db=math.nan)),
        (ChannelParams, dict(pl0_db=math.inf)),
        (ChannelParams, dict(d0=math.inf)),
        (ChannelParams, dict(gamma=math.nan)),
        (ChannelParams, dict(noise_floor_dbm=-math.inf)),
        (TxPowerLevels, dict(high_dbm=math.inf)),
        (TxPowerLevels, dict(low_dbm=math.nan)),
        (SlotConfig, dict(slot_s=math.nan)),
        (SlotConfig, dict(tu_s=math.inf)),
        (SlotConfig, dict(guard_s=math.nan)),
        (SensorConfig, dict(f_s=math.nan)),
        (SensorConfig, dict(f_s=math.inf)),
        (SensorConfig, dict(delta_db=math.nan)),
        (SensorConfig, dict(rtt_limit_s=math.nan)),
        (SensorConfig, dict(lockout_s=math.inf)),
        (SensorConfig, dict(watchdog_s=math.nan)),
        (Trajectory, dict(waypoints=((0.0, math.nan),))),
        (Trajectory, dict(waypoints=((math.nan, 5.0),))),
        (Trajectory, dict(waypoints=((0.0, 5.0), (math.inf, 6.0)))),
        (Mitm, dict(pattern_id="desk", extra_delay_s=math.nan)),
        (Mitm, dict(pattern_id="desk", extra_delay_s=math.inf)),
        (Proto, dict(pattern_a="a", pattern_b="b", tu_b_s=math.nan)),
        (Proto, dict(pattern_a="a", pattern_b="b", tu_b_s=math.inf)),
    ], ids=lambda v: v.__name__ if isinstance(v, type)
        else ",".join(f"{k}={x}" for k, x in v.items() if k != "name"))
    def test_non_finite_config_value_refused(self, ctor, kwargs):
        # Configs built in Python, not read from a file: a nan compares
        # False against every range check, so each one used to slip through.
        with pytest.raises(ValueError, match="must be finite"):
            ctor(**kwargs)

    @pytest.mark.parametrize("ctor, kwargs, message", [
        (BandPlan, dict(name="b", channel_count=0, base_freq=2412.0, spacing=5.0),
         "channel_count must be >= 1"),
        (BandPlan, dict(name="b", channel_count=2, base_freq=2412.0, spacing=0.0),
         "spacing must be > 0"),
        (ChannelParams, dict(d0=0.0), "d0 must be > 0"),
        (ChannelParams, dict(gamma=0.0), "gamma must be > 0"),
        (SlotConfig, dict(slot_s=0.0), "slot_s and tu_s must be > 0"),
    ], ids=["channel_count", "spacing", "d0", "gamma", "slot_s"])
    def test_zero_config_value_refused(self, ctor, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ctor(**kwargs)

    def test_actor_range_checks_catch_nan(self):
        # An actor checks its values when built, as every other config class
        # does: out of range or nan, it is refused there.
        for build, bad, problem in (
                (lambda v: Mitm("desk", v), (-0.1, math.nan), "extra_delay_s must be"),
                (lambda v: Proto("desk", "desk", v), (0.0, math.nan), "tu_b_s must be")):
            for value in bad:
                with pytest.raises(ValueError, match=problem):
                    build(value)

    def test_checked_once_per_config(self, monkeypatch):
        checked = []
        real = beaconveil.sim.validate_pattern

        def counting(p, *args):
            checked.append(p.pattern_id)
            return real(p, *args)

        monkeypatch.setattr(beaconveil.sim, "validate_pattern", counting)
        cfg = build_desk_multi(1)
        ids = sorted(p.pattern_id for p in cfg.store)
        assert validate_scenario(cfg) == [] and sorted(checked) == ids
        assert validate_scenario(cfg) == [] and sorted(checked) == ids
        run_scenario(cfg)
        assert sorted(checked) == ids
        # A replaced config is checked again, but its store's patterns only
        # when the store, band, max_tu or slot_cfg differs.
        assert validate_scenario(dataclasses.replace(cfg, trials=0)) \
            == ["trials must be >= 1, got 0"]
        validate_scenario(dataclasses.replace(cfg, seed=7))
        validate_scenario(dataclasses.replace(cfg, trajectory=Trajectory(((0.0, 9.0),))))
        assert sorted(checked) == ids
        rounds = 1
        for again in (dataclasses.replace(cfg, max_tu=12),
                      dataclasses.replace(cfg, slot_cfg=SlotConfig(guard_s=0.3)),
                      dataclasses.replace(cfg, band=BandPlan("b", 20, 2412.0, 5.0)),
                      dataclasses.replace(cfg, store=tuple(cfg.store))):
            validate_scenario(again)
            rounds += 1
            assert sorted(checked) == sorted(ids * rounds)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_store_checks_kept_per_band_max_tu_and_slot(self, data):
        # A store of the desk_multi kind, sometimes with invalid patterns, a
        # duplicate id or a burst that does not fit, validated under a run of
        # settings with repeats; each must read as on a fresh store. 3 and
        # 3.0, 0.0 and -0.0 are equal but print differently in messages.
        base = build_desk_multi(1)
        extras = []
        for _ in range(data.draw(st.integers(0, 4))):
            n = data.draw(st.integers(2, 5))
            triplets = []
            for i in range(data.draw(st.integers(1, 4))):
                # One triplet in six may take another bit count.
                width = n if data.draw(st.integers(0, 5)) else data.draw(st.integers(2, 5))
                bits = data.draw(st.text("01", min_size=width, max_size=width))
                iv = None if i == 0 else 1 if i == 1 else data.draw(st.integers(1, 4))
                triplets.append(Triplet(TxPattern(bits), data.draw(st.integers(1, 4)), iv))
            pid = data.draw(st.sampled_from(["desk", "c01", "x", "y"]))
            extras.append(SecretPattern(pid, tuple(triplets)))
        store = data.draw(st.permutations(
            base.store[:data.draw(st.integers(0, len(base.store)))] + tuple(extras)))
        cfg = dataclasses.replace(base, store=tuple(store))
        setting = st.tuples(
            st.sampled_from([2, 4]), st.sampled_from([2, 3, 3.0]),
            st.sampled_from([base.slot_cfg, SlotConfig(0.25, 1.0, 0.3),
                             SlotConfig(0.25, 1.0, 0.0), SlotConfig(0.25, 1.0, -0.0)]))
        runs = data.draw(st.lists(setting, min_size=1, max_size=5))
        runs.append(data.draw(st.sampled_from(runs)))
        for channel_count, max_tu, slot_cfg in runs:
            row = dataclasses.replace(
                cfg, band=BandPlan("b", channel_count, 2412.0, 5.0),
                max_tu=max_tu, slot_cfg=slot_cfg)
            assert validate_scenario(row) \
                == validate_scenario(dataclasses.replace(row, store=tuple(row.store)))

    @pytest.mark.parametrize("n", [2, 4])
    def test_sensor_that_cannot_read_the_store(self, n):
        # Every trial would be rejected at the first window: fig3 is 3-bit.
        cfg = build_fig3("a")
        cfg = dataclasses.replace(
            cfg, sensor_cfg=dataclasses.replace(cfg.sensor_cfg, n=n))
        assert validate_scenario(cfg) \
            == [f"store holds 3-bit patterns, the sensor reads n = {n}"]

    def test_each_unreadable_bit_count_is_named_once(self):
        desk = build_desk(Legit("desk"), 1, n=4)
        store = desk.store + (parse_pattern("011@1:- 101@2:1", "t1"),
                              parse_pattern("110@2:- 011@1:1", "t2"))
        assert validate_scenario(dataclasses.replace(desk, store=store)) == [
            "store holds 2-bit patterns, the sensor reads n = 4",
            "store holds 3-bit patterns, the sensor reads n = 4"]

    def test_returned_problems_are_the_callers(self):
        cfg = dataclasses.replace(build_desk(Legit("ghost"), 1), trials=0)
        problems = validate_scenario(cfg)
        expected = list(problems)
        problems.clear()
        assert validate_scenario(cfg) == expected != []

    def test_bad_trials_and_seed(self):
        cfg = dataclasses.replace(build_desk(Legit("desk"), 1), trials=0, seed=-1)
        problems = validate_scenario(cfg)
        assert any("trials" in p for p in problems)
        assert any("seed" in p for p in problems)

    def test_max_tu_below_one(self):
        cfg = dataclasses.replace(build_desk(Legit("desk"), 1), max_tu=0)
        assert "max_tu must be >= 1, got 0" in validate_scenario(cfg)

    @pytest.mark.parametrize("max_tu", [10**400, 10**308], ids=["10^400", "10^308"])
    def test_default_watchdog_past_float_range(self, max_tu):
        # The unset watchdog, max(8, max_tu + 2) * tu_s, overflows a float at
        # 10^400 and comes out infinite at 10^308; either used to validate
        # clean and then fail the run.
        cfg = dataclasses.replace(build_fig3("a"), max_tu=max_tu)
        problems = validate_scenario(cfg)
        assert len(problems) == 1
        assert "[run] max_tu" in problems[0] and "watchdog" in problems[0]
        with pytest.raises(ConfigError, match="default watchdog"):
            run_scenario(cfg)
        # A set watchdog leaves nothing to compute.
        timed = dataclasses.replace(cfg, sensor_cfg=dataclasses.replace(
            cfg.sensor_cfg, watchdog_s=72.0))
        assert validate_scenario(timed) == []
        assert run_scenario(timed).metrics.frr == 0.0

    # numpy draws a brute-force digit below a bound of at most 2^63, and a
    # sensor tick is an exact float64 below 2^53. A config just inside a
    # bound runs; one at the next value is refused before any trial.

    @pytest.mark.parametrize("count", [2**63, 2**63 + 1, 2**70])
    def test_bruteforce_channel_count_bound(self, count):
        cfg = dataclasses.replace(build_desk(BruteForce(2, 2), 3),
                                  band=BandPlan("wide", count, 2412.0, 5.0))
        problems = validate_scenario(cfg)
        if count <= 2**63:
            assert problems == []
            assert run_scenario(cfg).metrics.trials == 3
        else:
            assert problems == [
                "bruteforce draws a channel below [band] channel_count, "
                f"which must be <= 2^63, got {count}"]
            with pytest.raises(ConfigError, match="channel_count"):
                run_scenario(cfg)

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("max_tu", [2**63, 2**63 + 1])
    def test_bruteforce_max_tu_bound(self, L, max_tu):
        # Intervals are drawn from the third triplet on. An interval that
        # long also ends the emission past the tick grid.
        cfg = dataclasses.replace(build_desk(BruteForce(2, L), 3), max_tu=max_tu)
        problems = validate_scenario(cfg)
        named = [p for p in problems if "[run] max_tu" in p]
        assert named == ([] if L == 2 or max_tu == 2**63 else [
            "bruteforce draws an interval below [run] max_tu, which must be "
            f"<= 2^63 at L >= 3, got {max_tu}"])
        assert any("sensor tick 2^53" in p for p in problems) == (L == 3)
        if L == 2:
            assert problems == []
            assert run_scenario(cfg).metrics.trials == 3

    @pytest.mark.parametrize("max_tu, refused", [(2**49 - 2, False), (2**49, True)])
    def test_longest_bruteforce_candidate_on_the_tick_grid(self, max_tu, refused):
        # desk: 16 ticks per 1 s time unit; the longest BruteForce(2, 3)
        # candidate lasts (1 + max_tu) TU plus a 0.55 s burst and guard.
        cfg = dataclasses.replace(build_desk(BruteForce(2, 3), 3), max_tu=max_tu)
        problems = validate_scenario(cfg)
        if refused:
            assert problems == [
                "bruteforce emission can end at or past sensor tick 2^53 (f_s times "
                "its end time), where float64 no longer holds every tick"]
        else:
            assert problems == []
            assert run_scenario(cfg).metrics.trials == 3

    @pytest.mark.parametrize("actor", [Legit("long"), Replay("long")])
    @pytest.mark.parametrize("interval", [2**48 - 3, 2**48])
    def test_stored_emission_on_the_tick_grid(self, actor, interval):
        # Replay puts a second copy on air after the first, so it reaches
        # twice as far: at 2^48 TU only the replay runs past 2^53 ticks.
        desk = build_desk(actor, 2)
        long = parse_pattern(f"01@1:- 10@2:1 01@1:{interval}", "long")
        cfg = dataclasses.replace(desk, store=desk.store + (long,), max_tu=2**48)
        problems = validate_scenario(cfg)
        if isinstance(actor, Replay) and interval == 2**48:
            assert problems == [
                "replay emission can end at or past sensor tick 2^53 (f_s times "
                "its end time), where float64 no longer holds every tick"]
        else:
            assert problems == []
            assert run_scenario(cfg).metrics.trials == 2

    def test_interval_too_long_for_a_float_does_not_compile(self):
        desk = build_desk(Legit("long"), 1)
        long = parse_pattern(f"01@1:- 10@2:1 01@1:{10**400}", "long")
        # A set watchdog: the default one at this max_tu is a problem of its own.
        cfg = dataclasses.replace(desk, store=desk.store + (long,), max_tu=10**400,
                                  sensor_cfg=dataclasses.replace(desk.sensor_cfg,
                                                                 watchdog_s=10.0))
        assert validate_scenario(cfg) == [
            "legit emission does not compile: int too large to convert to float"]



FIG3A_ACTOR = "kind = legit\npattern_id = fig3\n"


class TestActorValues:
    @pytest.mark.parametrize("actor_cls, args, message", [
        (Mitm, ("fig3", -0.1), "mitm extra_delay_s must be >= 0"),
        (Mitm, ("fig3", math.nan), "extra_delay_s must be finite, got nan"),
        (Proto, ("fig3", "fig3", 0.0), "proto tu_b_s must be > 0"),
        (Proto, ("fig3", "fig3", math.nan), "tu_b_s must be finite, got nan"),
        (BruteForce, (0, 2), "bruteforce needs n >= 1 and L >= 2"),
        (BruteForce, (2, 1), "bruteforce needs n >= 1 and L >= 2"),
        (BruteForce, (65, 2), "bruteforce n must be <= MAX_BITS (64), got 65"),
    ], ids=["mitm-negative", "mitm-nan", "proto-zero", "proto-nan", "bruteforce-n0",
            "bruteforce-L1", "bruteforce-n65"])
    def test_refused_at_construction_and_load(self, actor_cls, args, message):
        with pytest.raises(ValueError) as e:
            actor_cls(*args)
        assert str(e.value) == message
        # The same values in a scenario file are refused by loads_scenario,
        # named by their section.
        lines = [f"kind = {beaconveil.sim._ACTOR_KIND[actor_cls]}"] + [
            f"{f.name} = {v}" for f, v in zip(dataclasses.fields(actor_cls), args)]
        text = dump_scenario(build_fig3("a"))
        assert FIG3A_ACTOR in text
        with pytest.raises(ConfigError) as e:
            loads_scenario(text.replace(FIG3A_ACTOR, "\n".join(lines) + "\n"))
        assert str(e.value) == "[actor] " + message

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_clean_config_runs_and_a_named_emission_does_not_compile(self, data):
        # validate compiles the actor's emission as the run does: a config
        # it passes runs, and one whose emission it names fails to compile.
        base = data.draw(st.sampled_from(
            [lambda: build_fig3("a"), lambda: build_desk(Legit("desk"), 1),
             build_proto]))()
        pid = st.sampled_from([p.pattern_id for p in base.store])
        index = st.integers(0, 4)
        mutation = (st.builds(FlipTxBit, index, index)
                    | st.builds(WrongChannel, index, st.integers(1, 4))
                    | st.builds(WrongInterval, index, st.integers(1, 4)))
        actor = data.draw(
            st.builds(Mutant, pid, mutation)
            | st.builds(Proto, pid, pid, st.floats(0.05, 6.0))
            | st.builds(BruteForce, st.integers(1, 12), st.integers(2, 4))
            | st.builds(Mitm, pid, st.floats(0.0, 2.0)))
        cfg = dataclasses.replace(base, actor=actor, trials=2)
        problems = validate_scenario(cfg)
        if not problems:
            assert {run_trial(cfg, i).trial for i in (0, 1)} == {0, 1}
        kind = beaconveil.sim.actor_kind(actor)
        if any(p.startswith(f"{kind} emission does not compile: ") for p in problems):
            with pytest.raises((ValueError, TypeError)):
                cfg._timelines


class TestPatternLookup:
    def _store(self, size):
        t = parse_pattern("01@1:- 10@2:1", "x").triplets
        return tuple(SecretPattern(f"s{k:05d}", t) for k in range(size))

    def test_actor_pattern_last_in_a_large_store(self):
        desk = build_desk(Legit("desk"), 3)
        cfg = dataclasses.replace(desk, store=self._store(10_000) + desk.store)
        t0 = time.perf_counter()
        for _ in range(1000):
            assert cfg.pattern("desk") is desk.store[0]
        # scanning the store for each lookup took about 0.5 s on a 2-core box
        assert time.perf_counter() - t0 < 0.1
        assert verdicts(run_scenario(cfg)) == verdicts(run_scenario(desk))
        with pytest.raises(KeyError):
            cfg.pattern("ghost")

    def test_pickles_only_its_fields(self):
        # The pickle goes with every worker submit; the lookup, the problems
        # and the matcher trie a run has grown stay in the process.
        cfg = build_desk_multi(4)
        fresh = pickle.dumps(cfg)
        run_scenario(cfg)
        assert len(pickle.dumps(cfg)) == len(fresh)
        assert pickle.loads(fresh) == cfg

    def test_first_of_duplicate_ids_wins(self):
        a, b = self._store(1)[0], parse_pattern("10@1:- 01@2:1", "s00000")
        cfg = dataclasses.replace(build_desk(Legit("desk"), 1), store=(a, b))
        assert cfg.pattern("s00000") is a


class TestCompiledStore:
    def test_replace_shares_the_compiled_store(self):
        cfg = build_desk_multi(4)
        run_scenario(cfg)
        root = cfg.store.compiled(new_matcher)
        index = cfg.store.compiled(beaconveil.sim._index_by_id)
        again = dataclasses.replace(cfg, seed=1)
        assert again.store.compiled(new_matcher) is root
        assert again.store.compiled(beaconveil.sim._index_by_id) is index
        other = dataclasses.replace(cfg, store=tuple(cfg.store))
        assert other.store == cfg.store
        assert other.store.compiled(new_matcher) is not root
        assert other.store.compiled(beaconveil.sim._index_by_id) is not index
        assert verdicts(run_scenario(other)) == verdicts(run_scenario(cfg))

    def test_pickles_only_its_fields_after_a_dump(self):
        cfg = build_desk_multi(4)
        fresh = pickle.dumps(cfg)
        dump_scenario(cfg)
        run_scenario(cfg)
        assert len(pickle.dumps(cfg)) == len(fresh)
        back = pickle.loads(fresh)
        assert back == cfg and type(back.store) is type(cfg.store)
        # The copy compiles its own forms.
        assert back.store.compiled(new_matcher) is not cfg.store.compiled(new_matcher)
        assert dump_scenario(back) == dump_scenario(cfg)

    def test_effective_sensor_once_per_config(self):
        cfg = build_desk(Legit("desk"), 1)
        eff = cfg._effective_sensor
        assert eff is cfg._effective_sensor
        assert eff.watchdog_s == max(8, cfg.max_tu + 2) * cfg.slot_cfg.tu_s
        wide = dataclasses.replace(cfg, max_tu=20)
        assert wide._effective_sensor.watchdog_s == 22 * cfg.slot_cfg.tu_s
        fixed = dataclasses.replace(
            cfg, sensor_cfg=dataclasses.replace(cfg.sensor_cfg, watchdog_s=3.0))
        assert fixed._effective_sensor is fixed.sensor_cfg


class TestCompiledTimeline:
    @pytest.mark.parametrize("cfg, compiles", [
        (build_fig3("a"), 1),
        (dataclasses.replace(build_fig3("a"), actor=Replay("fig3")), 1),
        (dataclasses.replace(build_fig3("a"), actor=Mitm("fig3", 0.5)), 1),
        (build_fig3("b"), 1),
        (build_proto(), 2),
        (build_desk(BruteForce(2, 2), 1), None),
    ], ids=["legit", "replay", "mitm", "mutant", "proto", "bruteforce"])
    def test_compiled_once_per_config(self, monkeypatch, cfg, compiles):
        if compiles is None:
            # BruteForce compiles each distinct candidate its trials draw.
            drawn = {random_candidate(np.random.default_rng([cfg.seed, i]), 2, 2,
                                      cfg.band.channel_count, cfg.max_tu).triplets
                     for i in range(50)}
            compiles = len(drawn)
            assert 1 < compiles < 50
        compiled = []
        real = beaconveil.sim.compile_schedule

        def counting(p, *args):
            compiled.append(p.pattern_id)
            return real(p, *args)

        monkeypatch.setattr(beaconveil.sim, "compile_schedule", counting)
        cfg = dataclasses.replace(cfg, trials=50)
        fresh = pickle.dumps(cfg)
        report = run_scenario(cfg)
        assert len(compiled) == compiles
        # The timelines stay in the process, as the store's forms do.
        assert len(pickle.dumps(cfg)) == len(fresh)
        assert verdicts(run_scenario(pickle.loads(fresh))) == verdicts(report)
        assert len(compiled) == 2 * compiles


class TestSweep:
    def test_distance_axis_degrades_monotonically(self):
        cfg = build_desk(Legit("desk"), 40)
        rows = sweep(cfg, "distance", [5.0, 20.0, 30.0, 45.0])
        frrs = [m.frr for _, m in rows]
        assert frrs[0] == 0.0
        assert frrs == sorted(frrs)
        assert frrs[-1] == 1.0

    def test_far_shrinks_with_n(self):
        cfg = build_desk(BruteForce(2, 2), 4000)
        rows = sweep(cfg, "n", [2.0, 3.0])
        far2 = rows[0][1].far
        far3 = rows[1][1].far
        assert far2 > far3 > 0.0

    @pytest.mark.parametrize("axis, values", [("distance", [3.0, 5.0, 8.0]),
                                              ("sigma_db", [0.0, 1.0, 2.0])])
    def test_rows_validate_a_shared_store_once(self, monkeypatch, axis, values):
        checked = []
        real = beaconveil.sim.validate_pattern

        def counting(p, *args):
            checked.append(p.pattern_id)
            return real(p, *args)

        monkeypatch.setattr(beaconveil.sim, "validate_pattern", counting)
        cfg = build_desk_multi(20)
        assert len(sweep(cfg, axis, values)) == 3
        assert sorted(checked) == sorted(p.pattern_id for p in cfg.store)

    def test_rows_run_on_one_pool(self, monkeypatch):
        cfg = build_desk(BruteForce(2, 2), 30)
        values = [5.0, 20.0, 45.0]
        serial = sweep(cfg, "distance", values)
        pool = inline_pool(monkeypatch)
        usable_cpus(monkeypatch, 2)
        assert sweep(cfg, "distance", values, workers=4096) == serial
        assert pool.sizes == [1]  # with the calling process, one per CPU

    def test_each_row_validated_once(self, monkeypatch):
        calls = []
        real = beaconveil.sim.validate_scenario

        def counting(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(beaconveil.sim, "validate_scenario", counting)
        rows = sweep(build_desk(Legit("desk"), 4), "distance", [5.0, 20.0, 45.0])
        assert len(rows) == 3
        assert len(calls) == 3

    def test_refusals_are_config_errors(self):
        cfg = build_desk(Legit("desk"), 4)
        with pytest.raises(ConfigError, match=r"^invalid sweep: distance = -5\.0: "):
            sweep(cfg, "distance", [5.0, -5.0])
        with pytest.raises(ConfigError, match="^invalid scenario: trials"):
            run_scenario(dataclasses.replace(cfg, trials=0))
        assert issubclass(ConfigError, ValueError)
        assert beaconveil.scenario.ConfigError is beaconveil.sim.ConfigError

    @pytest.mark.parametrize("axis", ["n", "L", "distance"])
    def test_negative_seed_named_by_every_row(self, axis):
        # Only the rows are validated, so a row that redraws its store from
        # the seed must name a negative one, as validation does.
        cfg = build_desk(Legit("desk"), 4, seed=-1)
        with pytest.raises(ConfigError, match=rf"^invalid sweep: {axis} = 3: "
                                              r"seed must be >= 0, got -1$"):
            sweep(cfg, axis, [3])

    def test_L_past_tick_2_53_refused_before_the_store_is_drawn(self, monkeypatch):
        # 2^50 ticks a time unit and intervals of 1 TU: an L-triplet emission
        # ends past tick (L - 1) * 2^50, so L = 9 reaches 2^53 and L = 8 is
        # one that validation accepts.
        cfg = dataclasses.replace(
            build_desk(Legit("desk"), 1, f_s=16.0), max_tu=1,
            slot_cfg=SlotConfig(slot_s=0.25, tu_s=2.0 ** 46, guard_s=0.05))
        assert validate_scenario(beaconveil.sim._apply_axis(cfg, "L", 8)) == []
        drawn = []

        def no_draw(*args, **kwargs):
            drawn.append(args)
            raise AssertionError("store drawn for an L that cannot be valid")

        monkeypatch.setattr(beaconveil.sim, "random_pattern", no_draw)
        started = time.perf_counter()
        for v in (9, 1e16):
            message = (rf"^invalid sweep: L = {re.escape(str(v))}: every L-triplet "
                       r"emission ends at or past sensor tick 2\^53 \(f_s times")
            with pytest.raises(ConfigError, match=message):
                sweep(cfg, "L", [v])
        assert drawn == [] and time.perf_counter() - started < 1.0

    def test_empty_values(self):
        assert sweep(build_desk(Legit("desk"), 1), "distance", []) == []

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(build_desk(Legit("desk"), 1), "altitude", [1.0])


class TestEavesdrop:
    def test_clean_observer_recovers_credential(self):
        fig3 = parse_pattern("010@1:- 101@6:1 010@6:2 101@11:2", "fig3")
        tl = compile_schedule(fig3, SlotConfig(), TxPowerLevels())
        assert eavesdrop(tl, SlotConfig(), TxPowerLevels(), 3) == fig3.triplets


MAX_TU = 16


@st.composite
def valid_patterns(draw):
    n = draw(st.integers(2, 4))
    bits = st.text("01", min_size=n, max_size=n).filter(lambda b: "0" in b and "1" in b)
    triplets = []
    for i in range(draw(st.integers(2, 5))):
        iv = None if i == 0 else 1 if i == 1 else draw(st.integers(1, MAX_TU))
        triplets.append(Triplet(TxPattern(draw(bits)), draw(st.integers(1, 14)), iv))
    return SecretPattern("p", tuple(triplets))


class TestCrossLayerOracle:
    @given(p=valid_patterns(), d=st.floats(0.5, 20.0), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_noiseless_readers_agree_with_the_air(self, p, d, seed, data):
        # Session, offline extraction and the perfect receiver all read the
        # credential that went on air, fig3 slot timing, in noiseless range;
        # the two readers take the beacons in any order.
        slot_cfg = SlotConfig()
        tx = TxPowerLevels()
        n = p.bit_count
        # widened like the simulator's watchdog, so long gaps do not time out
        cfg = SensorConfig(f_s=5.0, n=n, watchdog_s=(MAX_TU + 2) * slot_cfg.tu_s)
        tl = compile_schedule(p, slot_cfg, tx)
        beacons, samples = observe_emission(
            tl, Trajectory(((0.0, d),)), ChannelParams(sigma_db=0.0), tx, cfg,
            slot_cfg, np.random.default_rng(seed))
        beacons = data.draw(st.permutations(beacons))
        res = authenticate(beacons, samples, [p], cfg, slot_cfg)
        assert res.verdict == ACCEPTED
        assert (res.transcript
                == extract_triplets(beacons, samples, cfg, slot_cfg.slot_s)
                == eavesdrop(tl, slot_cfg, tx, n)
                == p.triplets)


def reference_observe_emission(timeline, traj, chan, tx, scfg, slot_cfg, rng,
                               t_start=0.0):
    """observe_emission as one beacon at a time: range and path loss
    evaluated for the beacons and again for the merged window ticks, each
    beacon rounded with round(), the ticks merged with np.unique."""
    f = scfg.f_s
    phase = t_start + rng.uniform(0.0, 1.0 / f)
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
            continue
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


@st.composite
def raw_candidates(draw):
    n, L = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    channels, max_tu = draw(st.integers(1, 14)), draw(st.integers(1, MAX_TU))
    index = draw(st.integers(0, pattern_space_size(n, L, channels, max_tu) - 1))
    return candidate_from_index(index, n, L, channels, max_tu)


@st.composite
def emissions(draw):
    """A pattern, a slot layout it fits (guard 0 included, so windows can
    share a tick), a sampling rate of 2-8 ticks per slot, and a channel,
    trajectory and start time to observe it through."""
    p = draw(valid_patterns() | raw_candidates())
    tu_s = draw(st.floats(0.2, 5.0))
    slot_s = draw(st.floats(0.1, 1.0)) * tu_s / p.bit_count
    # n * (x * tu_s / n) can round above tu_s; the guard stays >= 0.
    guard_s = draw(st.just(0.0) | st.floats(0.0, 1.0)) * max(0.0, tu_s - p.bit_count * slot_s)
    times = draw(st.lists(st.floats(0.0, 120.0), min_size=1, max_size=6, unique=True))
    return {"pattern": p, "slot": (slot_s, tu_s, guard_s),
            "f_s": draw(st.floats(2.0, 8.0)) / slot_s,
            "sigma_db": draw(st.just(0.0) | st.floats(0.1, 8.0)),
            "waypoints": [(t, draw(st.floats(0.5, 60.0))) for t in sorted(times)],
            "t_start": draw(st.just(0.0) | st.floats(0.1, 200.0)),
            "seed": draw(st.integers(0, 2**32 - 1))}


# Three beacons 5.5 ticks apart with 6-tick windows: one pair of adjacent
# windows always shares a tick.
OVERLAPPING = {"pattern": parse_pattern("01@1:- 10@1:1 01@1:1", "p"),
               "slot": (0.55, 1.1, 0.0), "f_s": 5.0, "sigma_db": 0.0,
               "waypoints": [(0.0, 5.0)], "t_start": 0.0, "seed": 3}


class MidTickPhase:
    """An rng whose emission phase is half a tick, so that beacon 0 sits
    exactly between two ticks."""

    def uniform(self, lo, hi):
        return (lo + hi) / 2.0


def observe_both(spec, make_rng=np.random.default_rng):
    slot_cfg = SlotConfig(*spec["slot"])
    p = spec["pattern"]
    tl = compile_schedule(p, slot_cfg, TxPowerLevels())
    args = (tl, Trajectory(tuple(spec["waypoints"])),
            ChannelParams(sigma_db=spec["sigma_db"]), TxPowerLevels(),
            SensorConfig(f_s=spec["f_s"], n=p.bit_count), slot_cfg)
    rngs = [make_rng(spec["seed"]) for _ in range(2)]
    got = observe_emission(*args, rngs[0], t_start=spec["t_start"])
    want = reference_observe_emission(*args, rngs[1], t_start=spec["t_start"])
    return got, want, rngs


class TestObserveEmissionDifferential:
    @given(spec=emissions())
    @example(spec=OVERLAPPING)
    @example(spec={**OVERLAPPING, "sigma_db": 4.0, "t_start": 37.3,
                   "waypoints": [(0.0, 2.0), (30.0, 45.0), (60.0, 3.0)]})
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference(self, spec):
        (beacons, samples), (ref_beacons, ref_samples), rngs = observe_both(spec)
        assert beacons == ref_beacons
        for got, want in ((samples.t_s, ref_samples.t_s),
                          (samples.rssi_dbm, ref_samples.rssi_dbm)):
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_a_beacon_half_a_tick_off_rounds_to_even(self):
        # phase 0.1 s at 5 Hz: beacon 0 falls on tick 0.5 and, as round()
        # does, goes to tick 0
        (beacons, samples), (ref_beacons, ref_samples), _ = observe_both(
            OVERLAPPING, lambda seed: MidTickPhase())
        assert beacons == ref_beacons and beacons[0].t_s == 0.0
        assert samples.t_s.tobytes() == ref_samples.t_s.tobytes()

    def test_overlapping_windows_share_a_tick(self):
        (beacons, samples), _, _ = observe_both(OVERLAPPING)
        assert len(beacons) == 3
        assert len(samples) == 3 * 6 - 1
        assert (np.diff(samples.t_s) > 0).all()


def median_walk(beacons, samples, store, cfg, slot_cfg, node, t_start):
    """SensorSession.run as it read windows before the slot grid: each
    window cut from the samples by Samples.between and read by the frozen
    statistics.median decoder of TestDecodeDifferential."""
    slot_s, span = slot_cfg.slot_s, cfg.n * slot_cfg.slot_s
    bs = sorted(beacons, key=lambda b: (b.t_s, b.seq_no))
    triplets = []

    def end(verdict, t, reason=RejectReason("timeout"), pattern_id=None):
        return AuthResult(verdict, pattern_id, reason, verdict == ACCEPTED, None,
                          tuple(triplets), t - t_start, t)

    if node.locked_at(t_start):
        return end(REJECTED, t_start, RejectReason("lockout"))
    matcher = new_matcher(store)
    deadline = t_start + cfg.watchdog_s
    for j, b in enumerate(bs):
        if deadline <= b.t_s:
            return end(TIMED_OUT, deadline)
        if node.heard(b.nonce):
            return end(REJECTED, b.t_s, RejectReason("replay"))
        deadline = b.t_s + cfg.watchdog_s
        close = b.t_s + span if j + 1 == len(bs) else min(b.t_s + span, bs[j + 1].t_s)
        if deadline < b.t_s + span and deadline <= close:
            return end(TIMED_OUT, deadline)
        try:
            bits = median_decode(samples.between(b.t_s, close), cfg.n, cfg, slot_s,
                                 t0=b.t_s)
        except UndecodableWindow:
            return end(REJECTED, close, RejectReason("undecodable", j))
        interval = None if j == 0 else 1
        if j >= 2:
            interval = quantize_interval(b.t_s - bs[j - 1].t_s, bs[1].t_s - bs[0].t_s,
                                         cfg.eps_tu)
            if interval is None:
                return end(REJECTED, close, RejectReason("quantization", j))
        triplets.append(Triplet(bits, b.channel, interval))
        matcher = match_step(matcher, triplets[-1])
        if matcher.terminal:
            return end(matcher.status, close, matcher.reason, matcher.accepted_id)
    return end(TIMED_OUT, deadline)


@st.composite
def layout_specs(draw):
    """An emission as emissions() draws it, read by a sensor with its own
    delta_db, eps_tu and watchdog under a noise floor that may lose beacons
    and samples; beacon `tie` (if any) moved to less than half a tick
    after the one before it, so both round onto one tick; and a second
    observation of the same timeline, as Replay puts it on air."""
    spec = draw(emissions())
    n = spec["pattern"].bit_count
    slot_s, tu_s = spec["slot"][:2]
    f_s = spec["f_s"]
    while f_s * slot_s < 2:  # a session needs two ticks a slot; 2 / slot_s can round under
        f_s = math.nextafter(f_s, math.inf)
    return {**spec, "f_s": f_s,
            "floor": draw(st.sampled_from([-90.0, -90.0, -75.0, -60.0])),
            "delta_db": draw(st.sampled_from([0.5, 2.0, 3.0])),
            "eps_tu": draw(st.sampled_from([0.0, 0.1, 0.3])),
            "watchdog_tu": draw(st.sampled_from([0.3, 2.0] + [MAX_TU + 2] * 4)),
            "tie": draw(st.none() | st.integers(1, spec["pattern"].length - 1)),
            "replay_after": draw(st.floats(0.0, 3.0)) * tu_s,
            "n": n}


def observe_spec(spec, memo):
    """(store, sensor config, slot config, [(t_start, beacons, samples)]) for
    a layout_specs spec; the observations share one memo."""
    p = spec["pattern"]
    slot_cfg = SlotConfig(*spec["slot"])
    tl = compile_schedule(p, slot_cfg, TxPowerLevels())
    if spec["tie"] is not None:
        k = spec["tie"]
        moved = dataclasses.replace(tl.beacons[k], t_s=tl.beacons[k - 1].t_s
                                    + 0.4 / spec["f_s"])
        tl = EmissionTimeline(tl.beacons[:k] + (moved,) + tl.beacons[k + 1:],
                              tl.starts, tl.levels, tl.duration_s)
    cfg = SensorConfig(f_s=spec["f_s"], n=spec["n"], delta_db=spec["delta_db"],
                       eps_tu=spec["eps_tu"],
                       watchdog_s=spec["watchdog_tu"] * slot_cfg.tu_s)
    chan = ChannelParams(sigma_db=spec["sigma_db"], noise_floor_dbm=spec["floor"])
    traj = Trajectory(tuple(spec["waypoints"]))
    rng = np.random.default_rng(spec["seed"])
    observed = []
    t_start = spec["t_start"]
    # Less than a tick later, the same ticks recur on a trajectory anchored
    # elsewhere; a layout is kept per start as well as per ticks.
    for t in (t_start, t_start + 0.3 / spec["f_s"],
              t_start + tl.duration_s + spec["replay_after"]):
        args = (tl, traj, chan, TxPowerLevels(), cfg, slot_cfg)
        state = rng.bit_generator.state
        beacons, samples = observe_emission(*args, rng, t_start=t, memo=memo)
        # The memo moves nothing: the same draws without it give the same bytes.
        alone = np.random.default_rng()
        alone.bit_generator.state = state
        ref_beacons, ref_samples = observe_emission(*args, alone, t_start=t)
        assert beacons == ref_beacons
        assert samples.t_s.tobytes() == ref_samples.t_s.tobytes()
        assert samples.rssi_dbm.tobytes() == ref_samples.rssi_dbm.tobytes()
        observed.append((t, beacons, samples))
    return [p], cfg, slot_cfg, observed


class TestCompiledLayoutDifferential:
    """A session reads the samples observe_emission returns through the slot
    grid they carry. It must read them as a session given a plain copy,
    which builds its grid from the sample times, and as the walk with the
    frozen statistics.median decoder reads them; so must extract_triplets."""

    @given(spec=layout_specs())
    @example(spec={**OVERLAPPING, "floor": -90.0, "delta_db": 3.0, "eps_tu": 0.1,
                   "watchdog_tu": MAX_TU + 2, "tie": None, "replay_after": 0.0, "n": 2})
    @example(spec={**OVERLAPPING, "floor": -90.0, "delta_db": 3.0, "eps_tu": 0.1,
                   "watchdog_tu": MAX_TU + 2, "tie": 1, "replay_after": 0.0, "n": 2})
    @example(spec={**OVERLAPPING, "sigma_db": 4.0, "t_start": 37.3, "floor": -75.0,
                   "waypoints": [(0.0, 2.0), (30.0, 45.0), (60.0, 3.0)],
                   "delta_db": 2.0, "eps_tu": 0.1, "watchdog_tu": MAX_TU + 2, "tie": None,
                   "replay_after": 1.1, "n": 2})
    @settings(max_examples=300, deadline=None)
    def test_compiled_plain_and_median_readers_agree(self, spec):
        store, cfg, slot_cfg, observed = observe_spec(spec, beaconveil.sim._Memo())
        nodes = [SensorNode() for _ in range(3)]
        for t_start, beacons, samples in observed:
            plain = Samples(samples.t_s.copy(), samples.rssi_dbm.copy())
            if beacons:
                starts = tuple(sorted(b.t_s for b in beacons))
                assert samples._grid.key == (cfg.n, slot_cfg.slot_s, starts)
            assert plain._grid is None
            runs = [SensorSession(new_matcher(store), cfg, slot_cfg, node=nodes[0],
                                  t_start=t_start).run(beacons, samples),
                    SensorSession(new_matcher(store), cfg, slot_cfg, node=nodes[1],
                                  t_start=t_start).run(beacons, plain),
                    median_walk(beacons, samples, store, cfg, slot_cfg, nodes[2],
                                t_start)]
            assert runs[0] == runs[1] == runs[2]

            def extract(s):
                try:
                    return extract_triplets(beacons, s, cfg, slot_cfg.slot_s)
                except (ExtractionError, ValueError) as e:
                    return type(e), str(e)

            assert extract(samples) == extract(plain)
            # Other windows than the grid was built for: a beacon missed.
            fewer = beacons[1:]
            assert (SensorSession(new_matcher(store), cfg, slot_cfg,
                                  t_start=t_start).run(fewer, samples)
                    == SensorSession(new_matcher(store), cfg, slot_cfg,
                                     t_start=t_start).run(fewer, plain))


@st.composite
def cell_specs(draw):
    """A noiseless emission at one range: a pattern, a sampling rate, a time
    unit on the tick grid (a whole number of ticks) or off it, a slot and
    guard that fit, a noise floor that keeps every sample, drops the low
    level's or drops every beacon, and whether a Replay's second session,
    which starts later on a tick, is observed too."""
    p = draw(valid_patterns() | raw_candidates())
    f_s = draw(st.floats(1.0, 50.0))
    tu_s = (draw(st.integers(1, 60)) / f_s if draw(st.booleans())
            else draw(st.floats(0.2, 5.0)))
    slot_s = draw(st.floats(0.1, 1.0)) * tu_s / p.bit_count
    guard_s = draw(st.just(0.0) | st.floats(0.0, 1.0)) * max(0.0, tu_s - p.bit_count * slot_s)
    distance = draw(st.floats(0.5, 60.0))
    high = TxPowerLevels().high_dbm - path_loss(distance, ChannelParams())
    # The levels are 6 dB apart: 3 dB under the high level drops the low.
    floor = high - draw(st.sampled_from([30.0, 30.0, 3.0, -1.0]))
    return {"pattern": p, "slot": (slot_s, tu_s, guard_s), "f_s": f_s,
            "distance": distance, "floor": floor, "replay": draw(st.booleans()),
            "seed": draw(st.integers(0, 2**32 - 1))}


class ForcedPhase:
    """A generator that draws as default_rng(seed) does, but whose uniform
    draw returns phase instead while phase is set."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.phase = None

    def uniform(self, lo, hi):
        drawn = self.rng.uniform(lo, hi)
        return drawn if self.phase is None else self.phase


def probe_phases(cells, f_s):
    """Emission phases in [0, 1 / f_s] around every cell edge: the edge's
    phase, np.nextafter it on both sides, and 2^k float steps either way
    for k up to 17, past every edge's float error and its guard."""
    out = []
    for edge in cells.edges:
        at = edge / f_s
        near = [at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf)]
        step = np.spacing(at)
        near += [at + sign * 2.0 ** k * step for k in range(2, 18, 3) for sign in (-1, 1)]
        out += [float(p) for p in near if 0.0 <= p <= 1.0 / f_s]
    return out


class TestPhaseCellDifferential:
    """Noiseless at one range, observe_emission returns the observation kept
    for the phase cell a trial lands in. It must equal, bit for bit and
    draw for draw, what the full placement without a memo gives, at
    random phases and at phases on both sides of every cell edge."""

    @given(spec=cell_specs())
    @example(spec={"pattern": parse_pattern("01@1:- 10@2:1", "p"),
                   "slot": (0.25, 1.0, 0.0), "f_s": 16.0, "distance": 5.0,
                   "floor": -90.0, "replay": True, "seed": 20})
    @example(spec={**OVERLAPPING, "distance": 5.0, "floor": -90.0, "replay": True})
    # 3.2 ticks a window: by the phase, the last window's last tick falls
    # before or past the end of the emission, 0.03 s after that window.
    @example(spec={"pattern": parse_pattern("01@1:- 10@2:1", "p"),
                   "slot": (0.25, 1.0, 0.03), "f_s": 6.4, "distance": 5.0,
                   "floor": -90.0, "replay": False, "seed": 1})
    # A guard_s of float-noise size makes one cell 5e-13 wide; the other
    # cells still serve.
    @example(spec={"pattern": candidate_from_index(0, 1, 2, 1, 1),
                   "slot": (0.5, 1.0, 5e-13), "f_s": 1.0, "distance": 5.0,
                   "floor": -90.0, "replay": False, "seed": 0})
    @settings(max_examples=50, deadline=None)
    def test_kept_cells_match_the_full_placement(self, spec):
        p = spec["pattern"]
        slot_cfg = SlotConfig(*spec["slot"])
        f_s = spec["f_s"]
        tl = compile_schedule(p, slot_cfg, TxPowerLevels())
        args = (tl, Trajectory(((0.0, spec["distance"]),)),
                ChannelParams(noise_floor_dbm=spec["floor"]), TxPowerLevels(),
                SensorConfig(f_s=f_s, n=p.bit_count), slot_cfg)
        starts = [0.0]
        if spec["replay"]:
            starts.append(math.ceil((tl.duration_s + slot_cfg.tu_s) * f_s) / f_s)
        memo = beaconveil.sim._Memo()
        got_rng, want_rng = ForcedPhase(spec["seed"]), ForcedPhase(spec["seed"])

        def observe(t_start, phase=None):
            got_rng.phase = want_rng.phase = phase
            beacons, samples = observe_emission(*args, got_rng, t_start=t_start,
                                                memo=memo)
            ref_beacons, ref_samples = observe_emission(*args, want_rng, t_start=t_start)
            assert beacons == ref_beacons
            for got, want in ((samples.t_s, ref_samples.t_s),
                              (samples.rssi_dbm, ref_samples.rssi_dbm)):
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == want.tobytes()
            assert got_rng.rng.bit_generator.state == want_rng.rng.bit_generator.state
            # Each call gets its own beacon list; kept samples are read-only.
            assert id(beacons) not in lists
            if id(samples) in seen:
                assert not samples.rssi_dbm.flags.writeable
            lists.add(id(beacons))
            seen.add(id(samples))
            returned.append((beacons, samples))  # keeps the ids unique

        lists, seen, returned = set(), set(), []
        for t_start in starts:
            for _ in range(10):
                observe(t_start)
            cells = memo.cells[beaconveil.sim._shape_key(tl)][t_start]
            assert isinstance(cells, beaconveil.sim._PhaseCells)
            # Every timeline gets its cells, 0 and 1 among the edges.
            assert cells.edges[:1] == [0.0] and cells.edges[-1:] == [1.0]
            for phase in probe_phases(cells, f_s):
                observe(t_start, phase)
            for _ in range(10):
                observe(t_start)
            # A cell no wider than two guards is never found.
            edges = cells.edges
            if any(hi - lo > 2 * cells.guard for lo, hi in zip(edges, edges[1:])):
                # Kept observations were handed out again, not only filled.
                assert len(seen) < len(returned)


def fig3_bruteforce(trials):
    """fig3a under a BruteForce(3, 2): on its 14 channels, 196 candidates
    share each of the 64 shapes, in rows whose digits 3 and 7 are the
    channels."""
    return dataclasses.replace(build_fig3("a"), actor=BruteForce(3, 2), trials=trials)


class TestSharedShapeDifferential:
    """Timelines that differ only in their beacons' channels put one shape
    on the air, and share its phase cells and placements; each keeps its
    own beacons and verdict. Every trial must equal the same trial run
    alone on a fresh config."""

    def test_block_trials_equal_trials_alone(self):
        cfg = fig3_bruteforce(1200)
        report = run_scenario(cfg)
        # Most trials draw a shape that an earlier trial drew on other
        # channels, and the memo holds shapes kept for several candidates.
        first = {}
        later = sum(first.setdefault(row[:3] + row[4:7], row) != row
                    for row, _, _ in _trial_draws(cfg, 0, cfg.trials))
        assert later > cfg.trials // 2
        sharing = Counter(id(shape) for shape, _ in cfg._memo.timelines.values())
        assert max(sharing.values()) >= 2
        for i, trial in enumerate(report.trials):
            assert run_trial(dataclasses.replace(cfg), i) == trial, i

    # At 5 Hz every fig3a edge is 0 or half a tick; at 7.3 Hz the beacons
    # and power steps fall off the tick grid, each at its own edge.
    @pytest.mark.parametrize("f_s", [5.0, 7.3])
    def test_guard_edge_phases_on_every_channel(self, f_s):
        cfg = fig3_bruteforce(1)
        cfg = dataclasses.replace(cfg, sensor_cfg=dataclasses.replace(cfg.sensor_cfg, f_s=f_s))
        eff, slot_cfg = cfg._effective_sensor, cfg.slot_cfg
        rows = [(0, 1, 1, c0, 1, 0, 1, c1) for c0, c1 in ((0, 0), (5, 13), (13, 2))]
        shape = {beaconveil.sim._shape_key(cfg._candidate_timeline(r)) for r in rows}
        assert len(shape) == 1
        cells = beaconveil.sim._phase_cells(cfg._candidate_timeline(rows[0]), 0.0, eff,
                                            slot_cfg)
        args = (cfg.trajectory, cfg.channel, cfg.tx_levels, eff, slot_cfg, None)
        shared = dataclasses.replace(cfg)
        for k, phase in enumerate(probe_phases(cells, eff.f_s)):
            # Each phase comes first to another candidate, so a cell is
            # placed for one channel pair and kept for the others.
            for j in range(len(rows)):
                row = rows[(k + j) % len(rows)]
                tl = shared._candidate_timeline(row)
                beacons, samples = observe_emission(tl, *args, memo=shared._memo,
                                                    drawn=phase)
                ref_beacons, ref_samples = observe_emission(tl, *args, drawn=phase)
                assert beacons == ref_beacons
                assert [b.channel for b in beacons] == [
                    1 + row[3 if b.seq_no == 0 else 7] for b in beacons]
                assert samples.t_s.tobytes() == ref_samples.t_s.tobytes()
                assert samples.rssi_dbm.tobytes() == ref_samples.rssi_dbm.tobytes()
                draws = (row, phase, None)
                assert (run_trial(shared, 0, draws)
                        == run_trial(dataclasses.replace(cfg), 0, draws)), (row, phase)
        placed = [p for p in shared._memo.cells[shape.pop()][0.0].placed if p is not None]
        assert len(shared._memo.timelines) == len(rows)
        assert 1 <= len(placed) < len(kept_verdicts(shared))

    def test_proto_halves_on_other_channels(self):
        # Both halves on one time unit, their credentials on other channels.
        cfg = dataclasses.replace(
            build_proto(), trials=200, actor=Proto("pi1", "pi2", 1.0),
            store=(parse_pattern("110@6:- 110@6:1", "pi1"),
                   parse_pattern("110@2:- 110@9:1", "pi2")))
        assert validate_scenario(cfg) == []
        (_, a), (_, b) = cfg._timelines
        assert beaconveil.sim._shape_key(a) == beaconveil.sim._shape_key(b)
        report = run_scenario(cfg)
        assert len(cfg._memo.timelines) == 2
        assert len([v for v in cfg._memo.cells.values() if v is not None]) == 1
        assert [t.result.pattern_id for t in report.trials] == ["pi1", "pi2"] * 100
        for i, trial in enumerate(report.trials):
            assert run_trial(dataclasses.replace(cfg), i) == trial, i


def exact_buckets(cfg, slot_cfg, timeline):
    """{bucket: probability over the phase} of one noiseless session of
    timeline, exact: the width of each phase cell, as a fraction of the
    tick, summed by the bucket of one full placement at its midpoint."""
    eff = cfg._effective_sensor
    cells = beaconveil.sim._phase_cells(timeline, 0.0, eff, slot_cfg)
    assert cells.edges
    out = Counter()
    for lo, hi in zip(cells.edges, cells.edges[1:]):
        rng = ForcedPhase(0)
        rng.phase = (lo + hi) / 2.0 / eff.f_s
        beacons, samples = observe_emission(timeline, cfg.trajectory, cfg.channel,
                                            cfg.tx_levels, eff, slot_cfg, rng)
        result = beaconveil.sim._scored_session(cfg, slot_cfg, beacons, samples,
                                                SensorNode(), 0.0)
        out[result.bucket] += Fraction(hi) - Fraction(lo)
    assert sum(out.values()) == 1
    return out


def desk_rows(cfg):
    """Every digit row of the desk brute force's 64 raw candidates."""
    a = cfg.actor
    bounds = _candidate_digits(a.n, a.L, cfg.band.channel_count, cfg.max_tu)
    return itertools.product(*map(range, bounds))


class TestNoiselessOracle:
    """Without noise at one range, a trial's outcome is a function of its
    phase cell, so the phase cells give the exact outcome distribution."""

    def test_desk_bruteforce_far_is_one_in_64(self):
        cfg = build_desk(BruteForce(2, 2), 1)
        space = pattern_space_size(2, 2, cfg.band.channel_count, cfg.max_tu)
        assert space == 64
        accepted = [exact_buckets(cfg, cfg.slot_cfg, cfg._candidate_timeline(row))[ACCEPTED]
                    for row in desk_rows(cfg)]
        assert len(accepted) == space
        assert sum(accepted) / space == Fraction(1, 64)

    def test_desk_multi_outcomes_are_the_runs(self):
        # The run draws its candidates and phases at random, so its rates
        # are checked against the exact ones (accepted: 3/16) with a z = 4
        # Wilson interval per bucket.
        cfg = build_desk_multi(2000)
        exact = Counter()
        for row in desk_rows(cfg):
            exact.update(exact_buckets(cfg, cfg.slot_cfg, cfg._candidate_timeline(row)))
        ran = Counter(t.result.bucket for t in run_scenario(cfg).trials)
        assert set(ran) <= set(exact)
        for bucket, weight in exact.items():
            lo, hi = wilson(ran[bucket] / cfg.trials, cfg.trials, z=4.0)
            assert lo <= weight / 64 <= hi, bucket

    @pytest.mark.parametrize("case", "abcd")
    def test_fig3_outcomes_are_the_runs(self, case):
        cfg = dataclasses.replace(build_fig3(case), trials=200)
        (slot_cfg, timeline), = cfg._timelines
        ran = Counter(t.result.bucket for t in run_scenario(cfg).trials)
        assert exact_buckets(cfg, slot_cfg, timeline) == {
            bucket: Fraction(count, cfg.trials) for bucket, count in ran.items()}


class TestPhaseCellMemo:
    def test_desk_places_once_per_first_sighting_and_cell(self, monkeypatch):
        # The 64 candidates put 16 shapes on the air: pairs of channels on
        # one power profile. Each shape is placed in full when first drawn,
        # which builds nothing, and then once in each of its 3 phase cells.
        calls = Counter()

        def counted(name):
            wrapped = getattr(beaconveil.sim, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)
            monkeypatch.setattr(beaconveil.sim, name, call)

        counted("observe_emission")
        counted("_place")
        counted("_phase_cells")
        counted("_scored_session")
        medians = beaconveil.sensor._SlotGrid.medians

        def counted_medians(grid, rssi):
            calls["medians"] += 1
            return medians(grid, rssi)
        monkeypatch.setattr(beaconveil.sensor._SlotGrid, "medians", counted_medians)
        cfg = build_desk(BruteForce(2, 2), 4000)
        run_scenario(cfg)
        # Each first sighting's session reads its windows, and each cell
        # reads its placement once for the 4 candidates of its shape.
        assert calls.pop("medians") == 16 + 48
        # A first sighting keeps no observation, so it scores its session
        # too; the first trial of each candidate in each cell looks its read
        # up, and the 64 candidates' 3 cells make only 32 distinct reads,
        # each read up to the window its verdict fell in.
        assert calls == {"observe_emission": 4000, "_place": 16 + 16 * 3,
                         "_phase_cells": 16, "_scored_session": 16 + 32}
        cells = [c for v in cfg._memo.cells.values() for c in v.values()]
        assert len(cells) == 16 and all(None not in c.placed for c in cells)
        assert len(cfg._memo.timelines) == 64 and len(kept_verdicts(cfg)) == 64 * 3


class TestKeptReadDifferential:
    """The timelines of one shape in a phase cell share the cell's read,
    decoded once for all of them. Every verdict a kept cell holds must
    equal the session scored afresh on that timeline's own beacons and
    samples, which decodes its windows itself."""

    @pytest.mark.parametrize("cfg", [build_desk(BruteForce(2, 2), 4000),
                                     fig3_bruteforce(3000)], ids=["desk", "fig3a"])
    def test_kept_verdicts_equal_fresh_sessions(self, cfg):
        run_scenario(cfg)
        looked_up = [k for k in kept_cells(cfg) if k.verdict is not None]
        placements = {id(k.placed) for k in looked_up}
        assert len(placements) < len(looked_up)
        for kept in looked_up:
            assert kept.placed[3] is not None
            samples = Samples(kept.t_s, kept.rssi_dbm)
            assert samples._grid is None
            fresh = beaconveil.sim._scored_session(cfg, cfg.slot_cfg, list(kept.beacons),
                                                   samples, SensorNode(), 0.0)
            assert fresh == kept.verdict, kept.beacons


class TestTrialResult:
    """A trial's result is a NamedTuple of (trial, actor, label, result)."""

    def trial(self):
        return run_trial(build_desk(BruteForce(2, 2), 1), 0)

    def test_immutable(self):
        t = self.trial()
        with pytest.raises(AttributeError):
            t.trial = 1
        with pytest.raises(AttributeError):
            t.result = None

    def test_hashable_and_pickles(self):
        t = self.trial()
        assert hash(t) == hash(self.trial())
        again = pickle.loads(pickle.dumps(t))
        assert type(again) is TrialResult and again == t and hash(again) == hash(t)

    def test_equal_by_fields(self):
        t = self.trial()
        assert t == TrialResult(t.trial, t.actor, t.label, t.result)
        assert t == (t.trial, t.actor, t.label, t.result)
        assert t != t._replace(trial=1)
        assert t._replace(trial=1) == TrialResult(1, t.actor, t.label, t.result)

    def test_repr(self):
        t = self.trial()
        assert repr(t) == (f"TrialResult(trial=0, actor='bruteforce', label='adversary', "
                           f"result={t.result!r})")


class TestBlockDrawCounts:
    """A block draws its trials' candidates and phases together; only a
    trial that draws again gets a generator, and its state is set once."""

    @staticmethod
    def count_generator_use(monkeypatch):
        calls = Counter()
        base = np.random.PCG64

        # numpy checks that a state names its bit generator's class.
        class PCG64(base):
            @property
            def state(self):
                return base.state.__get__(self)

            @state.setter
            def state(self, value):
                calls["state"] += 1
                base.state.__set__(self, value)

        class Generator(np.random.Generator):
            def integers(self, *args, **kwargs):
                calls["integers"] += 1
                return super().integers(*args, **kwargs)

            def uniform(self, *args, **kwargs):
                calls["uniform"] += 1
                return super().uniform(*args, **kwargs)

        def default_rng(*args, **kwargs):
            calls["default_rng"] += 1
            return Generator(PCG64(np.random.SeedSequence(*args, **kwargs)))

        monkeypatch.setattr(np.random, "PCG64", PCG64)
        monkeypatch.setattr(np.random, "Generator", Generator)
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        return calls

    def test_desk_block_sets_no_generator(self, monkeypatch):
        calls = self.count_generator_use(monkeypatch)
        report = run_scenario(build_desk(BruteForce(2, 2), 4000))
        assert calls == {}
        assert len(report.trials) == 4000

    def test_noisy_flyover_block_sets_each_trial_once(self, monkeypatch):
        calls = self.count_generator_use(monkeypatch)
        run_scenario(build_flyover(600))
        assert calls == {"state": 600}

    def test_noisy_chunk_builds_its_states_as_its_trials_take_them(self):
        # A chunk's state dicts are made one at a time, so a noisy chunk
        # holds little more than its lane arrays. A first draw may import
        # numpy.random, which is not the chunk's.
        cfg = build_flyover(beaconveil.sim._SEED_CHUNK)
        next(_trial_draws(cfg, 0, 1))
        tracemalloc.start()
        try:
            for _ in _trial_draws(cfg, 0, cfg.trials):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestLayoutMemo:
    @pytest.mark.parametrize("cfg, memoised", [
        (build_desk(BruteForce(2, 2), 500), True),
        (dataclasses.replace(build_desk(Replay("desk"), 300),
                             channel=ChannelParams(sigma_db=3.0)), False),
        (build_flyover(300), False),
        (dataclasses.replace(build_proto(), trials=300), True),
    ], ids=["bruteforce", "replay", "flyover", "proto"])
    def test_emptied_at_its_cap_and_kept_out_of_the_pickle(self, monkeypatch, cfg,
                                                           memoised):
        fresh = pickle.dumps(cfg)
        kept = report_bytes(cfg)
        assert len(cfg._memo.layouts) >= 2
        assert (len(kept_verdicts(cfg)) >= 2) == memoised
        assert pickle.dumps(cfg) == fresh
        assert_memos_within(cfg, beaconveil.sim._MEMO_CAP)
        # At a cap of one or two, a new entry often empties its memo first.
        for cap in (1, 2):
            monkeypatch.setattr(beaconveil.sim, "_MEMO_CAP", cap)
            capped = dataclasses.replace(cfg)
            assert report_bytes(capped) == kept
            assert_memos_within(capped, cap)
            assert len(capped._memo.layouts) >= 1

    @pytest.mark.parametrize("trials", [8000, 16000])
    def test_first_sightings_leave_the_layouts_alone(self, monkeypatch, trials):
        # A noiseless fig3a brute force draws nearly every candidate once,
        # and their first-sighting marks fill the cells table past its cap.
        # The 512 grid layouts (two phase ticks times 16 x 16 intervals)
        # are built once each all the same.
        builds = Counter()
        grid_layout = beaconveil.sim._grid_layout

        def counted(key, *args):
            builds[key] += 1
            return grid_layout(key, *args)
        monkeypatch.setattr(beaconveil.sim, "_grid_layout", counted)
        run_scenario(dataclasses.replace(build_fig3("a"), actor=BruteForce(3, 4),
                                         trials=trials))
        assert len(builds) == 512 and set(builds.values()) == {1}


def _noiseless(cfg):
    return dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, sigma_db=0.0))


class TestSessionMemo:
    """A trial that scores one session on an observation kept for its phase
    cell takes its verdict from the config's memo when an earlier trial
    landed in that cell. Every trial must equal the same trial on a config
    whose memo is empty."""

    @pytest.mark.parametrize("cfg", [
        dataclasses.replace(build_fig3("a"), trials=120),
        dataclasses.replace(build_fig3("b"), trials=120),
        dataclasses.replace(build_fig3("a"), actor=Mitm("fig3", 0.05), trials=120),
        dataclasses.replace(build_proto(), trials=120),
        build_desk(BruteForce(2, 2), 600),
        build_desk_multi(400),
        _noiseless(build_flyover(120)),
        # 2.1 ticks a slot: with its beacons on the same ticks, a trial's
        # phase puts a sample on one side of a slot boundary or the other,
        # and delta_db = 4 turns the median that moves into a reject.
        dataclasses.replace(build_desk(Legit("desk"), 200, f_s=7.0, delta_db=4.0),
                            slot_cfg=SlotConfig(slot_s=0.3, tu_s=1.0, guard_s=0.05)),
        # A time unit off the tick grid: by its phase, a trial hears the
        # second beacon a tick early or late, and reads the same rssi either
        # way, since that beacon's window opens on the idle low level.
        dataclasses.replace(build_desk(Legit("desk"), 200, f_s=10.0),
                            store=(parse_pattern("10@1:- 01@2:1", "desk"),),
                            slot_cfg=SlotConfig(slot_s=0.25, tu_s=1.03, guard_s=0.05)),
    ], ids=["legit", "mutant", "mitm", "proto", "bruteforce", "desk-multi",
            "flyover-noiseless", "desk-slot-boundary", "desk-tick-off-grid"])
    def test_every_trial_equals_a_trial_on_an_empty_memo(self, cfg):
        report = run_scenario(cfg)
        # One verdict per kept cell. A moving trajectory has no cells; the
        # other runs did share verdicts, so the memo was read, not only filled.
        assert all(kept.verdict is not None for kept in kept_cells(cfg))
        moving = len(cfg.trajectory.waypoints) > 1
        assert moving or 1 <= len(kept_verdicts(cfg)) < cfg.trials
        for i, trial in enumerate(report.trials):
            fresh = dataclasses.replace(cfg)
            assert run_trial(fresh, i) == trial, i
            # A fresh config's first sighting has no cell, so keeps nothing.
            assert kept_cells(fresh) == []

    @pytest.mark.parametrize("cfg, buckets, kept", [
        (build_flyover(60), None, 0),
        (_noiseless(build_flyover(60)), None, 0),
        (dataclasses.replace(build_desk(BruteForce(2, 2), 200),
                             channel=ChannelParams(sigma_db=3.0)), None, 0),
        (build_desk(Replay("desk"), 120), {"replay"}, 0),
        # Each shape is all but always drawn once, and a first sighting gets
        # no cell: of 2000 trials, only the 2 whose shape was drawn before,
        # on other channels, keep a verdict.
        (dataclasses.replace(build_fig3("a"), actor=BruteForce(3, 4), trials=2000),
         None, 2),
    ], ids=["flyover", "flyover-noiseless", "bruteforce-noisy", "replay-noiseless",
            "bruteforce-large-space"])
    def test_not_kept_under_shadowing_or_for_replay(self, cfg, buckets, kept):
        report = run_scenario(cfg)
        assert len(kept_verdicts(cfg)) == kept
        if buckets is not None:
            assert {t.result.bucket for t in report.trials} == buckets


def _shadowed(cfg, sigma_db):
    return dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel,
                                                                sigma_db=sigma_db))


def _fig3_at(distance, sigma_db, trials):
    """fig3a's legitimate emitter at one range under shadowing."""
    return _shadowed(dataclasses.replace(build_fig3("a"), trials=trials,
                                         trajectory=Trajectory(((0.0, distance),))),
                     sigma_db)


class TestReadVerdictDifferential:
    """A trial that scores one session takes its verdict from the config's
    one verdict table, keyed by the read: its start, its beacons and what
    each window up to the one the verdict fell in decodes to, whatever
    timeline emitted them, once its timeline has a record in the memo. A
    kept cell holds its entry. Every trial must equal the same trial run
    alone on a fresh config, and the report must not change when the memo
    is emptied at any cap."""

    @pytest.mark.parametrize("cfg", [
        build_flyover(200),
        _shadowed(dataclasses.replace(build_fig3("a"), actor=Mitm("fig3", 0.2),
                                      trials=150), 2.0),
        _shadowed(dataclasses.replace(build_proto(), trials=150), 2.0),
        _shadowed(dataclasses.replace(build_fig3("b"), trials=150), 2.0),
        _shadowed(build_desk(BruteForce(2, 2), 400), 3.0),
        _noiseless(build_flyover(150)),
        # Beacons lost under the floor and windows that do not decode.
        _fig3_at(40.0, 6.0, 300),
        # Kept cells, whose candidates and halves share reads.
        build_desk(BruteForce(2, 2), 400),
        build_desk_multi(400),
        dataclasses.replace(build_proto(), trials=150),
    ], ids=["flyover", "mitm", "proto", "mutant", "bruteforce", "flyover-noiseless",
            "lost-and-undecodable", "bruteforce-noiseless", "desk-multi",
            "proto-noiseless"])
    def test_every_trial_equals_a_trial_alone(self, monkeypatch, cfg):
        kept = report_bytes(cfg)
        # Run again on the memo the first run filled.
        report = run_scenario(cfg)
        # The runs share verdicts: the memo was read, not only filled.
        assert 1 <= len(cfg._memo.verdicts)
        assert len({id(t.result) for t in report.trials}) < cfg.trials
        for i, trial in enumerate(report.trials):
            assert run_trial(dataclasses.replace(cfg), i) == trial, i
        for cap in (1, 2):
            monkeypatch.setattr(beaconveil.sim, "_MEMO_CAP", cap)
            capped = dataclasses.replace(cfg)
            assert report_bytes(capped) == kept
            assert_memos_within(capped, cap)

    def test_lost_beacons_and_undecodable_windows_are_read(self, monkeypatch):
        heard = Counter()
        observe = beaconveil.sim.observe_emission

        def counted(timeline, *args, **kwargs):
            beacons, samples = observe(timeline, *args, **kwargs)
            heard[len(beacons) < len(timeline.beacons)] += 1
            return beacons, samples
        monkeypatch.setattr(beaconveil.sim, "observe_emission", counted)
        cfg = _fig3_at(40.0, 6.0, 300)
        buckets = Counter(t.result.bucket for t in run_scenario(cfg).trials)
        assert heard[True] and heard[False]
        assert buckets["timeout"] and buckets["undecodable@0"]
        # Reads that end on an undecodable window are kept too.
        assert any(key[-1] is None for key in cfg._memo.verdicts)

    def test_timelines_share_a_read_until_their_bits_differ(self):
        # A row is a candidate's digits: each triplet's bits, then its
        # channel less one. All four put the same beacons on the air, on
        # channels 1 and 2; the desk credential is 01@1:- 10@2:1, and a
        # window of equal bits does not decode.
        cfg = build_desk(BruteForce(2, 2), 1)
        rows = {"accepted": (0, 1, 0, 1, 0, 1), "txpower@1": (0, 1, 0, 0, 1, 1),
                "00": (0, 0, 0, 1, 0, 1), "11": (1, 1, 0, 0, 1, 1)}
        # Each row twice: its first sighting keeps nothing, its second lands
        # in a kept cell and looks its read up.
        draws = [(row, 0.37 / 16.0, None) for row in rows.values() for _ in range(2)]
        for i, d in enumerate(draws):
            assert run_trial(cfg, i, d) == run_trial(dataclasses.replace(cfg), i, d), i
        kept = {}
        for name, row in rows.items():
            _, by_start = cfg._memo.timelines[cfg._candidate_timeline(row)]
            [kept[name]] = [k for k in by_start[0.0][1] if k is not None]
        assert len({k.beacons for k in kept.values()}) == 1
        assert kept["accepted"].verdict.bucket == ACCEPTED
        assert kept["txpower@1"].verdict.bucket == "txpower@1"
        assert kept["00"].verdict is kept["11"].verdict
        assert kept["00"].verdict.bucket == "undecodable@0"
        assert len(cfg._memo.verdicts) == 3

    def test_guard_edge_phases_are_read(self):
        # A phase within the guard of a cell's edge is placed in full, and
        # its verdict is kept by its read once its timeline has a record.
        cfg = dataclasses.replace(build_fig3("a"), trials=1)
        eff, (slot_cfg, tl) = cfg._effective_sensor, cfg._timelines[0]
        cells = beaconveil.sim._phase_cells(tl, 0.0, eff, slot_cfg)
        shared = dataclasses.replace(cfg)
        edges = [u / eff.f_s for u in cells.edges[1:-1]]
        assert edges
        for k, phase in enumerate([edges[0] / 2] + edges * 2):
            assert (run_trial(shared, k, (None, phase, None))
                    == run_trial(dataclasses.replace(cfg), k, (None, phase, None)))
        assert len(shared._memo.verdicts) == len(edges)

    def test_flyover_scores_a_few_sessions(self, monkeypatch):
        # 1000 trials, 4 distinct verdicts: the first sighting, which has
        # no record, then one session per distinct read.
        calls = Counter()
        scored = beaconveil.sim._scored_session

        def counted(*args):
            calls["_scored_session"] += 1
            return scored(*args)
        monkeypatch.setattr(beaconveil.sim, "_scored_session", counted)
        report = run_scenario(build_flyover(1000))
        assert calls["_scored_session"] <= 8
        assert len({id(t.result) for t in report.trials}) == calls["_scored_session"]

    def test_lost_emissions_score_one_session(self, monkeypatch):
        # At 40 m under 6 dB shadowing, over 200 of 4000 trials hear no
        # beacon. Their reads are the start alone, so one session is scored
        # for all of them; it was one each before they were keyed. The
        # other reads are keyed up to the window their verdict fell in, so
        # 186 sessions are scored in all.
        calls = Counter()
        scored = beaconveil.sim._scored_session

        def counted(cfg, slot, beacons, *args):
            calls[bool(beacons)] += 1
            return scored(cfg, slot, beacons, *args)
        monkeypatch.setattr(beaconveil.sim, "_scored_session", counted)
        run_scenario(_fig3_at(40.0, 6.0, 4000))
        assert calls[False] == 1
        assert calls[True] + calls[False] <= 192


class NoisyForcedPhase(ForcedPhase):
    """A ForcedPhase that draws its normals as default_rng(seed) does."""

    def normal(self, *args, **kwargs):
        return self.rng.normal(*args, **kwargs)


def _proto_on_other_channels(trials):
    """The two-emitter bench with both halves on one time unit, their
    credentials on other channels: one on-air shape for two timelines."""
    return dataclasses.replace(
        build_proto(), trials=trials, actor=Proto("pi1", "pi2", 1.0),
        store=(parse_pattern("110@6:- 110@6:1", "pi1"),
               parse_pattern("110@2:- 110@9:1", "pi2")))


class TestHeardBeaconsDifferential:
    """Under shadowing or along a moving trajectory, a trial in a phase cell
    takes its beacons' ticks from the cell, and its heard beacons, in walk
    order with their read key, from what its timeline keeps for the cell
    and the set of beacons it heard. Every observation must equal the full
    placement without a memo, and every trial the same trial run alone on
    a fresh config; the report must not change when the memo is emptied
    at any cap."""

    @given(spec=emissions().filter(lambda s: s["sigma_db"] > 0 or len(s["waypoints"]) > 1))
    @example(spec={**OVERLAPPING, "sigma_db": 4.0, "t_start": 37.3,
                   "waypoints": [(0.0, 2.0), (30.0, 45.0), (60.0, 3.0)]})
    @settings(max_examples=50, deadline=None)
    def test_kept_heard_beacons_match_the_full_placement(self, spec):
        slot_cfg = SlotConfig(*spec["slot"])
        p = spec["pattern"]
        tl = compile_schedule(p, slot_cfg, TxPowerLevels())
        scfg = SensorConfig(f_s=spec["f_s"], n=p.bit_count)
        args = (tl, Trajectory(tuple(spec["waypoints"])),
                ChannelParams(sigma_db=spec["sigma_db"]), TxPowerLevels(), scfg, slot_cfg)
        t_start = spec["t_start"]
        memo = beaconveil.sim._Memo()
        got_rng, want_rng = NoisyForcedPhase(spec["seed"]), NoisyForcedPhase(spec["seed"])
        lists, returned = set(), []

        def observe(phase=None):
            got_rng.phase = want_rng.phase = phase
            beacons, samples = observe_emission(*args, got_rng, t_start=t_start, memo=memo)
            ref_beacons, ref_samples = observe_emission(*args, want_rng, t_start=t_start)
            assert beacons == ref_beacons
            assert samples.t_s.tobytes() == ref_samples.t_s.tobytes()
            assert samples.rssi_dbm.tobytes() == ref_samples.rssi_dbm.tobytes()
            assert got_rng.rng.bit_generator.state == want_rng.rng.bit_generator.state
            if isinstance(samples, beaconveil.sim._Heard):
                assert samples.walk == beacons
                assert samples.key == (t_start, tuple(
                    (b.t_s, b.channel, b.seq_no, b.nonce) for b in beacons))
            # Each call gets its own beacon list.
            assert id(beacons) not in lists
            lists.add(id(beacons))
            returned.append(beacons)  # keeps the ids unique

        for _ in range(20):
            observe()
        cells = memo.cells[beaconveil.sim._shape_key(tl)][t_start]
        for phase in probe_phases(cells, scfg.f_s):
            observe(phase)
        placed = [c for c in cells.placed if c is not None]
        assert placed and all(len(ticks) == len(tl.beacons) for ticks, _ in placed)

    @pytest.mark.parametrize("cfg", [
        build_flyover(300),
        _noiseless(build_flyover(200)),
        _shadowed(build_desk(BruteForce(2, 2), 600), 3.0),
        _shadowed(_proto_on_other_channels(200), 2.0),
        _fig3_at(40.0, 6.0, 300),
    ], ids=["flyover", "flyover-noiseless", "bruteforce", "proto-channels",
            "lost-and-undecodable"])
    def test_every_trial_equals_a_trial_alone(self, monkeypatch, cfg):
        kept = report_bytes(cfg)
        report = run_scenario(cfg)
        # Heard beacons were kept and handed out again, not only filled.
        records = kept_heard(cfg)
        assert 1 <= len(records) < cfg.trials
        assert all(walk == list(beacons) for _, beacons, _, walk, _ in records)
        for i, trial in enumerate(report.trials):
            assert run_trial(dataclasses.replace(cfg), i) == trial, i
        for cap in (1, 2):
            monkeypatch.setattr(beaconveil.sim, "_MEMO_CAP", cap)
            capped = dataclasses.replace(cfg)
            assert report_bytes(capped) == kept
            assert_memos_within(capped, cap)
            assert all(len(heard) <= cap for _, by_start in capped._memo.timelines.values()
                       for _, own in by_start.values() for heard in own
                       if isinstance(heard, dict))

    def test_shapes_shared_across_channels_keep_heard_beacons_apart(self):
        cfg = _shadowed(_proto_on_other_channels(200), 2.0)
        report = run_scenario(cfg)
        assert {t.result.pattern_id for t in report.trials} >= {"pi1", "pi2"}
        # One shape, so one set of cells with its ticks; each half keeps its
        # own heard beacons, on its own channels.
        assert len([v for v in cfg._memo.cells.values() if v is not None]) == 1
        channels = {tuple(b.channel for b in walk) for _, _, _, walk, _ in kept_heard(cfg)}
        assert {(6, 6), (2, 9)} <= channels

    def test_flyover_builds_few_beacons_nodes_and_sessions(self, monkeypatch):
        # A fresh 1000-trial flyover builds its beacons, sorts them and
        # scores a session only for a cell, set of heard beacons or read
        # that no earlier trial had.
        calls = Counter()

        def counted(name):
            wrapped = getattr(beaconveil.sim, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)
            monkeypatch.setattr(beaconveil.sim, name, call)

        for name in ("Beacon", "_in_order", "_scored_session", "SensorNode"):
            counted(name)
        report = run_scenario(build_flyover(1000))
        assert len(report.trials) == 1000
        assert calls["Beacon"] <= 64
        assert calls["_in_order"] <= 16
        assert calls["_scored_session"] <= 8
        assert calls["SensorNode"] == calls["_scored_session"]
