"""Engine behavior: determinism, actors, metrics, sweeps."""

import dataclasses
import math
import pickle
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import beaconveil.sim
from beaconveil import (ACCEPTED, REJECTED, BandPlan, BruteForce, ChannelParams,
                        FlipTxBit, Legit, Mitm, Mutant, Proto, Replay,
                        SecretPattern, SensorConfig, SlotConfig, SlotFitError,
                        Trajectory, Triplet, TxPattern, TxPowerLevels,
                        WrongChannel, WrongInterval, authenticate, build_fig3,
                        build_flyover, build_proto, compile_schedule,
                        compute_metrics, dump_scenario, eavesdrop,
                        extract_triplets, monte_carlo, new_matcher,
                        observe_emission, parse_pattern,
                        run_scenario, run_trial, sweep, validate_scenario,
                        wilson)

from scenario_builders import build_desk, build_desk_multi


def verdicts(report):
    return [(t.trial, t.result.verdict, t.result.duration_s) for t in report.trials]


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
        # beyond the core count must not reach it. The fake pool runs each
        # block inline and records the size it was asked for.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(beaconveil.sim, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(beaconveil.sim.os, "cpu_count", lambda: 2)
        cfg = build_desk(BruteForce(2, 2), 40)
        serial = run_scenario(cfg)
        capped = run_scenario(cfg, workers=4096)
        assert sizes == [2]
        assert capped == serial
        monkeypatch.setattr(beaconveil.sim.os, "cpu_count", lambda: None)
        assert run_scenario(cfg, workers=4096) == serial
        assert sizes == [2]

    def test_seed_changes_outcome_stream(self):
        cfg = build_desk(BruteForce(2, 2), 64, seed=1)
        other = dataclasses.replace(cfg, seed=2)
        assert verdicts(run_scenario(cfg)) != verdicts(run_scenario(other))


class TestActors:
    def test_legit_noiseless_always_accepts(self):
        m = monte_carlo(build_desk(Legit("desk"), 200))
        assert m.frr == 0.0
        assert m.far is None
        assert m.per_reason_counts == {"accepted": 200}

    def test_mutant_channel(self):
        m = monte_carlo(build_desk(Mutant("desk", WrongChannel(1, 1)), 20))
        assert m.far == 0.0
        assert m.frr is None
        assert m.per_reason_counts == {"channel@1": 20}

    def test_mutant_txpower_on_wide_pattern(self):
        cfg = build_fig3("b")
        cfg = dataclasses.replace(cfg, trials=10)
        m = monte_carlo(cfg)
        assert m.per_reason_counts == {"txpower@1": 10}

    def test_mutant_second_interval_rescales_time_unit(self):
        # stretching the TU-defining interval is invisible by construction:
        # the sensor measures the unit from that very interval
        m = monte_carlo(build_desk(Mutant("desk", WrongInterval(1, 2)), 10))
        assert m.per_reason_counts == {"accepted": 10}
        assert m.far == 1.0

    def test_replay_always_rejected(self):
        m = monte_carlo(build_desk(Replay("desk"), 25))
        assert m.far == 0.0
        assert m.per_reason_counts == {"replay": 25}

    def test_mitm_detected_by_round_trip(self):
        cfg = build_desk(Mitm("desk", 0.2), 10, app_secret="s3cr3t")
        m = monte_carlo(cfg)
        assert m.per_reason_counts == {"mitm-delay": 10}

    def test_mitm_with_negligible_delay_passes(self):
        # a relay adding no measurable delay is indistinguishable on purpose
        cfg = build_desk(Mitm("desk", 0.0), 10, app_secret="s3cr3t")
        m = monte_carlo(cfg)
        assert m.per_reason_counts == {"accepted": 10}

    def test_mutant_fails_app_stage_even_if_phy_accepts(self):
        cfg = build_desk(Mutant("desk", WrongInterval(1, 2)), 6, app_secret="s3cr3t")
        m = monte_carlo(cfg)
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


class TestMetrics:
    def test_counts_partition_trials(self):
        m = monte_carlo(build_desk(BruteForce(2, 2), 400))
        assert sum(m.per_reason_counts.values()) == 400 == m.trials

    def test_no_adversaries_means_no_far(self):
        m = monte_carlo(build_desk(Legit("desk"), 10))
        assert m.far is None and m.far_ci_95 is None
        assert m.frr == 0.0 and m.frr_ci_95 is not None

    def test_no_legit_means_no_frr(self):
        m = monte_carlo(build_desk(BruteForce(2, 2), 10))
        assert m.frr is None and m.frr_ci_95 is None

    def test_mean_session_duration(self):
        rep = run_scenario(build_desk(Legit("desk"), 8))
        mean = sum(t.result.duration_s for t in rep.trials) / 8
        assert rep.metrics.mean_session_s == pytest.approx(mean)

    def test_to_dict_shape(self):
        d = monte_carlo(build_desk(Legit("desk"), 4)).to_dict()
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

    def test_proto_pattern_b_that_does_not_fit_tu_b_s(self):
        cfg = dataclasses.replace(build_proto(), actor=Proto("pi1", "pi2", 0.5))
        assert any("proto pattern_b does not fit" in p for p in validate_scenario(cfg))
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

    def test_actor_range_checks_catch_nan(self):
        # A nan that got past the constructor still fails the range checks.
        mitm, proto = Mitm("desk", 0.0), Proto("desk", "desk", 1.0)
        object.__setattr__(mitm, "extra_delay_s", math.nan)
        object.__setattr__(proto, "tu_b_s", math.nan)
        for actor, problem in ((Mitm("desk", -0.1), "extra_delay_s must be >= 0"),
                               (mitm, "extra_delay_s must be >= 0"),
                               (Proto("desk", "desk", 0.0), "tu_b_s must be > 0"),
                               (proto, "tu_b_s must be > 0")):
            assert problem in validate_scenario(build_desk(actor, 1))[-1]

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
        # A replaced config is a new config and is checked again.
        assert validate_scenario(dataclasses.replace(cfg, trials=0)) \
            == ["trials must be >= 1, got 0"]
        assert sorted(checked) == sorted(ids * 2)

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
    @given(p=valid_patterns(), d=st.floats(0.5, 20.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_noiseless_readers_agree_with_the_air(self, p, d, seed):
        # Session, offline extraction and the perfect receiver all read the
        # credential that went on air, fig3 slot timing, in noiseless range.
        slot_cfg = SlotConfig()
        tx = TxPowerLevels()
        n = p.bit_count
        # widened like the simulator's watchdog, so long gaps do not time out
        cfg = SensorConfig(f_s=5.0, n=n, watchdog_s=(MAX_TU + 2) * slot_cfg.tu_s)
        tl = compile_schedule(p, slot_cfg, tx)
        beacons, samples = observe_emission(
            tl, Trajectory(((0.0, d),)), ChannelParams(sigma_db=0.0), tx, cfg,
            slot_cfg, np.random.default_rng(seed))
        res = authenticate(beacons, samples, [p], cfg, slot_cfg)
        assert res.verdict == ACCEPTED
        assert (res.transcript
                == extract_triplets(beacons, samples, cfg, slot_cfg.slot_s)
                == eavesdrop(tl, slot_cfg, tx, n)
                == p.triplets)
