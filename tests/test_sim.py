"""Engine behavior: determinism, actors, metrics, sweeps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beaconveil import (ACCEPTED, REJECTED, BruteForce, ChannelParams,
                        FlipTxBit, Legit, Mitm, Mutant, Proto, Replay,
                        SecretPattern, SensorConfig, SlotConfig, Trajectory,
                        Triplet, TxPattern, TxPowerLevels, WrongChannel,
                        WrongInterval, authenticate, build_fig3,
                        build_flyover, build_proto, compile_schedule,
                        compute_metrics, eavesdrop, extract_triplets,
                        monte_carlo, observe_emission, parse_pattern,
                        run_scenario, run_trial, sweep, validate_scenario,
                        wilson)

from scenario_builders import build_desk


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

    def test_undersampling_flagged(self):
        cfg = build_desk(Legit("desk"), 1, f_s=4.0)
        assert any("undersample" in p for p in validate_scenario(cfg))

    def test_impossible_mutation_flagged(self):
        cfg = build_desk(Mutant("desk", FlipTxBit(0, 0)), 1)  # 01 -> 11
        assert any("mutation" in p for p in validate_scenario(cfg))

    def test_bad_trials_and_seed(self):
        cfg = dataclasses.replace(build_desk(Legit("desk"), 1), trials=0, seed=-1)
        problems = validate_scenario(cfg)
        assert any("trials" in p for p in problems)
        assert any("seed" in p for p in problems)


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
