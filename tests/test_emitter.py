"""Schedule compiler, mutations, candidate samplers, and the golden timeline."""

from pathlib import Path

import numpy as np
import pytest

from beaconveil import (DEFAULT_BAND, FlipTxBit, PatternError, SecretPattern,
                        SlotConfig, SlotFitError, Triplet, TxPattern,
                        TxPowerLevels, WrongChannel, WrongInterval,
                        candidate_from_index, compile_schedule, iter_candidates,
                        mutate, parse_pattern, pattern_space_size,
                        random_candidate, random_pattern, render_pattern,
                        replay_timeline, validate_pattern)

GOLDEN = Path(__file__).parent / "golden" / "fig3_timeline.txt"
FIG3 = parse_pattern("010@1:- 101@6:1 010@6:2 101@11:2", "fig3")
TX = TxPowerLevels()


class TestCompileSchedule:
    def test_beacon_times_scale_with_tu(self):
        # intervals (-, 1, 2, 2) accumulate to 0, 1, 3, 5 time units
        t1 = compile_schedule(FIG3, SlotConfig(slot_s=0.1, tu_s=1.0, guard_s=0.05), TX)
        assert [b.t_s for b in t1.beacons] == pytest.approx([0.0, 1.0, 3.0, 5.0])
        t4 = compile_schedule(FIG3, SlotConfig(), TX)  # tu_s = 4.0
        assert [b.t_s for b in t4.beacons] == pytest.approx([0.0, 4.0, 12.0, 20.0])

    def test_beacon_channels_and_nonces(self):
        t = compile_schedule(FIG3, SlotConfig(), TX, nonce_prefix="x")
        assert [b.channel for b in t.beacons] == [1, 6, 6, 11]
        assert [b.seq_no for b in t.beacons] == [0, 1, 2, 3]
        assert [b.nonce for b in t.beacons] == ["x.0", "x.1", "x.2", "x.3"]
        assert len(t.nonces()) == 4

    def test_power_steps_follow_bits(self):
        p = parse_pattern("010@1:- 101@1:1", "p")
        cfg = SlotConfig(slot_s=0.2, tu_s=1.0, guard_s=0.1)
        t = compile_schedule(p, cfg, TX)
        # burst 0: low/high/low over [0, 0.6)
        assert t.levels_at(0.0) == 7.0
        assert t.levels_at(0.2) == 13.0
        assert t.levels_at(0.39) == 13.0
        assert t.levels_at(0.4) == 7.0
        # idle gap between bursts stays low
        assert t.levels_at(0.8) == 7.0
        # burst 1: high/low/high from t=1.0
        assert t.levels_at(1.0) == 13.0
        assert t.levels_at(1.3) == 7.0
        assert t.levels_at(1.5) == 13.0
        assert t.duration_s == pytest.approx(1.0 + 0.6 + 0.1)

    def test_levels_at_matches_level_at(self):
        t = compile_schedule(FIG3, SlotConfig(), TX)
        times = np.linspace(0.0, t.duration_s - 1e-9, 400)
        vec = t.levels_at(times)
        assert vec.tolist() == [t.levels_at(x) for x in times.tolist()]

    def test_burst_must_fit_inside_min_interval(self):
        with pytest.raises(SlotFitError):
            compile_schedule(FIG3, SlotConfig(slot_s=2.0, tu_s=4.0, guard_s=0.5), TX)

    def test_invalid_pattern_refused_unless_raw(self):
        raw = SecretPattern("raw", (
            Triplet(TxPattern("00"), 1, None), Triplet(TxPattern("00"), 1, 1)))
        with pytest.raises(PatternError):
            compile_schedule(raw, SlotConfig(), TX)
        t = compile_schedule(raw, SlotConfig(), TX, require_valid=False)
        assert len(t.beacons) == 2

    def test_golden_timeline_dump(self):
        text = compile_schedule(FIG3, SlotConfig(), TX).dump()
        if not GOLDEN.exists():  # first run freezes the baseline
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text(text, encoding="utf-8")
        assert text == GOLDEN.read_text(encoding="utf-8")


class TestMutations:
    def test_flip_tx_bit(self):
        m = mutate(FIG3, FlipTxBit(1, 0))
        assert m.triplets[1].tx_pattern.bits == "001"
        assert m.triplets[0] == FIG3.triplets[0]

    def test_wrong_channel(self):
        m = mutate(FIG3, WrongChannel(1, 9))
        assert m.triplets[1].channel == 9

    def test_wrong_interval(self):
        m = mutate(FIG3, WrongInterval(2, 1))
        assert m.triplets[2].interval_tu == 1

    def test_flip_to_all_equal_is_refused(self):
        p = parse_pattern("01@1:- 10@1:1", "p")
        with pytest.raises(PatternError):
            mutate(p, FlipTxBit(0, 0))  # 01 -> 11

    def test_noop_mutations_are_refused(self):
        with pytest.raises(ValueError):
            mutate(FIG3, WrongChannel(1, 6))
        with pytest.raises(ValueError):
            mutate(FIG3, WrongInterval(2, 2))
        with pytest.raises(ValueError):
            mutate(FIG3, WrongInterval(0, 3))  # first triplet has no interval
        with pytest.raises(ValueError):
            mutate(FIG3, FlipTxBit(9, 0))
        with pytest.raises(TypeError):
            mutate(FIG3, "not a mutation")


class TestSamplers:
    def test_random_pattern_is_always_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_pattern(rng, 3, 4, DEFAULT_BAND, 16)
            assert validate_pattern(p).ok, render_pattern(p)

    def test_random_pattern_uniform_over_valid_space(self):
        from scipy.stats import chisquare
        # n=2 L=2 on a 2-channel slice: 2 mixed bit pairs x 2 channels per
        # triplet = 16 valid patterns
        band2 = type(DEFAULT_BAND)("b2", 2, 2412.0, 5.0)
        rng = np.random.default_rng(7)
        counts = {}
        draws = 16000
        for _ in range(draws):
            key = render_pattern(random_pattern(rng, 2, 2, band2, 1))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 16
        stat, pvalue = chisquare(list(counts.values()))
        assert pvalue > 0.001

    def test_random_candidate_uniform_over_raw_space(self):
        from scipy.stats import chisquare
        rng = np.random.default_rng(11)
        space = pattern_space_size(2, 2, 2, 2)
        counts = {}
        draws = 64000
        for _ in range(draws):
            key = render_pattern(random_candidate(rng, 2, 2, 2, 2))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == space == 64
        stat, pvalue = chisquare(list(counts.values()))
        assert pvalue > 0.001

    def test_candidate_index_bijection(self):
        space = pattern_space_size(2, 2, 2, 2)
        listed = [render_pattern(p) for p in iter_candidates(2, 2, 2, 2)]
        assert len(listed) == space
        assert len(set(listed)) == space
        indexed = [render_pattern(candidate_from_index(i, 2, 2, 2, 2))
                   for i in range(space)]
        assert indexed == listed

    def test_candidate_index_bijection_with_intervals(self):
        space = pattern_space_size(1, 3, 2, 3)
        listed = [render_pattern(p) for p in iter_candidates(1, 3, 2, 3)]
        indexed = [render_pattern(candidate_from_index(i, 1, 3, 2, 3))
                   for i in range(space)]
        assert indexed == listed
        assert len(set(listed)) == space == 8 * 8 * 3

    def test_candidate_index_bounds(self):
        with pytest.raises(ValueError):
            candidate_from_index(-1, 2, 2, 2, 2)
        with pytest.raises(ValueError):
            candidate_from_index(64, 2, 2, 2, 2)

    def test_ids(self):
        rng = np.random.default_rng(0)
        assert random_pattern(rng, 2, 2, DEFAULT_BAND, 16, pattern_id="me").pattern_id == "me"
        assert random_candidate(rng, 2, 2, 2, 2, pattern_id="c9").pattern_id == "c9"


class TestReplay:
    def test_replay_marks_and_preserves(self):
        t = compile_schedule(FIG3, SlotConfig(), TX)
        r = replay_timeline(t)
        assert r.replayed and not t.replayed
        assert r.beacons == t.beacons
        assert r.power_steps == t.power_steps
