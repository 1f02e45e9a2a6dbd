"""Schedule compiler, mutations, candidate samplers, and the golden timeline."""

import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beaconveil import (DEFAULT_BAND, BandPlan, FlipTxBit, PatternError,
                        SecretPattern, SlotConfig, SlotFitError, Triplet,
                        TxPattern, TxPowerLevels, WrongChannel, WrongInterval,
                        candidate_from_index, compile_schedule, eavesdrop,
                        iter_candidates, mutate, parse_pattern,
                        pattern_space_size, random_candidate, random_pattern,
                        render_pattern, validate_pattern)
from beaconveil.emitter import _candidate_digits, _raw_candidate

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
        assert len({b.nonce for b in t.beacons}) == 4

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

    def test_raw_pattern_schedules(self):
        raw = SecretPattern("raw", (
            Triplet(TxPattern("00"), 1, None), Triplet(TxPattern("00"), 1, 1)))
        t = compile_schedule(raw, SlotConfig(), TX)
        assert len(t.beacons) == 2

    def test_golden_timeline_dump(self):
        text = compile_schedule(FIG3, SlotConfig(), TX).dump()
        if not GOLDEN.exists():  # first run freezes the baseline
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text(text, encoding="utf-8")
        assert text == GOLDEN.read_text(encoding="utf-8")


def assert_laid_out(p):
    """p compiles to one beacon per triplet, steps in time order, and bits
    that a perfect receiver reads back unchanged."""
    t = compile_schedule(p, SlotConfig(), TX)
    assert len(t.beacons) == p.length
    assert (np.diff(t.starts) >= 0).all()
    heard = eavesdrop(t, SlotConfig(), TX, p.bit_count)
    assert [h.tx_pattern.bits for h in heard] == [q.tx_pattern.bits for q in p.triplets]


@st.composite
def raw_candidates(draw):
    n, L = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    channels, max_tu = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    index = draw(st.integers(0, pattern_space_size(n, L, channels, max_tu) - 1))
    return candidate_from_index(index, n, L, channels, max_tu)


class TestLaysOutAnyPattern:
    """compile_schedule lays out any pattern of two or more triplets with
    one bit count and positive intervals, valid credential or not."""

    @given(p=raw_candidates())
    @settings(max_examples=300, deadline=None)
    def test_raw_candidates(self, p):
        assert_laid_out(p)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), L=st.integers(2, 4),
           channels=st.integers(1, 3), max_tu=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_mutant(self, seed, n, L, channels, max_tu):
        p = random_pattern(np.random.default_rng(seed), n, L,
                           BandPlan("b", channels, 2412.0, 5.0), max_tu)
        mutations = ([FlipTxBit(i, b) for i in range(L) for b in range(n)]
                     + [WrongChannel(i, c) for i in range(L) for c in range(channels + 2)]
                     + [WrongInterval(i, k) for i in range(L) for k in range(max_tu + 2)])
        laid_out = 0
        for m in mutations:
            try:
                mutant = mutate(p, m)
            except ValueError:
                continue
            assert_laid_out(mutant)
            laid_out += 1
        assert laid_out > 0

    @pytest.mark.parametrize("rows", [
        [("01", None), ("01010", 1), ("10", 3)],
        [("01", None), ("10", 1), ("101", 2)],
        [],
        [("01", None)],
        [("01", None), ("10", None)],
        [("01", None), ("10", 1), ("01", None)],
        [("01", None), ("10", 0)],
    ], ids=["mixed-bits", "mixed-bits-last", "empty", "one-triplet",
            "missing-second", "missing-third", "zero-interval"])
    def test_unschedulable_refused(self, rows):
        p = SecretPattern("p", tuple(Triplet(TxPattern(b), 1, iv) for b, iv in rows))
        with pytest.raises(PatternError):
            compile_schedule(p, SlotConfig(), TX)


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

    @pytest.mark.parametrize("n", [63, 64])
    def test_random_pattern_past_62_bits(self, n):
        # drawn bit by bit, since 2^n - 2 overflows the integer draw
        p = random_pattern(np.random.default_rng(5), n, 3, DEFAULT_BAND, 16)
        assert validate_pattern(p).ok, render_pattern(p)
        assert {len(t.tx_pattern) for t in p.triplets} == {n}

    def test_random_candidate_needs_two_triplets(self):
        with pytest.raises(ValueError, match="L >= 2"):
            random_candidate(np.random.default_rng(0), 2, 1, 2, 2)

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

    # Bounds up to 2^63 reach numpy's 64-bit bounded draw as well as its
    # 32-bit one, whose cached half-word a later 32-bit draw uses.
    @given(seed=st.integers(0, 2**64), n=st.integers(1, 64), L=st.integers(2, 5),
           channels=st.integers(1, 2**63), max_tu=st.integers(1, 2**63))
    @example(seed=1, n=3, L=4, channels=2**32 - 1, max_tu=2**32 - 1)
    @example(seed=2, n=3, L=4, channels=2**32, max_tu=2**32)
    @example(seed=3, n=3, L=4, channels=2**32 + 1, max_tu=2**32 + 1)
    @example(seed=4, n=3, L=4, channels=2**63, max_tu=2**63)
    @example(seed=5, n=1, L=5, channels=3, max_tu=2**32 + 1)
    @example(seed=0, n=3, L=2000, channels=14, max_tu=16)  # index past 4300 digits
    @settings(max_examples=200, deadline=None)
    def test_candidate_index_draws_as_random_candidate(self, seed, n, L, channels,
                                                       max_tu):
        # The reference is one draw per digit, triplet by triplet: n bits,
        # the channel, then from the third triplet the interval.
        ref = np.random.default_rng(seed)
        triplets = []
        for i in range(L):
            bits = "".join("1" if b else "0" for b in ref.integers(0, 2, size=n))
            channel = 1 + int(ref.integers(0, channels))
            interval = None if i == 0 else (1 if i == 1 else 1 + int(ref.integers(0, max_tu)))
            triplets.append(Triplet(TxPattern(bits), channel, interval))
        rng = np.random.default_rng(seed)
        drawn = random_candidate(rng, n, L, channels, max_tu)
        assert drawn.triplets == tuple(triplets)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert drawn.pattern_id == "cand"

    @pytest.mark.parametrize("L, channels, max_tu", [
        (2, 2**63 + 1, 1), (2, 2**70, 1), (3, 1, 2**63 + 1), (3, 1, 2**70)])
    def test_candidate_index_bound_past_2_63(self, L, channels, max_tu):
        # numpy's int64 draw refuses such a bound with ValueError; a uint64
        # array of bounds would fail with OverflowError past 2^64 instead.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="high is out of bounds for int64"):
            random_candidate(rng, 2, L, channels, max_tu)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_candidate_index_max_tu_past_2_63_unused_at_two_triplets(self):
        p = random_candidate(np.random.default_rng(0), 2, 2, 2**63, 2**70)
        assert [t.interval_tu for t in p.triplets] == [None, 1]
        assert all(len(t.tx_pattern) == 2 and 1 <= t.channel <= 2**63 for t in p.triplets)

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

    @pytest.mark.parametrize("n, L, channels, max_tu", [(2, 2, 2, 2), (1, 3, 2, 3)])
    def test_every_digit_row_builds_one_candidate(self, n, L, channels, max_tu):
        bounds = _candidate_digits(n, L, channels, max_tu)
        built = Counter(_raw_candidate(row, n, L).triplets
                        for row in itertools.product(*map(range, bounds)))
        listed = Counter(p.triplets for p in iter_candidates(n, L, channels, max_tu))
        assert built == listed
        assert set(built.values()) == {1}

    def test_candidate_index_bounds(self):
        with pytest.raises(ValueError):
            candidate_from_index(-1, 2, 2, 2, 2)
        with pytest.raises(ValueError):
            candidate_from_index(64, 2, 2, 2, 2)

    def test_candidate_index_past_4300_digits(self):
        # The n = 3, L = 2000 space of a 14-channel band runs past the 4300
        # digits str(int) converts; the id still spells out every digit.
        space = pattern_space_size(3, 2000, 14, 16)
        index = 10**5000 + 7
        assert index < space
        p = candidate_from_index(index, 3, 2000, 14, 16)
        assert p.pattern_id == "cand1" + "0" * 4999 + "7"
        assert p.length == 2000 and p.triplets[0].tx_pattern.bits == "111"
        last = candidate_from_index(space - 1, 3, 2000, 14, 16)
        assert {(t.tx_pattern.bits, t.channel) for t in last.triplets} == {("111", 14)}
        assert {t.interval_tu for t in last.triplets[2:]} == {16}
        assert candidate_from_index(63, 2, 2, 2, 2).pattern_id == "cand63"

    def test_ids(self):
        rng = np.random.default_rng(0)
        assert random_pattern(rng, 2, 2, DEFAULT_BAND, 16, pattern_id="me").pattern_id == "me"

