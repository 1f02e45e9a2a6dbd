"""Pattern model, validation, matcher, and grammar round-trips."""

import math
import random
import time
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

import beaconveil
from beaconveil import (DEFAULT_BAND, MAX_BITS, ACCEPTED, IN_PROGRESS, REJECTED,
                        BandPlan, MatcherError, PatternError, RejectReason,
                        SecretPattern, Triplet, TxPattern, ValidationReport,
                        Violation, candidate_from_index, match_step,
                        new_matcher, parse_pattern, pattern_space_size,
                        render_pattern, validate_pattern)


def tp(bits):
    return TxPattern(bits)


def make(pid, *trips):
    return SecretPattern(pid, tuple(
        Triplet(tp(b), ch, iv) for b, ch, iv in trips))


GOOD = make("good", ("010", 1, None), ("101", 6, 1), ("010", 6, 2), ("101", 11, 2))


class TestPublicNames:
    def test_all_lists_names_not_submodules(self):
        # Importing the names binds beaconveil.core, .sim and the rest in
        # the package too; those stay importable but are not exported.
        for name in beaconveil.__all__:
            assert not isinstance(getattr(beaconveil, name), types.ModuleType), name
        assert isinstance(beaconveil.sim, types.ModuleType)
        assert "sim" not in beaconveil.__all__


class TestTxPattern:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            tp("01a")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tp("")

    def test_length(self):
        assert len(tp("0110")) == 4
        assert str(tp("0110")) == "0110"


class TestValidation:
    def test_good_pattern_passes(self):
        assert validate_pattern(GOOD).ok

    def test_single_triplet_is_too_short(self):
        p = make("p", ("01", 1, None))
        codes = {v.code for v in validate_pattern(p).violations}
        assert "bad-length" in codes

    def test_mixed_bit_lengths(self):
        p = make("p", ("01", 1, None), ("011", 1, 1))
        codes = {v.code for v in validate_pattern(p).violations}
        assert "mixed-n" in codes

    def test_all_equal_bits(self):
        p = make("p", ("00", 1, None), ("01", 1, 1))
        codes = {v.code for v in validate_pattern(p).violations}
        assert "all-equal-bits" in codes

    def test_first_triplet_must_not_carry_interval(self):
        p = make("p", ("01", 1, 1), ("10", 1, 1))
        codes = {v.code for v in validate_pattern(p).violations}
        assert "bad-first-interval" in codes

    def test_second_interval_must_be_one(self):
        p = make("p", ("01", 1, None), ("10", 1, 2))
        codes = {v.code for v in validate_pattern(p).violations}
        assert "bad-second-interval" in codes

    def test_missing_interval_after_first(self):
        p = make("p", ("01", 1, None), ("10", 1, 1), ("01", 1, None))
        codes = {v.code for v in validate_pattern(p).violations}
        assert "missing-interval" in codes

    def test_channel_out_of_band(self):
        p = make("p", ("01", 15, None), ("10", 1, 1))
        codes = {v.code for v in validate_pattern(p).violations}
        assert "channel-out-of-band" in codes
        # same pattern is fine on a wider band
        wide = BandPlan("wide", 20, 2412.0, 5.0)
        assert "channel-out-of-band" not in {
            v.code for v in validate_pattern(p, band=wide).violations}

    def test_interval_out_of_range(self):
        p = make("p", ("01", 1, None), ("10", 1, 1), ("01", 1, 17))
        codes = {v.code for v in validate_pattern(p).violations}
        assert "interval-out-of-range" in codes
        assert "interval-out-of-range" not in {
            v.code for v in validate_pattern(p, max_tu=17).violations}

    def test_violation_names_its_triplet(self):
        p = make("p", ("00", 1, None), ("01", 1, 1))
        assert validate_pattern(p).violations == (Violation(
            "all-equal-bits", "triplet 0 tx_pattern 00 has no transition"),)

    def test_bits_too_long(self):
        p = make("p", ("01" * 33, 1, None), ("10" * 33, 1, 1))
        codes = {v.code for v in validate_pattern(p).violations}
        assert "bad-bit-length" in codes


def _reference_report(p, band, max_tu):
    """validate_pattern as the full listing of every violation, in order."""
    out = []
    if p.length < 2:
        out.append(Violation("bad-length", f"pattern length L < 2 (got {p.length})"))
    else:
        n = len(p.triplets[0].tx_pattern)
        for i, t in enumerate(p.triplets):
            bits = t.tx_pattern.bits
            if len(bits) != n:
                out.append(Violation("mixed-n", f"triplet {i} has {len(bits)} bits, expected {n}"))
            if not 2 <= len(bits) <= MAX_BITS:
                out.append(Violation("bad-bit-length", f"triplet {i} bit count {len(bits)} outside [2, {MAX_BITS}]"))
            elif len(set(bits)) == 1:
                out.append(Violation("all-equal-bits", f"triplet {i} tx_pattern {bits} has no transition"))
            if i == 0:
                if t.interval_tu is not None:
                    out.append(Violation("bad-first-interval", "triplet 0 must carry no interval"))
            elif t.interval_tu is None:
                out.append(Violation("missing-interval", f"triplet {i} must carry an interval"))
            elif i == 1 and t.interval_tu != 1:
                out.append(Violation("bad-second-interval", f"second interval must be 1 TU, got {t.interval_tu}"))
    for i, t in enumerate(p.triplets):
        if not 1 <= t.channel <= band.channel_count:
            out.append(Violation("channel-out-of-band",
                                 f"triplet {i} channel {t.channel} outside 1..{band.channel_count}"))
        if t.interval_tu is not None and not 1 <= t.interval_tu <= max_tu:
            out.append(Violation("interval-out-of-range",
                                 f"triplet {i} interval {t.interval_tu} outside 1..{max_tu}"))
    return ValidationReport(tuple(out))


@st.composite
def near_valid_patterns(draw):
    """(pattern, band, max_tu): a valid pattern of length 0-5 with up to two
    fields redrawn from a wider range, so single violations are common.
    The choices are uniform: Hypothesis's own integers lean to small values
    and would seldom redraw a late interval to just past max_tu."""
    rnd = draw(st.randoms(use_true_random=False))
    channels, max_tu, n = rnd.randint(1, 4), rnd.randint(1, 4), rnd.randint(2, 3)
    mixed = [b for b in ("01", "10", "001", "010", "011", "100", "101", "110")
             if len(b) == n]
    rows = []
    for i in range(rnd.randint(0, 5)):
        iv = None if i == 0 else 1 if i == 1 else rnd.randint(1, max_tu)
        rows.append([rnd.choice(mixed), rnd.randint(1, channels), iv])
    wide = (lambda: "".join(rnd.choice("01") for _ in range(rnd.randint(1, 3))),
            lambda: rnd.randint(0, channels + 1),
            lambda: rnd.choice([None, *range(max_tu + 2)]))
    for _ in range(rnd.choice([0, 1, 1, 2]) if rows else 0):
        field = rnd.randrange(3)
        rows[rnd.randrange(len(rows))][field] = wide[field]()
    p = SecretPattern("p", tuple(Triplet(tp(b), c, iv) for b, c, iv in rows))
    return p, BandPlan("b", channels, 2412.0, 5.0), max_tu


class TestOnePassValidation:
    @given(case=near_valid_patterns())
    @settings(max_examples=2000, deadline=None)
    def test_matches_the_full_listing(self, case):
        p, band, max_tu = case
        assert validate_pattern(p, band, max_tu) == _reference_report(p, band, max_tu)


class TestSpaceSize:
    def test_matches_independent_product(self):
        # straight recomputation from the counting argument
        n, L, channels, max_tu = 3, 4, 14, 4
        expected = (2 ** (n * L)) * channels ** L * max_tu ** (L - 2)
        assert expected == 2517630976
        assert pattern_space_size(n, L, channels, max_tu) == expected

    def test_small_spaces(self):
        assert pattern_space_size(2, 2, 2, 2) == 64
        assert pattern_space_size(2, 2, 1, 1) == 16
        assert pattern_space_size(1, 5, 1, 1) == 32
        assert pattern_space_size(2, 3, 1, 1) == 64

    def test_exact_bigint(self):
        # must not round through floats
        assert pattern_space_size(10, 8, 14, 16) == (
            (1 << 80) * 14 ** 8 * 16 ** 6)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            pattern_space_size(0, 2, 1, 1)
        with pytest.raises(ValueError):
            pattern_space_size(2, 1, 1, 1)


class TestRejectReason:
    def test_indexed_forms(self):
        assert RejectReason("txpower", 1).code == "txpower@1"
        assert RejectReason("undecodable", 0).code == "undecodable@0"

    def test_plain_forms(self):
        assert RejectReason("replay").code == "replay"


def obs(b, ch, iv):
    return Triplet(tp(b), ch, iv)


class TestMatcher:
    def test_accepts_exact_sequence(self):
        state = new_matcher([GOOD])
        for t in GOOD.triplets:
            state = match_step(state, t)
        assert state.status == ACCEPTED
        assert state.accepted_id == "good"

    def test_interval_ignored_on_first_triplet(self):
        state = new_matcher([GOOD])
        state = match_step(state, obs("010", 1, None))
        assert state.status == IN_PROGRESS

    def test_reject_reports_field_and_index(self):
        state = new_matcher([GOOD])
        state = match_step(state, GOOD.triplets[0])
        state = match_step(state, obs("001", 6, 1))
        assert state.status == REJECTED
        assert state.reason == RejectReason("txpower", 1)

    def test_mismatch_precedence_txpower_over_channel_over_interval(self):
        state = new_matcher([GOOD])
        state = match_step(state, GOOD.triplets[0])
        st2 = match_step(state, obs("001", 9, 2))
        assert st2.reason.kind == "txpower"
        st2 = match_step(state, obs("101", 9, 2))
        assert st2.reason.kind == "channel"
        st2 = match_step(state, obs("101", 6, 2))
        assert st2.reason.kind == "interval"

    def test_two_patterns_shared_prefix(self):
        a = make("a", ("01", 1, None), ("10", 2, 1))
        b = make("b", ("01", 1, None), ("10", 2, 1), ("01", 3, 2))
        store = [a, b]
        state = new_matcher(store)
        state = match_step(state, a.triplets[0])
        assert state.status == IN_PROGRESS
        state = match_step(state, a.triplets[1])
        # shortest completed pattern wins the tie
        assert state.status == ACCEPTED
        assert state.accepted_id == "a"

    def test_divergent_store_keeps_viable_branch(self):
        a = make("a", ("01", 1, None), ("10", 2, 1))
        b = make("b", ("10", 1, None), ("01", 2, 1))
        store = [a, b]
        state = new_matcher(store)
        state = match_step(state, obs("10", 1, None))
        assert state.status == IN_PROGRESS
        assert [p.pattern_id for p in state.viable] == ["b"]
        state = match_step(state, obs("01", 2, 1))
        assert state.accepted_id == "b"

    def test_empty_store_is_refused(self):
        with pytest.raises(ValueError):
            new_matcher([])

    def test_duplicate_ids_are_refused(self):
        a = make("a", ("01", 1, None), ("10", 2, 1))
        b = make("a", ("10", 1, None), ("01", 2, 1))
        with pytest.raises(ValueError, match="duplicate pattern_id 'a'"):
            new_matcher([a, b])

    def test_all_patterns_dropped_reports_no_viable(self):
        a = make("a", ("01", 1, None), ("10", 2, 1))
        state = new_matcher([a])
        state = match_step(state, obs("10", 1, None))
        assert state.status == REJECTED
        assert state.reason.kind == "txpower"

    def test_step_after_terminal_raises(self):
        a = make("a", ("01", 1, None), ("10", 2, 1))
        store = [a]
        state = new_matcher(store)
        for t in a.triplets:
            state = match_step(state, t)
        assert state.terminal
        with pytest.raises(MatcherError):
            match_step(state, obs("01", 1, None))


# A two-bit, two-channel, two-interval alphabet makes shared prefixes,
# identical patterns under different ids and index-0 intervals that differ
# (which the matcher must ignore) common in small stores.
_SMALL_TRIPLETS = st.builds(obs, st.sampled_from(["01", "10"]),
                            st.sampled_from([1, 2]), st.sampled_from([None, 1, 2]))


@st.composite
def matcher_stores(draw):
    bases = draw(st.lists(st.lists(_SMALL_TRIPLETS, min_size=1, max_size=5),
                          min_size=1, max_size=3))
    ids = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=2),
                        min_size=1, max_size=12, unique=True))
    store = []
    for pid in ids:
        # Each pattern is a prefix of a shared base, sometimes with its tail
        # redrawn, so completions on the same step and late divergence occur.
        base = draw(st.sampled_from(bases))
        trips = base[:draw(st.integers(1, len(base)))]
        if draw(st.booleans()):
            cut = draw(st.integers(0, len(trips) - 1))
            trips = trips[:cut] + draw(st.lists(_SMALL_TRIPLETS, min_size=1,
                                                max_size=5 - cut))
        store.append(SecretPattern(pid, tuple(trips)))
    return store


def _agrees(p, seen):
    """p's first len(seen) triplets equal seen, intervals from index 1."""
    return len(p.triplets) >= len(seen) and all(
        o.tx_pattern == t.tx_pattern and o.channel == t.channel
        and (i == 0 or o.interval_tu == t.interval_tu)
        for i, (o, t) in enumerate(zip(seen, p.triplets)))


def _reference_step(store, seen):
    """The matcher after len(seen) triplets, from the definition alone:
    (status, accepted_id, reason code, number still viable)."""
    k = len(seen)
    agree = sorted((p for p in store if _agrees(p, seen)), key=lambda p: p.pattern_id)
    viable = [p for p in agree if p.length > k]
    done = [p.pattern_id for p in agree if p.length == k]
    if done:
        return ACCEPTED, done[0], None, len(viable)
    if viable:
        return IN_PROGRESS, None, None, len(viable)
    before = sorted((p for p in store if _agrees(p, seen[:-1])),
                    key=lambda p: p.pattern_id)
    if not before:
        return REJECTED, None, f"no-viable-pattern@{k - 1}", 0
    o, t = seen[-1], before[0].triplets[k - 1]
    kind = ("txpower" if o.tx_pattern != t.tx_pattern else
            "channel" if o.channel != t.channel else "interval")
    return REJECTED, None, f"{kind}@{k - 1}", 0


class TestMatcherDifferential:
    @given(data=st.data(), store=matcher_stores())
    @settings(max_examples=300, deadline=None)
    def test_matches_definition(self, data, store):
        state = new_matcher(store)
        seen = []
        while not state.terminal:
            # Follow a stored pattern most of the time, so streams reach
            # acceptance and late rejections, not just step-0 misses.
            follow = data.draw(st.sampled_from(store))
            if len(seen) < follow.length and data.draw(st.integers(0, 3)):
                t = follow.triplets[len(seen)]
                if len(seen) == 0 and data.draw(st.booleans()):
                    t = obs(t.tx_pattern.bits, t.channel, data.draw(st.sampled_from([None, 1, 2])))
            else:
                t = data.draw(_SMALL_TRIPLETS)
            seen.append(t)
            state = match_step(state, t)
            code = state.reason.code if state.reason is not None else None
            assert (state.status, state.accepted_id, code, len(state.viable)) \
                == _reference_step(store, seen)
            assert state.consumed == len(seen)
            assert [p.pattern_id for p in state.viable] \
                == sorted(p.pattern_id for p in state.viable)


class TestSharedMatcher:
    @given(data=st.data(), store=matcher_stores())
    @settings(max_examples=200, deadline=None)
    def test_one_root_serves_interleaved_streams(self, data, store):
        # Every stream starts from the same initial state, and their steps
        # interleave, so each one walks a trie the others have partly grown.
        root = new_matcher(store)
        streams = data.draw(st.integers(1, 8))
        states, seen = [root] * streams, [[] for _ in range(streams)]
        live = list(range(streams))
        while live:
            k = data.draw(st.sampled_from(live))
            follow = data.draw(st.sampled_from(store))
            if len(seen[k]) < follow.length and data.draw(st.booleans()):
                t = follow.triplets[len(seen[k])]
            else:
                t = data.draw(_SMALL_TRIPLETS)
            seen[k].append(t)
            state = states[k] = match_step(states[k], t)
            code = state.reason.code if state.reason is not None else None
            assert (state.status, state.accepted_id, code, len(state.viable)) \
                == _reference_step(store, seen[k])
            assert state.consumed == len(seen[k])
            if state.terminal:
                live.remove(k)
        assert (root.status, root.consumed, len(root.viable)) == (IN_PROGRESS, 0, len(store))

    def test_cost_is_flat_in_store_size(self):
        # A scan of the whole store at each match's first step took 49 s
        # for these 2000 matches on a 2-core box.
        rng = random.Random(5)
        space = pattern_space_size(3, 4, 14, 16)
        store = [candidate_from_index(i, 3, 4, 14, 16)
                 for i in rng.sample(range(space), 20_000)]
        streams = [rng.choice(store).triplets if k % 2 else
                   candidate_from_index(rng.randrange(space), 3, 4, 14, 16).triplets
                   for k in range(2000)]
        t0 = time.perf_counter()
        root = new_matcher(store)
        accepted = 0
        for stream in streams:
            state = root
            for t in stream:
                state = match_step(state, t)
                if state.terminal:
                    break
            accepted += state.status == ACCEPTED
        assert time.perf_counter() - t0 < 1.0
        assert accepted >= 1000


class TestGrammar:
    def test_parse_basic(self):
        p = parse_pattern("010@1:- 101@6:1 010@6:2 101@11:2", "fig3")
        assert p == SecretPattern("fig3", (
            Triplet(tp("010"), 1, None), Triplet(tp("101"), 6, 1),
            Triplet(tp("010"), 6, 2), Triplet(tp("101"), 11, 2)))

    def test_render_round_trip(self):
        text = "010@1:- 101@6:1 010@6:2 101@11:2"
        assert render_pattern(parse_pattern(text, "x")) == text

    def test_parse_rejects_interval_on_first(self):
        with pytest.raises(PatternError) as e:
            parse_pattern("01@1:1 10@1:1", "x")
        assert "bad-first-interval" in str(e.value)

    def test_parse_rejects_dash_after_first(self):
        with pytest.raises(PatternError) as e:
            parse_pattern("01@1:- 10@1:-", "x")
        assert "missing-interval" in str(e.value)

    @pytest.mark.parametrize("text, got", [("01@1:3", 1), ("", 0)])
    def test_parse_reports_short_text_as_bad_length(self, text, got):
        # The structure of parsed text is judged by validate_pattern's walk.
        with pytest.raises(PatternError) as e:
            parse_pattern(text, "x")
        assert str(e.value) == f"pattern 'x': bad-length: pattern length L < 2 (got {got})"

    def test_separate_calls_share_no_triplet(self):
        # Each call parses with a fresh token memo.
        text = "010@1:- 101@6:1 010@6:2 101@11:2"
        a, b = parse_pattern(text, "x"), parse_pattern(text, "x")
        assert a == b
        assert not {id(t) for t in a.triplets} & {id(t) for t in b.triplets}

    def test_parse_rejects_garbage(self):
        # A superscript digit passes str.isdigit() but not int().
        for bad in ("", "01@1", "01:1", "01@x:-", "01@1:- 10@1:zz",
                    "01@²:- 10@2:1", "01@1:- 10@2:³"):
            with pytest.raises(PatternError):
                parse_pattern(bad, "x")

    @given(st.data())
    def test_render_parse_inverse(self, data):
        n = data.draw(st.integers(2, 8))
        L = data.draw(st.integers(2, 5))
        trips = []
        for i in range(L):
            bits = "".join(data.draw(st.sampled_from("01")) for _ in range(n))
            assume(len(set(bits)) > 1)  # parse refuses transition-free bursts
            ch = data.draw(st.integers(1, 14))
            iv = None if i == 0 else (1 if i == 1 else data.draw(st.integers(1, 16)))
            trips.append(Triplet(tp(bits), ch, iv))
        p = SecretPattern("h", tuple(trips))
        assert parse_pattern(render_pattern(p), "h") == p
