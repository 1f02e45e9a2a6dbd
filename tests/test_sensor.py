"""Slot decoder, interval quantizer, extraction pipeline, and sessions."""

import dataclasses
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beaconveil import (ACCEPTED, REJECTED, TIMED_OUT, Beacon,
                        QuantizationFailure, RejectReason, Samples,
                        SecretPattern, SensorConfig, SensorNode,
                        SensorSession, SlotConfig, Triplet, TxPattern,
                        TxPowerLevels, UndecodableWindow, apply_app_stage,
                        authenticate, compile_schedule, decode_slots,
                        extract_triplets, match_step, new_matcher,
                        parse_pattern, quantize_interval)

CFG = SensorConfig(f_s=5.0, n=3, delta_db=3.0)
FIG3 = parse_pattern("010@1:- 101@6:1 010@6:2 101@11:2", "fig3")


def window(levels, slot_s=0.6, per_slot=3):
    """Samples for one window: levels[k] repeated per_slot times in slot k."""
    pts = [(slot_s * (k + (j + 0.5) / per_slot), level)
           for k, level in enumerate(levels) for j in range(per_slot)]
    return Samples(*zip(*pts))


def kept(s, mask):
    return Samples(s.t_s[mask], s.rssi_dbm[mask])


def with_rssi(s, mask, value):
    """s with rssi_dbm set to value (NaN: below the floor) where mask holds."""
    return Samples(s.t_s, np.where(mask, value, s.rssi_dbm))


def shifted(s, mask, dt):
    return Samples(np.where(mask, s.t_s + dt, s.t_s), s.rssi_dbm)


class TestSamples:
    def test_sorted_stably_by_time(self):
        s = Samples([2.0, 1.0, 2.0, 0.5], [-1.0, -2.0, np.nan, -4.0])
        assert s.t_s.tolist() == [0.5, 1.0, 2.0, 2.0]
        assert s.rssi_dbm.tolist()[:3] == [-4.0, -2.0, -1.0]
        assert math.isnan(s.rssi_dbm[3]) and len(s) == 4

    def test_between_is_half_open(self):
        s = Samples([0.0, 0.5, 1.0, 1.5], [-1.0, -2.0, -3.0, -4.0])
        assert s.between(0.5, 1.5).t_s.tolist() == [0.5, 1.0]
        assert len(s.between(1.5, 0.5)) == 0 and len(Samples()) == 0

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError):
            Samples([0.0, 1.0], [-1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_are_refused(self, bad):
        # A NaN time sorts last and would move the session clock to NaN,
        # firing the watchdog, so the call would time out, not raise.
        with pytest.raises(ValueError, match="t_s must be finite"):
            authenticate([], Samples([1.0, bad], [-60.0, -60.0]), [FIG3],
                         SensorConfig(f_s=5.0, n=3), SlotConfig())


class TestDecodeSlots:
    def test_basic_pattern(self):
        bits = decode_slots(window([-46.0, -40.0, -46.0]), 3, CFG)
        assert bits.bits == "010"

    def test_constant_offset_invariance(self):
        base = [-46.0, -40.0, -46.0]
        ref = decode_slots(window(base), 3, CFG)
        shifted = decode_slots(window([x - 20.0 for x in base]), 3, CFG)
        assert shifted == ref

    def test_flat_window_is_undecodable(self):
        with pytest.raises(UndecodableWindow):
            decode_slots(window([-46.0, -45.0, -46.0]), 3, CFG)

    def test_empty_slot_is_undecodable(self):
        samples = window([-46.0, -40.0, -46.0])
        gap = kept(samples, (samples.t_s < 0.6) | (samples.t_s >= 1.2))
        with pytest.raises(UndecodableWindow):
            decode_slots(gap, 3, CFG)

    def test_absent_rssi_counts_as_missing(self):
        s = window([-46.0, -40.0, -46.0])
        samples = with_rssi(s, (0.6 <= s.t_s) & (s.t_s < 1.2), np.nan)
        with pytest.raises(UndecodableWindow):
            decode_slots(samples, 3, CFG)

    def test_shallow_adjacent_flip_is_undecodable(self):
        # spread passes but the 0->1 transition rides a sub-delta step
        with pytest.raises(UndecodableWindow):
            decode_slots(window([-48.0, -45.9, -44.1, -42.0]), 4, CFG)

    def test_median_robust_to_one_outlier(self):
        s = window([-46.0, -40.0, -46.0])
        samples = with_rssi(s, np.arange(len(s)) == 0, -10.0)
        assert decode_slots(samples, 3, CFG).bits == "010"

    def test_explicit_t0(self):
        s = window([-46.0, -40.0, -46.0])
        samples = Samples(s.t_s + 50.0, s.rssi_dbm)
        assert decode_slots(samples, 3, CFG, t0=50.0).bits == "010"

    def test_no_samples(self):
        with pytest.raises(UndecodableWindow):
            decode_slots(Samples(), 3, CFG)

    @pytest.mark.parametrize("n, slot_s", [(0, 0.6), (3, 0.0)])
    def test_bad_shape(self, n, slot_s):
        with pytest.raises(ValueError, match="need n >= 1 and slot_s > 0"):
            decode_slots(window([-46.0, -40.0, -46.0]), n, CFG, slot_s)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_offset_invariance_property(self, data):
        n = data.draw(st.integers(2, 6))
        half_steps = st.integers(-160, -60)  # levels in [-80, -30] dB, 0.5 steps
        levels = [data.draw(half_steps) / 2.0 for _ in range(n)]
        offset = data.draw(st.integers(-80, 0)) / 2.0
        base = window(levels)
        shifted = window([x + offset for x in levels])
        try:
            ref = decode_slots(base, n, CFG).bits
        except UndecodableWindow:
            with pytest.raises(UndecodableWindow):
                decode_slots(shifted, n, CFG)
            return
        assert decode_slots(shifted, n, CFG).bits == ref


def median_decode(samples, n, cfg, slot_s=0.6, t0=None):
    """decode_slots as it was written with statistics.median, frozen: the
    reference its one-pass form must agree with, bits and errors alike."""
    if n < 1 or slot_s <= 0:
        raise ValueError("need n >= 1 and slot_s > 0")
    if not len(samples):
        raise UndecodableWindow("no samples in window")
    t0 = samples.t_s[0] if t0 is None else t0
    heard = ~np.isnan(samples.rssi_dbm)
    r = samples.rssi_dbm[heard]
    k = np.floor((samples.t_s[heard] - t0) / slot_s)
    edges = k.searchsorted(range(n + 1)).tolist()
    med = []
    for j in range(n):
        vals = r[edges[j]:edges[j + 1]].tolist()
        if not vals:
            raise UndecodableWindow(f"slot {j} has no detectable samples")
        med.append(statistics.median(vals))
    lo, hi = min(med), max(med)
    if hi - lo < cfg.delta_db:
        raise UndecodableWindow(
            f"median spread {hi - lo:.2f} dB below delta_db {cfg.delta_db:g}")
    threshold = (hi + lo) / 2.0
    bits = "".join("1" if m > threshold else "0" for m in med)
    for k in range(n - 1):
        jump = abs(med[k + 1] - med[k])
        if bits[k] != bits[k + 1] and jump < cfg.delta_db:
            raise UndecodableWindow(
                f"bit flip at slot {k} rides a {jump:.2f} dB step, below delta_db")
    return TxPattern(bits)


@st.composite
def decode_windows(draw):
    """(samples, n, cfg, slot_s, t0): a window whose slots hold 0 to 6
    samples each, on the sampling grid or off it, some of them NaN, with
    strays before t0 and past the last slot; t0 given or None."""
    n = draw(st.integers(1, 8))
    slot_s = draw(st.sampled_from([0.25, 0.6, 1.0, 0.35]))
    f_s = draw(st.sampled_from([5.0, 16.0, 50.0, 3.0]))
    start = draw(st.integers(-100, 100)) / f_s  # a window opens on a tick
    if draw(st.booleans()):
        start += draw(st.floats(0.0, 1.0 / f_s, exclude_max=True))
    levels = st.sampled_from([-46.0, -43.0, -40.0, -41.5, -44.5]) | st.floats(-90.0, -20.0)
    rssi = st.just(math.nan) | levels
    pts = []
    for j in range(-1, n + 1):
        lo = start + j * slot_s
        count = draw(st.integers(0, 6 if 0 <= j < n else 2))
        for _ in range(count):
            where = draw(st.sampled_from(["edge", "grid", "off"]))
            if where == "edge":
                t = lo
            elif where == "grid":
                t = math.floor(lo * f_s + draw(st.integers(0, math.ceil(slot_s * f_s)))) / f_s
            else:
                t = lo + draw(st.floats(0.0, slot_s, exclude_max=True))
            pts.append((t, draw(rssi)))
    t0 = draw(st.none() | st.just(start) | st.just(start + 1e-9))
    delta_db = draw(st.sampled_from([0.5, 2.5, 3.0, 6.0]))
    cfg = SensorConfig(f_s=f_s, n=n, delta_db=delta_db)
    samples = Samples(*zip(*pts)) if pts else Samples()
    return samples, n, cfg, slot_s, t0


class TestDecodeDifferential:
    @given(case=decode_windows())
    @example(case=(window([-46.0, -40.0, -46.0], per_slot=2), 3, CFG, 0.6, None))
    @example(case=(window([-46.0, -40.0, -46.0], per_slot=1), 3, CFG, 0.6, 0.0))
    @example(case=(Samples(), 2, CFG, 0.6, None))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_median_decoder(self, case):
        def outcome(decode):
            try:
                return decode(*case).bits
            except (UndecodableWindow, ValueError) as e:
                return type(e), str(e)

        assert outcome(decode_slots) == outcome(median_decode)


class TestQuantizeInterval:
    def test_snaps_within_tolerance(self):
        assert quantize_interval(2.05, 1.0, 0.10) == 2
        assert quantize_interval(1.095, 1.0, 0.10) == 1
        assert quantize_interval(1.0, 1.0) == 1
        assert quantize_interval(8.2, 4.0, 0.10) == 2

    def test_off_grid_is_none(self):
        assert quantize_interval(1.6, 1.0, 0.10) is None
        assert quantize_interval(1.11, 1.0, 0.10) is None

    def test_below_one_unit_is_none(self):
        assert quantize_interval(0.4, 1.0, 0.10) is None
        assert quantize_interval(0.0, 1.0, 0.10) is None

    def test_bad_tu(self):
        with pytest.raises(ValueError):
            quantize_interval(1.0, 0.0)

    @given(k=st.integers(1, 16), tu=st.floats(0.1, 20.0),
           frac=st.floats(-0.09, 0.09))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_near_grid(self, k, tu, frac):
        raw = (k + frac) * tu
        assert quantize_interval(raw, tu, 0.10) == k


def clean_observation(pattern, slot_cfg, cfg, pl_db=73.0, nonce_prefix="n"):
    """Perfect grid-free observation of a compiled timeline at fixed loss."""
    tl = compile_schedule(pattern, slot_cfg, TxPowerLevels(),
                          nonce_prefix=nonce_prefix)
    beacons = list(tl.beacons)
    ts = [b.t_s + slot_cfg.slot_s * (k + frac)
          for b in tl.beacons for k in range(cfg.n) for frac in (0.25, 0.5, 0.75)]
    return beacons, Samples(ts, [tl.levels_at(t) - pl_db for t in ts])


class TestExtractTriplets:
    def test_recovers_pattern_exactly(self):
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        assert extract_triplets(beacons, samples, CFG) == FIG3.triplets

    def test_intervals_normalize_to_time_units(self):
        p = parse_pattern("01@1:- 10@2:1 01@3:3", "p")
        beacons, samples = clean_observation(p, SlotConfig(), CFG)
        trips = extract_triplets(beacons, samples, SensorConfig(f_s=5.0, n=2))
        assert [t.interval_tu for t in trips] == [None, 1, 3]

    def test_scale_invariance(self):
        base = SlotConfig(slot_s=0.6, tu_s=4.0, guard_s=0.2)
        ref = [t.interval_tu
               for t in extract_triplets(*clean_observation(FIG3, base, CFG), CFG)]
        for k in (0.5, 2.0, 10.0):
            scaled = SlotConfig(slot_s=0.6 * k, tu_s=4.0 * k, guard_s=0.2 * k)
            beacons, samples = clean_observation(FIG3, scaled, CFG)
            got = [t.interval_tu
                   for t in extract_triplets(beacons, samples, CFG, slot_s=0.6 * k)]
            assert got == ref

    def test_no_beacons(self):
        with pytest.raises(ValueError, match="need at least one beacon"):
            extract_triplets([], Samples(), CFG)

    def test_beacons_at_one_time_are_undecodable_at_zero(self):
        # No gap between beacons 0 and 1 means no time unit, but window 0 is
        # then [t0, t0): both readers stop there, before triplet 1 is read.
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        beacons[1] = dataclasses.replace(beacons[1], t_s=beacons[0].t_s)
        res = SensorSession(new_matcher([FIG3]), CFG).run(beacons, samples)
        assert res.reason == RejectReason("undecodable", 0)
        with pytest.raises(UndecodableWindow) as ei:
            extract_triplets(beacons, samples, CFG)
        assert ei.value.index == 0

    def test_single_beacon_has_no_time_unit(self):
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        first = kept(samples, samples.t_s < 1.8)
        with pytest.raises(QuantizationFailure) as ei:
            extract_triplets(beacons[:1], first, CFG)
        assert ei.value.reason() == RejectReason("quantization", 1)

    def test_off_grid_interval_fails_with_index(self):
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        beacons[3] = dataclasses.replace(beacons[3], t_s=beacons[3].t_s + 1.7)
        late = shifted(samples, samples.t_s >= 20.0, 1.7)
        with pytest.raises(QuantizationFailure) as ei:
            extract_triplets(beacons, late, CFG)
        assert ei.value.reason() == RejectReason("quantization", 3)

    def test_undecodable_window_carries_index(self):
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        flat = with_rssi(samples, (12.0 <= samples.t_s) & (samples.t_s < 13.8), -50.0)
        with pytest.raises(UndecodableWindow) as ei:
            extract_triplets(beacons, flat, CFG)
        assert ei.value.reason() == RejectReason("undecodable", 2)

    def test_first_unreadable_triplet_wins_as_in_a_session(self):
        # beacon 2 comes 1.7 s late (an off-grid interval) and window 3 is
        # flat; offline and online readers both stop at the interval
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        beacons[2] = dataclasses.replace(beacons[2], t_s=beacons[2].t_s + 1.7)
        t = samples.t_s
        late = shifted(with_rssi(samples, t >= 20.0, -50.0),
                       (12.0 <= t) & (t < 13.8), 1.7)
        with pytest.raises(QuantizationFailure) as ei:
            extract_triplets(beacons, late, CFG)
        assert ei.value.reason() == RejectReason("quantization", 2)
        res = authenticate(beacons, late, [FIG3], CFG, SlotConfig())
        assert res.reason == RejectReason("quantization", 2)

    def test_window_cut_at_the_next_beacon_as_in_a_session(self):
        # beacon 1 at 0.8 s cuts window 0 inside its second slot, where
        # nothing was heard; read in full to 1.0 s, that slot would borrow
        # the samples of window 1
        cfg = SensorConfig(f_s=8.0, n=2)
        slot_cfg = SlotConfig(slot_s=0.5, tu_s=0.8)
        beacons = [Beacon(0.0, 1, 0, "n.0"), Beacon(0.8, 1, 1, "n.1")]
        t = np.arange(15) * 0.125
        rssi = np.where((t < 0.5) | (t >= 1.3), -66.0, -60.0)
        samples = Samples(t, np.where((0.5 <= t) & (t < 0.8), np.nan, rssi))
        res = authenticate(beacons, samples, [parse_pattern("01@1:- 10@1:1", "p")],
                           cfg, slot_cfg)
        assert res.reason == RejectReason("undecodable", 0)
        with pytest.raises(UndecodableWindow) as ei:
            extract_triplets(beacons, samples, cfg, slot_cfg.slot_s)
        assert ei.value.reason() == res.reason

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 2, 3])
    def test_non_finite_beacon_time_is_refused(self, bad, index):
        # by both readers, wherever the beacon sits: a NaN key does not sort
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        beacons[index] = dataclasses.replace(beacons[index], t_s=bad)
        for read in (lambda: extract_triplets(beacons, samples, CFG),
                     lambda: authenticate(beacons, samples, [FIG3], CFG),
                     lambda: SensorSession(new_matcher([FIG3]), CFG).run(beacons, samples)):
            with pytest.raises(ValueError, match="must be finite"):
                read()


class TestNonceHistory:
    """The SensorNode ledger: the last 4096 nonces heard, oldest out first."""

    def test_membership_and_fifo_eviction(self):
        node = SensorNode()
        assert not any(node.heard(f"n{i}") for i in range(4097))
        assert all(node.heard(f"n{i}") for i in range(1, 4097))
        assert not node.heard("n0")  # the first was evicted by the 4097th

    def test_duplicate_record_is_idempotent(self):
        node = SensorNode()
        assert not node.heard("a") and node.heard("a")
        assert not any(node.heard(f"n{i}") for i in range(4095))  # now full
        assert node.heard("a")
        node.heard("new")
        # hearing "a" again did not refresh it, so it was the one evicted
        assert node.heard("n0") and not node.heard("a")


def run_session(beacons, samples, store, cfg, slot_cfg, **kw):
    return authenticate(beacons, samples, store, cfg, slot_cfg, **kw)


class TestSessions:
    def test_accepts_legit_observation(self):
        cfg = SensorConfig(f_s=5.0, n=3)
        beacons, samples = clean_observation(FIG3, SlotConfig(), cfg)
        res = run_session(beacons, samples, [FIG3], cfg, SlotConfig())
        assert res.verdict == ACCEPTED
        assert res.pattern_id == "fig3"
        assert res.phy_ok and res.app_ok is None
        assert res.transcript == FIG3.triplets
        assert res.duration_s == pytest.approx(21.8)

    def test_replay_rejected_via_shared_node(self):
        cfg = SensorConfig(f_s=5.0, n=3)
        node = SensorNode()
        beacons, samples = clean_observation(FIG3, SlotConfig(), cfg)
        first = run_session(beacons, samples, [FIG3], cfg, SlotConfig(), node=node)
        assert first.verdict == ACCEPTED
        again = run_session(beacons, samples, [FIG3], cfg, SlotConfig(), node=node)
        assert again.verdict == REJECTED
        assert again.reason == RejectReason("replay")

    def test_fresh_nonces_are_not_replay(self):
        cfg = SensorConfig(f_s=5.0, n=3)
        node = SensorNode()
        b1, s1 = clean_observation(FIG3, SlotConfig(), cfg, nonce_prefix="one")
        b2, s2 = clean_observation(FIG3, SlotConfig(), cfg, nonce_prefix="two")
        assert run_session(b1, s1, [FIG3], cfg, SlotConfig(), node=node).verdict == ACCEPTED
        assert run_session(b2, s2, [FIG3], cfg, SlotConfig(), node=node).verdict == ACCEPTED

    def test_lockout_after_reject(self):
        cfg = SensorConfig(f_s=5.0, n=3, lockout_s=30.0)
        node = SensorNode()
        wrong = parse_pattern("001@1:- 101@6:1 010@6:2 101@11:2", "w")
        bw, sw = clean_observation(wrong, SlotConfig(), cfg, nonce_prefix="w")
        first = run_session(bw, sw, [FIG3], cfg, SlotConfig(), node=node)
        assert first.verdict == REJECTED
        assert first.reason.kind == "txpower"
        # second attempt lands inside the lockout window
        b2, s2 = clean_observation(FIG3, SlotConfig(), cfg, nonce_prefix="x")
        locked = run_session(b2, s2, [FIG3], cfg, SlotConfig(), node=node)
        assert locked.verdict == REJECTED
        assert locked.reason == RejectReason("lockout")
        # far enough in the future the node has relaxed again
        dt = 100.0
        b3 = [dataclasses.replace(b, t_s=b.t_s + dt) for b in b2]
        s3 = Samples(s2.t_s + dt, s2.rssi_dbm)
        late = run_session(b3, s3, [FIG3], cfg, SlotConfig(), node=node, t_start=dt)
        assert late.verdict == ACCEPTED

    def test_lockout_length_is_the_configs(self):
        # A node keeps no lockout length of its own: a reject locks it for
        # the lockout_s of the config its session ran under.
        wrong = parse_pattern("001@1:- 101@6:1 010@6:2 101@11:2", "w")
        bw, sw = clean_observation(wrong, SlotConfig(), CFG, nonce_prefix="w")
        b2, s2 = clean_observation(FIG3, SlotConfig(), CFG, nonce_prefix="x")
        for lockout_s, verdict in ((0.0, ACCEPTED), (30.0, REJECTED)):
            cfg = SensorConfig(f_s=5.0, n=3, lockout_s=lockout_s)
            node = SensorNode()
            first = authenticate(bw, sw, [FIG3], cfg, SlotConfig(), node=node)
            assert first.reason.kind == "txpower"
            again = authenticate(b2, s2, [FIG3], cfg, SlotConfig(), node=node)
            assert again.verdict == verdict
        assert again.reason == RejectReason("lockout")
        dt = 100.0
        b3 = [dataclasses.replace(b, t_s=b.t_s + dt) for b in b2]
        late = authenticate(b3, Samples(s2.t_s + dt, s2.rssi_dbm), [FIG3], cfg,
                            SlotConfig(), node=node, t_start=dt)
        assert late.verdict == ACCEPTED

    def test_app_stage_reject_locks_from_terminal_t(self):
        # The physical stage accepts and the app secret is wrong: the lockout
        # runs from the verdict's terminal_t, up to the bound and not past it.
        cfg = SensorConfig(f_s=5.0, n=3, lockout_s=30.0, app_secret="s3cr3t")
        b1, s1 = clean_observation(FIG3, SlotConfig(), cfg, nonce_prefix="a")
        b2, s2 = clean_observation(FIG3, SlotConfig(), cfg, nonce_prefix="b")
        for wait_s, verdict, reason in ((29.9, REJECTED, RejectReason("lockout")),
                                        (30.0, ACCEPTED, None)):
            node = SensorNode()
            first = authenticate(b1, s1, [FIG3], cfg, SlotConfig(), node=node,
                                 app_message="guess")
            assert first.reason == RejectReason("app-secret") and first.phy_ok
            assert first.terminal_t == first.duration_s == pytest.approx(21.8)
            dt = first.terminal_t + wait_s
            res = authenticate([dataclasses.replace(b, t_s=b.t_s + dt) for b in b2],
                               Samples(s2.t_s + dt, s2.rssi_dbm), [FIG3], cfg,
                               SlotConfig(), node=node, t_start=dt,
                               app_message="s3cr3t")
            assert (res.verdict, res.reason) == (verdict, reason)

    def test_lockout_refusal_does_not_extend_the_lock(self):
        # A reject at 21.8 s locks the node until 51.8 s. An attempt refused
        # at 51.7 s for that lockout leaves the lock as it was, so a valid
        # attempt at 51.8 s is accepted.
        cfg = SensorConfig(f_s=5.0, n=3, lockout_s=30.0, app_secret="s3cr3t")
        node = SensorNode()
        b1, s1 = clean_observation(FIG3, SlotConfig(), cfg, nonce_prefix="a")
        first = authenticate(b1, s1, [FIG3], cfg, SlotConfig(), node=node,
                             app_message="guess")
        assert first.reason == RejectReason("app-secret")
        locked_until = node.locked_until
        assert locked_until == pytest.approx(51.8)
        for prefix, dt, verdict in (("b", locked_until - 0.1, REJECTED),
                                    ("c", locked_until, ACCEPTED)):
            b, s = clean_observation(FIG3, SlotConfig(), cfg, nonce_prefix=prefix)
            res = authenticate([dataclasses.replace(x, t_s=x.t_s + dt) for x in b],
                               Samples(s.t_s + dt, s.rssi_dbm), [FIG3], cfg,
                               SlotConfig(), node=node, t_start=dt,
                               app_message="s3cr3t")
            assert res.verdict == verdict
            assert node.locked_until == locked_until
        assert res.pattern_id == "fig3"

    def test_accept_does_not_lock(self):
        cfg = SensorConfig(f_s=5.0, n=3, lockout_s=30.0)
        node = SensorNode()
        b1, s1 = clean_observation(FIG3, SlotConfig(), cfg, nonce_prefix="a")
        assert run_session(b1, s1, [FIG3], cfg, SlotConfig(), node=node).verdict == ACCEPTED
        assert not node.locked_at(b1[-1].t_s + 100.0)

    def test_watchdog_times_out_stalled_emitter(self):
        cfg = SensorConfig(f_s=5.0, n=3)  # session default watchdog: 18 tu = 72 s
        beacons, samples = clean_observation(FIG3, SlotConfig(), cfg)
        half_b = beacons[:2]
        half_s = kept(samples, samples.t_s < 5.8)
        res = run_session(half_b, half_s, [FIG3], cfg, SlotConfig())
        assert res.verdict == TIMED_OUT
        assert res.reason == RejectReason("timeout")
        assert res.bucket == "timeout"
        assert res.duration_s == pytest.approx(4.0 + 72.0)

    def test_no_beacons_times_out_from_start(self):
        cfg = SensorConfig(f_s=5.0, n=3, watchdog_s=10.0)
        res = run_session([], Samples(), [FIG3], cfg, SlotConfig())
        assert res.verdict == TIMED_OUT
        assert res.duration_s == pytest.approx(10.0)

    def test_shared_initial_state_matches_authenticate(self):
        # One new_matcher state serves every session, in any order; each
        # ends as authenticate, which compiles the store itself, ends.
        cfg = SensorConfig(f_s=5.0, n=3)
        store = [FIG3] + [parse_pattern(text, f"s{k}") for k, text in enumerate((
            "010@1:- 101@6:1 010@6:2 101@11:3",
            "010@1:- 101@6:1",
            "010@1:- 011@6:1 010@6:2",
            "101@2:- 101@6:1 010@6:2 101@11:2"))]
        attempts = store + [parse_pattern("010@1:- 101@6:1 010@7:2 101@11:2", "w")]
        root = new_matcher(store)
        for p in random.Random(3).sample(attempts * 2, 2 * len(attempts)):
            beacons, samples = clean_observation(p, SlotConfig(), cfg)
            session = SensorSession(root, cfg, SlotConfig())
            assert session.run(beacons, samples) == run_session(
                beacons, samples, store, cfg, SlotConfig())

    def test_early_beacon_forces_window_close(self):
        # second beacon arrives before the first window would end; the open
        # window is decoded from the samples it already has
        cfg = SensorConfig(f_s=8.0, n=2)
        store = [parse_pattern("01@1:- 10@1:1", "p")]
        beacons = [Beacon(0.0, 1, 0, "n.0"),
                   Beacon(0.8, 1, 1, "n.1")]
        t = np.arange(15) * 0.125
        samples = Samples(t, np.where((t < 0.5) | (t >= 1.3), -66.0, -60.0))
        res = run_session(beacons, samples, store, cfg, SlotConfig(slot_s=0.5, tu_s=0.8))
        assert res.verdict == ACCEPTED
        assert res.pattern_id == "p"

    def test_early_close_stamps_the_verdict_at_the_cutting_beacon(self):
        # beacon 1 at 1.0 s cuts window 0 (nominally up to 1.8 s) before its
        # third slot; the verdict falls when the window closed, not at 1.8 s
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        beacons[1] = dataclasses.replace(beacons[1], t_s=1.0)
        session = SensorSession(new_matcher([FIG3]), CFG, SlotConfig())
        res = session.run(beacons, samples)
        assert res.reason == RejectReason("undecodable", 0)
        assert res.duration_s == 1.0 and res.terminal_t == 1.0

    def test_sample_at_exact_beacon_time_lands_in_window(self):
        # beacons sort ahead of samples at equal timestamps
        cfg = SensorConfig(f_s=2.0, n=2)
        store = [parse_pattern("10@1:- 01@1:1", "p")]
        beacons = [Beacon(0.0, 1, 0, "n.0"),
                   Beacon(2.0, 1, 1, "n.1")]
        levels = {0.0: -60.0, 1.0: -66.0, 2.0: -66.0, 3.0: -60.0}
        samples = Samples(list(levels), list(levels.values()))
        res = run_session(beacons, samples, store, cfg,
                          SlotConfig(slot_s=1.0, tu_s=2.0))
        assert res.verdict == ACCEPTED


def _reference_read(beacons, j, pts, cfg, slot_s):
    """Triplet j read from (t, rssi) pairs one sample at a time, or the
    RejectReason a session records instead."""
    b = beacons[j]
    slots = [[] for _ in range(cfg.n)]
    for t, r in pts:
        k = math.floor((t - b.t_s) / slot_s)
        if not math.isnan(r) and 0 <= k < cfg.n:
            slots[k].append(r)
    if not all(slots):
        return RejectReason("undecodable", j)
    med = [statistics.median(v) for v in slots]
    lo, hi = min(med), max(med)
    bits = "".join("1" if m > (hi + lo) / 2.0 else "0" for m in med)
    if hi - lo < cfg.delta_db or any(
            bits[k] != bits[k + 1] and abs(med[k + 1] - med[k]) < cfg.delta_db
            for k in range(cfg.n - 1)):
        return RejectReason("undecodable", j)
    if j == 0:
        return Triplet(TxPattern(bits), b.channel, None)
    tu = beacons[1].t_s - beacons[0].t_s
    if j == 1:
        return Triplet(TxPattern(bits), b.channel, 1) if tu > 0 \
            else RejectReason("quantization", 1)
    k = quantize_interval(b.t_s - beacons[j - 1].t_s, tu, cfg.eps_tu)
    return Triplet(TxPattern(bits), b.channel, k) if k is not None \
        else RejectReason("quantization", j)


class ReferenceSession:
    """SensorSession.run as per-sample events: one list sorted by
    (time, beacon before sample, seq_no or arrival order), every event
    advancing the clock, every sample joining the window open at its time.
    Returns (verdict, pattern_id, reason, transcript, duration_s,
    terminal_t)."""

    def __init__(self, store, cfg, slot_cfg, seen, locked, t_start):
        self.cfg, self.slot_s, self.t_start = cfg, slot_cfg.slot_s, t_start
        self.watchdog = (cfg.watchdog_s if cfg.watchdog_s is not None
                         else 18.0 * slot_cfg.tu_s)
        self.deadline = t_start + self.watchdog
        self.seen, self.matcher = set(seen), new_matcher(store)
        self.beacons, self.triplets, self.window, self.out = [], [], None, None
        if locked:
            self._end(REJECTED, t_start, RejectReason("lockout"))

    def run(self, beacons, pts):
        events = sorted([(b.t_s, 0, b.seq_no, b) for b in beacons]
                        + [(p[0], 1, i, p) for i, p in enumerate(pts)],
                        key=lambda e: e[:3])
        for t, tag, _, ev in events:
            if self.out is None:
                self._advance(t)
            if self.out is not None:
                break
            if tag == 0:
                self._beacon(ev)
            elif self.window is not None and self.window[0].t_s <= t < self.window[1]:
                self.window[2].append(ev)
        if self.out is None:
            self._advance(self.deadline)
            if self.out is None:
                self._end(TIMED_OUT, self.deadline, RejectReason("timeout"))
        return self.out

    def _beacon(self, b):
        if self.window is not None:
            self._close(b.t_s)
            if self.out is not None:
                return
        if b.nonce in self.seen:
            return self._end(REJECTED, b.t_s, RejectReason("replay"))
        self.seen.add(b.nonce)
        self.beacons.append(b)
        self.window = (b, b.t_s + self.cfg.n * self.slot_s, [])
        self.deadline = b.t_s + self.watchdog

    def _advance(self, t):
        while self.out is None:
            w_end = self.window[1] if self.window is not None else math.inf
            if min(w_end, self.deadline) > t:
                return
            if w_end <= self.deadline:
                self._close(w_end)
            else:
                self._end(TIMED_OUT, self.deadline, RejectReason("timeout"))

    def _close(self, end):
        # end: the window's own end, or the beacon that cut it short
        pts = self.window[2]
        self.window = None
        read = _reference_read(self.beacons, len(self.beacons) - 1, pts, self.cfg,
                               self.slot_s)
        if isinstance(read, RejectReason):
            return self._end(REJECTED, end, read)
        self.triplets.append(read)
        self.matcher = m = match_step(self.matcher, read)
        if m.terminal:
            self._end(m.status, end, m.reason, m.accepted_id)

    def _end(self, verdict, t, reason=None, pattern_id=None):
        self.out = (verdict, pattern_id, reason, tuple(self.triplets),
                    t - self.t_start, t)


TICK = 0.25  # the sample grid; exact in binary, so samples land exactly on
#              beacon times and window ends

LEVELS = [math.nan, -60.0, -63.0, -66.0, -75.0]


def feed_case(n, slot_s, tu_s, bits, channels, gaps, t0, jitter, kept, repeat,
              history, edits, extra, tail, watchdog_s, t_start, locked, shuffle):
    """One observation of an emitted pattern on the TICK grid, perturbed by
    the spec: beacons jittered by whole ticks or dropped, beacon `repeat`
    reusing the previous nonce, sample levels edited or doubled, `tail`
    ticks sampled past the last window, and both lists shuffled."""
    intervals = [None, 1, *gaps][:len(bits)]
    store = [SecretPattern("p", tuple(Triplet(TxPattern(b), c, iv) for b, c, iv
                                      in zip(bits, channels, intervals)))]
    emitted = [t0 * TICK]
    for iv in intervals[1:]:
        emitted.append(emitted[-1] + iv * tu_s)
    nonces = [f"n{j - 1 if j == repeat else j}" for j in range(len(bits))]
    beacons = [Beacon(e + dj * TICK, c, j, nonce)
               for j, (e, dj, c, nonce, keep)
               in enumerate(zip(emitted, jitter, channels, nonces, kept)) if keep]
    burst = n * slot_s

    def level(t):
        for e, b in zip(emitted, bits):
            if e <= t < e + burst:
                return -60.0 if b[math.floor((t - e) / slot_s)] == "1" else -66.0
        return math.nan

    ticks = int((emitted[-1] + burst) / TICK) + tail
    pts = [(k * TICK, level(k * TICK)) for k in range(ticks + 1)]
    for k, v in edits:
        pts[k % len(pts)] = (pts[k % len(pts)][0], v)
    pts += [(pts[k % len(pts)][0], v) for k, v in extra]
    if shuffle is not None:
        random.Random(shuffle).shuffle(pts)
        random.Random(shuffle).shuffle(beacons)
    cfg = SensorConfig(f_s=1.0 / TICK, n=n, watchdog_s=watchdog_s)
    slot_cfg = SlotConfig(slot_s=slot_s, tu_s=tu_s, guard_s=0.0)
    return store, cfg, slot_cfg, beacons, pts, history, locked, t_start


@st.composite
def feed_specs(draw):
    n, L = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    level = st.sampled_from(LEVELS)
    return dict(
        n=n, slot_s=draw(st.sampled_from([0.5, 0.75])),
        tu_s=draw(st.sampled_from([1.0, 1.5, 2.5])),
        bits=[draw(st.text("01", min_size=n, max_size=n).filter(set("01").issubset))
              for _ in range(L)],
        channels=[draw(st.integers(1, 2)) for _ in range(L)],
        gaps=[draw(st.integers(1, 3)) for _ in range(L - 2)],
        t0=draw(st.integers(0, 4)),
        jitter=[draw(st.sampled_from([0] * 9 + [1, -1, -4])) for _ in range(L)],
        kept=[draw(st.integers(0, 9)) < 9 for _ in range(L)],
        repeat=draw(st.sampled_from([None] * 9 + [1, 2, 3])),
        history=draw(st.sampled_from([()] * 4 + [("n0",), ("n1",)])),
        edits=draw(st.lists(st.tuples(st.integers(0, 999), level), max_size=6)),
        extra=draw(st.lists(st.tuples(st.integers(0, 999), level), max_size=4)),
        tail=draw(st.integers(0, 40)),
        watchdog_s=draw(st.sampled_from([None] * 4 + [40.0, 3.0, 1.0, 0.5, 0.25])),
        t_start=draw(st.sampled_from([0.0, 0.5])),
        locked=draw(st.integers(0, 9)) == 9,
        shuffle=draw(st.one_of(st.none(), st.integers(0, 2**16))))


# Accepted as it stands: windows end on a sample tick and open on one.
BASE = dict(n=3, slot_s=0.5, tu_s=2.5, bits=["010", "101", "011"],
            channels=[1, 2, 1], gaps=[2], t0=2, jitter=[0, 0, 0],
            kept=[True] * 3, repeat=None, history=(), edits=[], extra=[], tail=8,
            watchdog_s=None, t_start=0.0, locked=False, shuffle=None)


class TestFeedDifferential:
    @given(spec=feed_specs())
    @example(spec=BASE)
    @example(spec={**BASE, "tu_s": 1.0})  # the next beacon closes windows early
    @example(spec={**BASE, "n": 2, "bits": ["01", "10", "01"],
                   "jitter": [0, -1, 0]})  # an early close that still decodes
    @example(spec={**BASE, "watchdog_s": 0.5})  # watchdog shorter than a window
    @example(spec={**BASE, "n": 2, "bits": ["01", "10", "01"],
                   "watchdog_s": 1.0})  # watchdog due as the window ends
    @example(spec={**BASE, "repeat": 2})  # nonce replayed within the session
    @example(spec={**BASE, "history": ("n1",)})  # nonce seen by the node before
    @example(spec={**BASE, "jitter": [0, 0, -20],
                   "history": ("n2",)})  # tied beacons go in seq_no order
    @example(spec={**BASE, "locked": True})  # lockout
    @example(spec={**BASE, "shuffle": 7})  # unsorted samples and beacons
    @settings(max_examples=400, deadline=None)
    def test_feed_matches_per_sample_events(self, spec):
        store, cfg, slot_cfg, beacons, pts, history, locked, t_start = \
            feed_case(**spec)
        node = SensorNode()
        for nonce in history:
            node.heard(nonce)
        if locked:
            node.locked_until = t_start + 1.0
        session = SensorSession(new_matcher(store), cfg, slot_cfg, node=node,
                                t_start=t_start)
        res = session.run(beacons, Samples(*zip(*pts)))
        ref = ReferenceSession(store, cfg, slot_cfg, history, locked, t_start)
        assert (res.verdict, res.pattern_id, res.reason, res.transcript,
                res.duration_s, res.terminal_t) == ref.run(beacons, pts)

    def test_base_case_is_accepted(self):
        store, cfg, slot_cfg, beacons, pts, *_ = feed_case(**BASE)
        res = authenticate(beacons, Samples(*zip(*pts)), store, cfg, slot_cfg)
        assert res.verdict == ACCEPTED and res.transcript == store[0].triplets


class TestAppStage:
    CFG = SensorConfig(f_s=5.0, n=3, app_secret="1234567890", rtt_limit_s=0.1)

    def test_gate(self):
        phy = self._accepted()
        assert apply_app_stage(phy, "1234567890", None, self.CFG).app_ok is True
        for message in ("123456789", "", None):
            res = apply_app_stage(phy, message, None, self.CFG)
            assert res.reason == RejectReason("app-secret")

    def test_mitm_check_is_strict(self):
        # a round trip over the limit looks relayed; the limit itself is fine
        phy = self._accepted()
        for rtt_s in (0.09, 0.1):
            res = apply_app_stage(phy, "1234567890", rtt_s, self.CFG)
            assert res.verdict == ACCEPTED and res.app_ok is True
        res = apply_app_stage(phy, "1234567890", 0.100001, self.CFG)
        assert res.reason == RejectReason("mitm-delay")

    def _accepted(self):
        # physical stage only; the app stage under test is applied explicitly
        phy = SensorConfig(f_s=5.0, n=3)
        beacons, samples = clean_observation(FIG3, SlotConfig(), phy)
        res = authenticate(beacons, samples, [FIG3], phy, SlotConfig())
        assert res.verdict == ACCEPTED
        return res

    def test_pass(self):
        res = apply_app_stage(self._accepted(), "1234567890", 1e-6, self.CFG)
        assert res.verdict == ACCEPTED and res.app_ok is True

    def test_wrong_secret(self):
        res = apply_app_stage(self._accepted(), "0000000000", 1e-6, self.CFG)
        assert res.verdict == REJECTED
        assert res.reason == RejectReason("app-secret")
        assert res.phy_ok and res.app_ok is False

    def test_slow_round_trip_wins_over_secret(self):
        res = apply_app_stage(self._accepted(), "1234567890", 0.25, self.CFG)
        assert res.verdict == REJECTED
        assert res.reason == RejectReason("mitm-delay")
        assert res.app_ok is False

    def test_noop_without_secret(self):
        cfg = SensorConfig(f_s=5.0, n=3)
        beacons, samples = clean_observation(FIG3, SlotConfig(), cfg)
        base = authenticate(beacons, samples, [FIG3], cfg, SlotConfig())
        assert apply_app_stage(base, "anything", 10.0, cfg) == base
        assert base.app_ok is None

    def test_noop_on_rejected_phy(self):
        wrong = parse_pattern("001@1:- 101@6:1 010@6:2 101@11:2", "w")
        beacons, samples = clean_observation(wrong, SlotConfig(), self.CFG)
        base = authenticate(beacons, samples, [FIG3], self.CFG, SlotConfig())
        assert base.verdict == REJECTED
        assert apply_app_stage(base, "1234567890", 1e-6, self.CFG) == base


class TestSensorConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SensorConfig(f_s=0.0, n=3)
        with pytest.raises(ValueError):
            SensorConfig(f_s=5.0, n=0)
        with pytest.raises(ValueError):
            SensorConfig(f_s=5.0, n=3, eps_tu=0.5)
        with pytest.raises(ValueError):
            SensorConfig(f_s=5.0, n=3, delta_db=0.0)
        with pytest.raises(ValueError):
            SensorConfig(f_s=5.0, n=3, watchdog_s=0.0)

    def test_undersampled_session_is_refused(self):
        cfg = SensorConfig(f_s=1.0, n=3)
        with pytest.raises(ValueError):
            SensorSession(new_matcher([FIG3]), cfg, SlotConfig())
