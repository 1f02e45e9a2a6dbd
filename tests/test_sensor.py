"""Slot decoder, interval quantizer, extraction pipeline, and sessions."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from beaconveil import (ACCEPTED, REJECTED, TIMED_OUT, BeaconObservation,
                        NonceHistory, ObservedSample, QuantizationFailure,
                        RejectReason, SensorConfig, SensorNode, SensorSession,
                        SlotConfig, TxPowerLevels, UndecodableWindow, app_gate,
                        apply_app_stage, authenticate, compile_schedule,
                        decode_slots, extract_triplets, mitm_check,
                        parse_pattern, quantize_interval)

CFG = SensorConfig(f_s=5.0, n=3, delta_db=3.0)
FIG3 = parse_pattern("010@1:- 101@6:1 010@6:2 101@11:2", "fig3")


def window(levels, slot_s=0.6, per_slot=3):
    """Samples for one window: levels[k] repeated per_slot times in slot k."""
    out = []
    for k, level in enumerate(levels):
        for j in range(per_slot):
            t = slot_s * (k + (j + 0.5) / per_slot)
            out.append(ObservedSample(t, level))
    return out


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
        gap = [s for s in samples if not 0.6 <= s.t_s < 1.2]
        with pytest.raises(UndecodableWindow):
            decode_slots(gap, 3, CFG)

    def test_absent_rssi_counts_as_missing(self):
        samples = [dataclasses.replace(s, rssi_dbm=None) if 0.6 <= s.t_s < 1.2 else s
                   for s in window([-46.0, -40.0, -46.0])]
        with pytest.raises(UndecodableWindow):
            decode_slots(samples, 3, CFG)

    def test_shallow_adjacent_flip_is_undecodable(self):
        # spread passes but the 0->1 transition rides a sub-delta step
        with pytest.raises(UndecodableWindow):
            decode_slots(window([-48.0, -45.9, -44.1, -42.0]), 4, CFG)

    def test_median_robust_to_one_outlier(self):
        samples = window([-46.0, -40.0, -46.0])
        samples[0] = dataclasses.replace(samples[0], rssi_dbm=-10.0)
        assert decode_slots(samples, 3, CFG).bits == "010"

    def test_explicit_t0(self):
        samples = [dataclasses.replace(s, t_s=s.t_s + 50.0)
                   for s in window([-46.0, -40.0, -46.0])]
        assert decode_slots(samples, 3, CFG, t0=50.0).bits == "010"

    def test_no_samples(self):
        with pytest.raises(UndecodableWindow):
            decode_slots([], 3, CFG)

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
                          nonce_prefix=nonce_prefix, require_valid=False)
    beacons = [BeaconObservation(b.t_s, b.channel, b.seq_no, b.nonce)
               for b in tl.beacons]
    samples = []
    for b in tl.beacons:
        for k in range(cfg.n):
            for frac in (0.25, 0.5, 0.75):
                t = b.t_s + slot_cfg.slot_s * (k + frac)
                samples.append(ObservedSample(t, tl.levels_at(t) - pl_db))
    return beacons, samples


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

    def test_single_beacon_has_no_time_unit(self):
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        first = [s for s in samples if s.t_s < 1.8]
        with pytest.raises(QuantizationFailure) as ei:
            extract_triplets(beacons[:1], first, CFG)
        assert ei.value.reason() == RejectReason("quantization", 1)

    def test_off_grid_interval_fails_with_index(self):
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        beacons[3] = dataclasses.replace(beacons[3], t_s=beacons[3].t_s + 1.7)
        shifted = [dataclasses.replace(s, t_s=s.t_s + 1.7) if s.t_s >= 20.0 else s
                   for s in samples]
        with pytest.raises(QuantizationFailure) as ei:
            extract_triplets(beacons, shifted, CFG)
        assert ei.value.reason() == RejectReason("quantization", 3)

    def test_undecodable_window_carries_index(self):
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        flat = [dataclasses.replace(s, rssi_dbm=-50.0)
                if 12.0 <= s.t_s < 13.8 else s for s in samples]
        with pytest.raises(UndecodableWindow) as ei:
            extract_triplets(beacons, flat, CFG)
        assert ei.value.reason() == RejectReason("undecodable", 2)

    def test_first_unreadable_triplet_wins_as_in_a_session(self):
        # beacon 2 comes 1.7 s late (an off-grid interval) and window 3 is
        # flat; offline and online readers both stop at the interval
        beacons, samples = clean_observation(FIG3, SlotConfig(), CFG)
        beacons[2] = dataclasses.replace(beacons[2], t_s=beacons[2].t_s + 1.7)
        late = []
        for s in samples:
            if 12.0 <= s.t_s < 13.8:
                s = dataclasses.replace(s, t_s=s.t_s + 1.7)
            elif s.t_s >= 20.0:
                s = dataclasses.replace(s, rssi_dbm=-50.0)
            late.append(s)
        with pytest.raises(QuantizationFailure) as ei:
            extract_triplets(beacons, late, CFG)
        assert ei.value.reason() == RejectReason("quantization", 2)
        res = authenticate(beacons, late, [FIG3], CFG, SlotConfig())
        assert res.reason == RejectReason("quantization", 2)


class TestNonceHistory:
    def test_membership_and_fifo_eviction(self):
        h = NonceHistory(capacity=3)
        for n in ("a", "b", "c"):
            h.record(n)
        assert "a" in h and len(h) == 3
        h.record("d")
        assert "a" not in h and "d" in h and len(h) == 3

    def test_duplicate_record_is_idempotent(self):
        h = NonceHistory(capacity=2)
        h.record("a")
        h.record("a")
        h.record("b")
        assert "a" in h and "b" in h


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
        node = SensorNode(lockout_s=30.0)
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
        s3 = [dataclasses.replace(s, t_s=s.t_s + dt) for s in s2]
        late = run_session(b3, s3, [FIG3], cfg, SlotConfig(), node=node, t_start=dt)
        assert late.verdict == ACCEPTED

    def test_accept_does_not_lock(self):
        cfg = SensorConfig(f_s=5.0, n=3, lockout_s=30.0)
        node = SensorNode(lockout_s=30.0)
        b1, s1 = clean_observation(FIG3, SlotConfig(), cfg, nonce_prefix="a")
        assert run_session(b1, s1, [FIG3], cfg, SlotConfig(), node=node).verdict == ACCEPTED
        assert not node.locked_at(b1[-1].t_s + 100.0)

    def test_watchdog_times_out_stalled_emitter(self):
        cfg = SensorConfig(f_s=5.0, n=3)  # session default watchdog: 8 tu = 32 s
        beacons, samples = clean_observation(FIG3, SlotConfig(), cfg)
        half_b = beacons[:2]
        half_s = [s for s in samples if s.t_s < 5.8]
        res = run_session(half_b, half_s, [FIG3], cfg, SlotConfig())
        assert res.verdict == TIMED_OUT
        assert res.reason == RejectReason("timeout")
        assert res.bucket == "timeout"
        assert res.duration_s == pytest.approx(4.0 + 32.0)

    def test_no_beacons_times_out_from_start(self):
        cfg = SensorConfig(f_s=5.0, n=3, watchdog_s=10.0)
        res = run_session([], [], [FIG3], cfg, SlotConfig())
        assert res.verdict == TIMED_OUT
        assert res.duration_s == pytest.approx(10.0)

    def test_early_beacon_forces_window_close(self):
        # second beacon arrives before the first window would end; the open
        # window is decoded from the samples it already has
        cfg = SensorConfig(f_s=8.0, n=2)
        store = [parse_pattern("01@1:- 10@1:1", "p")]
        beacons = [BeaconObservation(0.0, 1, 0, "n.0"),
                   BeaconObservation(0.8, 1, 1, "n.1")]
        samples = []
        for k in range(15):
            t = k * 0.125
            level = -66.0 if t < 0.5 or t >= 1.3 else -60.0
            samples.append(ObservedSample(t, level))
        res = run_session(beacons, samples, store, cfg, SlotConfig(slot_s=0.5, tu_s=0.8))
        assert res.verdict == ACCEPTED
        assert res.pattern_id == "p"

    def test_sample_at_exact_beacon_time_lands_in_window(self):
        # beacons sort ahead of samples at equal timestamps
        cfg = SensorConfig(f_s=2.0, n=2)
        store = [parse_pattern("10@1:- 01@1:1", "p")]
        beacons = [BeaconObservation(0.0, 1, 0, "n.0"),
                   BeaconObservation(2.0, 1, 1, "n.1")]
        levels = {0.0: -60.0, 1.0: -66.0, 2.0: -66.0, 3.0: -60.0}
        samples = [ObservedSample(t, lv) for t, lv in levels.items()]
        res = run_session(beacons, samples, store, cfg,
                          SlotConfig(slot_s=1.0, tu_s=2.0))
        assert res.verdict == ACCEPTED


class TestAppStage:
    CFG = SensorConfig(f_s=5.0, n=3, app_secret="1234567890", rtt_limit_s=0.1)

    def test_gate(self):
        assert app_gate("1234567890", self.CFG)
        assert not app_gate("123456789", self.CFG)
        assert not app_gate("", self.CFG)
        with pytest.raises(RuntimeError):
            app_gate("x", SensorConfig(f_s=5.0, n=3))

    def test_mitm_check_is_strict(self):
        # True means the round trip looks relayed; the limit itself is fine
        assert not mitm_check(0.09, self.CFG)
        assert not mitm_check(0.1, self.CFG)
        assert mitm_check(0.100001, self.CFG)

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
            SensorSession([FIG3], cfg, SlotConfig())
