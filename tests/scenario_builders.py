"""Small scenario builders shared between the behavior and acceptance tests.

The desk setup is the cheapest end-to-end configuration that still exercises
the whole pipeline: a 2-channel band, 2-bit bursts, 1 s time unit, 16 Hz
sampling (4 samples per slot keeps slot medians majority-clean against the
one sample that can bleed across a slot or burst boundary), no shadowing,
fixed 5 m range. Its credential space is 2^(2*2) * 2^2 = 64 patterns.
"""

from dataclasses import replace

import numpy as np

from beaconveil import (BandPlan, BruteForce, ChannelParams, ScenarioConfig,
                        SecretPattern, SensorConfig, SlotConfig, Trajectory,
                        parse_pattern, random_pattern)

DESK_PATTERN = "01@1:- 10@2:1"


def build_desk(actor, trials, seed=20, **sensor_overrides):
    sensor = dict(f_s=16.0, n=2, delta_db=2.5)
    sensor.update(sensor_overrides)
    return ScenarioConfig(
        store=(parse_pattern(DESK_PATTERN, "desk"),),
        actor=actor,
        band=BandPlan("desk-2ch", 2, 2412.0, 5.0),
        channel=ChannelParams(sigma_db=0.0),
        slot_cfg=SlotConfig(slot_s=0.25, tu_s=1.0, guard_s=0.05),
        sensor_cfg=SensorConfig(**sensor),
        trajectory=Trajectory(((0.0, 5.0),)),
        seed=seed, trials=trials, max_tu=2)


def build_desk_multi(trials, seed=20):
    """The desk brute force against the desk credential plus 30 fixed-seed
    ones: L = 2 and 3, ids on both sides of 'desk', some sharing the desk
    credential's first triplet or all of it, some repeating another's
    triplets, so ties and the lowest-id reject reason are exercised."""
    cfg = build_desk(BruteForce(2, 2), trials, seed=seed)
    desk = cfg.store[0]
    rng = np.random.default_rng(4051)
    store = [desk]
    for k in range(30):
        p = random_pattern(rng, 2, 3 if k % 3 == 0 else 2, cfg.band, cfg.max_tu,
                           pattern_id=f"{'ce'[k % 2]}{k:02d}")
        if k % 4 == 0:
            keep = 1 + (k // 4) % 2
            p = SecretPattern(p.pattern_id, desk.triplets[:keep] + p.triplets[keep:])
        store.append(p)
    return replace(cfg, store=tuple(store))
