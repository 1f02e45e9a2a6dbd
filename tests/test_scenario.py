"""Config file round-trips, error reporting, and report serialization."""

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beaconveil import (DEFAULT_BAND, BandPlan, BruteForce, ConfigError,
                        FlipTxBit, Legit, Mitm, Mutant, Proto, Replay,
                        ScenarioConfig, SensorConfig, WrongChannel,
                        WrongInterval, build_fig3, build_flyover, build_proto,
                        config_sha256, dump_scenario, load_scenario,
                        loads_scenario, random_pattern, render_report_json,
                        render_trials_csv, run_scenario, validate_scenario,
                        write_fixtures, write_report)
from beaconveil.scenario import render_sweep_csv
from beaconveil.sim import sweep

from scenario_builders import build_desk, build_desk_multi

GOLDEN = Path(__file__).parent / "golden"

ALL_BUILDERS = [
    lambda: build_fig3("a"), lambda: build_fig3("b"), lambda: build_fig3("c"),
    lambda: build_fig3("d"), build_proto, lambda: build_flyover(7),
    lambda: build_desk(Legit("desk"), 3),
    lambda: build_desk(BruteForce(2, 2), 5),
    lambda: build_desk(Mutant("desk", WrongInterval(1, 2)), 2),
    lambda: build_desk(Replay("desk"), 2),
    lambda: build_desk(Mitm("desk", 0.25), 2, app_secret="s"),
]

MINIMAL = """
[store]
p = 01@1:- 10@2:1

[actor]
kind = legit
pattern_id = p
"""


class TestRoundTrip:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_load_inverts_dump(self, build):
        cfg = build()
        text = dump_scenario(cfg)
        assert loads_scenario(text) == cfg
        assert dump_scenario(loads_scenario(text)) == text

    def test_file_round_trip(self, tmp_path):
        cfg = build_proto()
        path = tmp_path / "s.scn"
        path.write_text(dump_scenario(cfg), encoding="utf-8")
        assert load_scenario(path) == cfg

    def test_minimal_config_uses_defaults(self):
        cfg = loads_scenario(MINIMAL)
        assert cfg.band.channel_count == 14
        assert cfg.channel.gamma == 3.3
        assert cfg.slot_cfg.tu_s == 4.0
        assert cfg.sensor_cfg.app_secret is None
        assert cfg.sensor_cfg.watchdog_s is None
        assert cfg.trajectory.waypoints == ((0.0, 5.0),)
        assert (cfg.seed, cfg.trials, cfg.max_tu) == (0, 1, 16)

    def test_optional_sensor_keys(self):
        text = MINIMAL + "\n[sensor]\napp_secret = shh\nwatchdog_s = 12.5\n"
        cfg = loads_scenario(text)
        assert cfg.sensor_cfg.app_secret == "shh"
        assert cfg.sensor_cfg.watchdog_s == 12.5


# Any text at all, plus text drawn more often from the characters the parser
# treats specially, plus plain ids so that many configs do load back.
TEXT = (st.text(max_size=6)
        | st.text(st.characters() | st.sampled_from("=:#;[] \t\n\r"), max_size=6)
        | st.from_regex(r"[A-Za-z0-9_.-]{1,6}", fullmatch=True))
SMALL = st.integers(-2, 8)


@st.composite
def configs(draw):
    """Configs built in Python: every str field drawn from TEXT, up to three
    store patterns, each actor kind, and the numbers of the band, the run and
    the actors drawn; the other sections keep their defaults."""
    ids = draw(st.lists(TEXT, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    store = tuple(random_pattern(rng, 2, 2, DEFAULT_BAND, 4, pattern_id=pid)
                  for pid in ids)
    pid = st.sampled_from(ids) | TEXT if ids else TEXT
    mutation = (st.builds(FlipTxBit, SMALL, SMALL) | st.builds(WrongChannel, SMALL, SMALL)
                | st.builds(WrongInterval, SMALL, SMALL))
    delay = st.floats(-5.0, 5.0)
    actor = draw(st.builds(Legit, pid) | st.builds(Replay, pid)
                 | st.builds(Mutant, pid, mutation) | st.builds(Mitm, pid, delay)
                 | st.builds(Proto, pid, pid, delay) | st.builds(BruteForce, SMALL, SMALL))
    band = draw(st.builds(BandPlan, TEXT, st.integers(1, 20),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(0.1, 50.0)))
    sensor = SensorConfig(app_secret=draw(st.none() | TEXT))
    return ScenarioConfig(store=store, actor=actor, band=band, sensor_cfg=sensor,
                          seed=draw(SMALL), trials=draw(SMALL), max_tu=draw(SMALL))


class TestDumpRefusesWhatWouldNotLoadBack:
    @given(cfg=configs())
    @example(cfg=dataclasses.replace(
        build_fig3("a"), sensor_cfg=SensorConfig(app_secret=" pad ")))
    @example(cfg=dataclasses.replace(
        build_fig3("a"), sensor_cfg=SensorConfig(app_secret="a\nb")))
    @example(cfg=dataclasses.replace(build_fig3("a"), store=(
        dataclasses.replace(build_fig3("a").store[0], pattern_id="a=b"),)))
    @settings(max_examples=300, deadline=None)
    def test_dump_raises_or_loads_back_equal(self, cfg):
        try:
            text = dump_scenario(cfg)
        except ValueError as e:
            assert str(e).startswith("[")  # names the section
            return
        assert loads_scenario(text) == cfg


class TestConfigErrors:
    def test_missing_store(self):
        with pytest.raises(ConfigError, match="store"):
            loads_scenario("[actor]\nkind = legit\npattern_id = p\n")

    def test_missing_actor(self):
        with pytest.raises(ConfigError, match="actor"):
            loads_scenario("[store]\np = 01@1:- 10@2:1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            loads_scenario(MINIMAL + "\n[run]\nspeed = 9\n")

    def test_unparseable_number(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            loads_scenario(MINIMAL + "\n[run]\ntrials = many\n")

    def test_bad_pattern_text(self):
        with pytest.raises(ConfigError, match="p:"):
            loads_scenario("[store]\np = zz@1:-\n[actor]\nkind = legit\npattern_id = p\n")

    def test_unknown_actor_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            loads_scenario("[store]\np = 01@1:- 10@2:1\n[actor]\nkind = ninja\n")

    def test_unknown_mutation(self):
        text = ("[store]\np = 01@1:- 10@2:1\n[actor]\nkind = mutant\n"
                "pattern_id = p\nmutation = zap\ntriplet_index = 1\n")
        with pytest.raises(ConfigError, match="unknown mutation"):
            loads_scenario(text)

    def test_missing_actor_field(self):
        with pytest.raises(ConfigError, match="missing key"):
            loads_scenario("[store]\np = 01@1:- 10@2:1\n[actor]\nkind = mitm\npattern_id = p\n")

    def test_bad_waypoints(self):
        with pytest.raises(ConfigError, match="t:d"):
            loads_scenario(MINIMAL + "\n[trajectory]\nwaypoints = 0-5\n")

    def test_bad_field_value_wrapped(self):
        with pytest.raises(ConfigError, match="sensor"):
            loads_scenario(MINIMAL + "\n[sensor]\nf_s = -1\n")

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            loads_scenario("store]\nbroken\n")


class TestDigest:
    def test_stable_across_parse(self):
        cfg = build_fig3("a")
        again = loads_scenario(dump_scenario(cfg))
        assert config_sha256(cfg) == config_sha256(again)

    def test_sensitive_to_any_field(self):
        cfg = build_fig3("a")
        assert config_sha256(cfg) != config_sha256(dataclasses.replace(cfg, seed=8))
        assert config_sha256(cfg) != config_sha256(dataclasses.replace(cfg, trials=2))


def _bench_workloads():
    # The benchmark's scenario generator; it uses the standard library only.
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompiledStoreText:
    def test_bad_store_raises_on_every_dump(self):
        cfg = build_fig3("a")
        p = cfg.store[0]
        for store in ((p, p), (dataclasses.replace(p, pattern_id="a=b"),)):
            bad = dataclasses.replace(cfg, store=store)
            for _ in range(2):
                with pytest.raises(ValueError, match=r"^\[store\]"):
                    dump_scenario(bad)

    def test_store_10k_digest_is_unchanged(self):
        # Keeping the store text per store must not move a digest; this is
        # the value a fresh dump of the whole scenario gives.
        cfg = loads_scenario(_bench_workloads().store_10k_text(7, 40))
        expected = "d5e865fe97c38b430dac0cc28262b8cee4411fdac2fe19bec5c0b5cd345473cc"
        assert config_sha256(cfg) == expected
        assert config_sha256(dataclasses.replace(cfg, seed=8)) != expected
        assert config_sha256(cfg) == expected


class TestReports:
    def test_json_is_byte_stable(self):
        cfg = build_desk(Legit("desk"), 3)
        a = render_report_json(run_scenario(cfg), cfg)
        b = render_report_json(run_scenario(cfg), cfg)
        assert a == b
        assert a.endswith("\n")

    def test_json_structure(self):
        cfg = build_desk(BruteForce(2, 2), 4, seed=3)
        doc = json.loads(render_report_json(run_scenario(cfg), cfg))
        assert doc["config_sha256"] == config_sha256(cfg)
        assert doc["seed"] == 3
        assert doc["metrics"]["trials"] == 4
        assert len(doc["trials"]) == 4
        rec = doc["trials"][0]
        assert set(rec) == {"trial", "actor", "label", "verdict", "reason",
                            "pattern_id", "phy_ok", "app_ok", "duration_s",
                            "transcript"}
        assert rec["actor"] == "bruteforce"
        assert rec["label"] == "adversary"
        for entry in rec["transcript"]:
            assert "@" in entry and ":" in entry

    def test_accepted_trial_record(self):
        cfg = build_fig3("a")
        doc = json.loads(render_report_json(run_scenario(cfg), cfg))
        rec = doc["trials"][0]
        assert rec["verdict"] == "accepted"
        assert rec["reason"] is None
        assert rec["pattern_id"] == "fig3"
        assert rec["app_ok"] is True
        assert rec["transcript"][0] == "010@1:-"

    def test_csv_layout(self):
        cfg = build_desk(Legit("desk"), 2)
        text = render_trials_csv(run_scenario(cfg))
        lines = text.splitlines()
        assert lines[0] == "trial,actor,verdict,reason,duration_s"
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[:4] == ["0", "legit", "accepted", ""]
        assert len(cells[4].split(".")[1]) == 6

    def test_csv_reason_for_reject(self):
        cfg = build_fig3("c")
        text = render_trials_csv(run_scenario(cfg))
        assert text.splitlines()[1].split(",")[3] == "channel@1"

    def test_write_report_files(self, tmp_path):
        cfg = build_fig3("a")
        report = run_scenario(cfg)
        json_path, csv_path = write_report(report, cfg, tmp_path / "out")
        assert json_path.name == "report.json"
        assert csv_path.name == "trials.csv"
        assert json.loads(json_path.read_text())["metrics"]["frr"] == 0.0
        assert csv_path.read_text().startswith("trial,actor")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_multi_pattern_store_golden(self, workers):
        # Pins the matcher's rules end to end: the lowest id wins a tie, and
        # a reject names the field of the lowest-id pattern it dropped.
        golden = json.loads((GOLDEN / "desk_multi_report.json").read_text())
        cfg = build_desk_multi(golden["trials"])
        assert config_sha256(cfg) == golden["config_sha256"], \
            "builder changed; re-record desk_multi_report.json at a known-good commit"
        report = run_scenario(cfg, workers=workers)
        digest = hashlib.sha256((render_report_json(report, cfg)
                                 + render_trials_csv(report)).encode("utf-8"))
        assert digest.hexdigest() == golden["report_sha256"]

    def test_sweep_csv(self):
        cfg = build_desk(Legit("desk"), 5)
        rows = sweep(cfg, "distance", [5.0, 45.0])
        text = render_sweep_csv("distance", rows)
        lines = text.splitlines()
        assert lines[0].startswith("axis,value,trials,far,frr")
        assert lines[1].split(",")[:2] == ["distance", "5.0"]
        # legit-only runs have no FAR: empty cells, not zeros
        assert lines[1].split(",")[3] == ""
        assert lines[2].split(",")[4] == "1.0"


class TestFixtures:
    def test_write_fixtures(self, tmp_path):
        paths = write_fixtures(tmp_path)
        assert [p.name for p in paths] == [
            "fig3a.scn", "fig3b.scn", "fig3c.scn", "fig3d.scn", "proto.scn"]
        for p in paths:
            cfg = load_scenario(p)
            assert validate_scenario(cfg) == []

    def test_fixture_files_match_builders(self, tmp_path):
        paths = write_fixtures(tmp_path)
        assert load_scenario(paths[0]) == build_fig3("a")
        assert load_scenario(paths[4]) == build_proto()
