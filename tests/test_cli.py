"""Command-line behavior: exit codes, outputs, seed precedence."""

import json
import re
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from beaconveil import (SWEEP_AXES, build_fig3, build_proto, dump_scenario,
                        load_scenario, pattern_space_size)
from beaconveil.cli import main


@pytest.fixture()
def fig3a(tmp_path):
    path = tmp_path / "fig3a.scn"
    path.write_text(dump_scenario(build_fig3("a")), encoding="utf-8")
    return path


def run_cli(args, env=None):
    import os
    full_env = dict(os.environ)
    full_env.pop("BEACONVEIL_SEED", None)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "beaconveil", *args],
                          capture_output=True, text=True, env=full_env)


class TestExitCodes:
    def test_validate_ok(self, fig3a):
        proc = run_cli(["validate", str(fig3a)])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"

    def test_missing_file_is_user_error(self, tmp_path):
        proc = run_cli(["run", str(tmp_path / "missing.scn")])
        assert proc.returncode == 1
        assert "file not found" in proc.stderr

    def test_invalid_config_is_user_error(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("[store]\np = 1@1:-\n[actor]\nkind = legit\npattern_id = p\n")
        proc = run_cli(["validate", str(bad)])
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_inconsistent_config_is_user_error(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("[store]\np = 01@1:- 10@2:1\n[actor]\nkind = legit\npattern_id = ghost\n")
        proc = run_cli(["validate", str(bad)])
        assert proc.returncode == 1
        assert "ghost" in proc.stderr

    def test_unknown_flag_is_user_error(self, fig3a):
        proc = run_cli(["run", str(fig3a), "--bogus"])
        assert proc.returncode == 1
        assert "usage" in proc.stderr

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "n", "--values", "3"]],
                             ids=["run", "sweep"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_user_error(self, fig3a, tmp_path, capsys, command,
                                             threads):
        argv = [command[0], str(fig3a), *command[1:], "--trials", "2",
                "--threads", threads, "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"error: --threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_command_is_user_error(self):
        proc = run_cli(["conquer"])
        assert proc.returncode == 1

    def test_no_command_is_user_error(self):
        proc = run_cli([])
        assert proc.returncode == 1

    @pytest.mark.parametrize("key, value", [
        ("f_s", "nan"), ("f_s", "inf"), ("tu_s", "nan"), ("delta_db", "inf"),
        ("waypoints", "0.0:nan"), ("sigma_db", "nan"), ("high_dbm", "inf")])
    def test_non_finite_number_is_user_error(self, fig3a, tmp_path, capsys, key, value):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", fig3a.read_text(),
                      flags=re.M)
        assert f"{key} = {value}" in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 1
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new", [
        ("[sensor]", "[sensr]"),
        ("waypoints = ", "waypionts = "),
        ("pattern_id = fig3", "pattern_id = fig3\nbogus = 1"),
        ("bit_index = 0", "bit_index = 0\nchannel = 3"),
        ("fig3 = 010@1:-", "fig3 = 010@²:-"),
        ("101@11:2", "101@11:³"),
        ("waypoints = 0.0:5.0", "waypoints ="),
        ("kind = mutant\n", ""),
    ], ids=["section", "trajectory-key", "actor-key", "mutation-key",
            "superscript-channel", "superscript-interval", "empty-waypoints",
            "actor-without-kind"])
    def test_refused_name_or_pattern_is_user_error(self, tmp_path, capsys, old, new):
        text = dump_scenario(build_fig3("b"))
        assert old in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    LEGIT = "kind = legit\npattern_id = fig3\n"
    BRUTE = "kind = bruteforce\nn = 3\nL = 3\n"

    @pytest.mark.parametrize("edits, named", [
        ([(LEGIT, BRUTE), ("channel_count = 14", f"channel_count = {2**70}")],
         "channel_count"),
        ([(LEGIT, BRUTE), ("max_tu = 16", f"max_tu = {2**63 + 1}")],
         "[run] max_tu"),
        ([("max_tu = 16", f"max_tu = {2**61}"), ("010@6:2", f"010@6:{2**60}")],
         "sensor tick 2^53"),
    ], ids=["channel-count", "max-tu", "tick-grid"])
    def test_emission_off_the_draw_or_the_grid_is_user_error(self, fig3a, tmp_path,
                                                              capsys, edits, named):
        # Such a config used to validate, then fail its run with exit 2.
        text = fig3a.read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 1
        assert main(["run", str(bad), "--trials", "2", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert named in err and "internal error" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("max_tu", [10**400, 10**308], ids=["10^400", "10^308"])
    def test_default_watchdog_past_float_range_is_user_error(self, fig3a, tmp_path,
                                                             capsys, max_tu):
        # Such a config used to validate, then fail its run with exit 2.
        text = fig3a.read_text()
        assert "max_tu = 16" in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace("max_tu = 16", f"max_tu = {max_tu}"))
        assert main(["validate", str(bad)]) == 1
        assert main(["run", str(bad), "--trials", "2", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "[run] max_tu" in err and "internal error" not in err
        assert not (tmp_path / "o").exists()

    def test_unwritable_out_is_runtime_error(self, fig3a, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        proc = run_cli(["run", str(fig3a), "--out", str(blocker)])
        assert proc.returncode == 2
        assert "internal error" in proc.stderr


class TestEnumerate:
    def test_prints_space_size(self):
        proc = run_cli(["enumerate", "--n", "2", "--L", "2",
                        "--channels", "1", "--max-tu", "1"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "16"

    def test_big_space(self):
        proc = run_cli(["enumerate", "--n", "3", "--L", "4",
                        "--channels", "14", "--max-tu", "4"])
        assert proc.stdout.strip() == "2517630976"

    def test_space_past_the_int_to_str_limit(self):
        # 6483 digits, past the 4300 that str(int) converts by default
        proc = run_cli(["enumerate", "--n", "64", "--L", "300",
                        "--channels", "14", "--max-tu", "16"])
        assert proc.returncode == 0, proc.stderr
        digits = proc.stdout.strip()
        assert len(digits) == 6483
        assert Decimal(digits) == pattern_space_size(64, 300, 14, 16)

    def test_bad_dimensions(self):
        proc = run_cli(["enumerate", "--n", "0", "--L", "2",
                        "--channels", "1", "--max-tu", "1"])
        assert proc.returncode == 1

    def test_space_past_the_printed_digits_is_refused_unsized(self, monkeypatch, capsys):
        # 1 << (64 * 10**9) alone would take 8 GB; the size is never computed.
        def unsized(*args):
            raise AssertionError("pattern_space_size called")
        monkeypatch.setattr("beaconveil.cli.pattern_space_size", unsized)
        assert main(["enumerate", "--n", "64", "--L", "1000000000",
                     "--channels", "14", "--max-tu", "16"]) == 1
        assert "more than 100000 decimal digits" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--n", "-5", "--L", "-1000000000"], "all arguments must be >= 1"),
        (["--n", "1", "--L", "1"], "L must be >= 2"),
    ])
    def test_refused_dimensions_keep_their_message(self, capsys, args, message):
        assert main(["enumerate", *args, "--channels", "14", "--max-tu", "16"]) == 1
        assert message in capsys.readouterr().err


class TestRun:
    def test_writes_reports(self, fig3a, tmp_path):
        out = tmp_path / "out"
        proc = run_cli(["run", str(fig3a), "--out", str(out)])
        assert proc.returncode == 0
        assert "trials=1" in proc.stdout
        doc = json.loads((out / "report.json").read_text())
        assert doc["metrics"]["frr"] == 0.0
        assert (out / "trials.csv").read_text().count("\n") == 2

    def test_trials_override(self, fig3a, tmp_path):
        out = tmp_path / "o"
        proc = run_cli(["run", str(fig3a), "--out", str(out), "--trials", "3"])
        assert proc.returncode == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["metrics"]["trials"] == 3

    def test_seed_precedence(self, fig3a, tmp_path):
        # file says 7; env beats file; flag beats env
        out1 = tmp_path / "a"
        run_cli(["run", str(fig3a), "--out", str(out1)],
                env={"BEACONVEIL_SEED": "99"})
        assert json.loads((out1 / "report.json").read_text())["seed"] == 99
        out2 = tmp_path / "b"
        run_cli(["run", str(fig3a), "--out", str(out2), "--seed", "5"],
                env={"BEACONVEIL_SEED": "99"})
        assert json.loads((out2 / "report.json").read_text())["seed"] == 5
        out3 = tmp_path / "c"
        run_cli(["run", str(fig3a), "--out", str(out3)])
        assert json.loads((out3 / "report.json").read_text())["seed"] == 7

    def test_garbage_env_seed(self, fig3a, tmp_path):
        proc = run_cli(["run", str(fig3a), "--out", str(tmp_path / "x")],
                       env={"BEACONVEIL_SEED": "lucky"})
        assert proc.returncode == 1
        assert "BEACONVEIL_SEED" in proc.stderr


class TestSweep:
    def test_writes_sweep_csv(self, tmp_path):
        from beaconveil import Legit
        from scenario_builders import build_desk
        cfg = build_desk(Legit("desk"), 10)
        path = tmp_path / "desk.scn"
        path.write_text(dump_scenario(cfg), encoding="utf-8")
        out = tmp_path / "out"
        proc = run_cli(["sweep", str(path), "--axis", "distance",
                        "--values", "5,45", "--out", str(out)])
        assert proc.returncode == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("distance,5.0,")

    def test_bad_axis(self, fig3a):
        proc = run_cli(["sweep", str(fig3a), "--axis", "altitude", "--values", "1"])
        assert proc.returncode == 1

    def test_bad_values(self, fig3a):
        proc = run_cli(["sweep", str(fig3a), "--axis", "distance", "--values", "a,b"])
        assert proc.returncode == 1

    @pytest.mark.parametrize("axis, values", [
        ("distance", "-5"), ("sigma_db", "-1"), ("eps_tu", "0.7"),
        ("n", "1"), ("L", "1"), ("n", "9"), ("distance", "5,-5"),
        ("distance", "nan"), ("sigma_db", "inf"), ("n", "inf"), ("L", "inf"),
        ("n", "2.5"), ("L", "2.5"), ("L", "1e16")])
    def test_bad_axis_value_is_user_error(self, tmp_path, capsys, axis, values):
        # every row is checked before any runs, and each bad one is named
        path = tmp_path / "fig3b.scn"
        path.write_text(dump_scenario(build_fig3("b")), encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["sweep", str(path), "--trials", "2", "--axis", axis,
                   f"--values={values}", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err and all(line.startswith("error: ") for line in err.splitlines())
        assert f"{axis} = {float(values.split(',')[-1])}: " in err
        assert not out.exists()

    def test_base_invalid_only_on_the_swept_axis_runs(self, fig3a, tmp_path, capsys):
        # A 2-bit sensor cannot read fig3's 3-bit store, but every row of an
        # n sweep redraws the store at its own n, so each row is valid.
        path = tmp_path / "n2.scn"
        path.write_text(fig3a.read_text().replace("\nn = 3\n", "\nn = 2\n"))
        assert main(["validate", str(path)]) == 1
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["sweep", str(path), "--trials", "4", "--axis", "n",
                     "--values", "3", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("n,3.0,4,")
        # A row that stays invalid is still refused, by value.
        assert main(["sweep", str(path), "--trials", "4", "--axis", "sigma_db",
                     "--values", "0", "--out", str(tmp_path / "bad")]) == 1
        assert "sigma_db = 0.0: store holds 3-bit patterns" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("values", ["65", "1e9"])
    def test_huge_n_refused_before_the_store_is_drawn(self, fig3a, capsys,
                                                       monkeypatch, values):
        import beaconveil.sim
        drawn = []

        def no_draw(*args, **kwargs):
            drawn.append(args)
            raise AssertionError("store drawn for an n that cannot be valid")

        monkeypatch.setattr(beaconveil.sim, "random_pattern", no_draw)
        rc = main(["sweep", str(fig3a), "--trials", "2", "--axis", "n",
                   f"--values={values}"])
        assert rc == 1 and drawn == []
        assert f"n = {float(values)}: " in capsys.readouterr().err


class TestFixturesCommand:
    def test_writes_and_validates(self, tmp_path):
        proc = run_cli(["fixtures", "--out", str(tmp_path)])
        assert proc.returncode == 0
        names = sorted(p.name for p in tmp_path.glob("*.scn"))
        assert names == ["fig3a.scn", "fig3b.scn", "fig3c.scn",
                         "fig3d.scn", "proto.scn"]
        for name in names:
            assert run_cli(["validate", str(tmp_path / name)]).returncode == 0


class TestInProcessMain:
    def test_main_returns_int(self, fig3a, tmp_path, capsys):
        rc = main(["run", str(fig3a), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "trials=1" in capsys.readouterr().out

    def test_main_usage_error(self, capsys):
        rc = main(["run"])  # missing config argument
        assert rc == 1
        assert "usage" in capsys.readouterr().err


# --- fuzzed scenario text -----------------------------------------------------

FIXTURE_TEXTS = [dump_scenario(build_fig3(c)) for c in "abcd"] + [dump_scenario(build_proto())]

VALUES = (st.integers(-3, 20).map(str) | st.floats(-10.0, 120.0).map(repr)
          | st.sampled_from(["", "0.0", "0.05", "nan", "inf", "x", "fig3", "pi2",
                             "01@1:- 10@2:1", "0.0:5.0 10.0:40.0", "wrong_interval"]))
IDS = st.sampled_from(["fig3", "pi1", "pi2", "ghost"])
SMALL = st.integers(-1, 12).map(str)


@st.composite
def actor_sections(draw):
    kind = draw(st.sampled_from(["legit", "mutant", "bruteforce", "replay",
                                 "mitm", "proto"]))
    lines = [f"kind = {kind}"]
    if kind in ("legit", "mutant", "replay", "mitm"):
        lines.append(f"pattern_id = {draw(IDS)}")
    if kind == "mutant":
        mutation, key = draw(st.sampled_from([("flip_tx_bit", "bit_index"),
                                              ("wrong_channel", "channel"),
                                              ("wrong_interval", "interval_tu")]))
        lines += [f"mutation = {mutation}", f"triplet_index = {draw(SMALL)}",
                  f"{key} = {draw(SMALL)}"]
    elif kind == "bruteforce":
        lines += [f"n = {draw(SMALL)}", f"L = {draw(SMALL)}"]
    elif kind == "mitm":
        lines.append(f"extra_delay_s = {draw(VALUES)}")
    elif kind == "proto":
        lines += [f"pattern_a = {draw(IDS)}", f"pattern_b = {draw(IDS)}",
                  f"tu_b_s = {draw(st.sampled_from(['0.25', '0.5', '1.0', '2.0', '4.0']) | VALUES)}"]
    return lines


def with_actor(text, lines):
    head, _, tail = text.partition("[actor]\n")
    return head + "[actor]\n" + "\n".join(lines) + "\n\n" + tail.partition("\n\n")[2]


@st.composite
def mutated_fixtures(draw):
    """A fixture with one value changed, one line or one section dropped,
    its actor swapped for one of another kind, one section or key name
    misspelled, or two sections swapped; returns the text and which of
    these it is."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    lines = text.split("\n")
    how = draw(st.sampled_from(["value", "drop", "actor", "section", "misspell",
                                "reorder"]))
    if how == "actor":
        return with_actor(text, draw(actor_sections())), how
    if how == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
        return "\n".join(lines), how
    if how == "section":
        sections = text.split("\n\n")
        del sections[draw(st.integers(0, len(sections) - 1))]
        return "\n\n".join(sections), how
    if how == "reorder":
        sections = text.rstrip("\n").split("\n\n")
        i, j = draw(st.lists(st.integers(0, len(sections) - 1), min_size=2,
                             max_size=2, unique=True))
        sections[i], sections[j] = sections[j], sections[i]
        return "\n\n".join(sections) + "\n", how
    if how == "misspell":
        # A doubled letter spells no other name. Store ids are the file's
        # own names, so they keep their spelling.
        named, section = [], None
        for i, line in enumerate(lines):
            if line.startswith("["):
                section = line
                named.append(i)
            elif " = " in line and section != "[store]":
                named.append(i)
        line = lines[i := draw(st.sampled_from(named))]
        lo, hi = (1, len(line) - 2) if line.startswith("[") else (0, line.index(" = ") - 1)
        k = draw(st.integers(lo, hi))
        lines[i] = line[:k] + line[k] + line[k:]
        return "\n".join(lines), how
    keyed = [i for i, line in enumerate(lines) if " = " in line]
    i = draw(st.sampled_from(keyed))
    lines[i] = lines[i].partition(" = ")[0] + " = " + draw(VALUES)
    return "\n".join(lines), how


def sections(text):
    return sorted(text.rstrip("\n").split("\n\n"))


class TestFuzzedScenarioText:
    # At most 3 trials, so a run never starts a process pool.
    @given(case=mutated_fixtures(), seed=st.integers(-3, 2**70),
           trials=st.integers(-2, 3), threads=st.integers(-1, 2))
    @example(case=(with_actor(FIXTURE_TEXTS[0], ["kind = bruteforce", "n = 9", "L = 2"]),
                   "actor"), seed=7, trials=2, threads=1)
    # A candidate space past the 4300 digits str(int) converts.
    @example(case=(with_actor(FIXTURE_TEXTS[0], ["kind = bruteforce", "n = 3", "L = 2000"]),
                   "actor"), seed=7, trials=3, threads=1)
    @example(case=(with_actor(FIXTURE_TEXTS[4], ["kind = proto", "pattern_a = pi1",
                                                 "pattern_b = pi2", "tu_b_s = 0.5"]),
                   "actor"), seed=11, trials=2, threads=1)
    @settings(max_examples=150, deadline=None)
    def test_exit_codes_hold_and_validate_ok_runs(self, case, seed, trials, threads):
        # 0 ok, 1 user error, never 2; a file that validates runs with any
        # good seed and trial count and refuses bad ones; a misspelled name
        # is refused; and section order does not matter
        text, how = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.scn"
            path.write_text(text, encoding="utf-8")
            validated = main(["validate", str(path)])
            ran = main(["run", str(path), "--seed", str(seed), "--trials", str(trials),
                        "--threads", str(threads), "--out", str(Path(tmp) / "o")])
            if how == "reorder":
                original = next(t for t in FIXTURE_TEXTS if sections(t) == sections(text))
                orig_path = Path(tmp) / "orig.scn"
                orig_path.write_text(original, encoding="utf-8")
                assert validated == main(["validate", str(orig_path)])
                assert load_scenario(path) == load_scenario(orig_path)
        assert validated in (0, 1) and ran in (0, 1)
        bad_flags = seed < 0 or trials < 1 or threads < 1
        assert ran == 1 if bad_flags else validated == 1 or ran == 0
        assert how != "misspell" or validated == 1


SWEEP_VALUES = [-5, -1, 0, 0.05, 0.5, 0.7, 1, 2, 2.5, 3, 9, 70,
                float("nan"), float("inf")]


class TestFuzzedSweep:
    # The values stay small: a row redraws its store in time and memory
    # linear in n or L before validation can refuse it.
    @given(text=st.sampled_from(FIXTURE_TEXTS), axis=st.sampled_from(SWEEP_AXES),
           values=st.lists(st.sampled_from(SWEEP_VALUES), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_exit_code_is_0_or_1(self, text, axis, values):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.scn"
            path.write_text(text, encoding="utf-8")
            rc = main(["sweep", str(path), "--axis", axis, "--trials", "2",
                       "--values=" + ",".join(map(repr, values)),
                       "--out", str(Path(tmp) / "o")])
        assert rc in (0, 1)
