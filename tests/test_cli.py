"""Command-line behavior: exit codes, outputs, seed precedence."""

import json
import re
import subprocess
import sys

import pytest

from beaconveil import build_fig3, dump_scenario, load_scenario
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
        assert "not a finite number" in capsys.readouterr().err
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

    def test_bad_dimensions(self):
        proc = run_cli(["enumerate", "--n", "0", "--L", "2",
                        "--channels", "1", "--max-tu", "1"])
        assert proc.returncode == 1


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
