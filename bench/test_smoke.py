"""Smoke test of the benchmark harness at tiny trial counts.

    python3 -m pytest -q bench/test_smoke.py

It runs every workload once timed and once traced, each with a few trials
per batch, and checks the output contract rather than any speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "6"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == measure.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_timed_run_reports_every_end_to_end_metric(name):
    code, lines = bench("--workload", name, "--seconds", "0", "--trials", TINY)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 2 * int(TINY)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"nproc", "python", "numpy", "git_sha", "loadavg_1m"} <= set(env)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    code, lines = bench("--workload", name, "--seconds", "0", "--trials", TINY,
                        "--trace", "1")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(measure.PER_LAYER_UNITS)
    assert m["sim.run_trial.calls"] == int(TINY)
    assert m["sim.observe_emission.calls"] >= int(TINY)
    assert m["trace.overhead_ratio"] > 0
    samples = {line.split()[1]: json.loads(line.split(None, 2)[2])
               for line in lines if line.startswith("samples ")}
    workers = workloads.WORKLOADS[name].workers
    processes = 1 if workers == 1 else 1 + workers
    # Self times partition each process's traced time, so no span is counted
    # twice: their sum is at most the traced wall time of every process.
    for self_sum, wall in zip(samples["trace.self_sum_s"], samples["trace.wall_s"]):
        assert self_sum <= processes * wall * 1.01


def test_workload_text_matches_the_program_fixtures():
    from beaconveil import build_fig3, build_flyover, scenario
    fly = scenario.loads_scenario(workloads.flyover_text(2026, 50))
    assert fly == build_flyover(50)
    store = scenario.loads_scenario(workloads.store_10k_text(7, 1))
    assert store.store[0] == build_fig3("a").store[0]
    assert len({p.pattern_id for p in store.store}) == workloads.STORE_SIZE


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("--workload", "desk_bruteforce", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not lines or not lines[-1].startswith("{")
