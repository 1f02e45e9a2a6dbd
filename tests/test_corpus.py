"""Byte-identity corpus: the report bytes of a fixed set of runs and one sweep.

Each case records the sha256 of its config's dump and of the bytes the CLI
would write for it: report.json + trials.csv for a run, sweep.csv for the
sweep. Every case is recomputed at one worker, and a few at two, so a change
that moves any trial's outcome, or that makes the outcome depend on the
worker count, fails here; one case also runs at two workers under the
forkserver and spawn start methods. Every run's report is also rendered by
the reference renderers of tests/report_oracle.py, and its outcome form
(trials built on first access, metrics, bytes) is checked against its
trials run alone at one to three workers under each start method. To
re-record at a known-good commit, delete tests/golden/corpus.json and run
this file.
"""

import functools
import hashlib
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

import beaconveil.sim
from beaconveil import (BruteForce, Mitm, Replay, RunReport, build_fig3,
                        build_flyover, build_proto, compute_metrics,
                        config_sha256, loads_scenario, render_report_json,
                        render_trials_csv, run_scenario, run_trial, sweep)
from beaconveil.scenario import render_sweep_csv

import report_oracle
from scenario_builders import build_desk, build_desk_multi

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "corpus.json"


def _fig3a(trials, actor=None, sigma_db=None, lockout_s=None):
    cfg = replace(build_fig3("a"), trials=trials)
    if actor is not None:
        cfg = replace(cfg, actor=actor)
    if sigma_db is not None:
        cfg = replace(cfg, channel=replace(cfg.channel, sigma_db=sigma_db))
    if lockout_s is not None:
        cfg = replace(cfg, sensor_cfg=replace(cfg.sensor_cfg, lockout_s=lockout_s))
    return cfg


def _store_10k():
    # The benchmark's 10k-credential store, as the text its workload reads.
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    return loads_scenario(workloads.store_10k_text(7, 8))


RUNS = {
    **{f"fig3{c}": (lambda c=c: replace(build_fig3(c), trials=50)) for c in "abcd"},
    "proto": lambda: replace(build_proto(), trials=40),
    "fig3a_replay": lambda: _fig3a(60, Replay("fig3"), sigma_db=4.0, lockout_s=50.0),
    "fig3a_mitm": lambda: _fig3a(50, Mitm("fig3", 0.05)),
    "fig3a_bruteforce": lambda: _fig3a(300, BruteForce(3, 2), lockout_s=5.0),
    "flyover": lambda: build_flyover(200),
    "desk_bruteforce": lambda: build_desk(BruteForce(2, 2), 2000),
    "desk_multi": lambda: build_desk_multi(2000),
    "store_10k": _store_10k,
}
SWEEP = ("sigma_db", [0.0, 3.0])


@functools.cache
def _run(name, workers):
    cfg = RUNS[name]()
    return cfg, run_scenario(cfg, workers=workers)


def _record(name, workers):
    if name == "sweep":
        cfg = _fig3a(40)
        data = render_sweep_csv(SWEEP[0], sweep(cfg, *SWEEP, workers=workers))
        key = "sweep_sha256"
    else:
        cfg, report = _run(name, workers)
        data = render_report_json(report, cfg) + render_trials_csv(report)
        key = "report_sha256"
    return {"config_sha256": config_sha256(cfg),
            key: hashlib.sha256(data.encode("utf-8")).hexdigest()}


@pytest.fixture(scope="module")
def corpus():
    if not CORPUS.exists():
        cases = {name: _record(name, 1) for name in [*RUNS, "sweep"]}
        CORPUS.write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, workers", [
    *((name, 1) for name in [*RUNS, "sweep"]),
    ("sweep", 2), ("fig3a_replay", 2), ("fig3a_bruteforce", 2),
    # Verdicts shared within a block, which come back through a worker's pickle.
    ("desk_bruteforce", 2), ("store_10k", 2)])
def test_bytes_match_the_corpus(corpus, name, workers):
    got = _record(name, workers)
    want = corpus[name]
    assert got["config_sha256"] == want["config_sha256"], \
        f"case {name} changed; re-record corpus.json at a known-good commit"
    assert got == want


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(RUNS))
def test_renderers_match_the_oracle(name, workers):
    cfg, report = _run(name, workers)
    assert render_report_json(report, cfg) == report_oracle.report_json(report, cfg)
    assert render_trials_csv(report) == report_oracle.trials_csv(report)


_UNDER_START_METHOD = """
import json, multiprocessing, sys
if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    import test_corpus
    print(json.dumps(test_corpus._record("desk_bruteforce", 2)))
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_bytes_match_the_corpus_under_start_method(corpus, method):
    # Workers that import the package afresh, as forkserver (the default on
    # Linux from Python 3.14) and spawn start them, give the same bytes.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(tests), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _UNDER_START_METHOD, method],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=300)
    assert json.loads(out.stdout) == corpus["desk_bruteforce"]


def _shadowed(cfg, sigma_db):
    return replace(cfg, channel=replace(cfg.channel, sigma_db=sigma_db))


# Beside the corpus runs: the benchmark's desk batch, a longer noisy
# flyover, and Replay and Proto under shadowing.
OUTCOME_RUNS = {
    **RUNS,
    "desk_4000": lambda: build_desk(BruteForce(2, 2), 4000),
    "flyover_600": lambda: build_flyover(600),
    "replay_noisy": lambda: _shadowed(build_desk(Replay("desk"), 120), 3.0),
    "proto_noisy": lambda: _shadowed(replace(build_proto(), trials=150), 2.0),
}


@functools.cache
def _trials_alone(name):
    """Each trial of the run, run as a block of one, in trial order."""
    cfg = OUTCOME_RUNS[name]()
    return [run_trial(cfg, i) for i in range(cfg.trials)]


class TestOutcomeDifferential:
    """A run's report holds its outcome as a verdict table plus per-trial
    indices, merged from its blocks. Its trials, built on first access,
    must equal each trial run alone; its metrics the metrics of those
    trials; and its rendered bytes the reference renderers' (and so the
    bytes of a report built from those trials). All the rows run in one
    _run_rows call, at each worker count and pool start method."""

    @pytest.mark.parametrize("method, workers", [
        ("fork", 1), ("fork", 2), ("fork", 3), ("forkserver", 2), ("forkserver", 3),
        ("spawn", 2), ("spawn", 3)])
    def test_outcome_is_the_trials_run_alone(self, monkeypatch, method, workers):
        monkeypatch.setattr(beaconveil.sim, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(beaconveil.sim, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)))
        rows = [OUTCOME_RUNS[name]() for name in OUTCOME_RUNS]
        reports = beaconveil.sim._run_rows(rows, workers)
        for name, cfg, report in zip(OUTCOME_RUNS, rows, reports):
            data = render_report_json(report, cfg), render_trials_csv(report)
            # Neither the run nor the renderers built the trials.
            assert "trials" not in vars(report), name
            alone = _trials_alone(name)
            assert list(report.trials) == alone, name
            assert report.metrics == compute_metrics(alone), name
            given = RunReport(report.metrics, tuple(alone))
            assert given == report, name
            for r in (report, given):
                assert data == (report_oracle.report_json(r, cfg),
                                report_oracle.trials_csv(r)), name
                assert data == (render_report_json(r, cfg), render_trials_csv(r)), name
