"""Run one workload in this interpreter and print its measurements as JSON.

run.py starts this script in a fresh interpreter with the checkout's src/ on
PYTHONPATH, so the peak RSS it reports belongs to this process and its
worker children alone. Each batch is one `beaconveil run` minus the disk
writes: validate_scenario, run_scenario, then both reports rendered to bytes.
A timed run (--trace 0) repeats batches at seeds seed, seed+1, ... until
--seconds have passed and reports the median trials/s, each batch scaled by
the calibration kernel runs on either side of it (calibrate.py). A traced run
(--trace 1) runs each seed twice, plain and traced, in alternating order, and
reports the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from beaconveil import emitter, scenario, sensor, sim

import calibrate
import tracer as tracing
import workloads

MIN_BATCHES = 2

PER_LAYER_UNITS = {
    "emitter.random_candidate.calls": "count",
    "emitter.random_candidate.self_s": "s",
    "emitter.compile_schedule.calls": "count",
    "emitter.compile_schedule.self_s": "s",
    "emitter.levels_at.self_s": "s",
    "radio.distance_at.calls": "count",
    "radio.distance_at.self_s": "s",
    "radio.path_loss.calls": "count",
    "radio.path_loss.self_s": "s",
    "radio.distances_at.calls": "count",
    "radio.distances_at.self_s": "s",
    "radio.path_loss_array.calls": "count",
    "radio.path_loss_array.self_s": "s",
    "sim.observe_emission.calls": "count",
    "sim.observe_emission.self_s": "s",
    "sim.observe_emission.samples_per_call": "samples",
    "sim.run_trial.calls": "count",
    "sim.run_trial.self_s": "s",
    "sim.run_trial.p50_ms": "ms",
    "sim.run_trial.p99_ms": "ms",
    "sim.samples_fed_ratio": "ratio",
    "sim.validate_scenario.s": "s",
    "sim.run_scenario.self_s": "s",
    "sim.fanout.worker_busy_ratio": "ratio",
    "sim.fanout.block_s_max": "s",
    "sim.fanout.block_s_min": "s",
    "sim.fanout.result_bytes": "bytes-computed",
    "sensor.session_init.self_s": "s",
    "sensor.observe_beacon.calls": "count",
    "sensor.observe_beacon.self_s": "s",
    "sensor.observe_sample.calls": "count",
    "sensor.observe_sample.self_s": "s",
    "sensor.finish.calls": "count",
    "sensor.finish.self_s": "s",
    "sensor.decode_slots.calls": "count",
    "sensor.decode_slots.self_s": "s",
    "sensor.apply_app_stage.calls": "count",
    "sensor.apply_app_stage.self_s": "s",
    "sensor.decode_ok_ratio": "ratio",
    "core.new_matcher.calls": "count",
    "core.new_matcher.self_s": "s",
    "core.match_step.calls": "count",
    "core.match_step.self_s": "s",
    "core.match_step.viable_mean": "patterns",
    "scenario.loads_scenario.s": "s",
    "scenario.render_report_json.s": "s",
    "scenario.render_trials_csv.s": "s",
    "scenario.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
}


def run_batch(cfg, workers: int):
    """validate + run + render: what `beaconveil run` does between loading
    the config and writing the two report files."""
    problems = sim.validate_scenario(cfg)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))
    report = sim.run_scenario(cfg, workers=workers)
    report_json = scenario.render_report_json(report, cfg).encode("utf-8")
    trials_csv = scenario.render_trials_csv(report).encode("utf-8")
    return report, report_json, trials_csv


class Outcomes:
    """Checks every batch's outcome; a batch that fails a check counts all
    its trials as failed."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: dict[tuple[int, int], dict] = {}
        self.accepted = 0
        self.pooled = 0

    def batch(self, seed: int, cfg, report, report_json: bytes,
              trials_csv: bytes, pooled: bool = True) -> None:
        wl, n = self.wl, cfg.trials
        self.attempted += n
        problems = []
        if [tr.trial for tr in report.trials] != list(range(n)):
            problems.append(f"seed {seed}: trial indices are not 0..{n - 1}")
        problems += workloads.check_serialised(report, report_json, trials_csv)
        record = workloads.outcome_record(report)
        if self.records.setdefault((seed, n), record) != record:
            problems.append(f"seed {seed}: outcome differs between two runs")
        expected = workloads.RECORDED.get(wl.record_key)
        if (expected is not None and seed == wl.default_seed
                and n == wl.batch_trials and record != expected):
            problems.append(f"seed {seed}: outcome differs from the recorded one: "
                            f"{record} != {expected}")
        bad = sum(1 for tr in report.trials if not wl.trial_ok(tr))
        if bad:
            problems.append(f"seed {seed}: {bad} trials with a wrong outcome")
        self.failed += n if problems else 0
        self.problems += problems
        if pooled:
            self.accepted += sum(1 for tr in report.trials
                                 if tr.result.verdict == workloads.ACCEPTED)
            self.pooled += n

    def error(self, n: int) -> None:
        self.attempted += n
        self.failed += n
        self.problems.append(traceback.format_exc())

    def finish(self) -> None:
        if self.pooled:
            problem = self.wl.pooled_check(self.accepted, self.pooled)
            if problem:
                self.problems.append(problem)
                self.failed = self.attempted


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux. The children figure is the largest worker
    # process that has ended, so on workers=2 this counts the parent plus one
    # worker: a floor for the two-process total.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _warm_up(wl, cfg, seed: int, out: Outcomes) -> None:
    # First calls pay for lazy imports and allocator growth; keep them out
    # of the timed batches.
    small = replace(cfg, seed=seed, trials=max(2 * wl.workers, cfg.trials // 10))
    try:
        out.batch(seed, small, *run_batch(small, wl.workers), pooled=False)
    except Exception:
        out.error(small.trials)


def timed_run(wl, cfg, seed: int, seconds: float, out: Outcomes) -> dict:
    _warm_up(wl, cfg, seed, out)
    walls = []
    cal = [calibrate.kernel_s()]  # cal[b] and cal[b + 1] bracket batch b
    deadline = perf_counter() + seconds
    b = 0
    while not out.problems and (b < MIN_BATCHES or perf_counter() < deadline):
        cfg_b = replace(cfg, seed=seed + b)
        t0 = perf_counter()
        try:
            report, report_json, trials_csv = run_batch(cfg_b, wl.workers)
        except Exception:
            out.error(cfg_b.trials)
            break
        walls.append(perf_counter() - t0)
        cal.append(calibrate.kernel_s())
        out.batch(seed + b, cfg_b, report, report_json, trials_csv)
        del report, report_json, trials_csv
        b += 1
    peak = _peak_rss_mib()
    raw = [cfg.trials / w for w in walls]
    scale = [(c0 + c1) / 2.0 / calibrate.REFERENCE_S for c0, c1 in zip(cal, cal[1:])]
    rates = [r * k for r, k in zip(raw, scale)]
    metrics = {}
    if rates:
        metrics["trials_per_s"] = {"value": statistics.median(rates), "unit": "trials/s"}
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MiB"}
    return {"metrics": metrics,
            "samples": {"trials_per_s": rates, "trials_per_s.raw": raw,
                        "calibration_s": cal}}


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q / 100.0 * len(s)))]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(snaps: list[dict], load_snap: dict, overhead: list[float],
                  walls: list[float], report_bytes: int) -> dict:
    """Counts come from the first traced batch (they repeat exactly at one
    seed); times are medians over the traced batches."""
    first = snaps[0]["stats"]
    counters = snaps[0]["counters"]

    def calls(name):
        return first[name][0]

    def self_s(name):
        return statistics.median(s["stats"][name][2] for s in snaps)

    def per_call(name):
        return statistics.median(_ratio(s["stats"][name][1], s["stats"][name][0])
                                 for s in snaps)

    def fanout(snap):
        busy = [b["busy_s"] for b in snap["worker_blocks"]]
        span = snap["stats"]["sim.run_scenario"][1]
        return (_ratio(sum(busy), len(busy) * span), max(busy, default=0.0),
                min(busy, default=0.0),
                sum(b["result_bytes"] for b in snap["worker_blocks"]))

    fan = [fanout(s) for s in snaps]
    trial_ms = [d * 1e3 for s in snaps for d in s["durations"]["sim.run_trial"]]
    samples = counters.get("sim.observe_emission.samples", 0)
    v = {}
    for key in PER_LAYER_UNITS:
        span, _, stat = key.rpartition(".")
        if stat == "calls":
            v[key] = calls(span)
        elif stat == "self_s":
            v[key] = self_s(span)
    v["sim.observe_emission.samples_per_call"] = _ratio(
        samples, calls("sim.observe_emission"))
    v["sim.run_trial.p50_ms"] = _percentile(trial_ms, 50)
    v["sim.run_trial.p99_ms"] = _percentile(trial_ms, 99)
    v["sim.samples_fed_ratio"] = _ratio(calls("sensor.observe_sample"), samples)
    v["sim.validate_scenario.s"] = per_call("sim.validate_scenario")
    v["sim.fanout.worker_busy_ratio"] = statistics.median(f[0] for f in fan)
    v["sim.fanout.block_s_max"] = statistics.median(f[1] for f in fan)
    v["sim.fanout.block_s_min"] = statistics.median(f[2] for f in fan)
    v["sim.fanout.result_bytes"] = fan[0][3]
    v["sensor.decode_ok_ratio"] = _ratio(counters.get("sensor.decode_slots.ok", 0),
                                         calls("sensor.decode_slots"))
    v["core.match_step.viable_mean"] = _ratio(counters.get("core.match_step.viable", 0),
                                              calls("core.match_step"))
    load = load_snap["stats"]["scenario.loads_scenario"]
    v["scenario.loads_scenario.s"] = _ratio(load[1], load[0])
    v["scenario.render_report_json.s"] = per_call("scenario.render_report_json")
    v["scenario.render_trials_csv.s"] = per_call("scenario.render_trials_csv")
    v["scenario.report_bytes"] = report_bytes
    v["trace.overhead_ratio"] = statistics.median(overhead)
    v["trace.wall_s"] = statistics.median(walls)
    return {k: {"value": v[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def traced_run(wl, cfg, seed: int, seconds: float, out: Outcomes,
               load_snap: dict) -> dict:
    tr = tracing.Tracer()
    _warm_up(wl, cfg, seed, out)
    snaps, overhead, walls, self_sums, report_bytes = [], [], [], [], 0
    deadline = perf_counter() + seconds
    b = 0
    while not out.problems and (b < MIN_BATCHES or perf_counter() < deadline):
        cfg_b = replace(cfg, seed=seed + b)
        wall = {}
        for traced in ((False, True) if b % 2 == 0 else (True, False)):
            batch = run_batch
            if traced:
                tr.install(sim, sensor, emitter, scenario)
                tr.reset()
                batch = tr.wrap("bench.batch", run_batch)
            t0 = perf_counter()
            try:
                report, report_json, trials_csv = batch(cfg_b, wl.workers)
            except Exception:
                out.error(cfg_b.trials)
                break
            finally:
                wall[traced] = perf_counter() - t0
                if traced:
                    tr.uninstall()
            if traced:
                tr.absorb_workers()
                snap = tr.snapshot()
                snaps.append(snap)
                self_sums.append(sum(st[2] for st in snap["stats"].values()))
                report_bytes = len(report_json) + len(trials_csv)
            out.batch(seed + b, cfg_b, report, report_json, trials_csv,
                      pooled=not traced)
            del report, report_json, trials_csv
        if len(wall) < 2 or out.problems:
            break
        overhead.append(wall[True] / wall[False])
        walls.append(wall[True])
        b += 1
    if not snaps or not overhead:
        return {"metrics": {}, "samples": {}}
    return {"metrics": layer_metrics(snaps, load_snap, overhead, walls, report_bytes),
            "samples": {"trace.overhead_ratio": overhead, "trace.wall_s": walls,
                        "trace.self_sum_s": self_sums}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trials", type=int, required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args(argv)

    module = Path(sim.__file__).resolve()
    if Path(args.src).resolve() not in module.parents:
        print(f"beaconveil was imported from {module}, not from {args.src}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    text = wl.text(args.seed, args.trials)
    out = Outcomes(wl)

    if args.trace:
        tr = tracing.Tracer()
        tr.install(sim, sensor, emitter, scenario)
        try:
            cfg = scenario.loads_scenario(text)
        finally:
            tr.uninstall()
        result = traced_run(wl, cfg, args.seed, args.seconds, out, tr.snapshot())
    else:
        cfg = scenario.loads_scenario(text)
        result = timed_run(wl, cfg, args.seed, args.seconds, out)

    if wl.workers > 1 and not out.problems:
        # Same seed at workers=1 must give the identical outcome.
        first = replace(cfg, seed=args.seed)
        solo = workloads.outcome_record(sim.run_scenario(first, workers=1))
        if solo != out.records[(args.seed, cfg.trials)]:
            out.problems.append(f"seed {args.seed}: workers={wl.workers} outcome "
                                "differs from workers=1")
            out.failed = out.attempted
    out.finish()
    if not result["metrics"]:
        out.failed = out.attempted
    print(json.dumps({"attempted": out.attempted, "failed": out.failed,
                      "problems": out.problems, "numpy": np.__version__,
                      "batch_trials": cfg.trials, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
