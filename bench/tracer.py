"""Span tracer for the traced benchmark run.

Wraps the public functions of beaconveil's layers from outside, at the names
their callers look them up by, so `src/` needs no hooks. Spans nest on a
stack: a span's self time is its duration minus the durations of the spans
it directly contains. Statistics are kept in memory per span name and read
out when the run ends.

Worker processes of `run_scenario(workers > 1)` are forked with the wrappers
in place. The wrapped `_run_block` measures its own busy time there, resets
the inherited statistics, and ships its span statistics back with its result
list; unpickling that list in the parent hands them to the active tracer.
"""

from __future__ import annotations

import functools
import os
import pickle
from collections import Counter
from time import perf_counter

# The tracer that worker results are delivered to. Unpickling runs inside
# ProcessPoolExecutor's result thread, where only a module global is in reach.
_ACTIVE = None


def _receive_block(items: list, meta: dict) -> list:
    if _ACTIVE is not None:
        _ACTIVE.worker_blocks.append(meta)
    return items


class _WorkerBlock(list):
    """A block's trial list that carries the worker's trace across the pipe."""

    def __init__(self, items, meta):
        super().__init__(items)
        self.meta = meta

    def __reduce__(self):
        return _receive_block, (list(self), self.meta)


def _count_samples(counters, args, out):
    counters["sim.observe_emission.samples"] += len(out[1])


def _count_decoded(counters, args, out):
    counters["sensor.decode_slots.ok"] += 1


def _count_viable(counters, args, out):
    counters["core.match_step.viable"] += len(args[0].viable)


def targets(sim, sensor, emitter, scenario) -> list[tuple]:
    """(owner, attribute, span name, on-return hook, keep durations).

    Owners are the modules and classes whose attribute the caller reads at
    call time: sim imports the radio and emitter functions into its own
    namespace, and sensor imports the matcher from core.
    """
    return [
        (sim, "random_candidate", "emitter.random_candidate", None, False),
        (sim, "compile_schedule", "emitter.compile_schedule", None, False),
        (emitter.EmissionTimeline, "levels_at", "emitter.levels_at", None, False),
        (sim, "distance_at", "radio.distance_at", None, False),
        (sim, "path_loss", "radio.path_loss", None, False),
        (sim, "distances_at", "radio.distances_at", None, False),
        (sim, "path_loss_array", "radio.path_loss_array", None, False),
        (sim, "observe_emission", "sim.observe_emission", _count_samples, False),
        (sim, "run_trial", "sim.run_trial", None, True),
        (sim, "validate_scenario", "sim.validate_scenario", None, False),
        (sim, "run_scenario", "sim.run_scenario", None, False),
        (sim, "apply_app_stage", "sensor.apply_app_stage", None, False),
        (sensor.SensorSession, "__init__", "sensor.session_init", None, False),
        (sensor.SensorSession, "observe_beacon", "sensor.observe_beacon", None, False),
        (sensor.SensorSession, "observe_sample", "sensor.observe_sample", None, False),
        (sensor.SensorSession, "finish", "sensor.finish", None, False),
        (sensor, "decode_slots", "sensor.decode_slots", _count_decoded, False),
        (sensor, "new_matcher", "core.new_matcher", None, False),
        (sensor, "match_step", "core.match_step", _count_viable, False),
        (scenario, "loads_scenario", "scenario.loads_scenario", None, False),
        (scenario, "render_report_json", "scenario.render_report_json", None, False),
        (scenario, "render_trials_csv", "scenario.render_trials_csv", None, False),
    ]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.durations: dict[str, list[float]] = {}
        self.worker_blocks: list[dict] = []  # per block: busy_s, result_bytes
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple] = []
        self._pid = os.getpid()

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        for d in self.durations.values():
            d.clear()
        self.counters.clear()
        self.worker_blocks.clear()
        self._stack.clear()

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters),
                "durations": {k: list(v) for k, v in self.durations.items()},
                "worker_blocks": [dict(b) for b in self.worker_blocks]}

    def merge(self, snap: dict) -> None:
        for k, (calls, total, self_s) in snap["stats"].items():
            st = self.stats.setdefault(k, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        self.counters.update(snap["counters"])
        for k, d in snap["durations"].items():
            self.durations.setdefault(k, []).extend(d)

    def wrap(self, name: str, fn, on_return=None, keep_durations: bool = False):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations.setdefault(name, []) if keep_durations else None
        stack, counters = self._stack, self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - inner
                if durations is not None:
                    durations.append(dt)
            if on_return is not None:
                on_return(counters, args, out)
            return out
        return span

    def _wrap_block(self, fn):
        traced = self.wrap("sim._run_block", fn)

        @functools.wraps(fn)
        def run_block(*args, **kwargs):
            if os.getpid() == self._pid:  # workers=1: the block runs in-process
                t0 = perf_counter()
                out = traced(*args, **kwargs)
                self.worker_blocks.append(
                    {"busy_s": perf_counter() - t0, "result_bytes": 0})
                return out
            self.reset()  # drop what the fork copied from the parent
            t0 = perf_counter()
            out = traced(*args, **kwargs)
            busy = perf_counter() - t0
            meta = {"busy_s": busy, "result_bytes": len(pickle.dumps(out)),
                    "trace": self.snapshot()}
            return _WorkerBlock(out, meta)
        return run_block

    def install(self, sim, sensor, emitter, scenario) -> None:
        """Patch every target that exists; a missing one reports zero calls."""
        global _ACTIVE
        for owner, attr, name, hook, keep in targets(sim, sensor, emitter, scenario):
            self.stats.setdefault(name, [0, 0.0, 0.0])
            if keep:
                self.durations.setdefault(name, [])
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, hook, keep))
        block = sim.__dict__.get("_run_block")
        if block is not None:
            self._patches.append((sim, "_run_block", block))
            sim._run_block = self._wrap_block(block)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        _ACTIVE = None

    def absorb_workers(self) -> None:
        """Fold the span statistics that worker blocks shipped back."""
        for block in self.worker_blocks:
            trace = block.pop("trace", None)
            if trace is not None:
                self.merge(trace)
