"""beaconveil benchmark: run one workload once and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root (any checkout with src/beaconveil). With
--trace 0 it prints the end-to-end metrics: trials_per_s, setup_s and
peak_rss_mb. With --trace 1 it prints the per-layer metrics of a separate
traced run. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it record the
environment and the raw samples. See bench/README.md.

This script uses the standard library only. It measures set-up in fresh
interpreters (setup_probe.py) and the workload in one more (measure.py), all
with the checkout's src/ as the only PYTHONPATH entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPS = 5  # measured cold set-ups; one more runs first to fill caches
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def _nonneg_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return v


def _git_sha(root: Path):
    """HEAD's commit read straight from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(src: Path) -> str:
    """Identifies the code under test where no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """Recorded at start; measure.py adds the numpy version it imported."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": _git_sha(ROOT), "src_sha256": _src_sha256(SRC),
            "loadavg_1m": os.getloadavg()[0]}


def _run_child(cmd: list[str], stdin_text, timeout: float) -> dict:
    """Run a helper in its own process group, wait for it, and return the
    JSON object on its last stdout line. On timeout the whole group, worker
    processes included, is killed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(stdin_text, timeout=max(timeout, 1.0))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{Path(cmd[1]).name} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="beaconveil benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=_nonneg_int, default=None,
                    help="scenario seed of the first batch (default: the "
                         "workload's recorded seed)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time; 0 runs the minimum of two batches")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trials", type=_nonneg_int, default=None,
                    help="trials per batch (default: the workload's)")
    args = ap.parse_args(argv)

    started = perf_counter()
    if not (SRC / "beaconveil" / "__init__.py").is_file():
        print(f"error: no beaconveil sources under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    trials = args.trials or wl.batch_trials
    env = environment()

    metrics = {}
    if not args.trace:
        text = wl.text(seed, trials)
        probes = [_run_child([sys.executable, str(BENCH / "setup_probe.py")], text, 60.0)
                  for _ in range(SETUP_REPS + 1)][1:]
        for p in probes:
            if p["problems"] or SRC.resolve() not in Path(p["module"]).resolve().parents:
                print(f"error: set-up probe failed: {p}", file=sys.stderr)
                return 2
        setup = [p["setup_s"] for p in probes]
        print("samples setup_s " + json.dumps(setup))
        for part in ("raw_s", "calibration_s", "import_s", "parse_s", "validate_s"):
            print(f"samples setup.{part} " + json.dumps([p[part] for p in probes]))
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    inner = _run_child(
        [sys.executable, str(BENCH / "measure.py"), "--workload", wl.name,
         "--seed", str(seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--trials", str(trials), "--src", str(SRC)],
        None, RUN_LIMIT_S - (perf_counter() - started))
    env["numpy"] = inner["numpy"]
    print("env " + json.dumps({**env, "workload": wl.name, "seed": seed,
                               "workers": wl.workers,
                               "batch_trials": inner["batch_trials"]}))
    for name, values in inner["samples"].items():
        print(f"samples {name} " + json.dumps(values))
    for problem in inner["problems"]:
        print("problem: " + problem.rstrip(), file=sys.stderr)
    metrics = {**inner["metrics"], **metrics}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    correct = inner["failed"] == 0 and not inner["problems"] and bool(inner["metrics"])
    print(json.dumps({"correct": correct, "attempted": inner["attempted"],
                      "failed": inner["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
