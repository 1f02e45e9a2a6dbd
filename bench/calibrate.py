"""Fixed calibration kernel: how fast this machine runs this kind of code now.

The CPU speed of a shared machine drifts, and the drift lasts long enough
that medians over one run do not average it out. Every timed batch is
therefore paired with one run of this kernel, and speeds are reported scaled
to the kernel's reference time. The kernel mixes the operations the program
spends its time in: interpreted arithmetic, small frozen-dataclass and dict
churn with a keyed sort, numpy calls on short arrays, and building, hashing
and sorting 10k-entry tables the way the matcher does. It never changes
between commits, and it runs with the garbage collector off, so its time
depends on the machine and not on what the program under test keeps alive.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# About the kernel's median time on the 2-core reference box (Xeon, Python
# 3.11, numpy 2.4). Only ratios to it matter; it must never change.
REFERENCE_S = 0.050


@dataclass(frozen=True)
class _Item:
    key: int
    label: str


def _arithmetic() -> int:
    s = 0
    for i in range(60_000):
        s += (i * i) % 7
    return s


def _objects() -> int:
    items = [(_Item(i, f"n{i}"), {"k": i, "v": (i, i + 1)}) for i in range(6_000)]
    items.sort(key=lambda t: (-t[0].key, t[1]["k"]))
    return len(items)


def _small_arrays() -> float:
    rng = np.random.default_rng([7, 7])
    x = np.arange(16.0)
    xp, fp = [0.0, 8.0, 16.0], [30.0, 5.0, 30.0]
    acc = 0.0
    for _ in range(400):
        d = np.interp(x, xp, fp)
        r = 13.0 - (40.0 + 33.0 * np.log10(d / 0.5)) + rng.normal(0.0, 2.0, size=16)
        acc += float(np.unique(np.concatenate((x, x + 8.0))).sum()) + float(r[0])
    return acc


def _tables() -> int:
    keys = [f"s{i:05d}" for i in range(10_000)]
    index = {k: (k, i) for i, k in enumerate(keys)}
    viable = frozenset((k, 0) for k in keys)
    return len(index) + len(sorted(viable))


def kernel_s() -> float:
    """Wall time of one fixed pass of the kernel, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _arithmetic()
        _objects()
        _small_arrays()
        _tables()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
