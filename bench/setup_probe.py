"""Time one cold set-up: import beaconveil, parse the scenario, validate it.

Reads the scenario text on stdin before the clock starts and prints one JSON
line. run.py starts it in a fresh interpreter with src/ on PYTHONPATH.
"""

import json
import statistics
import sys
from time import perf_counter

text = sys.stdin.read()
t0 = perf_counter()
import beaconveil  # noqa: E402
from beaconveil import scenario, sim  # noqa: E402

t1 = perf_counter()
cfg = scenario.loads_scenario(text)
t2 = perf_counter()
problems = sim.validate_scenario(cfg)
t3 = perf_counter()

# The calibration kernel runs after the clock stops: its numpy import would
# otherwise speed up the import being measured. Its first pass pays for lazy
# numpy set-up and is dropped.
import calibrate  # noqa: E402

cal = statistics.median([calibrate.kernel_s() for _ in range(4)][1:])
print(json.dumps({"setup_s": (t3 - t0) * calibrate.REFERENCE_S / cal,
                  "raw_s": t3 - t0, "calibration_s": cal, "import_s": t1 - t0,
                  "parse_s": t2 - t1, "validate_s": t3 - t2,
                  "problems": problems, "module": beaconveil.__file__}))
