"""Set-up probe: import cavicore, build one workload's inputs, print how long
each step took as one JSON line, and exit.

run.py starts this script several times per run and times each start up to
that line, so `setup_s` includes interpreter start-up as a CLI user pays it.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import cavicore  # noqa: E402,F401

T1 = time.perf_counter()

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
T2 = time.perf_counter()
print(json.dumps({"import_s": T1 - T0, "inputs_s": T2 - T1}), flush=True)
