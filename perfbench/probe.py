"""Cold-start probe, run in a fresh interpreter by run.py:

    python3 perfbench/probe.py <workload>

Prints one JSON line: the time to import eptkit (`import_s`) and the
time from the start of that import until the workload's lazy set-up is
done (`setup_s`). Set-up is tree_shapes(1..9), plus enumerate_gates(12)
for gates12; the cli workload imports the command-line front end.
"""

import json
import sys
import time

t0 = time.perf_counter()
if sys.argv[1] == "cli":
    import eptkit.cli  # noqa: F401
else:
    import eptkit
t1 = time.perf_counter()
from eptkit.gates import enumerate_gates  # noqa: E402
from eptkit.oracle import tree_shapes  # noqa: E402

for m in range(1, 10):
    tree_shapes(m)
if sys.argv[1] == "gates12":
    enumerate_gates(12)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
