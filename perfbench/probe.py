"""Set-up probe: one fresh interpreter up to the first simulated event.

``run.py`` launches this script and times it from the launch to the
``ready`` instant it prints (both read ``time.monotonic``, one clock
for every process of the host).  The span covers interpreter start,
importing the simulator, calibration, registry build and
``prepare_run`` — or, for the fleet, building the fleet scenario up to
where ``run_fleet`` would be called.  The probe then exits without
tearing anything down, so exit cost is not charged to set-up.

    python3 perfbench/probe.py <workload> <seed>
"""

import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    started = time.monotonic()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    imported = time.monotonic()
    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    ready = time.monotonic()
    print(json.dumps({
        "ready": ready,
        "import_s": imported - started,
        "prepare_s": ready - imported,
    }), flush=True)
    os._exit(0)
