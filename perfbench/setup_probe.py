"""Set-up probe: do a workload's set-up, print ``ready``, exit.

``run.py`` times this process from launch to the ``ready`` line, which is
printed where the workload process makes its first simulation call.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:4]
    WORKLOADS[name]().prepare(int(seed), Path(workdir))
    print("ready", flush=True)
