"""Fresh-process set-up of one workload, timed by run.py from spawn to "ready".

    python perfbench/setup_probe.py WORKLOAD SEED

In-process workloads import anelor (and with it numpy and scipy); every
workload then builds its seeded inputs up to the first task. `src` must be on
PYTHONPATH.
"""

import os
import sys

from workloads import WORKLOADS, make_inputs


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = WORKLOADS[name](os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if workload.in_process:
        import anelor  # noqa: F401
    stream, _, _ = make_inputs(workload, seed)
    next(stream)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
