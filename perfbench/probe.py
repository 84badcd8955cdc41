"""Set-up probe: a fresh interpreter imports the program and warms it up.

    python3 perfbench/probe.py <workload> <module>

Prints ``ready`` and ``time.monotonic()`` once the first job could start;
the runner times the probe from spawn to that reading.
"""

import importlib
import sys
import time


def main() -> int:
    workload, module = sys.argv[1], sys.argv[2]
    importlib.import_module(module)
    if workload != "cli":
        import workloads

        workloads.WORKLOADS[workload].warm_up()
    print("ready", time.monotonic(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
