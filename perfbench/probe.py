"""Set-up probe: one fresh interpreter imports a workload's entry module and
builds its inputs, then prints the seconds since the parent's start mark.

    python3 perfbench/probe.py WORKLOAD SEED START_MONOTONIC

The mark is ``time.monotonic()`` in the parent, which on Linux reads the
system-wide CLOCK_MONOTONIC, so the figure includes interpreter start-up.
"""

import importlib
import sys
import time

from workloads import WORKLOADS, build, use_checkout_source

if __name__ == "__main__":
    workload, seed, start = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    use_checkout_source()
    importlib.import_module(WORKLOADS[workload].entry)
    build(workload, seed)
    print(repr(time.monotonic() - start))
