"""One cold set-up in a fresh interpreter, for the ``setup_s`` metric.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED LAUNCHED``, where
LAUNCHED is the parent's ``time.monotonic()`` just before it started this
process.  Imports the library, builds the workload's inputs and prints two
numbers: the seconds from LAUNCHED to inputs ready scaled to the reference
host speed sampled meanwhile (``hostclock.py``), then the same seconds
unscaled.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostclock  # noqa: E402

PROBE_INTERVAL_S = 0.005  # set-up takes a few tenths of a second


def main() -> None:
    name, seed, launched = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    with hostclock.HostClock(PROBE_INTERVAL_S) as clock:
        import workloads  # the library and numpy imports are part of set-up

        workloads.WORKLOADS[name].setup(seed)
        ready = time.monotonic()
    adjusted = clock.adjusted(launched, ready, hostclock.edge_samples())
    print(adjusted, ready - launched)


if __name__ == "__main__":
    main()
