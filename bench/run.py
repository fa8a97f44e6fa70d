"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload interp_sweep --seed 1 --seconds 25 --trace 0

The last line of standard output is the JSON result; see bench/README.md.
"""

import sys

import harness

if __name__ == "__main__":
    sys.exit(harness.main())
