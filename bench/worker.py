"""Child process of the benchmark: one fresh interpreter that imports superbc
and runs the items it is given.  Kept tiny because a script is compiled on
every start; the work lives in child.py.  Started by harness.py as

    python3 bench/worker.py cli|lib|stdlib SPEC_JSON
"""

import sys
import time

# The set-up being measured: what a user's process imports before its first
# item, the CLI module for an invocation, the package for a library sweep.
if sys.argv[1] == "cli":
    import superbc.cli  # noqa: F401
elif sys.argv[1] == "lib":
    import superbc  # noqa: F401
else:
    # The host-speed probe for set-up time (see calibrate.py): the standard
    # modules superbc.cli imports, and nothing of superbc.
    import argparse, dataclasses, fractions, functools, itertools, json  # noqa: E401, F401

IMPORTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

if __name__ == "__main__":
    import child

    child.main(IMPORTED_NS, sys.argv[2])
