"""Run every exact verification suite over the four desk-scale parameter
pairs and print per-record results plus a combined summary.

Exit code: 0 all pass, 1 any failure, 3 degenerate normalizations were
encountered and routed through the top-coefficient fallback.
"""

import argparse
import sys

from superbc.interpbc import VerifyReport, VerifySpec, verify_properties
from superbc.partitions import HookParams

PAIRS = ((1, 1), (2, 1), (1, 2), (2, 2))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=4)
    parser.add_argument("--window", type=int, default=2)
    parser.add_argument("--quiet", action="store_true", help="print summaries only")
    args = parser.parse_args()

    records = []
    for p, q in PAIRS:
        report = verify_properties(VerifySpec("all", HookParams(p, q), args.max_size, args.window))
        print(f"== (p, q) = ({p}, {q}) ==")
        lines = report.text_lines()
        for line in lines if not args.quiet else lines[-1:]:
            print(line)
        records.extend(report.records)
    code = VerifyReport(tuple(records)).exit_code
    print(f"combined exit code: {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
