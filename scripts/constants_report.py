"""Print the measured-constants ledger: expansion coefficients, derived k
values, evaluation-matrix diagonals, and how each compares with the
closed-form candidates.  Comparisons are reported, never asserted; the
measured values are the authoritative output.
"""

import argparse

from superbc.interpbc import constants_ledger, diagonal_values, expansion_identity
from superbc.partitions import HookParams

PAIRS = ((1, 1), (2, 1), (1, 2), (2, 2))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=3)
    args = parser.parse_args()

    for p, q in PAIRS:
        hp = HookParams(p, q)
        print(f"== (p, q) = ({p}, {q}) ==")
        print("-- expansion orientation per degree --")
        for m in range(args.max_size + 1):
            rep = expansion_identity(m, hp)
            coeffs = " ".join(f"e[{en.nu}]={en.coefficient}" for en in rep.entries)
            print(f"  m={m}: orientation={rep.orientation} {coeffs}")
        print("-- measured constants --")
        header = ("mu", "mode", "e", "k~", "k_hook", "k match")
        print("  " + " | ".join(header))
        for row in constants_ledger(hp, args.max_size):
            print(
                f"  ({row.mu}) | {row.mode} | {row.expansion_coefficient} | "
                f"{row.k_derived} | {row.k_hook} | {row.matches_k_hook}"
            )
        print("-- evaluation-matrix diagonal --")
        print("  mu | J(grid(mu)) | C^-[mu] C^+[mu'] | C^-[mu] C^+[mu] | degenerate")
        for row in diagonal_values(hp, args.max_size):
            print(
                f"  ({row.mu}) | {row.value} | {row.target} | "
                f"{row.plain_index_product} | {row.degenerate}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
