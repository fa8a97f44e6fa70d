"""Print the measured-constants ledger: expansion coefficients, derived k
values and evaluation-matrix diagonals, and check the identities they obey:
e_nu * H(nu) = 1 for every expansion coefficient, with H the hook product
C^-(1;-1); k~ * k_hook = 2^{|mu|} for every ledger row; and J_mu(grid(mu))
= C^-[mu] C^+[mu'] for every diagonal.  Exits 1 when any of them fails.
"""

import argparse

from superbc.interpbc import constants_ledger, expansion_identity, interpolation_J, normalization_target
from superbc.partitions import HookParams, enumerate_hooks

PAIRS = ((1, 1), (2, 1), (1, 2), (2, 2))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=3)
    args = parser.parse_args()

    ok = True
    for p, q in PAIRS:
        hp = HookParams(p, q)
        print(f"== (p, q) = ({p}, {q}) ==")
        print("-- expansion orientation per degree --")
        for m in range(args.max_size + 1):
            rep = expansion_identity(m, hp)
            ok &= all(en.coefficient * en.hook_product == 1 for en in rep.entries)
            coeffs = " ".join(f"e[{en.nu}]={en.coefficient}" for en in rep.entries)
            print(f"  m={m}: orientation={rep.orientation} {coeffs}")
        print("-- measured constants --")
        print("  mu | mode | e | k~ | k_hook | k~ k_hook = 2^|mu|")
        for row in constants_ledger(hp, args.max_size):
            ok &= row.k_identity
            print(
                f"  ({row.mu}) | {row.mode} | {row.expansion_coefficient} | "
                f"{row.k_derived} | {row.k_hook} | {row.k_identity}"
            )
        print("-- evaluation-matrix diagonal --")
        print("  mu | J(grid(mu)) | C^-[mu] C^+[mu'] | degenerate")
        for mu in enumerate_hooks(hp, args.max_size, "upto"):
            j, target = interpolation_J(mu, hp), normalization_target(mu, hp)
            ok &= j.normalization_value == target
            print(f"  ({mu}) | {j.normalization_value} | {target} | {j.degenerate_normalization}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
