"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is an exact identity (tolerance zero).  Oracles are local to
this module: an independent Jacobi-Trudi determinant for the theta=1 check,
and frozen desk values everywhere the expected number was computed by hand.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from superbc.exactalg import THETA
from superbc.partitions import HookParams, Partition, enumerate_hooks, partitions_of
from superbc.symmfunc import SymFun, basis_convert, jack_P, jack_inner
from superbc.superpoly import (
    is_even_supersymmetric,
    power_sum,
    power_sum_doubled,
    res_map,
    squared_substitution,
    super_jack,
)
from superbc.interpbc import (
    DegenerateNormalization,
    VerifySpec,
    c_factor,
    constants_ledger,
    d_mu,
    diagonal_values,
    expansion_identity,
    grid_point,
    interpolation_J,
    k_mu,
    normalization_target,
    paper_or_top,
    shimura_image,
    verify_properties,
)

P = Partition.of
ONE = Fraction(1)
PAIRS = [HookParams(1, 1), HookParams(2, 1), HookParams(1, 2), HookParams(2, 2)]


def report(n, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {n} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n} ({name}) failed{tail}"


# -- Jacobi-Trudi oracle ------------------------------------------------------


def h_complete(r):
    """Complete homogeneous function: by definition the sum of all m_mu."""
    if r < 0:
        return SymFun.zero()
    if r == 0:
        return SymFun.one()
    return SymFun.from_m({lam: 1 for lam in partitions_of(r)})


def schur_jacobi_trudi(lam):
    """det(h_{lam_i - i + j}) by minor expansion."""
    length = lam.length
    if length == 0:
        return SymFun.one()

    def det(rows, cols):
        if not rows:
            return SymFun.one()
        i = rows[0]
        total = SymFun.zero()
        for idx, j in enumerate(cols):
            entry = h_complete(lam.part(i + 1) - (i + 1) + (j + 1))
            if not entry:
                continue
            minor = det(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = entry * minor
            total = total + (term if idx % 2 == 0 else term * Fraction(-1))
        return total

    return det(list(range(length)), list(range(length)))


def test_criterion_1_jack_schur_agreement():
    start = time.monotonic()
    checked = 0
    ok = True
    # frozen spot value: s_(2,1) = m_(2,1) + 2 m_(1,1,1) (Kostka numbers)
    ok &= basis_convert(schur_jacobi_trudi(P(2, 1)), "m") == {P(2, 1): 1, P(1, 1, 1): 2}
    for d in range(7):
        for lam in partitions_of(d):
            oracle = schur_jacobi_trudi(lam)
            mine = jack_P(lam, ONE)
            if mine != oracle or basis_convert(mine, "m") != basis_convert(oracle, "m"):
                ok = False
            checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 60
    report(1, "jack/schur agreement", ok, f"{checked} partitions in {elapsed:.1f}s")


def test_criterion_2_jack_coefficient_law_and_orthogonality():
    coeffs = basis_convert(jack_P(P(2), THETA), "m")
    ok = coeffs == {P(2): 1, P(1, 1): 2 * THETA / (THETA + 1)}
    pairs = 0
    for d in range(1, 7):
        parts = partitions_of(d)
        jacks = [jack_P(lam, THETA) for lam in parts]
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if jack_inner(jacks[i], jacks[j], THETA) != 0:
                    ok = False
                pairs += 1
    report(2, "jack coefficient law + orthogonality", ok, f"{pairs} pairs")


def test_criterion_3_hook_vanishing():
    ok = True
    checked = 0
    for hp in PAIRS:
        for d in range(7):
            for lam in partitions_of(d):
                if super_jack(lam, hp, ONE).is_zero() != (not lam.is_hook(hp)):
                    ok = False
                checked += 1
    report(3, "hook vanishing of super jack", ok, f"{checked} cases")


def test_criterion_4_even_supersymmetry():
    ok = True
    checked = 0
    for hp in PAIRS:
        for mu in enumerate_hooks(hp, 4, "upto"):
            if not is_even_supersymmetric(paper_or_top(mu, hp).poly, hp):
                ok = False
            sq = squared_substitution(super_jack(mu, hp, ONE), hp)
            if not is_even_supersymmetric(sq, hp):
                ok = False
            checked += 2
    report(4, "even supersymmetry", ok, f"{checked} polynomials")


def test_criterion_5_interpolation_vanishing():
    ok = True
    checked = 0
    for hp in PAIRS:
        for mu in enumerate_hooks(hp, 4, "upto"):
            j = paper_or_top(mu, hp)
            for lam in enumerate_hooks(hp, mu.size + 2, "upto"):
                if lam.contains(mu):
                    continue
                if j.poly.evaluate(grid_point(lam, hp).coords) != 0:
                    ok = False
                checked += 1
    report(5, "interpolation vanishing (window +2)", ok, f"{checked} grid points")


def test_criterion_6_normalization():
    ok = True
    degenerate_seen = 0
    plain_index_mismatches = 0
    for hp in PAIRS:
        for mu in enumerate_hooks(hp, 4, "upto"):
            target = normalization_target(mu, hp)
            if target == 0:
                try:
                    interpolation_J(mu, hp, "paper")
                    ok = False
                except DegenerateNormalization:
                    pass
                if not interpolation_J(mu, hp, "top").degenerate_normalization:
                    ok = False
                degenerate_seen += 1
                continue
            j = interpolation_J(mu, hp, "paper")
            if j.normalization_value != target:
                ok = False
            img = shimura_image(mu, hp)
            expected = (
                Fraction(-1) ** mu.size
                * c_factor(mu, 1, -1, "minus") ** 2
                * c_factor(mu.transpose(), 2 * hp.q - 2 * hp.p, -1, "plus")
            )
            if img.poly.evaluate(grid_point(mu, hp).coords) != expected:
                ok = False
        # degenerate routing carries exit code 3 through the report
        rep = verify_properties(VerifySpec("normalization", hp, 4, 2))
        if any(r.status == "degenerate" for r in rep.records):
            if rep.exit_code != 3:
                ok = False
        elif rep.exit_code != 0:
            ok = False
        for row in diagonal_values(hp, 4):
            if row.value != row.target:
                ok = False
            if row.value != row.plain_index_product:
                plain_index_mismatches += 1
    # the plain-index C^+ product is reported, not asserted; it must differ
    # somewhere (the transposed form is the measured one)
    ok &= degenerate_seen > 0 and plain_index_mismatches > 0
    report(
        6,
        "normalization + corollary value",
        ok,
        f"{degenerate_seen} degenerate cases routed; plain-index C+ differs at "
        f"{plain_index_mismatches} points (transposed form measured)",
    )


def test_criterion_7_expansion_identity():
    ok = True
    findings = []
    for hp in PAIRS:
        for m in range(5):
            rep = expansion_identity(m, hp)
            if rep.orientation == "mixed":
                ok = False
            if not all(isinstance(en.coefficient, Fraction) for en in rep.entries):
                ok = False
            findings.append(f"(p={hp.p},q={hp.q},m={m})={rep.orientation}")
    orientations = {f.split("=")[-1] for f in findings}
    ok &= orientations <= {"both", "reciprocal"}
    report(7, "expansion identity", ok, "orientation reciprocal (e*C=1); " + " ".join(findings[-5:]))


def test_criterion_8_restriction_map():
    ok = True
    import random

    rng = random.Random(20240810)
    points = 0
    for hp in PAIRS:
        for r in range(1, 7):
            image = res_map(power_sum_doubled(r, hp), hp)
            if r % 2:
                ok &= image.is_zero()
            else:
                ok &= image == power_sum(r, hp) * Fraction(1, 2 ** (r - 1))
        for r in (2, 4, 6):
            f = power_sum_doubled(r, hp)
            g = res_map(f, hp)
            for _ in range(20):
                a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(hp.p)]
                b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(hp.q)]
                point = tuple(a) + tuple(-v for v in a) + tuple(b) + tuple(-v for v in b)
                if f.evaluate(point) != g.evaluate(tuple(2 * v for v in a + b)):
                    ok = False
                points += 1
    # desk check: p2 at (1,1), a=1, b=2 gives -6 on both sides
    f = power_sum_doubled(2, HookParams(1, 1))
    ok &= f.evaluate((1, -1, 2, -2)) == -6
    ok &= res_map(f, HookParams(1, 1)).evaluate((2, 4)) == -6
    report(8, "restriction map + evaluation compatibility", ok, f"{points} random points")


def test_criterion_9_d_mu_specialization():
    ok = True
    checked = 0
    for d in range(6):
        for mu in partitions_of(d):
            if d_mu(mu, Fraction(-1)) != Fraction(-1) ** mu.size:
                ok = False
            checked += 1
    report(9, "d_mu specialization at k=-1", ok, f"{checked} partitions")


def test_criterion_10_constants_ledger():
    ok = True
    lines = []
    for hp in PAIRS:
        for row in constants_ledger(hp, 3):
            # the degree-2|mu| part of k~ J_mu is 2^{-|mu|} e_mu SP_mu(x^2, y^2)
            top = (paper_or_top(row.mu, hp).poly * row.k_derived).homogeneous_part(2 * row.mu.size)
            sp = squared_substitution(super_jack(row.mu, hp, ONE), hp)
            if top != sp * (Fraction(1, 2) ** row.mu.size * row.expansion_coefficient):
                ok = False
            lines.append(
                f"(p={hp.p},q={hp.q}) mu=({row.mu}) e={row.expansion_coefficient} "
                f"t={row.top_coefficient} k~={row.k_derived} k_hook={row.k_hook} "
                f"top_claimed={row.top_claimed} matches_k={row.matches_k_hook} "
                f"matches_top={row.matches_top_claimed}"
            )
    print("[acceptance] constants ledger (reported, not asserted):")
    for line in lines:
        print("   ", line)
    report(10, "constants ledger internal consistency", ok, f"{len(lines)} rows emitted")


def test_criterion_11_determinism():
    args = [
        sys.executable, "-m", "superbc",
        "verify", "all", "--p", "1", "--q", "1", "--max-size", "3",
        "--format", "structured",
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    ok = (
        first.returncode == second.returncode
        and first.stdout == second.stdout
        and len(first.stdout) > 0
        and json.loads(first.stdout)["result"]["status"] in ("pass", "degenerate")
    )
    report(11, "byte-identical verify reports", ok, f"{len(first.stdout)} bytes")
