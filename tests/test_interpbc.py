import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from superbc.exactalg import SparsePoly, THETA
from superbc.partitions import HookParams, Partition, enumerate_hooks, partitions_of, sort_key
from superbc.interpbc import (
    DegenerateNormalization,
    GridPoint,
    VerifySpec,
    c_factor,
    constants_ledger,
    d_mu,
    derive_k,
    diagonal_values,
    expansion_identity,
    grid_point,
    interpolation_J,
    k_mu,
    normalization_target,
    paper_or_top,
    shimura_image,
    verify_properties,
    weyl_vectors,
)
from superbc.partitions import NotAHook
from superbc.superpoly import is_even_supersymmetric

P = Partition.of
PAIRS = [HookParams(1, 1), HookParams(2, 1), HookParams(1, 2), HookParams(2, 2)]


# -- constants ----------------------------------------------------------------


def test_c_factor_examples():
    assert c_factor(Partition(), 5, THETA, "plus") == 1
    assert c_factor(Partition(), 5, THETA, "minus") == 1
    assert c_factor(P(2, 1), 1, -1, "minus") == 3
    assert c_factor(P(1), 0, -1, "plus") == 0
    with pytest.raises(ValueError):
        c_factor(P(1), 0, -1, "pm")


def test_c_minus_is_hook_product_at_specialization():
    # C^-(1;-1) multiplies (arm + leg + 1) over the boxes
    def hooks(lam):
        lamt = lam.transpose()
        out = 1
        for i, j in lam.boxes():
            out *= lam.part(i) - j + lamt.part(j) - i + 1
        return out

    for d in range(6):
        for lam in partitions_of(d):
            assert c_factor(lam, 1, -1, "minus") == hooks(lam)


def test_d_mu_examples():
    assert d_mu(Partition(), THETA) == 1
    assert d_mu(P(1), THETA) == THETA
    for d in range(6):
        for mu in partitions_of(d):
            assert d_mu(mu, Fraction(-1)) == Fraction(-1) ** mu.size


def test_d_mu_pole():
    # C^-(-k; k) = (1 - k)(-k) for mu = (2), so k = 1 is a pole
    with pytest.raises(ZeroDivisionError):
        d_mu(P(2), Fraction(1))


def test_k_mu_examples():
    assert k_mu(Partition()) == 1
    assert k_mu(P(1)) == -1
    assert k_mu(P(2, 1)) == -3


# -- grid ----------------------------------------------------------------------


def test_weyl_vector_examples():
    rho, _ = weyl_vectors(HookParams(1, 1))
    assert rho.coords == (-1, 1)
    rho, _ = weyl_vectors(HookParams(2, 1))
    assert rho.coords == (1, -1, 1)
    rho, _ = weyl_vectors(HookParams(2, 2))
    assert rho.coords == (-1, -3, 3, 1)


def test_rho_restriction():
    for p in range(1, 4):
        for q in range(1, 4):
            rho, rho_h = weyl_vectors(HookParams(p, q))
            assert rho_h.restrict().coords == rho.coords


def test_grid_point_examples():
    hp = HookParams(1, 1)
    assert grid_point(Partition(), hp).coords == (-1, 1)
    assert grid_point(P(1), hp).coords == (1, 1)
    assert grid_point(P(1, 1), hp).coords == (1, 3)
    with pytest.raises(NotAHook):
        grid_point(P(2, 2), hp)


def test_grid_point_arity_validation():
    with pytest.raises(ValueError, match=re.escape("expected 2 coordinates, got 3")):
        GridPoint(HookParams(1, 1), "a", (1, 2, 3))
    with pytest.raises(ValueError, match=re.escape("unknown space 'c'")):
        GridPoint(HookParams(1, 1), "c", (1, 2))


def test_grid_point_record_semantics():
    hp = HookParams(1, 1)
    point = GridPoint(hp, "a", (1, 3))
    assert point.coords == (Fraction(1), Fraction(3))
    assert repr(point) == (
        "GridPoint(hp=HookParams(p=1, q=1), space='a', coords=(Fraction(1, 1), Fraction(3, 1)))"
    )
    assert hash(point) == hash((hp, "a", (Fraction(1), Fraction(3))))
    for name in ("coords", "space", "extra"):
        with pytest.raises(AttributeError):
            setattr(point, name, ())
    twins = [copy.deepcopy(point)]
    twins += [pickle.loads(pickle.dumps(point, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(twin == point and type(twin) is GridPoint for twin in twins)


# -- interpolation ---------------------------------------------------------------


def test_interpolation_empty_partition():
    for hp in PAIRS:
        for mode in ("paper", "top"):
            j = interpolation_J(Partition(), hp, mode)
            assert j.poly == SparsePoly.constant(j.poly.vars, 1)
            assert j.normalization_value == 1
            assert j.measured_top_coefficient == 1


def test_interpolation_paper_example_21():
    hp = HookParams(2, 1)
    j = interpolation_J(P(1), hp, "paper")
    expected = SparsePoly(
        ("x1", "x2", "y1"),
        {
            (0, 0, 0): Fraction(1, 4),
            (2, 0, 0): Fraction(-1, 4),
            (0, 2, 0): Fraction(-1, 4),
            (0, 0, 2): Fraction(1, 4),
        },
    )
    assert j.poly == expected
    assert j.normalization_value == -2
    assert j.poly.evaluate(grid_point(P(1), hp).coords) == -2
    assert j.measured_top_coefficient == Fraction(-1, 4)
    assert not j.degenerate_normalization
    assert not j.extended_grid_used


def test_interpolation_degenerate_11():
    hp = HookParams(1, 1)
    with pytest.raises(DegenerateNormalization):
        interpolation_J(P(1), hp, "paper")
    j = interpolation_J(P(1), hp, "top")
    assert j.poly == SparsePoly(("x1", "y1"), {(2, 0): Fraction(-1, 4), (0, 2): Fraction(1, 4)})
    assert j.degenerate_normalization
    assert j.normalization_value == 0


def test_normalization_target_transpose_convention():
    # the C^+ factor rides on the transposed index; first asymmetric case
    hp = HookParams(2, 1)
    assert normalization_target(P(1, 1), hp) == 0
    assert normalization_target(P(2), hp) == 24
    j = interpolation_J(P(2), hp, "paper")
    assert j.normalization_value == 24


def test_extended_grid_used():
    # sizes >= 3 at (2,1) leave the initial window underdetermined
    j = interpolation_J(P(3), HookParams(2, 1), "top")
    assert j.extended_grid_used
    j = interpolation_J(P(1), HookParams(2, 1), "top")
    assert not j.extended_grid_used


def test_one_more_window_step_keeps_the_coefficients():
    from superbc.exactalg import UNIQUE, solve_exact
    from superbc.interpbc import _vanishing_system

    for hp in (HookParams(2, 1), HookParams(2, 2), HookParams(3, 3)):
        for mu in enumerate_hooks(hp, 4, "upto"):
            j = paper_or_top(mu, hp)
            window = 0
            while True:
                unknowns, matrix, rhs = _vanishing_system(mu, hp, window)
                first = solve_exact(matrix, rhs, ncols=len(unknowns))
                if first.tag == UNIQUE:
                    break
                window += 1
            assert j.extended_grid_used == (window > 0)
            assert dict(zip(unknowns, first.solution)).items() <= dict(j.coefficients).items()
            unknowns, matrix, rhs = _vanishing_system(mu, hp, window + 1)
            wider = solve_exact(matrix, rhs, ncols=len(unknowns))
            assert wider.tag == UNIQUE and wider.solution == first.solution, (hp, mu)


def _paper_system(mu, hp, window):
    # Reference system that imposes the normalization instead of checking it:
    # mu's own coefficient is an unknown, and a last row sets the value at
    # grid(mu) to the target in place of a fixed top coefficient.
    from superbc.interpbc import _basis_value

    unknowns = [nu for nu in enumerate_hooks(hp, mu.size, "upto") if nu.size < mu.size]
    unknowns.append(mu)
    matrix = [
        [_basis_value(nu, lam, hp) for nu in unknowns]
        for lam in enumerate_hooks(hp, mu.size + window, "upto")
        if not lam.contains(mu)
    ]
    rhs = [Fraction(0)] * len(matrix)
    matrix.append([_basis_value(nu, mu, hp) for nu in unknowns])
    rhs.append(normalization_target(mu, hp))
    return unknowns, matrix, rhs


def test_imposing_the_normalization_gives_the_same_j():
    from superbc.exactalg import UNIQUE, solve_exact
    from superbc.interpbc import _vanishing_system

    def first_unique(system, mu, hp):
        for window in range(4):
            unknowns, matrix, rhs = system(mu, hp, window)
            outcome = solve_exact(matrix, rhs, ncols=len(unknowns))
            if outcome.tag == UNIQUE:
                return window, dict(zip(unknowns, outcome.solution))
        raise AssertionError(f"no window pins J for mu = {mu}")

    checked = 0
    for hp, max_size in [(hp, 5) for hp in PAIRS] + [(HookParams(3, 3), 4)]:
        for mu in enumerate_hooks(hp, max_size, "upto"):
            if not normalization_target(mu, hp):
                continue
            j = interpolation_J(mu, hp, "paper")
            window, solution = first_unique(_paper_system, mu, hp)
            assert window == first_unique(_vanishing_system, mu, hp)[0], (hp, mu)
            assert j.extended_grid_used == (window > 0)
            expected = {nu: solution.get(nu, Fraction(0)) for nu, _ in j.coefficients}
            assert dict(j.coefficients) == expected, (hp, mu)
            checked += 1
    assert checked == 59


def test_vanishing_with_window():
    for hp in PAIRS[:2]:
        for mu in enumerate_hooks(hp, 3, "upto"):
            j = paper_or_top(mu, hp)
            for lam in enumerate_hooks(hp, mu.size + 2, "upto"):
                if lam.contains(mu):
                    continue
                assert j.poly.evaluate(grid_point(lam, hp).coords) == 0


def test_top_degree_shape():
    for hp in PAIRS:
        for mu in enumerate_hooks(hp, 3, "upto"):
            j = paper_or_top(mu, hp)
            t = j.measured_top_coefficient
            assert t != 0
            from superbc.interpbc import _sp_squared

            assert j.poly.homogeneous_part(2 * mu.size) == _sp_squared(mu, hp) * t
            assert j.poly.degree == 2 * mu.size


def test_mode_coherence():
    for hp in PAIRS:
        for mu in enumerate_hooks(hp, 3, "upto"):
            if normalization_target(mu, hp) == 0:
                continue
            jp = interpolation_J(mu, hp, "paper")
            jt = interpolation_J(mu, hp, "top")
            scale = jp.normalization_value / jt.normalization_value
            assert jt.poly * scale == jp.poly


def test_evaluation_matrix_upper_triangular():
    for hp in PAIRS:
        hooks = enumerate_hooks(hp, 3, "upto")
        assert hooks == sorted(hooks, key=sort_key)
        for i, mu in enumerate(hooks):
            j = paper_or_top(mu, hp)
            for lam in hooks[:i]:
                if not lam.contains(mu):
                    assert j.poly.evaluate(grid_point(lam, hp).coords) == 0


def test_w0_invariance_of_values():
    hp = HookParams(2, 2)
    j = paper_or_top(P(2, 1), hp)
    rng = random.Random(412)
    for _ in range(20):
        xs = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(2)]
        ys = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(2)]
        base = j.poly.evaluate(tuple(xs + ys))
        sx = [xs[1], xs[0]]
        sy = [ys[1], ys[0]]
        signs = [Fraction(rng.choice((-1, 1))) for _ in range(4)]
        flipped = [signs[0] * sx[0], signs[1] * sx[1], signs[2] * sy[0], signs[3] * sy[1]]
        assert j.poly.evaluate(tuple(flipped)) == base


def test_even_supersymmetry_of_j():
    for hp in PAIRS:
        for mu in enumerate_hooks(hp, 3, "upto"):
            assert is_even_supersymmetric(paper_or_top(mu, hp).poly, hp)


def test_diagonal_values_report():
    rows = diagonal_values(HookParams(2, 1), 2)
    by_mu = {str(r.mu): r for r in rows}
    assert by_mu["1,1"].value == 0 and by_mu["1,1"].degenerate
    assert by_mu["2"].value == 24
    assert by_mu["2"].plain_index_product == 0
    for r in rows:
        assert r.value == r.target


# -- shimura image ----------------------------------------------------------------


def test_shimura_image_examples():
    img = shimura_image(Partition(), HookParams(2, 1))
    assert img.poly == SparsePoly.constant(("x1", "x2", "y1"), 1)
    assert img.k_value == 1

    hp = HookParams(2, 1)
    img = shimura_image(P(1), hp)
    assert img.mode == "paper"
    assert img.poly == interpolation_J(P(1), hp, "paper").poly * Fraction(-1)
    # value at the point of mu: k_mu times the normalization target
    got = img.poly.evaluate(grid_point(P(1), hp).coords)
    assert got == k_mu(P(1)) * normalization_target(P(1), hp) == 2


def test_shimura_image_fallback_mode():
    img = shimura_image(P(1), HookParams(1, 1))
    assert img.mode == "top"
    assert img.interpolation.degenerate_normalization


# -- expansion and constants -------------------------------------------------------


def test_expansion_examples():
    rep = expansion_identity(0, HookParams(1, 1))
    assert rep.orientation == "both"
    assert rep.entries[0].coefficient == 1

    rep = expansion_identity(1, HookParams(1, 1))
    assert rep.entries[0].coefficient == 1 and rep.orientation == "both"

    rep = expansion_identity(2, HookParams(1, 1))
    assert [str(en.nu) for en in rep.entries] == ["2", "1,1"]
    assert all(en.coefficient == Fraction(1, 2) for en in rep.entries)
    assert all(en.hook_product == 2 for en in rep.entries)
    assert rep.orientation == "reciprocal"


def test_expansion_reconstructs_lhs():
    from math import factorial

    from superbc.interpbc import _sp_squared
    from superbc.superpoly import power_sum

    for hp in PAIRS:
        for m in range(4):
            rep = expansion_identity(m, hp)
            lhs = power_sum(2, hp) ** m * Fraction(1, factorial(m))
            rhs = SparsePoly.zero(lhs.vars)
            for en in rep.entries:
                rhs = rhs + _sp_squared(en.nu, hp) * en.coefficient
            assert lhs == rhs


def test_derive_k_examples():
    assert derive_k(Partition(), HookParams(1, 1)) == 1
    assert derive_k(P(1), HookParams(2, 1)) == -2
    assert derive_k(P(1), HookParams(1, 2)) == -2


def test_constants_ledger_consistency():
    # The degree-2|mu| part of k~ J_mu is 2^{-|mu|} e_mu SP_mu(x^2, y^2): the
    # ledger's k~ and e_mu must agree with the assembled polynomial J_mu.
    from superbc.interpbc import _sp_squared

    for hp in PAIRS[:2]:
        for row in constants_ledger(hp, 2):
            j = paper_or_top(row.mu, hp).poly
            top = (j * row.k_derived).homogeneous_part(2 * row.mu.size)
            scale = Fraction(1, 2) ** row.mu.size * row.expansion_coefficient
            assert top == _sp_squared(row.mu, hp) * scale


# -- verification suites ------------------------------------------------------------


def test_verify_properties_statuses():
    rep = verify_properties(VerifySpec("vanishing", HookParams(1, 1), 2, 2))
    assert rep.status == "degenerate" and rep.exit_code == 3
    assert all(r.status != "fail" for r in rep.records)

    rep = verify_properties(VerifySpec("normalization", HookParams(2, 1), 1, 2))
    assert rep.status == "pass" and rep.exit_code == 0

    rep = verify_properties(VerifySpec("res-eval", HookParams(1, 2), 2, 2))
    assert rep.status == "pass"

    rep = verify_properties(VerifySpec("expansion", HookParams(2, 2), 3, 2))
    assert rep.status == "pass"
    orientations = {r.mode for r in rep.records if r.mu is None and r.lam is None}
    assert orientations <= {"both", "reciprocal"}


def test_verify_all_deterministic():
    spec = VerifySpec("all", HookParams(1, 1), 2, 2)
    a = verify_properties(spec)
    b = verify_properties(spec)
    assert a.record() == b.record()
    assert a.text_lines() == b.text_lines()


def test_verify_spec_bounds():
    with pytest.raises(ValueError, match=re.escape("bounds exceed desk scale (max_size <= 6, window <= 4)")):
        VerifySpec("vanishing", HookParams(1, 1), 9, 2)
    with pytest.raises(ValueError, match=re.escape("unknown property 'nope'")):
        VerifySpec("nope", HookParams(1, 1), 2, 2)
    with pytest.raises(ValueError, match=re.escape("verification suites are desk scale: p, q <= 3")):
        VerifySpec("vanishing", HookParams(4, 1), 2, 2)
