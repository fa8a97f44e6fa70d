import random
from fractions import Fraction

import pytest

from superbc.exactalg import SparsePoly, THETA, UNIQUE, VariableMismatch, solve_exact
from superbc.interpbc import _sp_squared
from superbc.partitions import HookParams, Partition, enumerate_hooks, partitions_of
from superbc.superpoly import (
    ZeroTheta,
    a_variables,
    factorial_super_schur,
    h_variables,
    is_even_supersymmetric,
    is_supersymmetric,
    phi_theta,
    power_sum,
    power_sum_doubled,
    res_map,
    squared_substitution,
    super_jack,
    super_schur,
)
from superbc.symmfunc import SymFun, jack_P

P = Partition.of
ONE = Fraction(1)
HP11 = HookParams(1, 1)
HP21 = HookParams(2, 1)


def test_variable_lists():
    assert a_variables(HP21) == ("x1", "x2", "y1")
    assert h_variables(HP11) == ("x+1", "x-1", "y+1", "y-1")


def test_phi_theta_examples():
    img = phi_theta(SymFun.p(P(1)), HP11, THETA)
    assert img == SparsePoly(("x1", "y1"), {(1, 0): 1, (0, 1): -1 / THETA})

    img2 = phi_theta(SymFun.p(P(2)), HP11, ONE)
    assert img2 == SparsePoly(("x1", "y1"), {(2, 0): 1, (0, 2): -1})

    img11 = phi_theta(SymFun.p(P(1, 1)), HP11, ONE)
    assert img11 == SparsePoly(("x1", "y1"), {(2, 0): 1, (1, 1): -2, (0, 2): 1})

    with pytest.raises(ZeroTheta):
        phi_theta(SymFun.p(P(1)), HP11, 0)


def test_super_jack_examples():
    sp1 = super_jack(P(1), HP21, THETA)
    assert sp1 == SparsePoly(("x1", "x2", "y1"), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1 / THETA})

    sp11 = super_jack(P(1, 1), HP11, ONE)
    assert sp11 == SparsePoly(("x1", "y1"), {(0, 2): 1, (1, 1): -1})

    assert super_jack(P(2, 2), HP11, ONE).is_zero()


def test_super_jack_homogeneous():
    for lam in [P(2), P(2, 1), P(3, 1)]:
        sp = super_jack(lam, HP21, ONE)
        assert not sp.is_zero()
        assert sp.homogeneous_part(lam.size) == sp


def test_squared_substitution_examples():
    f = SparsePoly(("x1", "y1"), {(1, 0): 1, (0, 1): -1})
    assert squared_substitution(f, HP11) == SparsePoly(("x1", "y1"), {(2, 0): 1, (0, 2): -1})
    c = SparsePoly.constant(("x1", "y1"), Fraction(5, 2))
    assert squared_substitution(c, HP11) == c
    sp11 = super_jack(P(1, 1), HP11, ONE)
    assert squared_substitution(sp11, HP11) == SparsePoly(("x1", "y1"), {(0, 4): 1, (2, 2): -1})


def test_is_supersymmetric_examples():
    for r in (1, 2, 3, 4):
        assert is_supersymmetric(power_sum(r, HP21), HP21, "signed")
    assert is_supersymmetric(
        SparsePoly(("x1", "y1"), {(2, 0): 1, (0, 2): -1}), HP11, "plain"
    )
    assert not is_supersymmetric(SparsePoly(("x1", "y1"), {(2, 0): 1}), HP11, "plain")
    assert not is_supersymmetric(SparsePoly(("x1", "y1"), {(2, 0): 1}), HP11, "signed")
    with pytest.raises(VariableMismatch):
        is_supersymmetric(SparsePoly(("x1",), {(1,): 1}), HP11)
    # invariant under the 3-cycle of x1, x2, x3 but under no transposition
    cyclic = SparsePoly(a_variables(HookParams(3, 1)), {(2, 1, 0, 0): 1, (0, 2, 1, 0): 1, (1, 0, 2, 0): 1})
    assert not is_supersymmetric(cyclic, HookParams(3, 1), "signed")
    for r in (1, 2, 3, 4):
        assert is_supersymmetric(power_sum(r, HookParams(3, 2)), HookParams(3, 2), "signed")


def test_asymmetric_poly_rejected():
    f = SparsePoly(("x1", "x2", "y1"), {(2, 0, 0): 1, (0, 1, 0): 1})
    assert not is_supersymmetric(f, HP21, "signed")


def test_is_even_supersymmetric_examples():
    assert is_even_supersymmetric(SparsePoly(("x1", "y1"), {(2, 0): 1, (0, 2): -1}), HP11)
    assert not is_even_supersymmetric(SparsePoly(("x1", "y1"), {(2, 2): 1}), HP11)
    for r in (1, 2, 3):
        f = power_sum(2 * r, HP21)
        assert is_even_supersymmetric(f, HP21)
        # odd power sums change sign, so they are not even
        assert not is_even_supersymmetric(power_sum(2 * r - 1, HP21), HP21)


def test_super_jack_plain_supersymmetry():
    for (p, q) in [(1, 1), (2, 1), (1, 2)]:
        hp = HookParams(p, q)
        for d in range(5):
            for lam in partitions_of(d):
                if lam.is_hook(hp):
                    assert is_supersymmetric(super_jack(lam, hp, ONE), hp, "plain")


def test_hook_vanishing_small():
    hp = HP11
    for d in range(5):
        for lam in partitions_of(d):
            assert super_jack(lam, hp, ONE).is_zero() == (not lam.is_hook(hp))


def _skew_schur(outer: Partition, inner: Partition, n: int) -> dict:
    """Exponent vectors (length n) of the semistandard fillings of
    outer/inner with entries 1..n, with multiplicity."""
    cells = [(i, j) for i in range(1, outer.length + 1)
             for j in range(inner.part(i) + 1, outer.part(i) + 1)]
    out: dict = {}

    def fill(k: int, tableau: dict) -> None:
        if k == len(cells):
            e = [0] * n
            for v in tableau.values():
                e[v - 1] += 1
            out[tuple(e)] = out.get(tuple(e), 0) + 1
            return
        i, j = cells[k]
        low = max(tableau.get((i, j - 1), 1), tableau.get((i - 1, j), 0) + 1)
        for v in range(low, n + 1):
            tableau[(i, j)] = v
            fill(k + 1, tableau)
        tableau.pop((i, j), None)

    fill(0, {})
    return out


def _hook_schur(lam: Partition, hp: HookParams) -> SparsePoly:
    """Sum over mu <= lam with len(mu) <= p of
    s_mu(x) (-1)^{|lam| - |mu|} s_{lam'/mu'}(y), by tableau enumeration."""
    terms: dict = {}
    for d in range(lam.size + 1):
        for mu in partitions_of(d):
            if mu.length > hp.p or not lam.contains(mu):
                continue
            sign = (-1) ** (lam.size - d)
            ys = _skew_schur(lam.transpose(), mu.transpose(), hp.q)
            for ex, cx in _skew_schur(mu, Partition(), hp.p).items():
                for ey, cy in ys.items():
                    terms[ex + ey] = terms.get(ex + ey, 0) + sign * cx * cy
    return SparsePoly(a_variables(hp), terms)


def test_super_jack_at_one_is_the_hook_schur_polynomial():
    # independent of the Jack code: at theta = 1 the super Jack polynomial is
    # the (sign-twisted) hook Schur polynomial of Berele and Regev
    cases = [((1, 1), 5), ((2, 1), 5), ((1, 2), 5), ((2, 2), 5), ((3, 3), 4)]
    for (p, q), top in cases:
        hp = HookParams(p, q)
        for d in range(top + 1):
            for lam in partitions_of(d):
                expected = _hook_schur(lam, hp)
                assert expected.is_zero() == (not lam.is_hook(hp))
                assert super_jack(lam, hp, ONE) == expected, (lam, hp)


def test_super_jack_at_one_matches_the_jack_route():
    # super_jack builds theta = 1 by the branching rule; every other theta
    # still goes through the Jack expansion and phi_theta, which stays the
    # oracle here, on non-hooks (the zero polynomial) as well as hooks
    cases = [((1, 1), 5), ((2, 1), 5), ((1, 2), 5), ((2, 2), 5), ((3, 3), 4)]
    for (p, q), top in cases:
        hp = HookParams(p, q)
        for d in range(top + 1):
            for lam in partitions_of(d):
                expected = phi_theta(jack_P(lam, ONE), hp, ONE)
                got = super_jack(lam, hp, ONE)
                assert got == expected and got.vars == expected.vars, (lam, hp)
                assert all(type(c) is Fraction for c in got.terms.values()), (lam, hp)


def test_super_schur_at_a_point_is_the_polynomial_there():
    rng = random.Random(11)
    for hp in (HP11, HP21, HookParams(2, 2), HookParams(3, 3)):
        for lam in enumerate_hooks(hp, 4, "upto"):
            poly = super_schur(lam, hp)
            for _ in range(3):
                point = tuple(rng.randint(-5, 5) for _ in range(hp.p + hp.q))
                assert super_schur(lam, hp, point) == poly.evaluate(point), (lam, hp, point)


def _supertableaux_sum(lam, hp, node, power):
    """Sum over the fillings of lam by x1 < .. < xp < y1 < .. < yq (rows and
    columns weakly increasing, an x-letter at most once per column, a
    y-letter at most once per row) of the product of the cell weights
    v_k^power - node(k, c) (x-letters) and node(k, c) - v_k^power
    (y-letters), c the content; enumerated cell by cell, without the
    branching rule."""
    from itertools import product

    names = a_variables(hp)
    cells = list(lam.boxes())
    total = SparsePoly.zero(names)
    for letters in product(range(1, hp.p + hp.q + 1), repeat=len(cells)):
        filling = dict(zip(cells, letters))
        ok = True
        for (i, j), k in filling.items():
            right, below = filling.get((i, j + 1)), filling.get((i + 1, j))
            if right is not None and (right < k or (right == k and k > hp.p)):
                ok = False
            if below is not None and (below < k or (below == k and k <= hp.p)):
                ok = False
        if not ok:
            continue
        term = SparsePoly.constant(names, 1)
        for (i, j), k in filling.items():
            weight = SparsePoly.variable(names, names[k - 1]) ** power - node(k, j - i)
            term = term * (weight if k <= hp.p else -weight)
        total = total + term
    return total


def test_branching_rule_is_the_supertableaux_sum():
    def interpolation(hp):
        def node(k, c):
            return (2 * (k + c) - 1) ** 2 if k <= hp.p else (2 * (c - (k - hp.p)) + 2 * hp.p + 1) ** 2

        return node

    for hp in (HP11, HP21, HookParams(1, 2), HookParams(2, 2)):
        for lam in enumerate_hooks(hp, 4, "upto"):
            assert super_schur(lam, hp) == _supertableaux_sum(lam, hp, lambda k, c: 0, 1), (lam, hp)
            got = SparsePoly(a_variables(hp), factorial_super_schur(lam, hp))
            assert got == _supertableaux_sum(lam, hp, interpolation(hp), 2), (lam, hp)


def test_squared_substitution_is_the_validated_doubling():
    hp = HookParams(3, 3)
    for nu in enumerate_hooks(hp, 4, "upto"):
        f = super_jack(nu, hp, ONE)
        got = squared_substitution(f, hp)
        expected = SparsePoly(f.vars, {tuple(2 * e for e in exps): c for exps, c in f.terms.items()})
        assert got == expected and got.vars == expected.vars, nu
        assert all(type(c) is Fraction and c for c in got.terms.values()), nu


def lambda0_basis(hp, d):
    """Pairs (nu, SP_nu(x^2, y^2; 1)) for the hook partitions nu of size <= d."""
    return [(nu, _sp_squared(nu, hp)) for nu in enumerate_hooks(hp, d, "upto")]


def test_lambda0_basis_examples():
    assert lambda0_basis(HP11, 0) == [(Partition(), SparsePoly.constant(("x1", "y1"), 1))]
    basis = lambda0_basis(HP11, 1)
    assert basis[0] == (Partition(), SparsePoly.constant(("x1", "y1"), 1))
    assert basis[1] == (P(1), SparsePoly(("x1", "y1"), {(2, 0): 1, (0, 2): -1}))
    basis21 = lambda0_basis(HP21, 1)
    assert basis21[1] == (
        P(1),
        SparsePoly(("x1", "x2", "y1"), {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1}),
    )


def test_lambda0_basis_linear_independence():
    hp = HookParams(2, 2)
    basis = lambda0_basis(hp, 3)
    monomials = sorted({e for _, poly in basis for e in poly.terms})
    matrix = [[poly.terms.get(e, Fraction(0)) for _, poly in basis] for e in monomials]
    out = solve_exact(matrix, [Fraction(0)] * len(monomials), ncols=len(basis))
    assert out.tag == UNIQUE and all(c == 0 for c in out.solution)


def test_res_map_examples():
    assert res_map(power_sum_doubled(2, HP11), HP11) == SparsePoly(
        ("x1", "y1"), {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)}
    )
    assert res_map(power_sum_doubled(3, HP11), HP11).is_zero()
    c = SparsePoly.constant(h_variables(HP11), Fraction(7))
    assert res_map(c, HP11) == SparsePoly.constant(("x1", "y1"), Fraction(7))


def test_res_map_generator_images():
    for hp in (HP11, HP21, HookParams(2, 2)):
        for r in range(1, 7):
            image = res_map(power_sum_doubled(r, hp), hp)
            if r % 2:
                assert image.is_zero()
            else:
                assert image == power_sum(r, hp) * Fraction(1, 2 ** (r - 1))


def test_res_map_even_supersymmetric_products():
    hp = HP11
    # products of doubled power sums up to degree 6 restrict into the even ring
    for parts in [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 3), (4, 2)]:
        f = SparsePoly.constant(h_variables(hp), 1)
        for r in parts:
            f = f * power_sum_doubled(r, hp)
        if f.degree <= 6:
            assert is_even_supersymmetric(res_map(f, hp), hp)


def test_res_eval_desk_check():
    # f = p_2 on the doubled (1,1) variables, point a=1, b=2: both sides -6
    f = power_sum_doubled(2, HP11)
    a, b = Fraction(1), Fraction(2)
    lhs = f.evaluate((a, -a, b, -b))
    rhs = res_map(f, HP11).evaluate((2 * a, 2 * b))
    assert lhs == rhs == -6


def test_res_eval_random_points():
    rng = random.Random(990)
    for (p, q) in [(1, 1), (2, 1), (2, 2)]:
        hp = HookParams(p, q)
        for r in (2, 4, 6):
            f = power_sum_doubled(r, hp)
            g = res_map(f, hp)
            for _ in range(20):
                a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(p)]
                b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(q)]
                point = tuple(a) + tuple(-v for v in a) + tuple(b) + tuple(-v for v in b)
                assert f.evaluate(point) == g.evaluate(tuple(2 * v for v in a + b))
