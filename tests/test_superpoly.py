import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from superbc.exactalg import SparsePoly, THETA, UNIQUE, VariableMismatch, solve_exact
from superbc.interpbc import _sp_squared
from superbc.partitions import HookParams, Partition, enumerate_hooks, partitions_of
from superbc.superpoly import (
    ZeroTheta,
    a_variables,
    dominant_terms,
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
from superbc.symmfunc import DegenerateParameter, SymFun, jack_P

from .oracles import phi_product
from .strategies import scalars, sparse_polys

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


def test_phi_theta_is_the_full_product():
    # phi_theta sums integer rows on the dominant vectors and expands their
    # orbits; the oracle multiplies full signed power sums term by term
    thetas = [Fraction(1, 2), Fraction(2), Fraction(-1, 2), Fraction(7, 3), Fraction(-3, 2)]
    desks = [(HP11, 6), (HP21, 5), (HookParams(1, 2), 5), (HookParams(2, 2), 5), (HookParams(3, 3), 4)]
    cases = [(theta, hp, top) for theta in thetas for hp, top in desks]
    cases += [(THETA, hp, 4) for hp in (HP11, HP21, HookParams(2, 2))]
    checked = 0
    for theta, hp, top in cases:
        for lam in enumerate_hooks(hp, top, "upto"):
            try:
                f = jack_P(lam, theta)
            except DegenerateParameter:
                continue
            got, expected = phi_theta(f, hp, theta), phi_product(f, hp, theta)
            assert got.vars == expected.vars and got.terms == expected.terms, (theta, hp, lam)
            assert {e: type(c) for e, c in got.terms.items()} == {e: type(c) for e, c in expected.terms.items()}
            assert got.to_text() == expected.to_text(), (theta, hp, lam)
            checked += 1
    assert checked == 470


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
    # super_jack builds theta = 1 by the branching rule; the oracle is the
    # Jack expansion through full power-sum products, which shares neither
    # the branching rule nor the orbit expansion, on non-hooks (the zero
    # polynomial) as well as hooks
    cases = [((1, 1), 5), ((2, 1), 5), ((1, 2), 5), ((2, 2), 5), ((3, 3), 4)]
    for (p, q), top in cases:
        hp = HookParams(p, q)
        for d in range(top + 1):
            for lam in partitions_of(d):
                expected = phi_product(jack_P(lam, ONE), hp, ONE)
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


def _supertableaux(lam, hp):
    """The fillings of lam by x1 < .. < xp < y1 < .. < yq (rows and columns
    weakly increasing, an x-letter at most once per column, a y-letter at
    most once per row), as dicts from cell to letter 1 .. p + q; enumerated
    cell by cell, without the branching rule."""
    from itertools import product

    cells = list(lam.boxes())
    for letters in product(range(1, hp.p + hp.q + 1), repeat=len(cells)):
        filling = dict(zip(cells, letters))
        ok = True
        for (i, j), k in filling.items():
            right, below = filling.get((i, j + 1)), filling.get((i + 1, j))
            if right is not None and (right < k or (right == k and k > hp.p)):
                ok = False
            if below is not None and (below < k or (below == k and k <= hp.p)):
                ok = False
        if ok:
            yield filling


def _supertableaux_sum(lam, hp, node, power):
    """Sum over the supertableaux of lam of the product of the cell weights
    v_k^power - node(k, c) (x-letters) and node(k, c) - v_k^power
    (y-letters), c the content."""
    names = a_variables(hp)
    total = SparsePoly.zero(names)
    for filling in _supertableaux(lam, hp):
        term = SparsePoly.constant(names, 1)
        for (i, j), k in filling.items():
            weight = SparsePoly.variable(names, names[k - 1]) ** power - node(k, j - i)
            term = term * (weight if k <= hp.p else -weight)
        total = total + term
    return total


def _interpolation_nodes(hp, delta=0):
    """The node of letter k (x-letters 1..p, then y-letters) at content c,
    for h = q - p + 1/2 + delta; delta = 0 gives J_mu's nodes."""

    def node(k, c):
        if k <= hp.p:
            return (2 * (k + c) - 1 - 2 * delta) ** 2
        return (2 * (c - (k - hp.p)) + 2 * hp.p + 1 - 2 * delta) ** 2

    return node


def test_branching_rule_is_the_supertableaux_sum():
    # both term maps are orbit expansions of dominant terms, so the oracle
    # runs at every desk (p, q): up to size 4 while p + q <= 4, and up to
    # size 3 where the fillings by p + q letters are more
    cases = [(hp, 4) for hp in (HP11, HP21, HookParams(1, 2), HookParams(2, 2))]
    cases += [(HookParams(p, q), 3) for p, q in ((3, 1), (1, 3), (3, 2), (2, 3), (3, 3))]
    for hp, max_size in cases:
        for lam in enumerate_hooks(hp, max_size, "upto"):
            assert super_schur(lam, hp) == _supertableaux_sum(lam, hp, lambda k, c: 0, 1), (lam, hp)
            got = SparsePoly(a_variables(hp), factorial_super_schur(lam, hp))
            assert got == _supertableaux_sum(lam, hp, _interpolation_nodes(hp), 2), (lam, hp)


def test_the_dominant_pass_is_the_full_pass_on_dominant_vectors():
    # the restricted theta = 1 pass keeps the coefficient of the full
    # polynomial on every exponent vector that does not increase within the
    # x's and within the y's, and nothing else.  The full polynomial comes
    # from the Jack route, phi_1(P_nu(1)) by full power-sum products:
    # super_schur and phi_theta both expand orbits of dominant terms
    checked = 0
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            hp = HookParams(p, q)
            for nu in enumerate_hooks(hp, 5 if max(p, q) == 3 else 6, "upto"):
                expected = {
                    e: c for e, c in phi_product(jack_P(nu, ONE), hp, ONE).terms.items()
                    if list(e[:p]) == sorted(e[:p], reverse=True) and list(e[p:]) == sorted(e[p:], reverse=True)
                }
                got = dominant_terms(nu, hp)
                assert got == expected and all(type(c) is int for c in got.values()), (nu, hp)
                checked += 1
    assert checked == 205


def test_the_generic_h_family_vanishes_and_normalizes_identically_in_h():
    """J_mu(h) is the supertableaux sum with both node families shifted by
    delta = h - (q - p + 1/2), times (-1/4)^{|mu|}.  At its grid point
    grid_h(lam) = 2 lam_natural + rho(h), with rho(h) = (-2(h + i - 1))_{i<=p},
    (2(h + p - j))_{j<=q}, each cell weight X_k - n^2 = (x_k - n)(x_k + n),
    or n^2 - Y_l = (n - y_l)(n + y_l), has one factor free of delta (x_k - n,
    n + y_l) and one linear in it.  So J_mu(h)(grid_h(lam)) has degree
    <= |mu| in delta, as has C^-(1;-1)[mu] C^+(2h-1;-1)[mu'], and agreeing
    at |mu| + 1 distinct delta proves each identity in h:
    J_mu(h) vanishes at grid_h(lam) for every hook lam not containing mu up
    to |mu| + 2, and takes that product at grid_h(mu).  Integer delta keep
    the arithmetic in integers; at delta = 0, the paper's h, the grid is
    grid_point's and the values are factorial_super_schur's."""
    from math import prod

    from superbc.interpbc import c_factor, grid_point
    from superbc.partitions import lambda_natural

    checked = 0
    for hp in (HP11, HP21, HookParams(1, 2), HookParams(2, 2)):
        p, q = hp.p, hp.q
        for mu in enumerate_hooks(hp, 4, "upto"):
            tableaux = [tuple((k, j - i) for (i, j), k in t.items()) for t in _supertableaux(mu, hp)]
            weights_used = {kc for t in tableaux for kc in t}
            lams = [lam for lam in enumerate_hooks(hp, mu.size + 2, "upto") if lam == mu or not lam.contains(mu)]
            closed_form = SparsePoly(a_variables(hp), factorial_super_schur(mu, hp))
            for delta in range(mu.size + 1):
                node = _interpolation_nodes(hp, delta)
                two_h = 2 * delta + 2 * (q - p) + 1
                for lam in lams:
                    nat = lambda_natural(lam, p, q)
                    point = [2 * nat[i] - two_h - 2 * i for i in range(p)]
                    point += [2 * nat[p + j] + two_h + 2 * (p - j - 1) for j in range(q)]
                    weight = {
                        (k, c): point[k - 1] ** 2 - node(k, c) if k <= p else node(k, c) - point[k - 1] ** 2
                        for k, c in weights_used
                    }
                    value = sum(prod(weight[kc] for kc in t) for t in tableaux)
                    if lam == mu:
                        target = c_factor(mu, 1, -1, "minus") * c_factor(mu.transpose(), two_h - 1, -1, "plus")
                        assert value == (-4) ** mu.size * target, (hp, mu, delta)
                    else:
                        assert value == 0, (hp, mu, lam, delta)
                    if delta == 0:
                        assert tuple(point) == grid_point(lam, hp).coords, (hp, lam)
                        assert value == closed_form.evaluate(tuple(point)), (hp, mu, lam)
                    checked += 1
    assert checked > 1000, checked


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


# -- term-map kernels against the substitution route -------------------------

NINE = [HookParams(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]


def _res_map_by_substitution(f, hp):
    """Reference: the halving substitution as a polynomial composition."""
    target = a_variables(hp)
    half = Fraction(1, 2)
    assignment = {}
    for i in range(1, hp.p + 1):
        xi = SparsePoly.variable(target, f"x{i}")
        assignment[f"x+{i}"] = xi * half
        assignment[f"x-{i}"] = xi * (-half)
    for j in range(1, hp.q + 1):
        yj = SparsePoly.variable(target, f"y{j}")
        assignment[f"y+{j}"] = yj * half
        assignment[f"y-{j}"] = yj * (-half)
    return f.substitute(assignment)


@st.composite
def _doubled_polys(draw):
    hp = draw(st.sampled_from(NINE))
    f = draw(sparse_polys(variables=h_variables(hp), max_exp=3, max_terms=8, coeffs=scalars))
    return hp, f


@given(_doubled_polys())
def test_res_map_is_the_halving_substitution(case):
    hp, f = case
    assert res_map(f, hp) == _res_map_by_substitution(f, hp)


def test_res_map_of_doubled_power_sums_is_the_halving_substitution():
    for hp in NINE:
        for r in range(1, 7):
            f = power_sum_doubled(r, hp)
            assert res_map(f, hp) == _res_map_by_substitution(f, hp), (hp, r)


def _symmetric_by_rebuilding(f, hp):
    def swapped(i):
        return SparsePoly(f.vars, {e[:i] + (e[i + 1], e[i]) + e[i + 2 :]: c for e, c in f.terms.items()})

    return all(swapped(i) == f for i in range(hp.p + hp.q - 1) if i != hp.p - 1)


def _sign_invariant_by_rebuilding(f):
    def flip(v):
        return SparsePoly(f.vars, {e: (-c if e[v] % 2 else c) for e, c in f.terms.items()})

    return all(flip(v) == f for v in range(len(f.vars)))


def _t_independent_by_substitution(f, hp, y_sign):
    target = ("t",) + f.vars[1 : hp.p] + f.vars[hp.p + 1 :]
    t_poly = SparsePoly.variable(target, "t")
    g = f.substitute({f.vars[0]: t_poly, f.vars[hp.p]: t_poly * y_sign})
    ti = g.vars.index("t")
    return all(e[ti] == 0 for e in g.terms)


def _criteria_by_rebuilding(f, hp):
    """Reference (symmetric, sign-invariant, t-independent for y1 = -t,
    t-independent for y1 = +t), each by rebuilding or substituting."""
    return (
        _symmetric_by_rebuilding(f, hp),
        _sign_invariant_by_rebuilding(f),
        _t_independent_by_substitution(f, hp, -1),
        _t_independent_by_substitution(f, hp, 1),
    )


def _assert_predicates_agree(f, hp):
    from superbc.superpoly import _separately_symmetric, _sign_invariant, _t_independent

    sym, sign, t_signed, t_plain = want = _criteria_by_rebuilding(f, hp)
    got = (_separately_symmetric(f, hp), _sign_invariant(f), _t_independent(f, hp, -1), _t_independent(f, hp, 1))
    assert got == want, (hp, f)
    assert is_supersymmetric(f, hp, "signed") == (sym and t_signed)
    assert is_supersymmetric(f, hp, "plain") == (sym and t_plain)
    assert is_even_supersymmetric(f, hp) == (sym and sign and t_signed)
    return want


def _random_poly(rng, hp, max_exp, terms):
    n = hp.p + hp.q
    return SparsePoly(a_variables(hp), {
        tuple(rng.randint(0, max_exp) for _ in range(n)): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(terms)
    })


def _symmetrized(f, hp):
    """Sum of f over the permutations of each family separately."""
    from itertools import permutations

    out = SparsePoly.zero(f.vars)
    for xs in permutations(range(hp.p)):
        for ys in permutations(range(hp.p, hp.p + hp.q)):
            perm = xs + ys
            out = out + SparsePoly(f.vars, {tuple(e[k] for k in perm): c for e, c in f.terms.items()})
    return out


def test_supersymmetry_predicates_agree_with_the_rebuilding_route():
    rng = random.Random(0x5E)
    seen = set()
    for hp in [HP11, HP21, HookParams(1, 2), HookParams(2, 2), HookParams(3, 2)]:
        for _ in range(12):
            noise = _random_poly(rng, hp, 3, 3)
            # products of even and odd power sums: supersymmetric for both
            # signs of the substitution only when the power is even
            ps = SparsePoly.constant(a_variables(hp), 1)
            for _ in range(rng.randint(1, 2)):
                ps = ps * power_sum(rng.randint(1, 3), hp)
            candidates = [
                noise,
                _symmetrized(noise, hp),
                ps,
                ps + noise,
                squared_substitution(ps, hp),
                squared_substitution(_symmetrized(noise, hp), hp),
                ps * THETA,
            ]
            for f in candidates:
                seen.add(_assert_predicates_agree(f, hp))
        for nu in enumerate_hooks(hp, 3, "upto"):
            seen.add(_assert_predicates_agree(_sp_squared(nu, hp), hp))
            seen.add(_assert_predicates_agree(super_jack(nu, hp, ONE), hp))
    # both outcomes of every criterion occurred
    assert all({True, False} <= {want[k] for want in seen} for k in range(4))


def test_crafted_polynomials_fail_exactly_one_criterion():
    for hp in [HP11, HP21, HookParams(3, 2)]:
        variables = a_variables(hp)
        n = len(variables)

        def monomial(k, e):
            return SparsePoly.variable(variables, variables[k]) ** e

        squares = [monomial(k, 2) for k in range(n)]
        crafted = {
            # t-independent, even, but not symmetric in the x's
            0: monomial(hp.p - 1, 2) if hp.p > 1 else None,
            # supersymmetric, but every term has an odd exponent
            1: power_sum(1, hp),
            # symmetric and even, but x1^2 + y1^2 becomes 2 t^2
            2: sum(squares[1:], squares[0]),
        }
        for failing, f in crafted.items():
            if f is None:
                continue  # one-variable families are always symmetric
            sym, sign, t_signed, _ = _assert_predicates_agree(f, hp)
            assert [sym, sign, t_signed].count(False) == 1 and not (sym, sign, t_signed)[failing], (hp, f)
            assert not is_even_supersymmetric(f, hp)
