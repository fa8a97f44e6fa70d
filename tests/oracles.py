"""Test-only oracles that share no code path with the constructions they
check, and the reference vanishing system that the J_mu closed form is
checked against."""

from fractions import Fraction

from superbc.exactalg import SparsePoly, as_scalar
from superbc.interpbc import _unknowns, _vanishing_rows
from superbc.superpoly import a_variables


def phi_product(f, hp, theta):
    """phi_theta(f) from full polynomials: the sum over the terms c p_lam of f
    of c times the product, by `SparsePoly.__mul__`, of the signed power sums
    sum x_i^r - (1/theta) sum y_j^r over the parts r of lam."""
    names, n, t = a_variables(hp), hp.p + hp.q, -1 / as_scalar(theta)
    total = SparsePoly.zero(names)
    for lam, c in f.coeffs.items():
        term = SparsePoly.constant(names, 1)
        for r in lam.parts:
            term = term * SparsePoly(names, {(0,) * i + (r,) + (0,) * (n - i - 1): 1 if i < hp.p else t for i in range(n)})
        total = total + term * c
    return total


def vanishing_system(mu, hp, window):
    """Unknowns, matrix and right-hand side of the system for J_mu: one row
    J(grid(lam)) = 0 for each pair of `_vanishing_rows`, in the squared
    basis below size |mu|, with the column of the fixed top coefficient
    (-1/4)^|mu| moved to the right-hand side."""
    top = Fraction(-1, 4) ** mu.size
    pairs = list(_vanishing_rows(mu, hp, window))
    return _unknowns(hp, mu.size), [list(row) for row, _ in pairs], [-top * value for _, value in pairs]


def _add(out: dict, key, c) -> None:
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _divide(terms: dict, a: int, b: int) -> dict:
    """terms / (v_a - v_b), exactly.  The terms that agree off a and b and
    have e_a + e_b = s are sum c_k v_a^k v_b^(s - k) = (v_a - v_b) sum g_k
    v_a^k v_b^(s - 1 - k), with g_k = -(c_0 + ... + c_k) and c_0 + ... + c_s
    = 0; a nonzero c_0 + ... + c_s is an inexact division."""
    groups: dict = {}
    for e, c in terms.items():
        groups.setdefault(e[:a] + (0,) + e[a + 1:b] + (e[a] + e[b],) + e[b + 1:], {})[e[a]] = c
    out: dict = {}
    for key, cs in groups.items():
        s, acc = key[b], 0
        for k in range(s):
            acc += cs.get(k, 0)
            if acc:
                out[key[:a] + (k,) + key[a + 1:b] + (s - 1 - k,) + key[b + 1:]] = -acc
        if acc + cs.get(s, 0):
            raise ArithmeticError(f"not divisible by {a} - {b}")
    return out


def cms_operator(f: SparsePoly, p: int, theta) -> dict:
    """Sergeev-Veselov's deformed CMS operator L_theta on f(x_1..x_p,
    y_1..y_q), as a term map.  With E_v = v d/dv, L_theta is sum_i E_xi^2 -
    theta sum_j E_yj^2 + theta sum_{i<i'} (x_i + x_i')/(x_i - x_i') (E_xi -
    E_xi') - sum_{j<j'} (y_j + y_j')/(y_j - y_j') (E_yj - E_yj') - sum_{i,j}
    (x_i + y_j)/(x_i - y_j) (E_xi + theta E_yj); each fraction is an exact
    division, which raises ArithmeticError when it is not."""
    n = len(f.vars)
    euler = [{e: c * e[a] for e, c in f.terms.items() if e[a]} for a in range(n)]
    out: dict = {}
    for e, c in f.terms.items():
        _add(out, e, c * (sum(v * v for v in e[:p]) - theta * sum(v * v for v in e[p:])))
    for a in range(n):
        for b in range(a + 1, n):
            # x-x, y-y or x-y pair: its weight and the factor of E_vb
            weight, t = (theta, -1) if b < p else (-1, -1) if a >= p else (-1, theta)
            g = dict(euler[a])
            for e, c in euler[b].items():
                _add(g, e, t * c)
            for e, c in _divide(g, a, b).items():
                for i in (a, b):
                    _add(out, e[:i] + (e[i] + 1,) + e[i + 1:], weight * c)
    return out


def cms_eigenvalue(lam, p: int, q: int, theta):
    """eps_lam = sum over the cells (i, j) of lam, row i and column j from
    0, of 2 (j - theta i), plus |lam| (1 + theta (p - 1) - q)."""
    cells = [(i, j) for i, row in enumerate(lam.parts) for j in range(row)]
    return sum(2 * (j - theta * i) for i, j in cells) + lam.size * (1 + theta * (p - 1) - q)
