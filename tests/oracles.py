"""Test-only oracles that share no code path with the constructions they
check."""

from superbc.exactalg import SparsePoly, as_scalar
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
