"""Two-family polynomial realizations: the homomorphism sending power sums to
signed two-family power sums, super Jack polynomials, the branching rule
for their theta = 1 case and for the factorial supersymmetric Schur
functions, (even) supersymmetry predicates, the squared basis, and the
restriction from doubled to single coordinates."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from superbc.exactalg import SparsePoly, VariableMismatch, add_terms, as_scalar
from superbc.partitions import HookParams, Partition, sort_key
from superbc.symmfunc import SymFun, jack_P


class ZeroTheta(ZeroDivisionError):
    """theta = 0 is outside the domain of the substitution homomorphism."""


def a_variables(hp: HookParams) -> tuple:
    """Variable list x1..xp, y1..yq."""
    return tuple(f"x{i}" for i in range(1, hp.p + 1)) + tuple(
        f"y{j}" for j in range(1, hp.q + 1)
    )


def h_variables(hp: HookParams) -> tuple:
    """Variable list x+1..x+p, x-1..x-p, y+1..y+q, y-1..y-q."""
    return (
        tuple(f"x+{i}" for i in range(1, hp.p + 1))
        + tuple(f"x-{i}" for i in range(1, hp.p + 1))
        + tuple(f"y+{j}" for j in range(1, hp.q + 1))
        + tuple(f"y-{j}" for j in range(1, hp.q + 1))
    )


def _signed_power_sum(variables: tuple, n_x: int, r: int, ycoeff) -> SparsePoly:
    """Sum of v^r over the first n_x variables plus ycoeff times the sum of
    v^r over the rest."""
    if r < 1:
        raise ValueError("power sums are indexed by positive integers")
    n = len(variables)
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = r
        terms[tuple(e)] = Fraction(1) if i < n_x else ycoeff
    return SparsePoly(variables, terms)


def power_sum(r: int, hp: HookParams) -> SparsePoly:
    """Signed two-family power sum sum x_i^r - (-1)^r sum y_j^r."""
    return _signed_power_sum(a_variables(hp), hp.p, r, -((-1) ** r))


def power_sum_doubled(r: int, hp: HookParams) -> SparsePoly:
    """The same signed power sum on the doubled list of 2p + 2q variables."""
    return _signed_power_sum(h_variables(hp), 2 * hp.p, r, -((-1) ** r))


@lru_cache(maxsize=None)
def _phi_product(parts: tuple, hp: HookParams, theta) -> SparsePoly:
    if not parts:
        return SparsePoly.constant(a_variables(hp), 1)
    # image of p_r: sum x_i^r - (1/theta) sum y_j^r
    head = _signed_power_sum(a_variables(hp), hp.p, parts[0], as_scalar(-1) / theta)
    return head * _phi_product(parts[1:], hp, theta)


def phi_theta(f: SymFun, hp: HookParams, theta) -> SparsePoly:
    """Algebra homomorphism determined by p_r -> sum x_i^r - (1/theta) sum y_j^r."""
    theta = as_scalar(theta)
    if not theta:
        raise ZeroTheta("theta must be nonzero")
    return SparsePoly.linear_combination(
        a_variables(hp),
        ((_phi_product(lam.parts, hp, theta), c)
         for lam, c in sorted(f.coeffs.items(), key=lambda kv: sort_key(kv[0]))),
    )


# ---------------------------------------------------------------------------
# the branching rule
#
# At theta = 1 the super Jack polynomial is Berele and Regev's hook Schur
# polynomial hs_lam(x; -y): the sum over the fillings of lam by the letters
# x1 < ... < xp < y1 < ... < yq, weakly increasing along rows and down
# columns, with each x-letter at most once per column and each y-letter at
# most once per row, of the product of the cell weights x_k and -y_l.  So
# each x-letter adds a horizontal strip to the cells of the letters before
# it, and each y-letter a vertical strip.
#
# Shifting each weight by a node that depends on the letter and on the
# content c = j - i of its cell (row i, column j, 0-based) gives Molev's
# factorial supersymmetric Schur function.  In X = x^2 and Y = y^2, with
# the cell weights X_k - (2(k + c) - 1)^2 for the x-letters and
# (2(c - l) + 2p + 1)^2 - Y_l for the y-letters (the interpolation nodes),
# it is (-4)^{|lam|} J_lam at k = -1 and h = q - p + 1/2.
#
# Both are separately symmetric in the x's and in the y's (Molev, 1998;
# Macdonald, Schur functions: theme and variations, 1992).  So a polynomial
# pass keeps only the dominant exponent vectors, those that do not increase
# within either family, and the full term map is their orbit expansion:
# each coefficient on every distinct ordering of its vector's x-part and
# of its y-part.  A pass at a point is never restricted.


@lru_cache(maxsize=None)
def _strips(shape: Partition, vertical: bool) -> tuple:
    """Pairs (rho, contents) for every rho inside shape such that shape / rho
    is a horizontal strip, or a vertical strip if `vertical`; contents lists
    the content of each cell of shape / rho."""
    if vertical:
        return tuple(
            (rho.transpose(), tuple(-c for c in contents))
            for rho, contents in _strips(shape.transpose(), False)
        )
    parts = shape.parts
    lows = parts[1:] + (0,)
    return tuple(
        (Partition(rho), tuple(j - i for i, (lo, hi) in enumerate(zip(rho, parts)) for j in range(lo, hi)))
        for rho in product(*(range(lo, hi + 1) for lo, hi in zip(lows, parts)))
    )


@lru_cache(maxsize=None)
def _strip_weight(k: int, contents: tuple, hp: HookParams, interpolation: bool) -> tuple:
    """Pairs (n, a) for the nonzero terms a * v^n of the product of the cell
    weights of a strip of the k-th letter (1-based), a polynomial in that
    letter's variable v: v for an x-letter and -v for a y-letter, or, with
    the interpolation nodes, v^2 - node and node - v^2."""
    sign = 1 if k <= hp.p else -1
    coeffs = [1]  # in u = v, or u = v^2 with the interpolation nodes
    for c in contents:
        if not interpolation:
            node = 0
        elif k <= hp.p:
            node = (2 * (k + c) - 1) ** 2
        else:
            node = (2 * (c - k + hp.p) + 2 * hp.p + 1) ** 2
        coeffs = [sign * (low - node * high) for low, high in zip([0] + coeffs, coeffs + [0])]
    step = 2 if interpolation else 1
    return tuple((step * n, a) for n, a in enumerate(coeffs) if a)


@lru_cache(maxsize=None)
def _branching(k: int, shape: Partition, hp: HookParams, interpolation: bool, point):
    """Sum over the fillings of shape by the first k letters of the product
    of their cell weights: the sum over the rho with shape / rho a strip of
    the k-th letter's kind of _branching(k - 1, rho) times the strip's
    weight.  Given a point (p + q integers), the integer value there;
    otherwise a map from the dominant exponent vectors in the first k
    letters' variables, those that do not increase within the x-letters and
    within the y-letters, to nonzero integers."""
    n_x = min(k, hp.p)
    if shape.part(n_x + 1) > k - n_x:
        # not an (n_x, k - n_x)-hook, so no filling; for k = 0 every
        # nonempty shape
        return {} if point is None else 0
    if not k:
        return {(): 1} if point is None else 1
    # a vector whose prefix increases within a family never stops doing so,
    # so dropping it at each step drops exactly the non-dominant vectors
    # and leaves the others' sums as they are
    capped = point is None and k not in (1, hp.p + 1)
    total = {} if point is None else 0
    for rho, contents in _strips(shape, k > hp.p):
        value = _branching(k - 1, rho, hp, interpolation, point)
        if not value:
            continue
        weight = _strip_weight(k, contents, hp, interpolation)
        if point is None:
            # letter k's exponent is new to every term, so no two products
            # share an exponent vector and only the sum over rho can cancel
            if capped:
                pairs = ((e + (n,), c * a) for e, c in value.items() for n, a in weight if n <= e[-1])
            else:
                pairs = ((e + (n,), c * a) for e, c in value.items() for n, a in weight)
            add_terms(pairs, total)
        else:
            v = point[k - 1]
            total += value * sum(a * v**n for n, a in weight)
    return total


@lru_cache(maxsize=None)
def _orderings(exps: tuple) -> tuple:
    """The distinct orderings of a tuple, each once."""
    if len(exps) < 2:
        return (exps,)
    return tuple(
        (v,) + rest
        for i, v in enumerate(exps)
        if v not in exps[:i]
        for rest in _orderings(exps[:i] + exps[i + 1 :])
    )


def _orbit_expansion(dominant, p: int) -> dict:
    """The full term map of a polynomial separately symmetric in its first
    p variables and in the rest, from its (exponent vector, coefficient)
    pairs on the dominant vectors: each coefficient on every distinct
    ordering of its vector's x-part and of its y-part."""
    full = {}
    for e, c in dominant:
        ys = _orderings(e[p:])
        for x in _orderings(e[:p]):
            for y in ys:
                full[x + y] = c
    return full


def super_schur(lam: Partition, hp: HookParams, point=None):
    """The super Jack polynomial at theta = 1, hs_lam(x; -y), by the
    branching rule: a polynomial in x1..xp, y1..yq, the orbit expansion of
    `dominant_terms`, or, given a point (a tuple of p + q integers), its
    integer value there."""
    if point is not None:
        return _branching(hp.p + hp.q, lam, hp, False, point)
    value = dominant_terms(lam, hp)
    # the coefficients take few distinct values: one Fraction for each
    scalars = {c: Fraction(c) for c in set(value.values())}
    terms = _orbit_expansion(((e, scalars[c]) for e, c in value.items()), hp.p)
    return SparsePoly._raw(a_variables(hp), terms)


def dominant_terms(lam: Partition, hp: HookParams) -> dict:
    """The terms of hs_lam(x; -y), the super Jack polynomial at theta = 1,
    on the exponent vectors that do not increase within x1..xp and within
    y1..yq: one representative of each orbit of the separate symmetry.
    The memo's own map from exponent vectors to nonzero integers, to be
    read and not changed."""
    return _branching(hp.p + hp.q, lam, hp, False, None)


def factorial_super_schur(lam: Partition, hp: HookParams) -> dict:
    """Molev's factorial supersymmetric Schur function in X = x^2, Y = y^2
    with the interpolation nodes, as a new map from exponent vectors in
    x1..xp, y1..yq (all even) to nonzero integers: the orbit expansion of
    its dominant terms, since it is separately symmetric in the X's and in
    the Y's.  Its top degree, 2|lam|, is hs_lam(X; -Y)."""
    return _orbit_expansion(_branching(hp.p + hp.q, lam, hp, True, None).items(), hp.p)


@lru_cache(maxsize=None)
def super_jack(lam: Partition, hp: HookParams, theta) -> SparsePoly:
    """Image of the Jack symmetric function under phi_theta; identically zero
    exactly when lam is not a (p, q)-hook partition.  At theta = 1 it is
    built by the branching rule, without the Jack expansion."""
    theta = as_scalar(theta)
    if isinstance(theta, Fraction) and theta == 1:
        return super_schur(lam, hp)
    return phi_theta(jack_P(lam, theta), hp, theta)


def squared_substitution(f: SparsePoly, hp: HookParams) -> SparsePoly:
    """Substitute x_i -> x_i^2, y_j -> y_j^2 (exponent doubling)."""
    if f.vars != a_variables(hp):
        raise VariableMismatch(f"expected variables {a_variables(hp)!r}")
    # doubling every exponent keeps a canonical term map canonical
    return SparsePoly._raw(f.vars, {tuple(2 * e for e in exps): c for exps, c in f.terms.items()})


def _separately_symmetric(f: SparsePoly, hp: HookParams) -> bool:
    # adjacent transpositions generate the symmetric group of each family;
    # a swap is a bijection on exponent vectors, so f is invariant under it
    # exactly when every term's image is a term with the same coefficient
    terms = f.terms
    get = terms.get
    return all(
        get(e[:i] + (e[i + 1], e[i]) + e[i + 2 :]) == c
        for i in range(hp.p + hp.q - 1)
        if i != hp.p - 1
        for e, c in terms.items()
    )


def _t_independent(f: SparsePoly, hp: HookParams, y_sign: int) -> bool:
    # substitute x1 = t, y1 = y_sign * t: each term goes to t^(a + b) times
    # (y_sign)^b times the rest, for the exponents a of x1 and b of y1.
    # Images with a + b = 0 keep their terms apart from the others, so t
    # disappears exactly when the images with a + b > 0 cancel.
    p = hp.p
    return not add_terms(
        ((e[0] + e[p],) + e[1:p] + e[p + 1 :], -c if y_sign < 0 and e[p] % 2 else c)
        for e, c in f.terms.items()
        if e[0] or e[p]
    )


def _sign_invariant(f: SparsePoly) -> bool:
    # a sign change of v negates the terms odd in v, and canonical
    # coefficients are nonzero, so f is invariant exactly when no term has
    # an odd exponent
    return not any(e % 2 for exps in f.terms for e in exps)


def is_supersymmetric(f: SparsePoly, hp: HookParams, variant: str = "signed") -> bool:
    """Separate symmetry in the two families plus t-independence of the
    cancellation substitution (x1 = t with y1 = -t for "signed", y1 = +t for
    "plain")."""
    if f.vars != a_variables(hp):
        raise VariableMismatch(f"expected variables {a_variables(hp)!r}")
    if variant not in ("signed", "plain"):
        raise ValueError(f"unknown variant {variant!r}")
    if not _separately_symmetric(f, hp):
        return False
    return _t_independent(f, hp, -1 if variant == "signed" else 1)


def is_even_supersymmetric(f: SparsePoly, hp: HookParams) -> bool:
    """Separate symmetry, invariance under every variable sign change, and
    t-independence of the substitution x1 = t, y1 = -t."""
    if f.vars != a_variables(hp):
        raise VariableMismatch(f"expected variables {a_variables(hp)!r}")
    return (
        _separately_symmetric(f, hp)
        and _sign_invariant(f)
        and _t_independent(f, hp, -1)
    )


def res_map(f: SparsePoly, hp: HookParams) -> SparsePoly:
    """Halving substitution x+-i -> +-x_i/2, y+-j -> +-y_j/2 from the doubled
    variable list onto x1..xp, y1..yq.

    Each term goes to one term: the exponents of x+i and x-i add up to that
    of x_i (likewise for y), and the coefficient gains the sign (-1)^(total
    exponent on the minus variables) and the factor 2^-(degree)."""
    if f.vars != h_variables(hp):
        raise VariableMismatch(f"expected variables {h_variables(hp)!r}")
    p, q = hp.p, hp.q

    def image(e: tuple, c) -> tuple:
        xs, ys = e[: 2 * p], e[2 * p :]
        exps = tuple(a + b for a, b in zip(xs[:p], xs[p:])) + tuple(a + b for a, b in zip(ys[:q], ys[q:]))
        return exps, c * Fraction((-1) ** (sum(xs[p:]) + sum(ys[q:])), 2 ** sum(e))

    return SparsePoly._raw(a_variables(hp), add_terms(image(e, c) for e, c in f.terms.items()))
