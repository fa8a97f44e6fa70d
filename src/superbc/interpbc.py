"""Weyl-shifted evaluation grid, box-product constants, the interpolation
polynomials J_mu at the specialized parameters k = -1, h = q - p + 1/2, and
the exact verification suites."""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from operator import mul

from superbc.exactalg import SparsePoly, UNIQUE, add_terms, as_rational, as_scalar, solve_exact
from superbc.partitions import (
    HookParams,
    Partition,
    UsageError,
    _ValidatedRecord,
    enumerate_hooks,
    lambda_natural,
)
from superbc.superpoly import (
    _orbit_expansion,
    a_variables,
    dominant_terms,
    factorial_super_schur,
    is_even_supersymmetric,
    power_sum,
    power_sum_doubled,
    res_map,
    squared_substitution,
    super_jack,
    super_schur,
)


class DegenerateNormalization(ArithmeticError):
    """The normalization target C^-(1;-1) C^+(2q-2p;-1) vanishes.  Nothing
    raises it: `interpolation_J` labels such a J "top".  The name stays
    because the benchmark tracer reads it."""


class InconsistentSystem(ArithmeticError):
    """A check on data the program built itself failed: the closed form of
    J is off the squared basis, has the wrong top degree or does not vanish
    on the grid, or the basis is not triangular on its leads.  This signals
    an implementation or convention fault and must never be swallowed."""


_RES_EVAL_SEED = 0x5BC0
_RES_EVAL_POINTS = 20


class GridPoint(_ValidatedRecord, namedtuple("GridPoint", "hp space coords")):
    """Point of the evaluation space: p + q coordinates on the single-family
    space ("a"), or 2p + 2q on the doubled space ("h")."""

    __slots__ = ()

    def __new__(cls, hp: HookParams, space: str, coords: tuple) -> "GridPoint":
        if space not in ("a", "h"):
            raise ValueError(f"unknown space {space!r}")
        want = hp.p + hp.q
        if space == "h":
            want *= 2
        coords = tuple(map(as_rational, coords))
        if len(coords) != want:
            raise ValueError(f"expected {want} coordinates, got {len(coords)}")
        return super().__new__(cls, hp, space, coords)

    def restrict(self) -> "GridPoint":
        """Push a doubled-space point down: paired coordinates (c+, c-)
        restrict to c+ - c-."""
        if self.space != "h":
            raise ValueError("only doubled-space points restrict")
        p, q = self.hp.p, self.hp.q
        xs = [self.coords[i] - self.coords[p + i] for i in range(p)]
        ys = [self.coords[2 * p + j] - self.coords[2 * p + q + j] for j in range(q)]
        return GridPoint(self.hp, "a", tuple(xs + ys))


def c_factor(lam: Partition, x, k, sign: str):
    """Box product over the cells (i, j) of lam: "minus" multiplies
    (lam_i - j - k(lam'_j - i) + x), "plus" uses (lam_i + j + k(lam'_j + i) + x).
    The empty partition gives 1."""
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    x = as_scalar(x)
    k = as_scalar(k)
    lamt = lam.transpose()
    if all(isinstance(v, Fraction) and v.denominator == 1 for v in (x, k)):
        # integer x and k: the product is an integer, formed in ints
        x, k = x.numerator, k.numerator
        total = 1
    else:
        total = as_scalar(1)
    for i, j in lam.boxes():
        if sign == "minus":
            total = total * (lam.part(i) - j - k * (lamt.part(j) - i) + x)
        else:
            total = total * (lam.part(i) + j + k * (lamt.part(j) + i) + x)
    return Fraction(total) if type(total) is int else total


def d_mu(mu: Partition, k):
    """(-1)^{|mu|} k^{2|mu|} C^-(1; k) / C^-(-k; k)."""
    k = as_scalar(k)
    den = c_factor(mu, -k, k, "minus")
    if not den:
        raise ZeroDivisionError(f"C^-(-k; k) vanishes for mu = {mu}")
    num = c_factor(mu, 1, k, "minus")
    return Fraction(-1) ** mu.size * k ** (2 * mu.size) * num / den


def weyl_vectors(hp: HookParams) -> tuple:
    """Restricted Weyl vector rho on the single-family space together with its
    doubled-space counterpart (whose restriction is rho)."""
    p, q = hp.p, hp.q
    rho_a = [Fraction(2 * (p - i) + 1 - 2 * q) for i in range(1, p + 1)]
    rho_a += [Fraction(2 * (q - j) + 1) for j in range(1, q + 1)]
    half_b = [Fraction(2 * (p - i) + 1 - 2 * q, 2) for i in range(1, p + 1)]
    half_f = [Fraction(2 * (q - j) + 1, 2) for j in range(1, q + 1)]
    rho_h = half_b + [-c for c in half_b] + half_f + [-c for c in half_f]
    return GridPoint(hp, "a", tuple(rho_a)), GridPoint(hp, "h", tuple(rho_h))


@lru_cache(maxsize=None)
def grid_point(lam: Partition, hp: HookParams) -> GridPoint:
    """Shifted partition point 2*(lam_1..lam_p, <lam'_j - p>) + rho; a lam
    that is not a (p, q)-hook raises NotAHook from `lambda_natural`."""
    rho, _ = weyl_vectors(hp)
    nat = lambda_natural(lam, hp.p, hp.q)
    return GridPoint(hp, "a", tuple(2 * n + r for n, r in zip(nat, rho.coords)))


class InterpolationResult(namedtuple(
    "InterpolationResult",
    "mu hp poly mode measured_top_coefficient normalization_value"
    " degenerate_normalization extended_grid_used coefficients",
)):
    """J_mu with what its construction reports.  `mode` is "top" exactly
    when `degenerate_normalization` holds.  `measured_top_coefficient`
    holds mu's coefficient in the squared basis, (-1/4)^{|mu|}: the
    construction checks that the closed form's top degree is SP_mu(x^2,
    y^2) and scales it by that value.  The name is kept because it is a
    key of the CLI's structured output."""

    __slots__ = ()


def _sp_squared(nu: Partition, hp: HookParams) -> SparsePoly:
    """SP_nu(x^2, y^2): the theta = 1 super Jack polynomial in the squared
    variables.  `_lead_order` keeps it as an integer term map."""
    return squared_substitution(super_jack(nu, hp, Fraction(1)), hp)


# ---------------------------------------------------------------------------
# grid kernel: the squared basis at the grid points, once per orbit
#
# Every SP_nu(x^2, y^2) is even in each variable, symmetric in the x's and in
# the y's separately, and supersymmetric: where x_i^2 = y_j^2 its value does
# not depend on that common value (verify even-symmetry checks all three).
# So it takes one value on all the points with the same canonical point:
# absolute values sorted within each family, and each pair |x_i| = |y_j|
# replaced by a pair of zeros.  The grid points with one canonical point form
# a grid orbit.


@lru_cache(maxsize=None)
def _grid_orbit(lam: Partition, hp: HookParams) -> tuple:
    """lam's grid orbit as (hp, xs, ys): its canonical point, integer x's
    then y's."""
    coords = grid_point(lam, hp).coords
    assert all(c.denominator == 1 for c in coords), coords
    xs = Counter(abs(c.numerator) for c in coords[: hp.p])
    ys = Counter(abs(c.numerator) for c in coords[hp.p :])
    common = xs & ys
    zeros = [0] * sum(common.values())
    return (
        hp,
        tuple(sorted(zeros + list((xs - common).elements()))),
        tuple(sorted(zeros + list((ys - common).elements()))),
    )


def _basis_values(nus, orbit: tuple) -> list:
    """SP_nu(x^2, y^2) at the orbit's point for each nu in order: the
    super Schur polynomial at the squared coordinates, in integers by the
    memoized branching rule."""
    hp, xs, ys = orbit
    squares = tuple(v * v for v in xs + ys)
    return [super_schur(nu, hp, squares) for nu in nus]


@lru_cache(maxsize=None)
def _unknowns(hp: HookParams, size: int) -> tuple:
    """The hooks below the given size, in enumeration order: the columns of
    the vanishing rows of a J of that size, apart from its own."""
    return tuple(nu for nu in enumerate_hooks(hp, size, "upto") if nu.size < size)


@lru_cache(maxsize=None)
def _orbit_row(orbit: tuple, size: int) -> tuple:
    """`_basis_values` of the hooks below the given size at the orbit,
    shared by every J of that size whose rows include the orbit."""
    return tuple(_basis_values(_unknowns(orbit[0], size), orbit))


def _vanishing_rows(mu: Partition, hp: HookParams, window: int):
    """One pair (row, value) for each grid orbit of the hooks lam of size
    <= |mu| + window that do not contain mu: the integer values there of
    the squared basis below size |mu| (`_unknowns`) and of SP_mu.  A later
    lam in an orbit already seen would repeat an earlier pair exactly, so
    it is skipped."""
    seen = set()
    for lam in enumerate_hooks(hp, mu.size + window, "upto"):
        if lam.contains(mu):
            continue
        orbit = _grid_orbit(lam, hp)
        if orbit in seen:
            continue
        seen.add(orbit)
        yield _orbit_row(orbit, mu.size), _basis_values((mu,), orbit)[0]


def normalization_target(mu: Partition, hp: HookParams) -> Fraction:
    """Value the interpolation polynomial takes at its own grid point:
    C^-(1; -1) on mu times C^+(2q - 2p; -1) on the transpose of mu.

    The C^+ factor carries the transposed index because the polynomial is a
    change of variables of the type BC interpolation polynomial indexed by
    mu'.  C^- is a hook-length product and hence transpose-invariant; C^+ is
    not.  J_mu never imposes this value, so its closed form decides
    empirically: every measured diagonal equals it.
    """
    return c_factor(mu, 1, -1, "minus") * c_factor(
        mu.transpose(), 2 * hp.q - 2 * hp.p, -1, "plus"
    )


@lru_cache(maxsize=None)
def _lead_order(hp: HookParams, size: int) -> tuple:
    """The hooks nu of one size in enumeration order, and their back-
    substitution order: tuples (nu, lead, sign, terms) in descending lead
    order, where lead is the exponent vector x^{2 nu_natural}, sign the
    coefficient +-1 of SP_nu on it (one supertableau has that weight), and
    terms SP_nu(x^2, y^2) as an integer term map.  It holds the full map
    of every hook of the size, so a J_mu reads it only for the sizes below
    |mu|, and an expansion for its own size.

    Back-substitution rests on two facts, checked here: SP_nu is
    homogeneous of degree 2|nu|, so it has no term on the lead of a hook of
    another size, and it has no term on the lead of any hook before it in
    this order.  Together they make the squared basis triangular with unit
    diagonal, hence independent; a basis that breaks them, or has a
    coefficient that is not an integer, is a fault."""
    hooks = tuple(enumerate_hooks(hp, size, "exact"))
    leads = {nu: tuple(2 * n for n in lambda_natural(nu, hp.p, hp.q)) for nu in hooks}
    order = []
    for nu in sorted(hooks, key=leads.get, reverse=True):
        coeffs = super_jack(nu, hp, Fraction(1)).terms
        # SP_nu(x^2, y^2): every exponent doubled
        basis = {tuple([2 * e for e in exps]): c.numerator for exps, c in coeffs.items()}
        sign = basis.get(leads[nu])
        if (
            sign not in (1, -1)
            or any(c.denominator != 1 for c in coeffs.values())
            or any(sum(e) != 2 * size for e in basis)
            or any(earlier in basis for _, earlier, _, _ in order)
        ):
            raise InconsistentSystem(
                f"the squared basis is not triangular on its leads at (p, q) = ({hp.p}, {hp.q})"
            )
        order.append((nu, leads[nu], sign, basis))
    return hooks, tuple(order)


def _squared_basis_coefficients(scaled: dict, hp: HookParams, sizes) -> dict:
    """Integer coefficients b_nu of an integer term map in the squared basis
    of the hooks nu whose size is in `sizes`, in enumeration order, by
    back-substitution: by size from the largest, and within one size in
    the order of `_lead_order`.  A remainder off their span is a fault, so
    the map must have no term of a degree outside 2 * `sizes`."""
    remainder = dict(scaled)
    coeffs = {}
    for size in sorted(sizes, reverse=True):
        for nu, lead, sign, terms in _lead_order(hp, size)[1]:
            # dividing by the lead coefficient +-1 is multiplying by it
            b = coeffs[nu] = remainder.get(lead, 0) * sign
            if b:
                add_terms(((e, -b * v) for e, v in terms.items()), remainder)
    if remainder:
        raise InconsistentSystem(f"term map off the squared basis at (p, q) = ({hp.p}, {hp.q})")
    return {nu: coeffs[nu] for size in sorted(sizes) for nu in _lead_order(hp, size)[0]}


def _is_squared_sp(top: dict, mu: Partition, hp: HookParams) -> bool:
    """Whether an integer term map is SP_mu(x^2, y^2), built from SP_mu's
    dominant terms only (`dominant_terms`).

    SP_mu is separately symmetric in the x's and in the y's, so its terms
    are the orderings of the x-part and of the y-part of its dominant
    terms, each with the dominant term's coefficient (`_orbit_expansion`).
    A map is SP_mu when it equals that expansion, which also refuses any
    other term, one of another degree included."""
    doubled = ((tuple([2 * e for e in exps]), c) for exps, c in dominant_terms(mu, hp).items())
    return _orbit_expansion(doubled, hp.p) == top


@lru_cache(maxsize=None)
def interpolation_J(mu: Partition, hp: HookParams) -> InterpolationResult:
    """J_mu as Molev's factorial supersymmetric Schur function in x^2, y^2
    with the interpolation nodes, scaled to the top coefficient
    (-1/4)^{|mu|}, and its coefficients in the squared super Jack basis.

    The closed form is checked in integers, before the scale.  One pass
    splits it at degree 2|mu|.  The terms of degree 2|mu| and above must
    be SP_mu(x^2, y^2) (`_is_squared_sp`), so b_mu is 1 and every other
    b_nu of size |mu| is 0.  The terms below come from back-substitution
    on the squared basis of the hooks of size < |mu|, so the full basis of
    size |mu| is never built.  Then J must vanish on the grid:
    sum b_nu SP_nu(grid(lam)) = 0 on each grid orbit of the hooks lam of
    size <= |mu| that do not contain mu.  Those rows, in the unknowns b_nu
    with |nu| < |mu|, pin J when their rank is the number of unknowns;
    otherwise J is not determined by them, which `extended_grid_used`
    reports.  A failed check is a fault.

    This is the one place that labels J: "paper" when the normalization
    target is nonzero, "top" when it vanishes.  A mu that is not a
    (p, q)-hook raises NotAHook before any work.  The value at grid(mu) is
    measured; `verify normalization` checks it.
    """
    mu.require_hook(hp)
    d = mu.size
    degenerate = not normalization_target(mu, hp)
    scaled = factorial_super_schur(mu, hp)
    lower, top = {}, {}
    for e, c in scaled.items():
        if sum(e) < 2 * d:
            lower[e] = c
        else:
            top[e] = c
    b = _squared_basis_coefficients(lower, hp, range(d))
    if not _is_squared_sp(top, mu, hp):
        raise InconsistentSystem(
            f"the closed form's top degree is not SP_mu for mu = {mu} at (p, q) = ({hp.p}, {hp.q})"
        )
    b.update((nu, 1 if nu == mu else 0) for nu in enumerate_hooks(hp, d, "exact"))
    weights = [b[nu] for nu in _unknowns(hp, d)]
    rows = []
    for row, value in _vanishing_rows(mu, hp, 0):
        if value + sum(map(mul, weights, row)):
            raise InconsistentSystem(
                f"the closed form does not vanish on the grid for mu = {mu} at (p, q) = ({hp.p}, {hp.q})"
            )
        rows.append(row)
    pinned = solve_exact(rows, [0] * len(rows), ncols=len(weights)).tag == UNIQUE
    # J is its top coefficient +-1 / 4^|mu| times the integer map, which
    # takes few distinct values: one Fraction is formed for each
    top = Fraction(-1, 4) ** d
    scale = {c: Fraction(top.numerator * c, top.denominator) for c in {*scaled.values(), *b.values()}}
    poly = SparsePoly._raw(a_variables(hp), {e: scale[c] for e, c in scaled.items()})
    return InterpolationResult(
        mu=mu,
        hp=hp,
        poly=poly,
        mode="top" if degenerate else "paper",
        measured_top_coefficient=top,
        normalization_value=poly.evaluate(grid_point(mu, hp).coords),
        degenerate_normalization=degenerate,
        extended_grid_used=not pinned,
        coefficients=tuple((nu, scale[c]) for nu, c in b.items()),
    )


def paper_or_top(mu: Partition, hp: HookParams) -> InterpolationResult:
    """`interpolation_J(mu, hp)`; kept because the benchmark workloads call
    it by this name."""
    return interpolation_J(mu, hp)


def k_mu(mu: Partition) -> Fraction:
    """(-1)^{|mu|} C^-(1; -1); the box product is the hook-length product."""
    return Fraction(-1) ** mu.size * c_factor(mu, 1, -1, "minus")


class ShimuraImage(namedtuple("ShimuraImage", "mu hp poly mode k_value interpolation")):
    __slots__ = ()


def shimura_image(mu: Partition, hp: HookParams) -> ShimuraImage:
    """k_mu * J_mu; the result records which normalization mode supplied J."""
    result = interpolation_J(mu, hp)
    k = k_mu(mu)
    return ShimuraImage(mu, hp, result.poly * k, result.mode, k, result)


class ExpansionEntry(namedtuple("ExpansionEntry", "nu coefficient hook_product direct reciprocal")):
    __slots__ = ()


class ExpansionReport(namedtuple("ExpansionReport", "m hp entries orientation")):
    # orientation: direct | reciprocal | both | mixed
    __slots__ = ()


def _power_of_squares(m: int, hp: HookParams) -> dict:
    """(sum x_i^2 - sum y_j^2)^m as an integer term map, by the multinomial
    theorem: the exponent vector 2k, for k a composition of m into p + q
    parts, has coefficient m! / prod k_i! times (-1) to the y-degree of k."""
    n = hp.p + hp.q
    power = {}
    # stars and bars: k_i is the gap between bars i - 1 and i
    for bars in combinations(range(m + n - 1), n - 1):
        k = [b - a - 1 for a, b in zip((-1,) + bars, bars + (m + n - 1,))]
        c = factorial(m)
        for ki in k:
            c //= factorial(ki)
        power[tuple(2 * ki for ki in k)] = -c if sum(k[hp.p:]) % 2 else c
    return power


@lru_cache(maxsize=None)
def expansion_identity(m: int, hp: HookParams) -> ExpansionReport:
    """Expand (1/m!) (sum x_i^2 - sum y_j^2)^m exactly over the size-m squared
    basis and compare every measured coefficient e_nu against the hook
    product C^-(1;-1) and against its reciprocal.

    The power has integer coefficients (`_power_of_squares`), so
    back-substitution on the leads of the size-m squared basis expands it in
    integers, and m! divides once at the end.  The remainder check proves
    that the expansion exists, and the triangularity check of `_lead_order`
    that it is unique."""
    if m < 0:
        raise ValueError("the power must be nonnegative")
    coeffs = _squared_basis_coefficients(_power_of_squares(m, hp), hp, (m,))
    scale = factorial(m)
    entries = []
    for nu, b in coeffs.items():
        e = Fraction(b, scale)
        c = c_factor(nu, 1, -1, "minus")
        entries.append(ExpansionEntry(nu, e, c, direct=(e == c), reciprocal=(e * c == 1)))
    if all(en.direct and en.reciprocal for en in entries):
        orientation = "both"
    elif all(en.reciprocal for en in entries):
        orientation = "reciprocal"
    elif all(en.direct for en in entries):
        orientation = "direct"
    else:
        orientation = "mixed"
    return ExpansionReport(m, hp, tuple(entries), orientation)


def _expansion_coefficient(mu: Partition, hp: HookParams) -> Fraction:
    """e_mu for a (p, q)-hook mu."""
    report = expansion_identity(mu.size, hp)
    return next(en.coefficient for en in report.entries if en.nu == mu)


def derive_k(mu: Partition, hp: HookParams) -> Fraction:
    """Constant implied by the measured quantities: (2^{-|mu|} e_mu) / t_mu,
    with e_mu the expansion coefficient and t_mu the top coefficient of J_mu.
    The construction fixes t_mu = (-1/4)^{|mu|}, so this is (-2)^{|mu|} e_mu
    and builds no J."""
    mu.require_hook(hp)
    return (-2) ** mu.size * _expansion_coefficient(mu, hp)


class ConstantsRow(namedtuple("ConstantsRow", "mu hp mode expansion_coefficient k_derived k_hook k_identity")):
    __slots__ = ()


def constants_ledger(hp: HookParams, max_size: int) -> tuple:
    """Measured expansion coefficients and derived k next to the hook
    formula for k, with J_mu's mode.

    `k_identity` holds k_derived * k_hook == 2^{|mu|}.  With k_derived =
    (-2)^{|mu|} e_mu and k_hook = (-1)^{|mu|} H(mu), H the hook product
    C^-(1;-1), it is the expansion identity e_mu * H(mu) = 1 times
    2^{|mu|}.  J's top coefficient is no column: the construction fixes
    it."""
    rows = []
    for mu in enumerate_hooks(hp, max_size, "upto"):
        k_derived, k_hook = derive_k(mu, hp), k_mu(mu)
        rows.append(
            ConstantsRow(
                mu=mu,
                hp=hp,
                mode=interpolation_J(mu, hp).mode,
                expansion_coefficient=_expansion_coefficient(mu, hp),
                k_derived=k_derived,
                k_hook=k_hook,
                k_identity=(k_derived * k_hook == 2 ** mu.size),
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# verification suites

PROPERTIES = ("vanishing", "normalization", "even-symmetry", "expansion", "res-eval")

# The desk-scale hook parameters of the verification suites and of the
# computing CLI subcommands, whose size bounds were measured up to here,
# and the verification suites' bounds on max_size and window.
DESK_PQ = 3
DESK_MAX_SIZE = 6
DESK_WINDOW = 4


class VerifySpec(_ValidatedRecord, namedtuple("VerifySpec", "prop hp max_size window")):
    __slots__ = ()

    def __new__(cls, prop: str, hp: HookParams, max_size: int = 3, window: int = 2) -> "VerifySpec":
        if prop not in PROPERTIES + ("all",):
            raise UsageError(f"unknown property {prop!r}")
        if not (0 <= max_size <= DESK_MAX_SIZE and 0 <= window <= DESK_WINDOW):
            raise UsageError(f"bounds exceed desk scale (max_size <= {DESK_MAX_SIZE}, window <= {DESK_WINDOW})")
        if hp.p > DESK_PQ or hp.q > DESK_PQ:
            raise UsageError(f"verification suites are desk scale: p, q <= {DESK_PQ}")
        return super().__new__(cls, prop, hp, max_size, window)


class VerifyRecord(namedtuple("VerifyRecord", "prop p q mu lam mode status value")):
    # status: pass | fail | degenerate; mu, lam, mode and value may be None
    __slots__ = ()

    def record(self) -> dict:
        return {
            "property": self.prop,
            "p": self.p,
            "q": self.q,
            "mu": None if self.mu is None else str(self.mu),
            "lambda": None if self.lam is None else str(self.lam),
            "mode": self.mode,
            "status": self.status,
            "value": self.value,
        }

    def line(self) -> str:
        bits = [f"{self.prop}", f"p={self.p}", f"q={self.q}"]
        if self.mu is not None:
            bits.append(f"mu=({self.mu})")
        if self.lam is not None:
            bits.append(f"lambda=({self.lam})")
        if self.mode is not None:
            bits.append(f"mode={self.mode}")
        bits.append(f"status={self.status}")
        if self.value is not None:
            bits.append(f"value={self.value}")
        return " ".join(bits)


class VerifyReport(namedtuple("VerifyReport", "records")):
    __slots__ = ()

    @property
    def status(self) -> str:
        if any(r.status == "fail" for r in self.records):
            return "fail"
        if any(r.status == "degenerate" for r in self.records):
            return "degenerate"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "degenerate": 3}[self.status]

    def record(self) -> dict:
        return {
            "records": [r.record() for r in self.records],
            "checked": len(self.records),
            "status": self.status,
            "exit_code": self.exit_code,
        }

    def text_lines(self) -> list:
        lines = [r.line() for r in self.records]
        lines.append(f"summary: checked={len(self.records)} status={self.status}")
        return lines


def _verify_vanishing(hp: HookParams, max_size: int, window: int) -> list:
    recs = []
    for mu in enumerate_hooks(hp, max_size, "upto"):
        j = interpolation_J(mu, hp)
        if j.mode == "top":
            recs.append(
                VerifyRecord("vanishing", hp.p, hp.q, mu, None, j.mode, "degenerate",
                             str(normalization_target(mu, hp)))
            )
        for lam in enumerate_hooks(hp, mu.size + window, "upto"):
            if lam.contains(mu):
                continue
            val = j.poly.evaluate(grid_point(lam, hp).coords)
            recs.append(
                VerifyRecord("vanishing", hp.p, hp.q, mu, lam, j.mode,
                             "pass" if val == 0 else "fail", str(val))
            )
    return recs


def _verify_normalization(hp: HookParams, max_size: int) -> list:
    recs = []
    for mu in enumerate_hooks(hp, max_size, "upto"):
        j = interpolation_J(mu, hp)
        if j.mode == "top":
            recs.append(
                VerifyRecord("normalization", hp.p, hp.q, mu, None, j.mode, "degenerate",
                             str(j.normalization_value))
            )
            continue
        recs.append(
            VerifyRecord("normalization", hp.p, hp.q, mu, None, j.mode,
                         "pass" if j.normalization_value == normalization_target(mu, hp) else "fail",
                         str(j.normalization_value))
        )
        image = shimura_image(mu, hp)
        expected = k_mu(mu) * normalization_target(mu, hp)
        got = image.poly.evaluate(grid_point(mu, hp).coords)
        recs.append(
            VerifyRecord("normalization", hp.p, hp.q, mu, None, "shimura",
                         "pass" if got == expected else "fail", str(got))
        )
    return recs


def _verify_even_symmetry(hp: HookParams, max_size: int) -> list:
    recs = []
    for mu in enumerate_hooks(hp, max_size, "upto"):
        j = interpolation_J(mu, hp)
        ok = is_even_supersymmetric(j.poly, hp)
        recs.append(
            VerifyRecord("even-symmetry", hp.p, hp.q, mu, None, j.mode,
                         "pass" if ok else "fail", None if ok else j.poly.to_text())
        )
    for nu in enumerate_hooks(hp, max_size, "upto"):
        poly = _sp_squared(nu, hp)
        ok = is_even_supersymmetric(poly, hp)
        recs.append(
            VerifyRecord("even-symmetry", hp.p, hp.q, None, nu, "squared-basis",
                         "pass" if ok else "fail", None if ok else poly.to_text())
        )
    return recs


def _verify_expansion(hp: HookParams, max_size: int) -> list:
    """Each entry passes when e_nu * H(nu) = 1, computed here from its
    coefficient and hook product, and each degree when all its entries
    pass.  The modes are the report's orientation flags."""
    recs = []
    for m in range(max_size + 1):
        report = expansion_identity(m, hp)
        degree_ok = True
        for en in report.entries:
            ok = en.coefficient * en.hook_product == 1
            degree_ok &= ok
            mode = "both" if en.direct and en.reciprocal else ("direct" if en.direct else ("reciprocal" if en.reciprocal else "neither"))
            recs.append(
                VerifyRecord("expansion", hp.p, hp.q, en.nu, None, mode,
                             "pass" if ok else "fail", str(en.coefficient))
            )
        recs.append(
            VerifyRecord("expansion", hp.p, hp.q, None, None, report.orientation,
                         "pass" if degree_ok else "fail", str(m))
        )
    return recs


def _verify_res_eval(hp: HookParams) -> list:
    recs = []
    images = {}  # r -> (p_r on the doubled space, its res_map image)
    for r in range(1, 7):
        f = power_sum_doubled(r, hp)
        image = res_map(f, hp)
        images[r] = f, image
        if r % 2:
            expected = SparsePoly.zero(a_variables(hp))
        else:
            expected = power_sum(r, hp) * Fraction(1, 2 ** (r - 1))
        ok = image == expected
        recs.append(
            VerifyRecord("res-eval", hp.p, hp.q, None, None, f"p{r}-image",
                         "pass" if ok else "fail", None if ok else image.to_text())
        )
    import random  # only this suite draws points: keep it out of `import superbc`

    rng = random.Random(_RES_EVAL_SEED)
    for r in (2, 4, 6):
        f, g = images[r]
        for _ in range(_RES_EVAL_POINTS):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(hp.p)]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(hp.q)]
            hcoords = tuple(a) + tuple(-v for v in a) + tuple(b) + tuple(-v for v in b)
            lhs = f.evaluate(hcoords)
            rhs = g.evaluate(tuple(2 * v for v in a) + tuple(2 * v for v in b))
            ok = lhs == rhs
            recs.append(
                VerifyRecord("res-eval", hp.p, hp.q, None, None, f"p{r}",
                             "pass" if ok else "fail",
                             str(lhs) if ok else str(lhs - rhs))
            )
    return recs


def verify_properties(spec: VerifySpec) -> VerifyReport:
    """Run the requested exact check suite; failures are data, not
    exceptions, and the record order is canonical."""
    runners = {
        "vanishing": lambda: _verify_vanishing(spec.hp, spec.max_size, spec.window),
        "normalization": lambda: _verify_normalization(spec.hp, spec.max_size),
        "even-symmetry": lambda: _verify_even_symmetry(spec.hp, spec.max_size),
        "expansion": lambda: _verify_expansion(spec.hp, spec.max_size),
        "res-eval": lambda: _verify_res_eval(spec.hp),
    }
    if spec.prop == "all":
        records = []
        for prop in PROPERTIES:
            records.extend(runners[prop]())
    else:
        records = runners[spec.prop]()
    return VerifyReport(tuple(records))
