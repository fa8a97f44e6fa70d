"""Symmetric functions with a generic deformation parameter: power-sum and
monomial bases, exact basis conversion, the deformed inner product, and the
monic orthogonal family it determines (Jack polynomials P_lam).

Internally a SymFun always stores power-sum coefficients; the monomial basis
is reached through exact transition tables built once per degree.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd, lcm
from threading import Lock, get_ident

from superbc.exactalg import (
    PoleError,
    RatFunc,
    THETA,
    SparsePoly,
    _combination,
    _peval,
    _pquo,
    add_products,
    add_terms,
    as_scalar,
    rational_record,
    signed_sum_text,
    # unused here since the m -> p table is built by back-substitution, but
    # bench/tests checks that the tracer rebinds every module's solve_exact
    solve_exact,
)
from superbc.partitions import Partition, UsageError, partitions_of, sort_key


class DegenerateParameter(UsageError, ArithmeticError):
    """The deformation parameter is 0, or a pole of a Jack coefficient: a
    usage error."""


class SymFun:
    """Symmetric function as exact coefficients on power-sum products."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = add_terms(
            (lam if isinstance(lam, Partition) else Partition(tuple(lam)), as_scalar(c))
            for lam, c in (coeffs or {}).items()
        )

    @classmethod
    def zero(cls) -> "SymFun":
        return cls()

    @classmethod
    def one(cls) -> "SymFun":
        return cls({Partition(): Fraction(1)})

    @classmethod
    def p(cls, lam) -> "SymFun":
        """The power-sum product indexed by a partition."""
        if not isinstance(lam, Partition):
            lam = Partition(tuple(lam))
        return cls({lam: Fraction(1)})

    @classmethod
    def from_m(cls, coeffs) -> "SymFun":
        """Build from monomial-basis coefficients."""
        rows = [(c, _m_to_p_rows(lam.size)[lam.parts]) for lam, c in cls(coeffs).coeffs.items()]
        return cls(add_products((c / den, num) for c, (num, den) in rows))

    def to_m(self) -> dict:
        """Monomial-basis coefficients."""
        return add_products((c, _p_to_m_expansion(mu.parts)) for mu, c in self.coeffs.items())

    def __add__(self, other):
        if not isinstance(other, SymFun):
            return NotImplemented
        return SymFun(add_terms(other.coeffs.items(), dict(self.coeffs)))

    def __neg__(self):
        return SymFun({lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, SymFun):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SymFun):
            return SymFun(add_terms(
                (Partition(tuple(sorted(a.parts + b.parts, reverse=True))), ca * cb)
                for a, ca in self.coeffs.items()
                for b, cb in other.coeffs.items()
            ))
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        if not c:
            return SymFun()
        return SymFun({lam: cc * c for lam, cc in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymFun):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        return max((lam.size for lam in self.coeffs), default=-1)

    def sorted_terms(self) -> list:
        """(partition, coefficient) pairs in enumeration order."""
        return sorted(self.coeffs.items(), key=lambda kv: sort_key(kv[0]))

    def to_text(self) -> str:
        return signed_sum_text((c, f"p[{lam}]") for lam, c in self.sorted_terms())

    __repr__ = to_text

    def to_record(self) -> dict:
        """Serialization record in the power-sum basis; coefficients must be
        rational."""
        terms = [{"partition": str(lam), "coefficient": rational_record(c)} for lam, c in self.sorted_terms()]
        return {"basis": "p", "terms": terms}


def z_lambda(lam: Partition) -> int:
    """Product of i^{m_i} m_i! over part multiplicities m_i."""
    out = 1
    for v, m in Counter(lam.parts).items():
        out *= v**m * factorial(m)
    return out


def monomial_expand(lam: Partition, n: int) -> SparsePoly:
    """Monomial symmetric polynomial m_lam in variables x1..xn."""
    if n < lam.length:
        raise ValueError(f"need at least {lam.length} variables to realize {lam}")
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    padded = tuple(lam.parts) + (0,) * (n - lam.length)
    return SparsePoly(variables, {exps: Fraction(1) for exps in set(permutations(padded))})


# ---------------------------------------------------------------------------
# transition tables between the power-sum and monomial bases


@lru_cache(maxsize=None)
def _p_step(r: int, mu: tuple) -> tuple:
    """Multiply m_mu by p_r in the monomial basis (stable variable count).

    Adding r to one occurrence of a part value u of mu (or to a fresh zero
    part) yields nu; the coefficient is the multiplicity of u + r in nu.
    """
    out: dict = {}
    for u in set(mu) | {0}:
        nu = list(mu)
        if u:
            nu.remove(u)
        nu.append(u + r)
        nu.sort(reverse=True)
        key = tuple(nu)
        out[key] = out.get(key, 0) + nu.count(u + r)
    return tuple(out.items())


@lru_cache(maxsize=None)
def _p_to_m_expansion(parts: tuple) -> dict:
    """Monomial-basis coefficients of the power-sum product p_parts, all
    integers."""
    acc: dict = {(): 1}
    for r in parts:
        acc = add_terms((nu, c * k) for mu, c in acc.items() for nu, k in _p_step(r, mu))
    return {Partition(mu): c for mu, c in acc.items()}


@lru_cache(maxsize=None)
def _m_to_p_rows(d: int) -> dict:
    """Power-sum expansion of every m_lam with |lam| = d, by back-substitution,
    as integer rows: {lam.parts: ({rho: N_rho}, D)} with [p_rho] m_lam =
    N_rho / D.

    p_lam = k_lam m_lam + sum of c_nu m_nu over nu above lam in dominance,
    with k_lam the product of the factorials of lam's part multiplicities.
    `partitions_of` lists every such nu before lam, so m_lam = (p_lam - sum
    of c_nu m_nu) / k_lam is found from rows already built.  Row lam is
    formed over k_lam L, with L the lcm of the D_nu it reads, and the
    content of (N, D) is divided out."""
    rows: dict = {}
    for lam in partitions_of(d):
        p_lam = _p_to_m_expansion(lam.parts)
        above = [(nu.parts, c) for nu, c in p_lam.items() if nu != lam]
        scale = lcm(*(rows[nu][1] for nu, _ in above))
        row = {lam: scale}
        for nu, c in above:
            num, den = rows[nu]
            f = c * (scale // den)
            add_terms(((rho, -f * v) for rho, v in num.items()), row)
        den = p_lam[lam] * scale
        g = gcd(den, *row.values())
        rows[lam.parts] = ({rho: v // g for rho, v in row.items()}, den // g)
    return rows


def basis_convert(f: SymFun, target: str) -> dict:
    """Coefficients of f in the requested basis ("p" or "m")."""
    if target == "p":
        return dict(f.coeffs)
    if target == "m":
        return f.to_m()
    raise ValueError(f"unknown basis {target!r}")


# ---------------------------------------------------------------------------
# deformed inner product and the monic orthogonal family


def jack_inner(f: SymFun, g: SymFun, theta):
    """<p_lam, p_mu> = delta_{lam,mu} z_lam theta^{-len(lam)}, bilinear."""
    theta = as_scalar(theta)
    if not theta:
        raise DegenerateParameter("theta = 0 degenerates the inner product")
    # terms of one length share their power of theta, so each product of
    # coefficients is multiplied by it once per length, not once per term
    by_length = add_products(
        (ca * cb, {lam.length: z_lambda(lam)})
        for lam, ca in f.coeffs.items()
        if (cb := g.coeffs.get(lam))
    )
    total = add_products((c * theta ** (-n), {None: 1}) for n, c in by_length.items())
    return total.get(None, Fraction(0))


_jack_cache: dict = {}
_jack_lock = Lock()


def clear_jack_cache() -> None:
    with _jack_lock:
        _jack_cache.clear()


def _rho(parts: tuple) -> tuple:
    """Laplace-Beltrami eigenvalue sum mu_i (mu_i - 1) - 2 theta sum (i - 1) mu_i,
    as its two coefficients in theta."""
    return sum(v * (v - 1) for v in parts), -2 * sum(i * v for i, v in enumerate(parts))


@lru_cache(maxsize=None)
def _raisings(parts: tuple) -> tuple:
    """((nu, w), ...) over the distinct partitions nu = mu raised at (i, j, t):
    mu_i + t and mu_j - t for i < j and 1 <= t <= mu_j, sorted, with w the
    sum of 2 (mu_i - mu_j + 2t) over the (i, j, t) that give nu.  Built once
    per mu and shared by every lam of that size."""
    out: dict = {}
    for j in range(1, len(parts)):
        for i in range(j):
            for t in range(1, parts[j] + 1):
                nu = list(parts)
                nu[i] += t
                nu[j] -= t
                key = tuple(sorted((x for x in nu if x), reverse=True))
                out[key] = out.get(key, 0) + 2 * (parts[i] - parts[j] + 2 * t)
    return tuple(out.items())


@lru_cache(maxsize=None)
def _jack_integral(parts: tuple) -> tuple:
    """(c_lam, {mu: v_mu}) with c_lam = prod over boxes of a(s) + theta (l(s) + 1)
    and v_mu = c_lam [m_mu] P_lam, as integer coefficient tuples in theta,
    lowest degree first, keyed by parts.

    c_lam P_lam is Knop-Sahi's integral Jack in theta, so every v_mu is a
    polynomial with integer coefficients, and Stanley's Laplace-Beltrami
    recurrence finds them in dominance order from the top: (rho_lam -
    rho_mu) v_mu is 2 theta times the sum of w v_nu over the raisings (nu,
    w) of mu (`_raisings`).  rho_lam - rho_mu is linear with
    theta-coefficient 2 (n(mu) - n(lam)) > 0 below lam, and each quotient
    is integral, so the division runs in integers from the top coefficient
    down.  Every mu below lam comes after lam in `partitions_of`, and a
    later mu that is not below lam has no raising with a v_nu, so its sum is
    0 and it is skipped."""
    lam = Partition(parts)
    cols = lam.transpose()
    c_lam = (1,)
    for i, j in lam.boxes():
        a, b = lam.part(i) - j, cols.part(j) - i + 1
        # times a + b theta
        c_lam = tuple(a * x + b * y for x, y in zip(c_lam + (0,), (0,) + c_lam))
    r0, r1 = _rho(parts)
    v = {parts: c_lam}
    ps = partitions_of(lam.size)
    for mu in ps[ps.index(lam) + 1:]:
        m = mu.parts
        # num = 2 theta sum of w v_nu
        num = [0] * (len(c_lam) + 1)
        for nu, w in _raisings(m):
            v_nu = v.get(nu)
            if v_nu:
                for k, x in enumerate(v_nu, start=1):
                    num[k] += w * x
        if not any(num):
            continue
        s0, s1 = _rho(m)
        try:
            quot = _pquo(num, (r0 - s0, r1 - s1))
        except ArithmeticError as err:
            raise ArithmeticError(f"Jack recurrence division is not exact at {lam}, {mu}") from err
        v[m] = quot
    return c_lam, v


def jack_m_coeffs(lam: Partition, theta=THETA) -> dict:
    """Monomial-basis expansion of P_lam at the given parameter: v_mu / c_lam
    from `_jack_integral`, each reduced from its integer parts at the formal
    parameter, and by substitution at any other one.  P_lam is monic on
    m_lam and supported on dominance-lower partitions."""
    theta = as_scalar(theta)
    if not theta:
        raise DegenerateParameter("theta = 0 is a degenerate Jack parameter")
    key = (lam.parts, theta)
    hit = _jack_cache.get(key)
    if hit is not None:
        return dict(hit)
    c_lam, v = _jack_integral(lam.parts)
    lower = [(Partition(mu), vm) for mu, vm in reversed(v.items()) if mu != lam.parts]
    if theta == THETA:
        values = [RatFunc._from_ints(vm, c_lam) for _, vm in lower]
    elif den := _peval(c_lam, theta):
        values = [_peval(vm, theta) / den for _, vm in lower]
    else:
        # c_lam vanishes here, so a coefficient is finite only where the
        # factor cancels; a constant rational function stands for its value
        point = theta.constant_value() if isinstance(theta, RatFunc) else theta
        try:
            values = [RatFunc._from_ints(vm, c_lam).evaluate(point) for _, vm in lower]
        except PoleError as err:
            raise DegenerateParameter(f"P[{lam}] has a pole at theta = {theta}") from err
    m_vec = {lam: Fraction(1)}
    m_vec.update((mu, c) for (mu, _), c in zip(lower, values) if c)
    with _jack_lock:
        _jack_cache.setdefault(key, dict(m_vec))
    return m_vec


def jack_P(lam: Partition, theta=THETA) -> SymFun:
    """Monic Jack symmetric function at the formal parameter or a rational
    one: triangular below lam in dominance and orthogonal for the deformed
    inner product.

    Each power-sum coefficient comes straight from the integral form and
    the integer m -> p rows: with [p_rho] m_mu = N_mu,rho / D_mu
    (`_m_to_p_rows`) and v_mu from `_jack_integral`, the coefficient on
    p_rho is the sum over mu != lam of (N_mu,rho / D_mu) v_mu / c_lam, plus
    N_lam,rho / D_lam.  `_combination` sums it in integers over the lcm of
    the D_mu and reduces it once.  At a rational a/b each v_mu and c_lam
    enters as the integer b^|lam| v(a/b), as none has degree above |lam|.
    A rho that only m_lam's row reaches keeps its rational N_lam,rho /
    D_lam, and a rho whose sum cancels has no key, as `SymFun.from_m` of
    `jack_m_coeffs` gives.  A nonzero root of c_lam is a pole of [m_(1^n)]
    P_lam = n! theta^n / c_lam, n = |lam| (Stanley 1989: [m_(1^n)] J_lam =
    n!)."""
    theta = as_scalar(theta)
    if not theta:
        raise DegenerateParameter("theta = 0 is a degenerate Jack parameter")
    formal = isinstance(theta, RatFunc)
    if formal and theta != THETA:
        raise TypeError(f"a Jack parameter is THETA or a rational, not {theta}")
    c_lam, v = _jack_integral(lam.parts)
    if not formal:
        a, b = theta.as_integer_ratio()
        scale = [a**k * b ** (lam.size - k) for k in range(lam.size + 1)]
        v = {mu: (sum(x * w for x, w in zip(vm, scale)),) for mu, vm in v.items()}
        c_lam = v[lam.parts]
        if not c_lam[0]:
            raise DegenerateParameter(f"P[{lam}] has a pole at theta = {theta}")
    rows = _m_to_p_rows(lam.size)
    top, top_den = rows[lam.parts]
    sums: dict = {}
    for mu, v_mu in v.items():
        if mu != lam.parts:
            num, den = rows[mu]
            for rho, n in num.items():
                sums.setdefault(rho, []).append(((n, den), v_mu))
    # the keys in the order that `SymFun.from_m` gives: m_lam's row first
    coeffs = dict.fromkeys(top)
    for rho, terms in sums.items():
        n = top.get(rho)
        if n is not None:
            terms.append(((n, top_den), c_lam))
        total = _combination(terms, c_lam)
        if total is None:
            coeffs.pop(rho, None)
        else:
            coeffs[rho] = total if formal else total.constant_value()
    return SymFun({rho: Fraction(top[rho], top_den) if c is None else c for rho, c in coeffs.items()})


# ---------------------------------------------------------------------------
# on-disk persistence of the expansion cache: library functions only (the
# CLI reads and writes no file); they stay because the benchmark tracer in
# bench/tracing.py wraps save_jack_cache and load_jack_cache


def _scalar_to_json(c):
    if isinstance(c, RatFunc):
        return {"num": [str(v) for v in c.num], "den": [str(v) for v in c.den]}
    return str(c)


def _field(v, kind=str):
    """A cache field that the saved format writes as `kind`: a JSON number
    where it writes a string would bring a float into the package, and a
    string where it writes a list would be read one character at a time."""
    if not isinstance(v, kind):
        raise ValueError(f"expected a {kind.__name__}, got {v!r}")
    return v


def _scalar_from_json(obj):
    if isinstance(obj, dict):
        return RatFunc(
            [Fraction(_field(v)) for v in _field(obj["num"], list)],
            [Fraction(_field(v)) for v in _field(obj["den"], list)],
        )
    return Fraction(_field(obj))


def save_jack_cache(path) -> None:
    """Persist cached expansions with rational or generic parameter."""
    import json  # only the two cache functions read or write JSON

    entries = []
    with _jack_lock:
        items = sorted(_jack_cache.items(), key=lambda kv: (sort_key(Partition(kv[0][0])), str(kv[0][1])))
        for (parts, theta), m_vec in items:
            if isinstance(theta, RatFunc) and theta != THETA:
                continue
            entries.append(
                {
                    "partition": str(Partition(parts)),
                    "theta": "generic" if isinstance(theta, RatFunc) else str(theta),
                    "m": [
                        {"partition": str(mu), "coefficient": _scalar_to_json(c)}
                        for mu, c in sorted(m_vec.items(), key=lambda kv: sort_key(kv[0]))
                    ],
                }
            )
    # Write a file beside the target, named for this process and thread, and
    # rename it over the target, so a failed or concurrent save never leaves
    # a truncated cache behind.
    tmp = f"{os.fspath(path)}.{os.getpid()}.{get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"format": 1, "entries": entries}, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_jack_cache(path) -> int:
    """Merge a persisted cache; returns the number of entries loaded.  The
    loaded coefficients are used as they are, without recomputation, so a
    file with a wrong coefficient makes `jack_m_coeffs` wrong, the only
    reader of this cache, which the tests use as an oracle (`jack_P` never
    reads it): load only a file this package saved.  The whole file is
    parsed before anything is merged, so a file that fails to parse, or is
    valid JSON of another shape (a number where the format has a string,
    for one), raises ValueError and leaves the in-memory cache untouched."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    loaded = []
    try:
        for entry in data.get("entries", []):
            lam = Partition.parse(_field(entry["partition"]))
            theta = _field(entry["theta"])
            theta = THETA if theta == "generic" else Fraction(theta)
            m_vec = {
                Partition.parse(_field(t["partition"])): _scalar_from_json(t["coefficient"])
                for t in entry["m"]
            }
            loaded.append(((lam.parts, theta), m_vec))
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError(f"unexpected layout ({type(err).__name__}: {err})") from err
    with _jack_lock:
        for key, m_vec in loaded:
            _jack_cache.setdefault(key, m_vec)
    return len(loaded)
