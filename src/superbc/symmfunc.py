"""Symmetric functions with a generic deformation parameter: power-sum and
monomial bases, exact basis conversion, the deformed inner product, and the
monic orthogonal family it determines (Jack polynomials P_lam).

Internally a SymFun always stores power-sum coefficients; the monomial basis
is reached through exact transition tables built once per degree.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from threading import Lock, get_ident

from superbc.exactalg import (
    RatFunc,
    THETA,
    SparsePoly,
    UNIQUE,
    add_terms,
    as_scalar,
    solve_exact,
)
from superbc.partitions import Partition, partitions_of, sort_key


class DegenerateParameter(ArithmeticError):
    """The deformation parameter hits a vanishing orthogonalization
    denominator."""


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
        return cls(add_terms(
            (mu, c * t)
            for lam, c in cls(coeffs).coeffs.items()
            for mu, t in _m_to_p_table(lam.size)[lam].items()
        ))

    def to_m(self) -> dict:
        """Monomial-basis coefficients."""
        return add_terms(
            (lam, c * t)
            for mu, c in self.coeffs.items()
            for lam, t in _p_to_m_expansion(mu.parts).items()
        )

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

    def homogeneous_component(self, d: int) -> "SymFun":
        return SymFun({lam: c for lam, c in self.coeffs.items() if lam.size == d})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = [f"{c}*p[{lam}]" for lam, c in sorted(self.coeffs.items(), key=lambda kv: sort_key(kv[0]))]
        return " + ".join(bits)


def z_lambda(lam: Partition) -> int:
    """Product of i^{m_i} m_i! over part multiplicities m_i."""
    out = 1
    mult: dict[int, int] = {}
    for v in lam.parts:
        mult[v] = mult.get(v, 0) + 1
    for v, m in mult.items():
        fact = 1
        for k in range(2, m + 1):
            fact *= k
        out *= v**m * fact
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
    """Monomial-basis coefficients of the power-sum product p_parts."""
    acc: dict = {(): 1}
    for r in parts:
        acc = add_terms((nu, c * k) for mu, c in acc.items() for nu, k in _p_step(r, mu))
    return {Partition(mu): Fraction(c) for mu, c in acc.items()}


@lru_cache(maxsize=None)
def _m_to_p_table(d: int) -> dict:
    """Power-sum expansion of every m_lam with |lam| = d, by inverting the
    degree-d transition matrix exactly."""
    parts = list(partitions_of(d))
    index = {lam: i for i, lam in enumerate(parts)}
    n = len(parts)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for j, mu in enumerate(parts):
        for lam, c in _p_to_m_expansion(mu.parts).items():
            matrix[index[lam]][j] = c
    table = {}
    for lam in parts:
        e = [Fraction(0)] * n
        e[index[lam]] = Fraction(1)
        out = solve_exact(matrix, e)
        if out.tag != UNIQUE:
            raise ArithmeticError("basis transition matrix is singular")
        table[lam] = {parts[j]: out.solution[j] for j in range(n) if out.solution[j]}
    return table


def basis_convert(f: SymFun, target: str, degree_bound: int | None = None) -> dict:
    """Coefficients of f in the requested basis ("p" or "m")."""
    if degree_bound is not None and f.degree > degree_bound:
        raise ValueError(f"degree {f.degree} exceeds the stated bound {degree_bound}")
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
    return _inner_p_dicts(f.coeffs, g.coeffs, theta)


def _inner_p_dicts(a: dict, b: dict, theta):
    total = Fraction(0)
    for lam, ca in a.items():
        cb = b.get(lam)
        if cb:
            total = total + ca * cb * z_lambda(lam) * theta ** (-lam.length)
    return total


_jack_cache: dict = {}
_jack_lock = Lock()


def clear_jack_cache() -> None:
    with _jack_lock:
        _jack_cache.clear()


def jack_m_coeffs(lam: Partition, theta=THETA) -> dict:
    """Monomial-basis expansion of P_lam at the given parameter.

    Gram-Schmidt against the already-built family, processed in a linear
    extension of dominance from the bottom up; the result is monic on m_lam
    and supported on dominance-lower partitions.
    """
    theta = as_scalar(theta)
    if not theta:
        raise DegenerateParameter("theta = 0 is a degenerate Jack parameter")
    key = (lam.parts, theta)
    hit = _jack_cache.get(key)
    if hit is not None:
        return dict(hit)
    d = lam.size
    to_p = _m_to_p_table(d)
    done: list[tuple[dict, dict, object]] = []  # (m-coeffs, p-coeffs, norm)
    result: dict | None = None
    for nu in reversed(partitions_of(d)):
        m_vec = {nu: Fraction(1)}
        p_vec = dict(to_p[nu])
        for prev_m, prev_p, prev_norm in done:
            # minus the projection coefficient onto the earlier vector
            c = -_inner_p_dicts(to_p[nu], prev_p, theta) / prev_norm
            if not c:
                continue
            add_terms(((key2, c * val) for key2, val in prev_m.items()), m_vec)
            add_terms(((key2, c * val) for key2, val in prev_p.items()), p_vec)
        norm = _inner_p_dicts(p_vec, p_vec, theta)
        if not norm:
            raise DegenerateParameter(
                f"orthogonalization denominator vanishes at theta = {theta} (degree {d})"
            )
        done.append((m_vec, p_vec, norm))
        with _jack_lock:
            _jack_cache.setdefault((nu.parts, theta), dict(m_vec))
        if nu == lam:
            result = m_vec
    assert result is not None
    return dict(result)


def jack_P(lam: Partition, theta=THETA) -> SymFun:
    """Monic Jack symmetric function: triangular below lam in dominance and
    orthogonal for the deformed inner product."""
    return SymFun.from_m(jack_m_coeffs(lam, theta))


# ---------------------------------------------------------------------------
# optional on-disk persistence of the expansion cache


def _scalar_to_json(c):
    if isinstance(c, RatFunc):
        return {"num": [str(v) for v in c.num], "den": [str(v) for v in c.den]}
    return str(c)


def _text(v) -> str:
    """A cache field that the saved format writes as a string; a JSON number
    here would bring a float into the package."""
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _scalar_from_json(obj):
    if isinstance(obj, dict):
        return RatFunc(
            [Fraction(_text(v)) for v in obj["num"]], [Fraction(_text(v)) for v in obj["den"]]
        )
    return Fraction(_text(obj))


def save_jack_cache(path) -> None:
    """Persist cached expansions with rational or generic parameter."""
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
    whole file is parsed before anything is merged, so a file that fails to
    parse, or is valid JSON of another shape (a number where the format has
    a string, for one), raises ValueError and leaves the in-memory cache
    untouched."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    loaded = []
    try:
        for entry in data.get("entries", []):
            lam = Partition.parse(_text(entry["partition"]))
            theta = _text(entry["theta"])
            theta = THETA if theta == "generic" else Fraction(theta)
            m_vec = {
                Partition.parse(_text(t["partition"])): _scalar_from_json(t["coefficient"])
                for t in entry["m"]
            }
            loaded.append(((lam.parts, theta), m_vec))
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError(f"unexpected layout ({type(err).__name__}: {err})") from err
    with _jack_lock:
        for key, m_vec in loaded:
            _jack_cache.setdefault(key, m_vec)
    return len(loaded)
