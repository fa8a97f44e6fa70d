"""Exact scalars (rationals and rational functions of one formal parameter),
sparse multivariate polynomials, and exact linear solving.

No floating point exists anywhere in the package: every coefficient is a
`fractions.Fraction` or a `RatFunc` over the rationals, and every operation
is closed and exact.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm, prod

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PoleError(ZeroDivisionError):
    """Substitution point is a pole of the rational function."""


class VariableMismatch(ValueError):
    """Polynomial operands disagree on variable lists or exponent arity."""


# ---------------------------------------------------------------------------
# univariate polynomials, stored low-to-high as coefficient tuples: integers
# in every `RatFunc` part, Fractions or ints where `_primitive` clears them


def _ptrim(cs: tuple) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(tuple(out))


def _pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    """Product of integer coefficient sequences, lowest degree first."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for k, cb in enumerate(b, i):
                out[k] += ca * cb
    return _ptrim(tuple(out))


def _pquo(a, b) -> tuple:
    """Exact quotient of integer coefficient sequences, lowest degree first,
    by synthetic division from the top.  Raises ArithmeticError when b does
    not divide a in integer polynomials."""
    n, lb = len(b), b[-1]
    rem = list(a)
    q = [0] * max(len(a) - n + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(rem[k + n - 1], lb)
        if r:
            raise ArithmeticError("polynomial division is not exact")
        if c:
            q[k] = c
            for j in range(n - 1):
                rem[k + j] -= c * b[j]
    if any(rem[: n - 1]):
        raise ArithmeticError("polynomial division is not exact")
    return tuple(q)


def _common_denominator(values) -> tuple:
    """Fractions (or ints) as integer numerators over the lcm of their
    denominators: (numerators, lcm)."""
    pairs = [v.as_integer_ratio() for v in values]
    den = lcm(*{d for _, d in pairs})
    return tuple(n * (den // d) for n, d in pairs), den


def _primitive(cs) -> tuple:
    """(content, primitive part) of a nonzero coefficient sequence of
    Fractions or ints: cs = content * part, with part an integer list whose
    entries have gcd 1 and content > 0, an int when every entry is one."""
    try:
        g = gcd(*cs)
        return g, [v // g for v in cs]
    except TypeError:
        # math.gcd takes no Fraction
        pass
    ints, den = _common_denominator(cs)
    g = gcd(*ints)
    return Fraction(g, den), [v // g for v in ints]


def _pgcd(a: tuple, b: tuple) -> tuple:
    """(g, a/g, b/g): the integer primitive gcd g of two trimmed coefficient
    sequences, lead positive, and the exact cofactors, by the heuristic gcd
    of Char, Geddes and Gonnet (GCDHEU).

    The gcd over Q is the gcd of the integer primitive parts up to a
    constant, so the inputs are cleared of denominators and content.  The
    power of theta is split off first: with a' and b' prime to theta,
    gcd(theta^i a', theta^j b') = theta^min(i, j) gcd(a', b').  Then both
    primitive parts are evaluated at an integer xi >= 2 min(|a'|, |b'|) + 2,
    with |.| the largest absolute coefficient; every root of an integer
    polynomial is below 1 + |.| in absolute value, so the part of smaller norm is not
    0 at xi and the integer gcd of the two values is positive.  The
    candidate is the primitive part of the polynomial whose coefficients
    are the balanced xi-adic digits, each in (-xi/2, xi/2], of that gcd.

    Correctness: at such a xi the candidate is gcd(a', b') whenever it
    divides both a' and b' (Geddes, Czapor and Labahn, Algorithms for
    Computer Algebra, 7.7), and the two exact divisions that check this are
    the cofactors.  When either division fails, xi grows by a factor of
    about 2.73 and the loop retries.

    Termination: with a' = g a'' and b' = g b'', gcd(a'(xi), b'(xi)) is
    k g(xi) with k = gcd(a''(xi), b''(xi)).  The resultant R = Res(a'', b'')
    is not 0 and equals s a'' + t b'' for integer polynomials s and t, so k
    divides R.  Once xi > 2 |R| |g| the digits are exactly those of k g,
    whose primitive part is g, so the check passes.

    A constant gcd is (1,); the gcd of two zeros is (), with cofactors ()."""
    if not a or not b:
        if not a and not b:
            return (), (), ()
        c, part = _primitive(a or b)
        if part[-1] < 0:
            c, part = -c, [-v for v in part]
        g, cof = tuple(part), (c,)
        return (g, cof, ()) if a else (g, (), cof)
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    i = next(k for k, v in enumerate(a) if v)
    j = next(k for k, v in enumerate(b) if v)
    ca, pa = _primitive(a[i:])
    cb, pb = _primitive(b[j:])
    if len(pa) == 1 or len(pb) == 1:
        g = (1,)
    else:
        xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 2
        while True:
            h = gcd(_peval(pa, xi), _peval(pb, xi))
            digits = []
            while h:
                r = h % xi
                if 2 * r > xi:
                    r -= xi
                digits.append(r)
                h = (h - r) // xi
            # the top digit of a positive value is positive
            g = tuple(_primitive(digits)[1])
            if len(g) == 1:
                break
            try:
                pa, pb = _pquo(pa, g), _pquo(pb, g)
                break
            except ArithmeticError:
                xi = xi * 73794 // 27011
    m = min(i, j)
    return (
        (0,) * m + g,
        (0,) * (i - m) + (tuple(pa) if ca == 1 else tuple(ca * v for v in pa)),
        (0,) * (j - m) + (tuple(pb) if cb == 1 else tuple(cb * v for v in pb)),
    )


def _canonical(num: tuple, den: tuple) -> tuple:
    """Lowest terms of num/den from trimmed integer coefficient sequences,
    den nonzero: the canonical `RatFunc` parts.  This is the one reduction
    of the package: the cofactors of the integer primitive gcd are num and
    den divided exactly by it (Gauss's lemma), and `_normal` fixes the
    scale."""
    if not num:
        return (), (1,)
    return _normal(*_pgcd(num, den)[1:])


def _normal(num: tuple, den: tuple) -> tuple:
    """num and den, integer sequences without a common factor over Q,
    divided by their joint integer content, with the sign that makes the
    lead of den positive."""
    c = gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c == 1:
        return num, den
    return tuple(v // c for v in num), tuple(v // c for v in den)


def _peval(a: tuple, x):
    """a at x by Horner's rule: an int at an int x, a Fraction at a
    Fraction x."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def signed_sum_text(pairs) -> str:
    """Join (coefficient, monomial text) pairs into one signed sum.  A
    rational function that is not constant is put in parentheses, a unit
    coefficient is left out, an empty monomial stands for 1, and a leading
    minus sign becomes the joining operator; no terms print as 0."""
    text = ""
    for c, mon in pairs:
        cs = f"({c})" if isinstance(c, RatFunc) and not c.is_constant() else str(c)
        if not mon:
            piece = cs
        elif cs == "1":
            piece = mon
        elif cs == "-1":
            piece = f"-{mon}"
        else:
            piece = f"{cs}*{mon}"
        if not text:
            text = piece
        elif piece.startswith("-"):
            text += f" - {piece[1:]}"
        else:
            text += f" + {piece}"
    return text or "0"


def _ptext(cs: tuple, sym: str) -> str:
    return signed_sum_text(
        (cs[e], "" if e == 0 else sym if e == 1 else f"{sym}^{e}")
        for e in range(len(cs) - 1, -1, -1)
        if cs[e]
    )


def _power(base, e: int, one):
    """base ** e for an integer e >= 0, by square-and-multiply from `one`."""
    out = one
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


def as_rational(v) -> Fraction:
    """An int or a Fraction as a Fraction; a float or anything else raises."""
    if type(v) is Fraction:
        return v
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise TypeError(f"expected an exact scalar, got {type(v).__name__}")


class RatFunc:
    """Rational function n/d in one formal parameter over Q.

    The parts are kept as integer coefficient tuples, lowest degree first,
    in the one form that `_canonical` builds: gcd(n, d) = 1 over Q, the
    joint integer content of n and d is 1, the lead of d is positive, and
    zero is ((), (1,)).  The form is unique, so structural equality is
    mathematical equality; every operation reduces its integer result
    through `_canonical`, or through `_normal` where the parts are already
    coprime.  Sums and products first divide the pairs of parts that can
    share a factor by their gcd, and take the exact cofactors that
    `_pgcd`'s heuristic gcd returns, so no pair is divided twice.  `num`
    and `den` give the same function as `Fraction` tuples with den monic.
    """

    __slots__ = ("_n", "_d")

    SYMBOL = "theta"

    def __init__(self, num=0, den=1):
        num_t = self._coeffs(num)
        den_t = self._coeffs(den)
        if not den_t:
            raise ZeroDivisionError("rational function with zero denominator")
        ints = _common_denominator(num_t + den_t)[0]
        self._n, self._d = _canonical(ints[: len(num_t)], ints[len(num_t):])

    def __reduce__(self) -> tuple:
        # __slots__ alone leaves pickle protocols 0 and 1 without a state
        return (RatFunc, (self._n, self._d))

    @property
    def num(self) -> tuple:
        """The numerator over the monic denominator, as `Fraction`s."""
        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._n)

    @property
    def den(self) -> tuple:
        """The monic denominator, as `Fraction`s."""
        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._d)

    @staticmethod
    def _coeffs(v) -> tuple:
        cs = v if isinstance(v, (tuple, list)) else (v,)
        if any(isinstance(c, RatFunc) for c in cs):
            raise TypeError("nested rational functions are not supported")
        return _ptrim(tuple(map(as_rational, cs)))

    @classmethod
    def variable(cls) -> "RatFunc":
        return cls((0, 1))

    @classmethod
    def _reduced(cls, num: tuple, den: tuple) -> "RatFunc":
        """Wrap integer parts already in canonical form."""
        out = cls.__new__(cls)
        out._n = num
        out._d = den
        return out

    @classmethod
    def _from_ints(cls, num: tuple, den: tuple) -> "RatFunc":
        """num/den from trimmed integer coefficient sequences, den nonzero."""
        return cls._reduced(*_canonical(num, den))

    @classmethod
    def _coerce(cls, v):
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, (int, Fraction)):
            n, d = v.as_integer_ratio()
            return cls._reduced((n,) if n else (), (d,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._n, self._d, o._n, o._d
        # with b/d = b'/d' in lowest terms, b d' = d b' is a common denominator
        _, b1, d1 = _pgcd(b, d)
        return RatFunc._from_ints(_padd(_pmul(a, d1), _pmul(c, b1)), _pmul(b, d1))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._reduced(_pneg(self._n), self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_constant() or self.is_constant():
            # zero is constant; scaling by a nonzero constant p/q keeps the
            # parts coprime over Q
            const, other = (o, self) if o.is_constant() else (self, o)
            if not const._n:
                return const
            (p,), (q,) = const._n, const._d
            return RatFunc._reduced(*_normal(tuple(p * v for v in other._n), tuple(q * v for v in other._d)))
        return _product(self._n, self._d, o._n, o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            raise ZeroDivisionError("division by the zero rational function")
        return _product(self._n, self._d, o._d, o._n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            if not self._n:
                raise ZeroDivisionError("negative power of the zero rational function")
            return RatFunc._reduced(*_normal(self._d, self._n)) ** (-e)
        return _power(self, e, RatFunc(1))

    def __bool__(self) -> bool:
        return bool(self._n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self._n, self._d))

    def is_constant(self) -> bool:
        return len(self._d) == 1 and len(self._n) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self._n[0], self._d[0]) if self._n else _ZERO

    def evaluate(self, point) -> Fraction:
        """Substitute a rational for the parameter and reduce."""
        point = as_rational(point)
        dval = _peval(self._d, point)
        if not dval:
            raise PoleError(f"{self} has a pole at {self.SYMBOL} = {point}")
        return _peval(self._n, point) / dval

    def __str__(self) -> str:
        num = _ptext(self.num, self.SYMBOL)
        if len(self._d) == 1:
            return num
        return f"({num})/({_ptext(self.den, self.SYMBOL)})"

    __repr__ = __str__


def rational_record(c) -> dict:
    """Serialization record {"num", "den"} of a rational coefficient; a
    rational function must be constant."""
    c = c.constant_value() if isinstance(c, RatFunc) else as_rational(c)
    return {"num": str(c.numerator), "den": str(c.denominator)}


def _product(a: tuple, b: tuple, c: tuple, d: tuple) -> RatFunc:
    """(a/b)(c/d) from integer parts, each pair without a common factor:
    (a/d)(c/b) with both quotients in lowest terms is in lowest terms over
    Q, so only the scale is left to fix."""
    _, a, d = _pgcd(a, d)
    _, c, b = _pgcd(c, b)
    return RatFunc._reduced(*_normal(_pmul(a, c), _pmul(b, d)))


THETA = RatFunc.variable()

Scalar = Fraction | RatFunc


def as_scalar(v) -> Scalar:
    return v if isinstance(v, RatFunc) else as_rational(v)


def scalar_eval(f, theta0) -> Fraction:
    """Substitute the formal parameter and reduce; rationals pass through."""
    if isinstance(f, RatFunc):
        return f.evaluate(theta0)
    return as_rational(f)


def add_terms(pairs, into: dict | None = None) -> dict:
    """Sum (key, value) pairs into a dict, keeping only the nonzero sums.
    Every sparse linear combination in the package is built by this one
    loop; `into` is updated in place when given, else a new dict is made."""
    out = {} if into is None else into
    get = out.get
    for key, value in pairs:
        acc = get(key)
        s = value if acc is None else acc + value
        if s:
            out[key] = s
        elif acc is not None:
            del out[key]
    return out


def add_products(pairs) -> dict:
    """Sum c * vec over (c, vec) pairs of an exact scalar c and a mapping vec
    from keys to rationals, into a dict of the nonzero sums.

    Rational scalars go through `add_terms` unchanged.  Rational-function
    scalars are not added term by term, which would reduce every partial
    sum.  Each distinct denominator is taken as a primitive integer
    polynomial, their lcm L is built from `_pgcd`'s cofactors, and each c is
    written as an integer polynomial over L times 1 over the denominator's
    content.  With each entry, that weight becomes an integer pair (n, d),
    and a key's numerator is summed in integers over one integer scale and
    reduced once (`_combination`).  A key that only rational scalars reach
    keeps a rational sum, as `add_terms` would give; a key that a
    rational-function scalar reaches gets a `RatFunc`, even a constant one;
    a key whose sum cancels is dropped."""
    pairs = list(pairs)
    out = add_terms(
        (key, c * t) for c, vec in pairs if not isinstance(c, RatFunc) for key, t in vec.items()
    )
    functions = [(c, vec) for c, vec in pairs if isinstance(c, RatFunc)]
    if not functions:
        return out
    # a denominator d is k P, with P its primitive form and k > 0 its content
    prims: dict = {}
    for c, _ in functions:
        if c._d not in prims:
            prims[c._d] = _primitive(c._d)
    common = (1,)
    for _, d in prims.values():
        # lcm(common, d) = common * d / gcd(common, d)
        common = _pmul(common, _pgcd(d, common)[1])
    # c = n / (k P) = (n cof) / (k common), with cof = common / P
    cofactors = {den: (_pquo(common, d), k) for den, (k, d) in prims.items()}
    parts: dict = {}
    for c, vec in functions:
        cof, k = cofactors[c._d]
        poly = _pmul(c._n, cof)
        for key, t in vec.items():
            n, d = t.as_integer_ratio()
            parts.setdefault(key, []).append(((n, k * d), poly))
    for key, terms in parts.items():
        extra = out.get(key)
        if extra is not None:
            terms.append((extra.as_integer_ratio(), common))
        total = _combination(terms, common)
        if total is None:
            out.pop(key, None)
        else:
            out[key] = total
    return out


def _combination(terms: list, den: tuple):
    """The sum of (n/d) poly over ((n, d), poly) pairs of integers n and d
    > 0 and integer sequences poly, divided by the integer sequence den, as
    one reduced `RatFunc`; None when the sum is 0.  The numerator is summed
    in integers over the lcm of the d, which then scales den."""
    scale = lcm(*{d for (_, d), _ in terms})
    total = [0] * max(len(poly) for _, poly in terms)
    for (n, d), poly in terms:
        k = n * (scale // d)
        for i, v in enumerate(poly):
            total[i] += k * v
    total = _ptrim(tuple(total))
    return RatFunc._from_ints(total, tuple(scale * v for v in den)) if total else None


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


def _checked_terms(vars_t: tuple, terms: Mapping):
    """The (exponent vector, scalar) pairs of a term mapping, validated."""
    for exps, c in terms.items():
        if not all(isinstance(e, int) for e in exps):
            raise ValueError(f"non-integer exponent in {exps!r}")
        exps = tuple(exps)
        if len(exps) != len(vars_t):
            raise VariableMismatch(
                f"exponent vector {exps!r} does not match {len(vars_t)} variables"
            )
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps!r}")
        yield exps, as_scalar(c)


class SparsePoly:
    """Multivariate polynomial over exact scalars, stored as a sparse map from
    exponent vectors to nonzero coefficients.

    The ordered variable list is part of the identity.  Canonical printing
    uses graded lexicographic term order, highest term first.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping | None = None):
        vars_t = tuple(variables)
        if len(set(vars_t)) != len(vars_t):
            raise VariableMismatch(f"duplicate variable names: {vars_t!r}")
        self.vars = vars_t
        self.terms = add_terms(_checked_terms(vars_t, terms or {}))

    def __reduce__(self) -> tuple:
        # __slots__ alone leaves pickle protocols 0 and 1 without a state
        return (SparsePoly, (self.vars, self.terms))

    @classmethod
    def _raw(cls, vars_t: tuple, terms: dict) -> "SparsePoly":
        out = cls.__new__(cls)
        out.vars = vars_t
        out.terms = terms
        return out

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparsePoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "SparsePoly":
        c = as_scalar(c)
        vars_t = tuple(variables)
        if not c:
            return cls._raw(vars_t, {})
        return cls._raw(vars_t, {(0,) * len(vars_t): c})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "SparsePoly":
        vars_t = tuple(variables)
        if name not in vars_t:
            raise VariableMismatch(f"{name!r} not among variables {vars_t!r}")
        exps = tuple(1 if v == name else 0 for v in vars_t)
        return cls._raw(vars_t, {exps: _ONE})

    def _check_same(self, other: "SparsePoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatch(f"variable lists differ: {self.vars!r} vs {other.vars!r}")

    def __add__(self, other):
        if isinstance(other, SparsePoly):
            self._check_same(other)
            return SparsePoly._raw(self.vars, add_terms(other.terms.items(), dict(self.terms)))
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self + SparsePoly.constant(self.vars, c)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        out = self + (-other if isinstance(other, SparsePoly) else SparsePoly.constant(self.vars, -as_scalar(other)))
        return out

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SparsePoly):
            self._check_same(other)
            return SparsePoly._raw(self.vars, add_terms(
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            ))
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        if not c:
            return SparsePoly._raw(self.vars, {})
        return SparsePoly._raw(self.vars, {e: cc * c for e, cc in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return _power(self, e, SparsePoly.constant(self.vars, 1))

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.vars == other.vars and self.terms == other.terms
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self.terms == SparsePoly.constant(self.vars, c).terms

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_part(self, d: int) -> "SparsePoly":
        return SparsePoly._raw(self.vars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def evaluate(self, values: Sequence) -> Scalar:
        """Evaluate at a full assignment of exact scalars.

        Each variable's column of exponents is read through one power table
        for that variable, built for the call, and each term is the product
        of its coefficient and its row of powers, summed by `sum` and `prod`
        over the columns with no Python loop per term.  When every
        coefficient and coordinate is rational the sum runs in Python
        integers: the coefficients enter as integer numerators over their
        common denominator, and a coordinate n/d whose variable reaches
        exponent top enters its table as n^k d^(top - k), so every term
        carries the same factor prod d^top and the sum is divided once at
        the end.  At an integer point every d is 1 and the tables hold the
        plain powers.  A rational-function coefficient or coordinate enters
        the same sum as it is."""
        if len(values) != len(self.vars):
            raise VariableMismatch(f"expected {len(self.vars)} values, got {len(values)}")
        points = list(map(as_scalar, values))
        terms = self.terms
        coeffs, den = terms.values(), 1
        rational = all(isinstance(v, Fraction) for v in points) and all(
            isinstance(c, Fraction) for c in coeffs
        )
        if rational:
            coeffs, den = _common_denominator(coeffs)
        columns = list(zip(*terms))
        powers = []
        for v, column in zip(points, columns):
            top = max(column)
            if isinstance(v, Fraction) and v.denominator == 1:
                table = [v.numerator**k for k in range(top + 1)]
            elif rational:
                n, d = v.numerator, v.denominator
                table = [n**k * d ** (top - k) for k in range(top + 1)]
                den *= d**top
            else:
                table = [v**k for k in range(top + 1)]
            powers.append(map(table.__getitem__, column))
        total = sum(map(prod, zip(coeffs, *powers)))
        return Fraction(total, den) if rational else as_scalar(total)

    def substitute(self, assignment: Mapping) -> "SparsePoly":
        """Compose with polynomial or scalar images of selected variables.

        All polynomial images must share one variable list; unassigned
        variables pass through (appended to the target list if missing).
        """
        target: tuple | None = None
        for name, val in assignment.items():
            if name not in self.vars:
                raise VariableMismatch(f"{name!r} is not a variable of this polynomial")
            if isinstance(val, SparsePoly):
                if target is None:
                    target = val.vars
                elif val.vars != target:
                    raise VariableMismatch("assigned polynomials use different variable lists")
        if target is None:
            target = self.vars
        extra = tuple(v for v in self.vars if v not in assignment and v not in target)
        tvars = target + extra
        pad = (0,) * len(extra)
        images: list[SparsePoly] = []
        for name in self.vars:
            if name in assignment:
                val = assignment[name]
                if isinstance(val, SparsePoly):
                    if extra:
                        img = SparsePoly._raw(tvars, {e + pad: c for e, c in val.terms.items()})
                    else:
                        img = val
                else:
                    img = SparsePoly.constant(tvars, val)
            else:
                img = SparsePoly.variable(tvars, name)
            images.append(img)
        out: dict = {}
        pow_cache: dict = {}
        for exps, c in self.terms.items():
            term = SparsePoly.constant(tvars, c)
            for i, e in enumerate(exps):
                if e:
                    key = (i, e)
                    pw = pow_cache.get(key)
                    if pw is None:
                        pw = images[i] ** e
                        pow_cache[key] = pw
                    term = term * pw
            add_terms(term.terms.items(), out)
        return SparsePoly._raw(tvars, out)

    def sorted_terms(self) -> list:
        """Terms in descending graded lexicographic order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True)]

    def to_text(self) -> str:
        pairs = []
        for exps, c in self.sorted_terms():
            mon = "*".join(
                (v if k == 1 else f"{v}^{k}") for v, k in zip(self.vars, exps) if k
            )
            pairs.append((c, mon))
        return signed_sum_text(pairs)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<SparsePoly {self.to_text()} in ({', '.join(self.vars)})>"

    def to_record(self) -> dict:
        """Serialization record; coefficients must be rational."""
        terms = [
            {"exponents": list(exps), "coefficient": rational_record(c)} for exps, c in self.sorted_terms()
        ]
        return {"variables": list(self.vars), "terms": terms}

    @classmethod
    def from_record(cls, rec: Mapping) -> "SparsePoly":
        terms = {
            tuple(t["exponents"]): Fraction(int(t["coefficient"]["num"]), int(t["coefficient"]["den"]))
            for t in rec["terms"]
        }
        return cls(tuple(rec["variables"]), terms)


# ---------------------------------------------------------------------------
# exact linear solving

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


class LinearSolveOutcome(namedtuple("LinearSolveOutcome", "tag solution nullspace", defaults=(None, None))):
    __slots__ = ()


def solve_exact(matrix: Sequence[Sequence], rhs: Sequence, ncols: int | None = None) -> LinearSolveOutcome:
    """Classify and solve A x = b over the exact scalars.

    Forward elimination is fraction-free (Bareiss): every update divides by
    the previous pivot, which is an exact division over an integral domain
    and keeps intermediate growth polynomial.  Nullspace vectors are
    normalized so their first nonzero coordinate is 1.

    When every entry is rational (ints and Fractions), each augmented row
    is scaled to integers (unless every entry already is one) and repeated
    rows are dropped, so elimination runs in Python integers with exact
    floor division; back-substitution then runs in Fractions.  Neither step
    changes the solution set, and the reported solution and nullspace are
    determined by it, so the outcome is the rational one.
    """
    rows = [list(r) for r in matrix]
    b = list(rhs)
    if len(rows) != len(b):
        raise ValueError("matrix and right-hand side sizes differ")
    m = len(rows)
    if m:
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is ragged")
        if ncols is not None and ncols != n:
            raise ValueError("ncols disagrees with the matrix width")
    else:
        n = ncols or 0
    aug = [rows[i] + [b[i]] for i in range(m)]
    if all(type(v) is int for row in aug for v in row):
        aug = [list(row) for row in dict.fromkeys(map(tuple, aug))]
        exact = operator.floordiv
    elif all(isinstance(v, (int, Fraction)) for row in aug for v in row):
        aug = [list(row) for row in dict.fromkeys(_common_denominator(row)[0] for row in aug)]
        exact = operator.floordiv
    else:
        aug = [[as_scalar(v) for v in row] for row in aug]
        exact = operator.truediv
    m = len(aug)
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if aug[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            aug[r], aug[pr] = aug[pr], aug[r]
        prow = aug[r]
        pivot = prow[c]
        for i in range(r + 1, m):
            row = aug[i]
            head = row[c]
            row[c + 1:] = [exact(pivot * a - head * p, prev) for a, p in zip(row[c + 1:], prow[c + 1:])]
            row[c] = 0
        prev = pivot
        piv_cols.append(c)
        r += 1
    rank = r
    for i in range(rank, m):
        if aug[i][n]:
            return LinearSolveOutcome(INCONSISTENT)
    # as_scalar lifts integer entries to Fractions, so no int / int division
    # happens below.
    if rank == n:
        x: list[Scalar] = [_ZERO] * n
        for k in range(rank - 1, -1, -1):
            c = piv_cols[k]
            acc = as_scalar(aug[k][n])
            for j in range(c + 1, n):
                if aug[k][j] and x[j]:
                    acc = acc - aug[k][j] * x[j]
            x[c] = acc / aug[k][c]
        return LinearSolveOutcome(UNIQUE, solution=tuple(x))
    free = [c for c in range(n) if c not in piv_cols]
    basis = []
    for f in free:
        v: list[Scalar] = [_ZERO] * n
        v[f] = _ONE
        for k in range(rank - 1, -1, -1):
            c = piv_cols[k]
            acc: Scalar = _ZERO
            for j in range(c + 1, n):
                if aug[k][j] and v[j]:
                    acc = acc + aug[k][j] * v[j]
            v[c] = -acc / aug[k][c]
        lead = next(val for val in v if val)
        if lead != 1:
            v = [val / lead for val in v]
        basis.append(tuple(v))
    return LinearSolveOutcome(UNDERDETERMINED, nullspace=tuple(basis))
