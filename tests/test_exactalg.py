import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from superbc import exactalg
from superbc.exactalg import (
    INCONSISTENT,
    THETA,
    PoleError,
    RatFunc,
    SparsePoly,
    UNDERDETERMINED,
    UNIQUE,
    VariableMismatch,
    _padd,
    _pgcd,
    _pmul,
    _pneg,
    _pquo,
    _ptrim,
    add_products,
    add_terms,
    scalar_eval,
    solve_exact,
)

from .strategies import rationals, ratfuncs, scalars, sparse_polys


# -- scalars ----------------------------------------------------------------


def test_scalar_eval_examples():
    assert scalar_eval(2 * THETA / (THETA + 1), 1) == 1
    with pytest.raises(PoleError):
        scalar_eval(1 / (THETA - 1), 1)
    assert scalar_eval(Fraction(5, 3), Fraction(7)) == Fraction(5, 3)


def test_ratfunc_canonical_form():
    a = RatFunc([0, 2, 2], [2, 2])  # (2t^2 + 2t)/(2t + 2) = t
    assert a == THETA
    assert a.num == (Fraction(0), Fraction(1)) and a.den == (Fraction(1),)
    assert RatFunc(3) == Fraction(3) == RatFunc(3)
    assert RatFunc(0).is_constant()
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, 0)


def test_ratfunc_coefficients_are_exact():
    for num, den in (([0.1, 1], 1), (0.5, 1), (1, [1, 0.5])):
        with pytest.raises(TypeError, match="expected an exact scalar, got float"):
            RatFunc(num, den)
    with pytest.raises(TypeError, match="expected an exact scalar, got str"):
        RatFunc(["1/3", 1])
    for num in (THETA, [1, THETA]):
        with pytest.raises(TypeError, match="nested rational functions"):
            RatFunc(num)


def test_the_evaluation_point_is_exact():
    for call in (lambda: (THETA + 1).evaluate(0.1), lambda: scalar_eval(THETA, 0.1), lambda: scalar_eval(0.1, 1)):
        with pytest.raises(TypeError, match="expected an exact scalar, got float"):
            call()


def test_ratfunc_powers_and_division():
    assert THETA**0 == 1
    assert THETA**-2 == 1 / THETA**2
    assert (THETA + 1) / (THETA + 1) == 1
    with pytest.raises(ZeroDivisionError):
        (THETA + 1) / RatFunc(0)
    assert str(2 * THETA / (THETA + 1)) == "(2*theta)/(theta + 1)"


def _random_ratfunc(rng):
    """A seeded random rational function whose denominator is a product of
    linear factors from a small pool, so that two of them often share a
    factor and often do not."""
    num = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
    den = (Fraction(rng.randint(1, 3)),)
    for _ in range(rng.randint(0, 3)):
        den = _pmul(den, (Fraction(rng.choice((-2, -1, 1, 3))), Fraction(1)))
    return RatFunc(num, den)


def test_ratfunc_fast_paths_match_the_general_constructor():
    # sums, products and quotients reduce smaller pieces than the full
    # result (the quotient of the denominators, the two cross quotients);
    # their results must be the constructor's canonical form exactly
    rng = random.Random(5)
    shared = coprime = 0
    for _ in range(400):
        a, b = _random_ratfunc(rng), _random_ratfunc(rng)
        if len(_pgcd(a.den, b.den)[0]) > 1:
            shared += 1
        else:
            coprime += 1
        general = RatFunc(_padd(_pmul(a.num, b.den), _pmul(b.num, a.den)), _pmul(a.den, b.den))
        total = a + b
        assert (total.num, total.den) == (general.num, general.den)
        for c in (b, RatFunc(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))):
            general = RatFunc(_pmul(a.num, c.num), _pmul(a.den, c.den))
            for product in (a * c, c * a):
                assert (product.num, product.den) == (general.num, general.den)
            if c:
                general = RatFunc(_pmul(a.num, c.den), _pmul(a.den, c.num))
                quotient = a / c
                assert (quotient.num, quotient.den) == (general.num, general.den)
    assert shared > 50 and coprime > 50


def _pdivmod(a, b):
    """Quotient and remainder by long division over Q: the oracle for the
    integer exact division."""
    rem = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / Fraction(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv
        if c:
            q[k] = c
            for j, cb in enumerate(b):
                rem[k + j] -= c * cb
    return _ptrim(tuple(q)), _ptrim(tuple(rem))


def _monic(a):
    return tuple(Fraction(c) / a[-1] for c in a)


def _euclid_gcd(a, b):
    """The monic gcd by Euclid's algorithm over Q: the oracle for the
    integer pseudo-remainder gcd."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _monic(a)


def _random_poly(rng, degree):
    """Random coefficients with non-unit denominators; the leading one is
    nonzero, of either sign and rarely 1."""
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(degree)]
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
    return tuple(cs) + (lead,)


def test_integer_gcd_matches_euclid_over_q():
    rng = random.Random(11)
    third, x_plus_half = (Fraction(1, 3),), (Fraction(1, 2), Fraction(1))
    cases = [((), ()), ((), third), (third, ()), (third, x_plus_half), ((), x_plus_half)]
    for _ in range(100):
        a = _random_poly(rng, rng.randint(0, 12))
        b = _random_poly(rng, rng.randint(0, 12))
        common = _random_poly(rng, rng.randint(1, 6))
        cases += [
            (a, b),
            (_pmul(a, common), _pmul(b, common)),
            (_pmul(a, common), common),
            (_pmul(_pmul(a, common), common), _pmul(b, common)),
        ]
    nontrivial = 0
    for a, b in cases:
        expected = _euclid_gcd(a, b)
        got, a_cof, b_cof = _pgcd(a, b)
        # the primitive integer form of the monic gcd over Q, lead positive,
        # and the exact cofactors
        assert all(type(c) is int for c in got)
        assert not got or (gcd(*got) == 1 and got[-1] > 0)
        assert _monic(got) == expected == _monic(_pgcd(b, a)[0])
        if got:
            assert _pmul(a_cof, got) == _ptrim(a) and _pmul(b_cof, got) == _ptrim(b)
        nontrivial += len(got) > 1
    assert nontrivial >= 300


def test_ratfunc_constructor_matches_euclid_reduction():
    # the oracle: divide by the Euclid gcd over Q, then make den monic
    rng = random.Random(23)
    kinds = {"shared": 0, "zero": 0, "constant": 0}
    for _ in range(400):
        num = _random_poly(rng, rng.randint(0, 5)) if rng.random() < 0.9 else ()
        den = _random_poly(rng, rng.randint(0, 5))
        if rng.random() < 0.6:
            common = _random_poly(rng, rng.randint(1, 3))
            num, den = _pmul(num, common), _pmul(den, common)
        r = RatFunc(num, den)
        if num:
            g = _euclid_gcd(num, den)
            n, d = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
            expected = (tuple(c / d[-1] for c in n), _monic(d))
        else:
            expected = ((), (Fraction(1),))
        assert (r.num, r.den) == expected, (num, den)
        assert all(type(c) is Fraction for c in r.num + r.den)
        kinds["shared"] += bool(num) and len(g) > 1
        kinds["zero"] += not num
        kinds["constant"] += len(r.num) <= 1 and len(r.den) == 1
    assert all(v > 20 for v in kinds.values()), kinds


def _imul(a, b):
    return tuple(int(c) for c in _pmul(a, b))


def _random_int_poly(rng, degree):
    """Integer coefficients with a nonzero lead of either sign, rarely 1,
    times a random content, so the sequence is often not primitive."""
    content = rng.choice((1, 1, 2, 3, 6))
    cs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]
    return tuple(content * c for c in cs)


def test_integer_reduction_matches_euclid_over_q():
    # the oracle: divide by the Euclid gcd over Q, then make den monic
    rng = random.Random(29)
    kinds = {"shared": 0, "zero": 0, "constant": 0, "negative lead": 0, "not primitive": 0}
    for _ in range(400):
        num = _random_int_poly(rng, rng.randint(0, 5)) if rng.random() < 0.9 else ()
        den = _random_int_poly(rng, rng.randint(0, 5))
        if rng.random() < 0.6:
            common = _random_int_poly(rng, rng.randint(1, 3))
            num, den = _pmul(num, common), _pmul(den, common)
        r = RatFunc._from_ints(num, den)
        if num:
            g = _euclid_gcd(num, den)
            n, d = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
            expected = (tuple(c / d[-1] for c in n), _monic(d))
        else:
            expected = ((), (Fraction(1),))
        assert (r.num, r.den) == expected, (num, den)
        assert all(type(c) is Fraction for c in r.num + r.den)
        # the constructor reduces through the same entry
        general = RatFunc(num, den)
        assert (general.num, general.den) == (r.num, r.den)
        kinds["shared"] += bool(num) and len(g) > 1
        kinds["zero"] += not num
        kinds["constant"] += len(r.num) <= 1 and len(r.den) == 1
        kinds["negative lead"] += den[-1] < 0
        kinds["not primitive"] += gcd(*den) > 1
    assert all(v > 20 for v in kinds.values()), kinds


@pytest.mark.parametrize("kind", ["int", "Fraction"])
def test_integer_gcd_splits_off_the_common_power_of_theta(kind):
    # theta^i a and theta^j b with a and b prime to theta: equal orders,
    # unequal orders, and a zero constant term on one side only, with and
    # without a further common factor
    rng = random.Random(31)
    zero = 0 if kind == "int" else Fraction(0)

    def draw(degree):
        # prime to theta: a zero constant term becomes 1
        poly = _random_int_poly(rng, degree) if kind == "int" else _random_poly(rng, degree)
        return poly if poly[0] else (type(poly[0])(1),) + poly[1:]

    kinds = {"equal": 0, "unequal": 0, "one side": 0}
    for _ in range(300):
        a, b = draw(rng.randint(0, 6)), draw(rng.randint(0, 6))
        if rng.random() < 0.5:
            common = draw(rng.randint(1, 3))
            a, b = _pmul(a, common), _pmul(b, common)
        i = rng.randint(0, 4)
        j = rng.choice((i, 0, rng.randint(1, 4)))
        a, b = (zero,) * i + tuple(a), (zero,) * j + tuple(b)
        got, a_cof, b_cof = _pgcd(a, b)
        assert all(type(c) is int for c in got)
        assert gcd(*got) == 1
        assert _monic(got) == _euclid_gcd(a, b) == _monic(_pgcd(b, a)[0]), (a, b)
        assert _pmul(a_cof, got) == a and _pmul(b_cof, got) == b
        assert got[: min(i, j)] == (0,) * min(i, j) and got[min(i, j)]
        kinds["equal" if i == j else "one side" if not i or not j else "unequal"] += 1
    assert all(v > 50 for v in kinds.values()), kinds


def _prs_gcd(a, b):
    """The integer primitive gcd of two trimmed integer sequences, lead
    positive, by a primitive pseudo-remainder sequence after the common
    power of theta is split off: the oracle for the heuristic gcd."""

    def primitive(cs):
        g = gcd(*cs)
        return [v // g for v in cs]

    if len(a) < len(b):
        a, b = b, a
    if not a:
        return ()
    if len(b) == 1:
        return (1,)
    if not b:
        p = primitive(a)
        return tuple(p if p[-1] > 0 else [-v for v in p])
    i = next(k for k, v in enumerate(a) if v)
    j = next(k for k, v in enumerate(b) if v)
    a, b = primitive(a[i:]), primitive(b[j:])
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, n, lb = a, len(b), b[-1]
        for k in range(len(r) - n, -1, -1):
            c = r[k + n - 1]
            if c:
                g = gcd(lb, c)
                s, c = lb // g, c // g
                r = [s * v for v in r[:k]] + [s * v - c * w for v, w in zip(r[k:], b)]
            r = r[: k + n - 1]
        r = _ptrim(tuple(r))
        a, b = b, primitive(r) if r else []
    g = (1,) if b else tuple(a if a[-1] > 0 else [-v for v in a])
    return (0,) * min(i, j) + g


_digits = st.one_of(st.integers(min_value=-9, max_value=9), st.integers(min_value=-9999, max_value=9999))


@st.composite
def _int_polys(draw, max_degree=4):
    """Integer sequences with a nonzero lead of either sign: constants,
    powers of theta times a part prime to it, one- and four-digit
    coefficients."""
    low = draw(st.lists(_digits, max_size=max_degree))
    lead = draw(_digits.filter(bool))
    return (0,) * draw(st.integers(min_value=0, max_value=3)) + tuple(low) + (lead,)


@given(_int_polys(), _int_polys(), _int_polys(max_degree=3))
def test_heuristic_gcd_matches_the_pseudo_remainder_oracle(a, b, g):
    a, b = _pmul(a, g), _pmul(b, g)
    got, a_cof, b_cof = _pgcd(a, b)
    expected = _prs_gcd(a, b)
    assert got in (expected, _pneg(expected))
    assert _pmul(a_cof, got) == a and _pmul(b_cof, got) == b
    assert _pgcd(b, a) == (got, b_cof, a_cof)


def _first_candidate(a, b):
    """The candidate that the first xi gives for integer sequences a and b
    prime to theta, each of degree >= 1: the primitive part of the balanced
    xi-adic digits of gcd(a(xi), b(xi)) at xi = 2 min(|a|, |b|) + 2, with
    |.| the largest absolute coefficient of the primitive part."""
    a, b = [v // gcd(*a) for v in a], [v // gcd(*b) for v in b]
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    h = gcd(sum(v * xi**k for k, v in enumerate(a)), sum(v * xi**k for k, v in enumerate(b)))
    digits = []
    while h:
        r = h % xi
        r -= xi if 2 * r > xi else 0
        digits.append(r)
        h = (h - r) // xi
    return tuple(v // gcd(*digits) for v in digits)


def test_heuristic_gcd_retries_when_the_first_xi_fails(monkeypatch):
    # search for a pair whose first candidate is not the gcd: the digits of
    # gcd(a(xi), b(xi)) also carry a factor of the cofactors' resultant
    rng = random.Random(41)
    for _ in range(10000):
        g = (rng.randint(1, 5), rng.choice((-1, 1)) * rng.randint(1, 5))
        a = _pmul((rng.randint(1, 9), rng.randint(-9, 9), rng.choice((-1, 1)) * rng.randint(1, 9)), g)
        b = _pmul((rng.randint(1, 9), rng.choice((-1, 1)) * rng.randint(1, 9)), g)
        expected = _prs_gcd(a, b)
        if _first_candidate(a, b) not in (expected, _pneg(expected)):
            break
    else:
        pytest.fail("no pair whose first xi fails")
    failures = []

    def counted(x, y):
        try:
            return _pquo(x, y)
        except ArithmeticError:
            failures.append((x, y))
            raise

    monkeypatch.setattr(exactalg, "_pquo", counted)
    got, a_cof, b_cof = _pgcd(a, b)
    assert failures, (a, b)
    assert got == expected and len(got) > 1
    assert _pmul(a_cof, got) == a and _pmul(b_cof, got) == b


def _assert_canonical(f):
    """f's integer parts are in the canonical form, and num and den are its
    monic Fraction view."""
    n, d = f._n, f._d
    assert all(type(c) is int for c in n + d)
    assert d[-1] > 0 and (not n or n[-1])
    if n:
        assert gcd(*n, *d) == 1
        assert _euclid_gcd(n, d) == _prs_gcd(n, d) == (1,)
    else:
        assert d == (1,)
    assert f.num == tuple(Fraction(c, d[-1]) for c in n)
    assert f.den == _monic(d)
    assert all(type(c) is Fraction for c in f.num + f.den)


_int_ratfuncs = st.one_of(
    st.just(RatFunc(0)),
    ratfuncs(),
    st.builds(RatFunc._from_ints, _int_polys(), _int_polys()),
)


@given(_int_ratfuncs, _int_ratfuncs)
def test_ratfunc_round_trips(a, b):
    assert (a + b) - b == a
    if b:
        assert (a * b) / b == a
    for r in (a + b, a * b):
        _assert_canonical(r)


@given(ratfuncs(), scalars)
def test_ratfunc_parts_are_canonical(f, g):
    _assert_canonical(f)
    results = [f + g, g + f, f - g, g - f, f * g, g * f, -f, f**2, f**0]
    if g:
        results.append(f / g)
    if f:
        results += [g / f, f**-2]
    for r in results:
        _assert_canonical(r)
    assert RatFunc(f.num, f.den) == f
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(f, protocol))
        assert (back._n, back._d) == (f._n, f._d)


@given(st.one_of(rationals, st.integers(min_value=-50, max_value=50)))
def test_constant_ratfunc_is_its_rational(c):
    f = RatFunc(c)
    _assert_canonical(f)
    assert f == c and c == f
    assert hash(f) == hash(c)
    assert f.is_constant() and f.constant_value() == c
    assert {f: 1}[c] == 1


def test_exact_integer_division():
    rng = random.Random(29)
    low_raised = top_raised = 0
    for _ in range(300):
        b = (*(rng.randint(-9, 9) for _ in range(rng.randint(0, 4))), rng.choice((-3, -2, -1, 1, 2, 5)))
        q = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 5)))
        got = _pquo(_imul(q, b), b)
        assert all(type(c) is int for c in got)
        assert _imul(got, b) == _imul(q, b)
        # a remainder below deg b after a quotient that divides at every
        # step: only the final check finds it
        low = tuple(rng.randint(-9, 9) for _ in range(len(b) - 1))
        if any(low):
            monic_b = b[:-1] + (rng.choice((-1, 1)),)
            with pytest.raises(ArithmeticError):
                _pquo(_padd(_imul(q, monic_b), low), monic_b)
            low_raised += 1
        # a top coefficient that the lead of b does not divide
        if abs(b[-1]) > 1:
            top = (0,) * (len(q) + len(b) + rng.randint(0, 2)) + (1,)
            with pytest.raises(ArithmeticError):
                _pquo(_padd(_imul(q, b), top), b)
            top_raised += 1
    assert low_raised > 50 and top_raised > 50
    assert _pquo((), (2, 1)) == ()
    with pytest.raises(ArithmeticError):
        _pquo((3,), (2, 1))


def _random_products(rng, function_share):
    """Seeded (c, vec) pairs: the denominators of the rational functions c
    come from a pool of linear factors, so that two of them often share a
    factor and often do not, and about half the pairs are followed by their
    negative on one of their keys, so that some sums cancel."""
    out = []
    for _ in range(rng.randint(0, 8)):
        vec = {rng.randint(0, 4): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))}
        if rng.random() < function_share:
            c = _random_ratfunc(rng)
        else:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out.append((c, vec))
        if rng.random() < 0.5:
            key = rng.choice(list(vec))
            out.append((c, {key: -vec[key]}))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("function_share", [0, 0.5, 1], ids=["rational", "mixed", "functions"])
def test_add_products_matches_add_terms(function_share):
    rng = random.Random(7)
    cancelled = shared = 0
    for _ in range(150):
        pairs = _random_products(rng, function_share)
        expected = add_terms((key, c * t) for c, vec in pairs for key, t in vec.items())
        got = add_products(pairs)
        assert got == expected
        assert all(c for c in got.values())
        cancelled += len({key for _, vec in pairs for key in vec} - set(got))
        dens = {c.den for c, _ in pairs if isinstance(c, RatFunc)}
        shared += any(len(_euclid_gcd(a, b)) > 1 for a in dens for b in dens if a != b)
        if not function_share:
            assert all(type(c) is Fraction for c in got.values())
    assert cancelled > 25
    assert shared > 25 or not function_share


def test_add_products_types_and_canonical_parts():
    # a key that a rational function reaches gets a canonical RatFunc, even
    # a constant one; a key that only rationals reach keeps a Fraction; a
    # key whose sum cancels is dropped
    rng = random.Random(13)
    kinds = {"function": 0, "rational": 0, "constant function": 0}
    for _ in range(150):
        pairs = _random_products(rng, 0.5)
        if rng.random() < 0.3:
            pairs.append((RatFunc(Fraction(rng.randint(1, 5), rng.randint(1, 3))), {rng.randint(0, 4): 1}))
        got = add_products(pairs)
        expected = add_terms((key, c * t) for c, vec in pairs for key, t in vec.items())
        assert set(got) == set(expected)
        for key, value in got.items():
            if any(isinstance(c, RatFunc) and key in vec for c, vec in pairs):
                assert type(value) is RatFunc
                oracle = RatFunc(expected[key]) if type(expected[key]) is Fraction else expected[key]
                assert (value.num, value.den) == (oracle.num, oracle.den)
                assert all(type(c) is Fraction for c in value.num + value.den)
                kinds["function"] += 1
                kinds["constant function"] += value.is_constant()
            else:
                assert type(value) is Fraction and value == expected[key]
                kinds["rational"] += 1
    assert all(v > 20 for v in kinds.values()), kinds

    f = RatFunc((1,), (1, 1))  # 1 / (theta + 1)
    pairs = [
        (f, {"cancels": 1, "mixed": 2}),
        (f, {"cancels": -1}),
        (Fraction(1, 2), {"rational": 3}),
        (Fraction(1, 3), {"mixed": 1}),
    ]
    got = add_products(pairs)
    assert set(got) == {"mixed", "rational"}
    assert type(got["rational"]) is Fraction and got["rational"] == Fraction(3, 2)
    assert got["mixed"] == 2 * f + Fraction(1, 3)
    assert str(got["mixed"]) == "(1/3*theta + 7/3)/(theta + 1)"


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == 0
    if a:
        assert a * (1 / a) == 1


# -- sparse polynomials -----------------------------------------------------


def test_substitute_examples():
    x2 = SparsePoly(("x",), {(2,): 1})
    t_half = SparsePoly(("t",), {(1,): Fraction(1, 2)})
    assert x2.substitute({"x": t_half}) == SparsePoly(("t",), {(2,): Fraction(1, 4)})

    f = SparsePoly(("x", "y"), {(1, 0): 1, (0, 1): 1})
    assert f.substitute({"x": 1, "y": -1}).is_zero()

    xy = SparsePoly(("x", "y"), {(1, 1): 1})
    u_plus_v = SparsePoly(("u", "v"), {(1, 0): 1, (0, 1): 1})
    out = xy.substitute({"x": u_plus_v})
    assert out == SparsePoly(("u", "v", "y"), {(1, 0, 1): 1, (0, 1, 1): 1})


def test_substitute_variable_mismatch():
    f = SparsePoly(("x", "y"), {(1, 1): 1})
    with pytest.raises(VariableMismatch):
        f.substitute({"z": 1})
    with pytest.raises(VariableMismatch):
        f.substitute(
            {"x": SparsePoly(("u",), {(1,): 1}), "y": SparsePoly(("v",), {(1,): 1})},
        )


@given(sparse_polys(), sparse_polys(), sparse_polys(variables=("u", "v")), rationals)
def test_substitute_is_ring_homomorphism(f, g, image, c):
    assignment = {"x": image, "y": c}
    lhs_mul = (f * g).substitute(assignment)
    rhs_mul = f.substitute(assignment) * g.substitute(assignment)
    assert lhs_mul == rhs_mul
    lhs_add = (f + g).substitute(assignment)
    rhs_add = f.substitute(assignment) + g.substitute(assignment)
    assert lhs_add == rhs_add


def test_poly_text_canonical_order():
    f = SparsePoly(("x", "y"), {(0, 2): -1, (2, 0): 1, (0, 0): Fraction(1, 4)})
    assert f.to_text() == "x^2 - y^2 + 1/4"
    assert SparsePoly.zero(("x",)).to_text() == "0"


def test_poly_record_round_trip():
    f = SparsePoly(("x", "y"), {(2, 0): Fraction(-1, 4), (0, 2): Fraction(1, 4)})
    rec = f.to_record()
    assert rec["variables"] == ["x", "y"]
    assert SparsePoly.from_record(rec) == f


def test_non_integer_exponents_are_rejected():
    with pytest.raises(ValueError):
        SparsePoly(("x",), {(1.5,): 1})
    rec = {"variables": ["x"], "terms": [{"exponents": [2.7], "coefficient": {"num": "1", "den": "1"}}]}
    with pytest.raises(ValueError):
        SparsePoly.from_record(rec)


def test_evaluate_and_degree():
    f = SparsePoly(("x", "y"), {(2, 0): 1, (0, 2): -1})
    assert f.evaluate((Fraction(3), Fraction(1))) == 8
    assert f.degree == 2
    assert SparsePoly.zero(("x",)).degree == -1
    assert f.homogeneous_part(2) == f
    assert f.homogeneous_part(1).is_zero()


def _evaluate_by_terms(f, values):
    """Reference: the term-by-term sum in exact scalar arithmetic."""
    total = Fraction(0)
    for exps, c in f.terms.items():
        term = c
        for v, e in zip(values, exps):
            term = term * (v if isinstance(v, RatFunc) else Fraction(v)) ** e
        total = total + term
    return total


_points = st.tuples(*[st.integers(min_value=-6, max_value=6)] * 2)


@given(sparse_polys(max_exp=5, max_terms=8), _points)
def test_evaluate_at_integer_points_matches_term_sum(f, point):
    for values in (point, (0, 0), (point[0], 0), (-abs(point[0]), -abs(point[1]))):
        got = f.evaluate(values)
        assert type(got) is Fraction
        assert got == _evaluate_by_terms(f, values)


@given(sparse_polys(max_exp=4), st.tuples(rationals, rationals))
def test_evaluate_at_rational_points_matches_term_sum(f, point):
    assert f.evaluate(point) == _evaluate_by_terms(f, point)


@given(sparse_polys(max_exp=4), _points)
def test_evaluate_with_function_coefficients_matches_term_sum(f, point):
    g = SparsePoly(f.vars, {e: c * THETA + 1 for e, c in f.terms.items()})
    got = g.evaluate(point)
    assert got == _evaluate_by_terms(g, point)
    if any(not c.is_constant() for c in g.terms.values()):
        assert isinstance(got, RatFunc)


def test_evaluate_edge_cases_match_term_sum():
    xyz = ("x", "y", "z")
    f = SparsePoly(xyz, {(3, 0, 1): Fraction(2, 3), (1, 2, 0): -5, (0, 0, 2): Fraction(-7, 4), (0, 1, 0): 1})
    rational_cases = [
        # a zero coordinate on a variable at its top exponent
        (f, (0, Fraction(1, 2), Fraction(-3, 5))),
        (f, (Fraction(2, 3), Fraction(-5, 7), 0)),
        # negative numerators everywhere
        (f, (Fraction(-1, 2), Fraction(-4, 3), Fraction(-9, 8))),
        # mixed int and Fraction coordinates
        (f, (3, Fraction(5, 6), -2)),
        (f, (Fraction(6, 3), -1, Fraction(1, 9))),
        # the zero polynomial and a constant
        (SparsePoly.zero(xyz), (Fraction(1, 2), 3, Fraction(-2, 7))),
        (SparsePoly.constant(xyz, Fraction(-5, 6)), (Fraction(1, 2), 3, 0)),
        (SparsePoly.zero(()), ()),
        (SparsePoly.constant((), 4), ()),
    ]
    for g, point in rational_cases:
        got = g.evaluate(point)
        assert type(got) is Fraction, (g, point)
        assert got == _evaluate_by_terms(g, point), (g, point)
    # rational-function coefficients, coordinates, or both
    g = SparsePoly(xyz, {e: c * THETA - 1 for e, c in f.terms.items()})
    for h, point in [
        (g, (Fraction(1, 2), -3, 0)),
        (f, (THETA, Fraction(-2, 3), 1)),
        (f, (THETA / (THETA + 1), 0, Fraction(4, 5))),
        (g, (THETA, 1 / THETA, Fraction(-1, 3))),
    ]:
        got = h.evaluate(point)
        assert isinstance(got, RatFunc)
        assert got == _evaluate_by_terms(h, point), (h, point)


@given(sparse_polys(variables=("x", "y", "z"), max_exp=4, max_terms=8),
       st.tuples(*[st.one_of(st.integers(min_value=-6, max_value=6), rationals)] * 3))
def test_evaluate_at_mixed_points_matches_term_sum(f, point):
    got = f.evaluate(point)
    assert type(got) is Fraction
    assert got == _evaluate_by_terms(f, point)


def test_evaluate_squared_basis_at_grid_points():
    from superbc.interpbc import _sp_squared, grid_point
    from superbc.partitions import HookParams, enumerate_hooks

    hp = HookParams(2, 1)
    hooks = enumerate_hooks(hp, 4, "upto")
    for nu in hooks:
        f = _sp_squared(nu, hp)
        for lam in hooks:
            coords = grid_point(lam, hp).coords
            assert f.evaluate(coords) == _evaluate_by_terms(f, coords)


# -- exact solving ----------------------------------------------------------


def test_solve_examples():
    out = solve_exact([[1, 0], [0, 1]], [3, 4])
    assert out.tag == UNIQUE and out.solution == (3, 4)

    out = solve_exact([[1], [1]], [0, 1])
    assert out.tag == INCONSISTENT

    out = solve_exact([[1, 1]], [0])
    assert out.tag == UNDERDETERMINED
    assert out.nullspace == ((Fraction(1), Fraction(-1)),)


def test_solve_empty_system():
    assert solve_exact([], [], ncols=0).tag == UNIQUE
    out = solve_exact([], [], ncols=2)
    assert out.tag == UNDERDETERMINED and len(out.nullspace) == 2


_entries = st.integers(min_value=-3, max_value=3)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=1, max_size=6),
            st.lists(_entries, min_size=n, max_size=n),
        )
    )
)
def test_solve_recovers_constructed_solutions(data):
    rows, x = data
    b = [sum(r[j] * x[j] for j in range(len(x))) for r in rows]
    out = solve_exact(rows, b)
    assert out.tag in (UNIQUE, UNDERDETERMINED)
    if out.tag == UNIQUE:
        assert all(
            sum(r[j] * out.solution[j] for j in range(len(x))) == bi
            for r, bi in zip(rows, b)
        )
    else:
        for v in out.nullspace:
            assert all(sum(r[j] * v[j] for j in range(len(v))) == 0 for r in rows)


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(_entries, min_size=n, max_size=n),
        )
    )
)
def test_singular_matrix_never_unique(data):
    rows, b = data
    rows = [list(r) for r in rows]
    rows[-1] = [2 * a for a in rows[0]]  # forced row dependence
    assert solve_exact(rows, b).tag != UNIQUE


def test_solve_over_the_function_field():
    out = solve_exact([[THETA, 1], [0, THETA]], [THETA + 1, THETA**2])
    assert out.tag == UNIQUE
    assert out.solution[1] == THETA
    assert out.solution[0] == 1 / THETA


def _random_system(rng):
    """A seeded random rational system, with some rows repeated, rescaled,
    zero, dependent or contradicting the others."""
    m, n = rng.randint(0, 6), rng.randint(1, 5)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.8 else Fraction(0)

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    for _ in range(rng.randint(0, 3)):
        if not rows:
            break
        kind = rng.choice(("repeat", "rescale", "zero", "dependent", "contradict"))
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        s = Fraction(rng.choice((-3, -1, 2)), rng.choice((1, 2, 5)))
        if kind == "repeat":
            rows.append(list(rows[i]))
            rhs.append(rhs[i])
        elif kind == "rescale":
            rows.append([s * v for v in rows[i]])
            rhs.append(s * rhs[i])
        elif kind == "zero":
            rows.append([Fraction(0)] * n)
            rhs.append(Fraction(rng.randint(0, 1)))
        else:
            rows.append([a + s * b for a, b in zip(rows[i], rows[j])])
            rhs.append(rhs[i] + s * rhs[j] + (kind == "contradict"))
    return rows, rhs, n


def test_rational_solve_agrees_with_the_function_field_solve():
    # Constant RatFunc entries take the generic elimination, so it serves as
    # the oracle for the integer elimination that all-rational systems take.
    rng = random.Random(20231)
    tags = set()
    empty = 0
    for _ in range(300):
        rows, rhs, n = _random_system(rng)
        empty += not rows
        fast = solve_exact(rows, rhs, ncols=n)
        lifted = solve_exact(
            [[RatFunc(v) for v in r] for r in rows], [RatFunc(v) for v in rhs], ncols=n
        )
        assert fast == lifted, (rows, rhs)
        tags.add(fast.tag)
        for coordinate in (fast.solution or ()) + sum(fast.nullspace or (), ()):
            assert type(coordinate) is Fraction
    assert tags == {UNIQUE, INCONSISTENT, UNDERDETERMINED} and empty


def test_int_entries_solve_as_their_fractions():
    # int entries reach the integer elimination as they are: all-int systems
    # and rows mixing ints with Fractions have the outcome of the same system
    # in Fractions, and the coordinates are still Fractions
    rng = random.Random(20232)
    mixed = 0
    for _ in range(300):
        rows, rhs, n = _random_system(rng)

        def unlift(v):
            return v.numerator if v.denominator == 1 and rng.random() < 0.5 else v

        int_rows, int_rhs = [[unlift(v) for v in r] for r in rows], [unlift(v) for v in rhs]
        out = solve_exact(int_rows, int_rhs, ncols=n)
        assert out == solve_exact(rows, rhs, ncols=n), (int_rows, int_rhs)
        for coordinate in (out.solution or ()) + sum(out.nullspace or (), ()):
            assert type(coordinate) is Fraction
        mixed += any(type(v) is int for r in int_rows for v in r)
        # and the numerators alone, an all-int system
        num_rows, num_rhs = [[v.numerator for v in r] for r in rows], [v.numerator for v in rhs]
        assert solve_exact(num_rows, num_rhs, ncols=n) == solve_exact(
            [[Fraction(v) for v in r] for r in num_rows], [Fraction(v) for v in num_rhs], ncols=n
        ), (num_rows, num_rhs)
    assert mixed
    out = solve_exact([[2, 1], [0, 3]], [3, Fraction(3, 2)])
    assert out.tag == UNIQUE and out.solution == (Fraction(5, 4), Fraction(1, 2))
