import json
import os
import time
from fractions import Fraction
from math import factorial

import pytest

from superbc.exactalg import PoleError, RatFunc, SparsePoly, THETA, scalar_eval
from superbc.partitions import Partition, UsageError, partitions_of
from superbc.symmfunc import (
    DegenerateParameter,
    SymFun,
    _jack_integral,
    _m_to_p_rows,
    _p_to_m_expansion,
    basis_convert,
    clear_jack_cache,
    jack_P,
    jack_inner,
    jack_m_coeffs,
    load_jack_cache,
    monomial_expand,
    save_jack_cache,
    z_lambda,
)

P = Partition.of
ONE = Fraction(1)


def test_monomial_expand_examples():
    assert monomial_expand(P(1), 2) == SparsePoly(("x1", "x2"), {(1, 0): 1, (0, 1): 1})
    assert monomial_expand(P(1, 1), 2) == SparsePoly(("x1", "x2"), {(1, 1): 1})
    assert monomial_expand(P(2, 1), 2) == SparsePoly(("x1", "x2"), {(2, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        monomial_expand(P(1, 1, 1), 2)


def test_z_lambda():
    assert z_lambda(Partition()) == 1
    assert z_lambda(P(1)) == 1
    assert z_lambda(P(2)) == 2
    assert z_lambda(P(1, 1)) == 2
    assert z_lambda(P(2, 2, 1)) == 8


def test_basis_convert_examples():
    assert basis_convert(SymFun.p(P(1, 1)), "m") == {P(2): 1, P(1, 1): 2}
    assert basis_convert(SymFun.p(P(2)), "m") == {P(2): 1}
    m11 = SymFun.from_m({P(1, 1): 1})
    assert m11.coeffs == {P(1, 1): Fraction(1, 2), P(2): Fraction(-1, 2)}


def test_basis_convert_round_trip_degree_8():
    for d in range(9):
        for lam in partitions_of(d):
            f = SymFun.p(lam)
            assert SymFun.from_m(f.to_m()) == f
            g = SymFun.from_m({lam: 1})
            assert g.to_m() == {lam: Fraction(1)}


def test_m_to_p_rows_invert_the_p_to_m_matrix():
    # sum over rho of [p_rho] m_lam * [m_nu] p_rho is the identity
    for d in range(11):
        rows = _m_to_p_rows(d)
        assert list(rows) == [lam.parts for lam in partitions_of(d)]
        for lam, (num, den) in rows.items():
            product: dict = {}
            for rho, n in num.items():
                for nu, c in _p_to_m_expansion(rho.parts).items():
                    product[nu] = product.get(nu, 0) + Fraction(n, den) * c
            assert {nu: c for nu, c in product.items() if c} == {lam: 1}


def test_p_to_m_expansion_is_the_power_sum_product_in_d_variables():
    # independent of _p_step: in d variables m_mu is the orbit sum of x^mu
    # (mu padded with zeros), so [m_mu] p_rho is the coefficient of x^mu in
    # the SparsePoly product of the power sums p_r = x1^r + ... + xd^r
    for d in range(8):
        names = tuple(f"x{i}" for i in range(1, d + 1))
        for rho in partitions_of(d):
            product = SparsePoly.constant(names, 1)
            for r in rho.parts:
                product = product * SparsePoly(names, {(0,) * i + (r,) + (0,) * (d - i - 1): 1 for i in range(d)})
            expected = {}
            for mu in partitions_of(d):
                c = product.terms.get(mu.parts + (0,) * (d - mu.length), 0)
                if c:
                    expected[mu.parts] = c
            assert _p_to_m_expansion(rho.parts) == expected, rho


def test_m_to_p_rows_are_built_by_back_substitution():
    # one exact solve per partition took about 3.4 s at degree 12 (77
    # partitions), and back-substitution in Fractions about 0.13 s;
    # integer rows over one denominator each, with the parts-keyed power-sum
    # expansions built afresh, take about 0.01 s on a 2-core Xeon
    _m_to_p_rows.cache_clear()
    _p_to_m_expansion.cache_clear()
    start = time.perf_counter()
    rows = _m_to_p_rows(12)
    elapsed = time.perf_counter() - start
    assert len(rows) == 77
    assert elapsed < 2.0


def test_jack_inner_examples():
    p1 = SymFun.p(P(1))
    assert jack_inner(p1, p1, THETA) == 1 / THETA
    assert jack_inner(SymFun.p(P(2)), SymFun.p(P(1, 1)), THETA) == 0
    assert jack_inner(p1, p1, Fraction(2)) == Fraction(1, 2)


def test_jack_examples():
    assert jack_P(P(1), THETA) == SymFun.p(P(1))
    coeffs = basis_convert(jack_P(P(2), THETA), "m")
    assert coeffs == {P(2): 1, P(1, 1): 2 * THETA / (THETA + 1)}


def test_generic_jack_direct_route_is_from_m_of_the_m_coefficients():
    # at the formal parameter jack_P builds each p-coefficient from the
    # integral form; the oracle is the monomial expansion converted by
    # SymFun.from_m: the same keys, scalar types, canonical parts and text
    for d in range(9):
        for lam in partitions_of(d):
            got = jack_P(lam, THETA)
            expected = SymFun.from_m(jack_m_coeffs(lam, THETA))
            assert set(got.coeffs) == set(expected.coeffs)
            for rho, c in expected.coeffs.items():
                g = got.coeffs[rho]
                assert type(g) is type(c), (lam, rho)
                if isinstance(c, RatFunc):
                    assert (g.num, g.den) == (c.num, c.den), (lam, rho)
                    assert all(type(v) is Fraction for v in g.num + g.den)
                    assert g.den[-1] == 1
                else:
                    assert g == c
            assert str(got) == str(expected)


_ORACLE_THETAS = [Fraction(v) for v in ("1", "1/2", "2", "3/5", "7/3", "-1/2", "-2/3", "-1", "-3/2", "-3")]


def _outcome(build):
    try:
        return build(), None
    except DegenerateParameter as err:
        return None, str(err)


@pytest.mark.parametrize("theta0", _ORACLE_THETAS, ids=str)
def test_jack_at_a_rational_theta_is_from_m_of_the_m_coefficients(theta0):
    # at a rational theta jack_P scales the integral form to integers, and
    # calls a root of c_lam a pole; the oracle is the monomial expansion at
    # theta, which substitutes into the formal coefficients where c_lam
    # vanishes, converted by SymFun.from_m: the same coefficients, all
    # Fractions, or the same degenerate parameter
    for d in range(8):
        for lam in partitions_of(d):
            got, got_error = _outcome(lambda: jack_P(lam, theta0))
            expected, expected_error = _outcome(lambda: SymFun.from_m(jack_m_coeffs(lam, theta0)))
            assert got_error == expected_error, lam
            if got is not None:
                assert got.coeffs == expected.coeffs, lam
                assert all(type(c) is Fraction for c in got.coeffs.values()), lam


def test_the_integral_form_bounds_that_a_rational_theta_relies_on():
    # jack_P at a rational a/b takes b^|lam| v(a/b) for each v_mu and for
    # c_lam, so a term of degree above |lam| would be dropped without a
    # trace; and it calls every nonzero root of c_lam a pole, since the
    # coefficient n! theta^n / c_lam on m_(1^n) has one there
    for d in range(13):
        for lam in partitions_of(d):
            c_lam, v = _jack_integral(lam.parts)
            assert len(c_lam) == d + 1, lam
            assert all(len(v_mu) <= d + 1 for v_mu in v.values()), lam
            assert v[(1,) * d] == (0,) * d + (factorial(d),), lam


def test_jack_takes_no_rational_function_but_theta():
    with pytest.raises(TypeError):
        jack_P(P(2), 2 * THETA)


def test_jack_orthogonality_small():
    for d in (2, 3):
        parts = partitions_of(d)
        for i, lam in enumerate(parts):
            for mu in parts[i + 1 :]:
                val = jack_inner(jack_P(lam, THETA), jack_P(mu, THETA), THETA)
                assert val == 0


def test_jack_monic_and_dominance_triangular():
    for d in range(1, 7):
        for lam in partitions_of(d):
            coeffs = basis_convert(jack_P(lam, THETA), "m")
            assert coeffs[lam] == 1
            for mu, c in coeffs.items():
                if c:
                    assert lam.dominates(mu)


def _mn_character(lam: tuple, rho: tuple) -> int:
    """chi^lam at the class rho by the Murnaghan-Nakayama rule on beta
    numbers: removing a border strip of length r moves one bead b of the
    beta set to an empty b - r >= 0, with sign (-1) to the number of beads
    strictly between."""
    if not rho:
        return 1 if not lam else 0
    r, n = rho[0], len(lam)
    beta = {v + n - 1 - i for i, v in enumerate(lam)}
    total = 0
    for b in beta:
        if b - r >= 0 and b - r not in beta:
            rest = sorted(beta - {b} | {b - r}, reverse=True)
            mu = tuple(v - (n - 1 - i) for i, v in enumerate(rest))
            sign = (-1) ** sum(b - r < c < b for c in beta)
            total += sign * _mn_character(tuple(v for v in mu if v), rho[1:])
    return total


def _z(rho: tuple) -> int:
    out = 1
    for v in set(rho):
        m = rho.count(v)
        out *= v**m * factorial(m)
    return out


def test_jack_at_theta_1_is_the_schur_function_of_the_characters():
    # an oracle that shares nothing with the recurrence, the m -> p table or
    # the gcd: s_lam = sum over rho of chi^lam(rho) / z_rho p_rho, with the
    # characters by Murnaghan-Nakayama
    assert _mn_character((2, 1), (1, 1, 1)) == 2 and _mn_character((2, 2), (2, 2)) == 2
    for d in range(9):
        for lam in partitions_of(d):
            expected = {}
            for rho in partitions_of(d):
                chi = _mn_character(lam.parts, rho.parts)
                if chi:
                    expected[rho] = Fraction(chi, _z(rho.parts))
            got = {rho: scalar_eval(c, 1) for rho, c in jack_P(lam, THETA).coeffs.items()}
            assert {rho: c for rho, c in got.items() if c} == expected, lam


def test_jack_degree_7_orthogonal_and_triangular():
    # the defining characterisation, independent of how P_lam is computed:
    # monic, supported below lam in dominance, and pairwise orthogonal
    parts = partitions_of(7)
    jacks = [jack_P(lam, THETA) for lam in parts]
    for lam, f in zip(parts, jacks):
        coeffs = f.to_m()
        assert coeffs[lam] == 1
        assert all(lam.dominates(mu) for mu in coeffs)
    for i, f in enumerate(jacks):
        for g in jacks[i + 1 :]:
            assert jack_inner(f, g, THETA) == 0


def _pole_free_at(coeffs, theta0):
    try:
        return {mu: scalar_eval(c, theta0) for mu, c in coeffs.items()}
    except PoleError:
        return None


@pytest.mark.parametrize("theta0", [ONE, Fraction(1, 2), Fraction(2), Fraction(-1, 2)], ids=str)
def test_jack_at_a_rational_theta_is_the_generic_jack_substituted(theta0):
    for d in range(1, 7):
        for lam in partitions_of(d):
            expected = _pole_free_at(jack_m_coeffs(lam, THETA), theta0)
            try:
                got = jack_m_coeffs(lam, theta0)
            except DegenerateParameter:
                # a negative theta may be a pole: see the next test
                assert theta0 < 0
                continue
            assert got == {mu: c for mu, c in expected.items() if c}


@pytest.mark.parametrize(
    "theta0", [Fraction(v) for v in ("-1", "-2", "-1/2", "-1/3", "-2/3", "-3/2")], ids=str
)
def test_jack_is_degenerate_exactly_at_a_pole(theta0):
    for d in range(1, 7):
        for lam in partitions_of(d):
            expected = _pole_free_at(jack_m_coeffs(lam, THETA), theta0)
            if expected is None:
                with pytest.raises(DegenerateParameter):
                    jack_m_coeffs(lam, theta0)
            else:
                assert jack_m_coeffs(lam, theta0) == {mu: c for mu, c in expected.items() if c}


def test_jack_at_theta_minus_one():
    # P_(1,1) = e_2 at every theta; P_(2) = m_2 + 2 theta/(theta + 1) m_(1,1)
    # has a pole at -1
    assert jack_P(P(1, 1), Fraction(-1)) == SymFun.from_m({P(1, 1): 1})
    with pytest.raises(DegenerateParameter):
        jack_P(P(2), Fraction(-1))


def test_jack_degree_8_generic_is_fast():
    # all 22 generic P_lam of degree 8 took about half a minute when every
    # partition of the degree was orthogonalised in rational functions
    clear_jack_cache()
    start = time.perf_counter()
    jacks = [jack_P(lam, THETA) for lam in partitions_of(8)]
    elapsed = time.perf_counter() - start
    assert len(jacks) == 22
    assert elapsed < 5.0


def test_a_degenerate_parameter_is_a_usage_error():
    assert issubclass(DegenerateParameter, UsageError)
    assert issubclass(DegenerateParameter, ArithmeticError)
    assert issubclass(DegenerateParameter, ValueError)


def test_symfun_renders_itself():
    f = SymFun({P(2): Fraction(-5, 2), P(1, 1): 1, P(3): Fraction(1, 3)})
    assert f.to_text() == repr(f) == "-5/2*p[2] + p[1,1] + 1/3*p[3]"
    assert f.to_record() == {
        "basis": "p",
        "terms": [
            {"partition": "2", "coefficient": {"num": "-5", "den": "2"}},
            {"partition": "1,1", "coefficient": {"num": "1", "den": "1"}},
            {"partition": "3", "coefficient": {"num": "1", "den": "3"}},
        ],
    }
    assert SymFun().to_text() == "0" and SymFun().to_record() == {"basis": "p", "terms": []}
    assert jack_P(P(1), THETA).to_text() == "p[1]"
    assert jack_P(P(2), THETA).to_text() == "((1)/(theta + 1))*p[2] + ((theta)/(theta + 1))*p[1,1]"


def test_degenerate_parameter():
    # the degree-2 orthogonalization denominator vanishes at theta = -1
    with pytest.raises(DegenerateParameter):
        jack_P(P(2), Fraction(-1))
    with pytest.raises(DegenerateParameter):
        jack_P(P(1), 0)


def test_jack_cache_round_trip(tmp_path):
    # jack_P writes no cache entry: jack_m_coeffs fills the cache
    path = tmp_path / "jack.json"
    clear_jack_cache()
    before = jack_m_coeffs(P(2, 1), ONE)
    generic = jack_m_coeffs(P(2), THETA)
    save_jack_cache(path)
    clear_jack_cache()
    n = load_jack_cache(path)
    assert n == 2
    assert jack_m_coeffs(P(2, 1), ONE) == before
    assert jack_m_coeffs(P(2), THETA) == generic


_BAD_CACHE_FILES = {
    "truncated": '{"format": 1, "entries": [',
    "list": "[]",
    "no-theta": '{"format": 1, "entries": [{"partition": "2"}]}',
    # a wrong but well-formed first entry must not be merged when a later one fails
    "poisoned-then-broken": json.dumps({"format": 1, "entries": [
        {"partition": "2", "theta": "1", "m": [{"partition": "2", "coefficient": "7"}]},
        {"partition": "1,1", "theta": "x", "m": []},
    ]}),
    "number-coefficient": json.dumps({"format": 1, "entries": [{
        "partition": "2", "theta": "1",
        "m": [{"partition": "2", "coefficient": "1"}, {"partition": "1,1", "coefficient": 0.5}],
    }]}),
    # read one character at a time, this numerator would load as 2*theta + 1
    "string-numerator": json.dumps({"format": 1, "entries": [{
        "partition": "2", "theta": "1",
        "m": [{"partition": "2", "coefficient": "1"},
              {"partition": "1,1", "coefficient": {"num": "12", "den": ["1"]}}],
    }]}),
}


@pytest.mark.parametrize("content", _BAD_CACHE_FILES.values(), ids=_BAD_CACHE_FILES.keys())
def test_a_cache_file_that_does_not_parse_is_merged_not_at_all(tmp_path, content):
    path = tmp_path / "jack.json"
    path.write_text(content)
    clear_jack_cache()
    with pytest.raises(ValueError):
        load_jack_cache(path)
    assert jack_m_coeffs(P(2), ONE) == {P(2): 1, P(1, 1): 1}


def test_jack_cache_concurrent_reads():
    from concurrent.futures import ThreadPoolExecutor

    clear_jack_cache()
    lam = P(3, 2)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: jack_m_coeffs(lam, ONE), range(8)))
    assert all(r == results[0] for r in results)


def test_symfun_sums_duplicate_keys():
    # (2,1) and (2,1,0) name one partition, so their coefficients add up
    assert SymFun({(2, 1): 1, (2, 1, 0): 1}) == SymFun({(2, 1): 2})
    assert SymFun({(2, 1): 1, (2, 1, 0): -1}) == SymFun.zero()


def test_failed_cache_save_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "jack.json"
    jack_m_coeffs(P(2), ONE)
    save_jack_cache(path)
    before = path.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"format": 1, "entr')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError):
        save_jack_cache(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["jack.json"]


def test_symfun_algebra():
    f = SymFun.p(P(2)) * SymFun.p(P(1))
    assert f == SymFun.p(P(2, 1))
    assert SymFun.one() * SymFun.p(P(1)) == SymFun.p(P(1))
    assert (f - f) == SymFun.zero()
    assert f.degree == 3
