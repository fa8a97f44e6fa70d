import json
import os
import time
from fractions import Fraction

import pytest

from superbc.exactalg import PoleError, SparsePoly, THETA, scalar_eval
from superbc.partitions import Partition, partitions_of
from superbc.symmfunc import (
    DegenerateParameter,
    SymFun,
    _m_to_p_table,
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


def test_m_to_p_table_inverts_the_p_to_m_matrix():
    # sum over rho of [p_rho] m_lam * [m_nu] p_rho is the identity
    for d in range(11):
        table = _m_to_p_table(d)
        assert list(table) == list(partitions_of(d))
        for lam, row in table.items():
            product: dict = {}
            for rho, t in row.items():
                for nu, c in _p_to_m_expansion(rho.parts).items():
                    product[nu] = product.get(nu, 0) + t * c
            assert {nu: c for nu, c in product.items() if c} == {lam: 1}


def test_m_to_p_table_is_built_by_back_substitution():
    # one exact solve per partition took about 3.4 s at degree 12 (77
    # partitions); back-substitution in dominance order takes a fraction
    _m_to_p_table.cache_clear()
    _p_to_m_expansion.cache_clear()
    start = time.perf_counter()
    table = _m_to_p_table(12)
    elapsed = time.perf_counter() - start
    assert len(table) == 77
    assert elapsed < 2.0


def test_basis_convert_degree_bound():
    with pytest.raises(ValueError):
        basis_convert(SymFun.p(P(3)), "m", degree_bound=2)


def test_jack_inner_examples():
    p1 = SymFun.p(P(1))
    assert jack_inner(p1, p1, THETA) == 1 / THETA
    assert jack_inner(SymFun.p(P(2)), SymFun.p(P(1, 1)), THETA) == 0
    assert jack_inner(p1, p1, Fraction(2)) == Fraction(1, 2)


def test_jack_examples():
    assert jack_P(P(1), THETA) == SymFun.p(P(1))
    coeffs = basis_convert(jack_P(P(2), THETA), "m")
    assert coeffs == {P(2): 1, P(1, 1): 2 * THETA / (THETA + 1)}


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


def test_degenerate_parameter():
    # the degree-2 orthogonalization denominator vanishes at theta = -1
    with pytest.raises(DegenerateParameter):
        jack_P(P(2), Fraction(-1))
    with pytest.raises(DegenerateParameter):
        jack_P(P(1), 0)


def test_jack_cache_round_trip(tmp_path):
    path = tmp_path / "jack.json"
    before = basis_convert(jack_P(P(2, 1), ONE), "m")
    generic = basis_convert(jack_P(P(2), THETA), "m")
    save_jack_cache(path)
    clear_jack_cache()
    n = load_jack_cache(path)
    assert n > 0
    assert basis_convert(jack_P(P(2, 1), ONE), "m") == before
    assert basis_convert(jack_P(P(2), THETA), "m") == generic


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
        results = list(pool.map(lambda _: jack_P(lam, ONE), range(8)))
    assert all(r == results[0] for r in results)


def test_symfun_sums_duplicate_keys():
    # (2,1) and (2,1,0) name one partition, so their coefficients add up
    assert SymFun({(2, 1): 1, (2, 1, 0): 1}) == SymFun({(2, 1): 2})
    assert SymFun({(2, 1): 1, (2, 1, 0): -1}) == SymFun.zero()


def test_failed_cache_save_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "jack.json"
    jack_P(P(2), ONE)
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
