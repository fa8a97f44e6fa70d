import json
import os
from fractions import Fraction

import pytest

from superbc.exactalg import SparsePoly, THETA
from superbc.partitions import Partition, partitions_of
from superbc.symmfunc import (
    DegenerateParameter,
    SymFun,
    basis_convert,
    clear_jack_cache,
    jack_P,
    jack_inner,
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
    assert f.homogeneous_component(3) == f
