import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from superbc import exactalg, interpbc
from superbc.exactalg import SparsePoly, THETA, add_terms, solve_exact
from superbc.partitions import HookParams, Partition, enumerate_hooks, partitions_of, sort_key
from superbc.interpbc import (
    GridPoint,
    VerifySpec,
    c_factor,
    constants_ledger,
    d_mu,
    derive_k,
    expansion_identity,
    grid_point,
    interpolation_J,
    k_mu,
    normalization_target,
    paper_or_top,
    shimura_image,
    verify_properties,
    weyl_vectors,
)
from superbc.partitions import NotAHook, UsageError
from superbc.superpoly import (
    a_variables,
    factorial_super_schur,
    is_even_supersymmetric,
    squared_substitution,
    super_jack,
)
from superbc.symmfunc import jack_P

from .oracles import phi_product, vanishing_system

P = Partition.of
PAIRS = [HookParams(1, 1), HookParams(2, 1), HookParams(1, 2), HookParams(2, 2)]


# -- constants ----------------------------------------------------------------


def test_c_factor_examples():
    assert c_factor(Partition(), 5, THETA, "plus") == 1
    assert c_factor(Partition(), 5, THETA, "minus") == 1
    assert c_factor(P(2, 1), 1, -1, "minus") == 3
    assert c_factor(P(1), 0, -1, "plus") == 0
    with pytest.raises(ValueError):
        c_factor(P(1), 0, -1, "pm")


def test_c_minus_is_hook_product_at_specialization():
    # C^-(1;-1) multiplies (arm + leg + 1) over the boxes
    def hooks(lam):
        lamt = lam.transpose()
        out = 1
        for i, j in lam.boxes():
            out *= lam.part(i) - j + lamt.part(j) - i + 1
        return out

    for d in range(6):
        for lam in partitions_of(d):
            assert c_factor(lam, 1, -1, "minus") == hooks(lam)


def test_d_mu_examples():
    assert d_mu(Partition(), THETA) == 1
    assert d_mu(P(1), THETA) == THETA
    for d in range(6):
        for mu in partitions_of(d):
            assert d_mu(mu, Fraction(-1)) == Fraction(-1) ** mu.size


def test_d_mu_pole():
    # C^-(-k; k) = (1 - k)(-k) for mu = (2), so k = 1 is a pole
    with pytest.raises(ZeroDivisionError):
        d_mu(P(2), Fraction(1))


def test_k_mu_examples():
    assert k_mu(Partition()) == 1
    assert k_mu(P(1)) == -1
    assert k_mu(P(2, 1)) == -3


# -- grid ----------------------------------------------------------------------


def test_weyl_vector_examples():
    rho, _ = weyl_vectors(HookParams(1, 1))
    assert rho.coords == (-1, 1)
    rho, _ = weyl_vectors(HookParams(2, 1))
    assert rho.coords == (1, -1, 1)
    rho, _ = weyl_vectors(HookParams(2, 2))
    assert rho.coords == (-1, -3, 3, 1)


def test_rho_restriction():
    for p in range(1, 4):
        for q in range(1, 4):
            rho, rho_h = weyl_vectors(HookParams(p, q))
            assert rho_h.restrict().coords == rho.coords


def test_grid_point_examples():
    hp = HookParams(1, 1)
    assert grid_point(Partition(), hp).coords == (-1, 1)
    assert grid_point(P(1), hp).coords == (1, 1)
    assert grid_point(P(1, 1), hp).coords == (1, 3)
    with pytest.raises(NotAHook):
        grid_point(P(2, 2), hp)
    # the library's own hook check is what the CLI reports with exit 2
    assert issubclass(NotAHook, UsageError)


def test_grid_point_arity_validation():
    hp = HookParams(1, 1)
    point = GridPoint(hp, "a", (1, 2))
    for build in (lambda: GridPoint(hp, "a", (1, 2, 3)), lambda: point._replace(coords=(1, 2, 3))):
        with pytest.raises(ValueError, match=re.escape("expected 2 coordinates, got 3")):
            build()
    for build in (lambda: GridPoint(hp, "c", (1, 2)), lambda: GridPoint._make((hp, "c", (1, 2)))):
        with pytest.raises(ValueError, match=re.escape("unknown space 'c'")):
            build()


def test_grid_point_coordinates_are_exact():
    hp = HookParams(1, 1)
    for coords, kind in (((0.1, 2), "float"), (("1/3", 2), "str")):
        with pytest.raises(TypeError, match=f"expected an exact scalar, got {kind}"):
            GridPoint(hp, "a", coords)


def test_grid_point_record_semantics():
    hp = HookParams(1, 1)
    point = GridPoint(hp, "a", (1, 3))
    assert point.coords == (Fraction(1), Fraction(3))
    assert repr(point) == (
        "GridPoint(hp=HookParams(p=1, q=1), space='a', coords=(Fraction(1, 1), Fraction(3, 1)))"
    )
    assert hash(point) == hash((hp, "a", (Fraction(1), Fraction(3))))
    for name in ("coords", "space", "extra"):
        with pytest.raises(AttributeError):
            setattr(point, name, ())
    twins = [copy.deepcopy(point)]
    twins += [pickle.loads(pickle.dumps(point, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(twin == point and type(twin) is GridPoint for twin in twins)


# field order is part of each record's contract: the records unpack and
# compare as plain tuples
_RECORD_FIELDS = {
    exactalg.LinearSolveOutcome: ("tag", "solution", "nullspace"),
    interpbc.InterpolationResult: (
        "mu", "hp", "poly", "mode", "measured_top_coefficient", "normalization_value",
        "degenerate_normalization", "extended_grid_used", "coefficients",
    ),
    interpbc.ShimuraImage: ("mu", "hp", "poly", "mode", "k_value", "interpolation"),
    interpbc.ExpansionEntry: ("nu", "coefficient", "hook_product", "direct", "reciprocal"),
    interpbc.ExpansionReport: ("m", "hp", "entries", "orientation"),
    interpbc.ConstantsRow: ("mu", "hp", "mode", "expansion_coefficient", "k_derived", "k_hook", "k_identity"),
    interpbc.VerifyRecord: ("prop", "p", "q", "mu", "lam", "mode", "status", "value"),
    interpbc.VerifyReport: ("records",),
}


@pytest.mark.parametrize("record", _RECORD_FIELDS, ids=lambda record: record.__name__)
def test_result_records_keep_their_tuple_contract(record):
    fields = _RECORD_FIELDS[record]
    assert record._fields == fields
    defaults = {"solution": None, "nullspace": None} if record is exactalg.LinearSolveOutcome else {}
    assert record._field_defaults == defaults
    values = tuple(f"<{name}>" for name in fields)
    rec = record(*values)
    assert rec == values and hash(rec) == hash(values)
    assert tuple(rec._asdict().items()) == tuple(zip(fields, values))
    assert repr(rec) == f"{record.__name__}(" + ", ".join(f"{f}='<{f}>'" for f in fields) + ")"
    assert type(rec._replace()) is record and rec._replace() == rec
    assert type(pickle.loads(pickle.dumps(rec))) is record
    with pytest.raises(AttributeError):
        rec.extra = 0


def test_a_solve_outcome_defaults_to_no_solution_and_no_nullspace():
    outcome = exactalg.LinearSolveOutcome("unique")
    assert outcome == ("unique", None, None)
    assert (outcome.solution, outcome.nullspace) == (None, None)


# -- interpolation ---------------------------------------------------------------


def test_interpolation_empty_partition():
    for hp in PAIRS:
        j = interpolation_J(Partition(), hp)
        assert j.mode == "paper"
        assert j.poly == SparsePoly.constant(j.poly.vars, 1)
        assert j.normalization_value == 1
        assert j.measured_top_coefficient == 1


def test_interpolation_paper_example_21():
    hp = HookParams(2, 1)
    j = interpolation_J(P(1), hp)
    expected = SparsePoly(
        ("x1", "x2", "y1"),
        {
            (0, 0, 0): Fraction(1, 4),
            (2, 0, 0): Fraction(-1, 4),
            (0, 2, 0): Fraction(-1, 4),
            (0, 0, 2): Fraction(1, 4),
        },
    )
    assert j.poly == expected
    assert j.normalization_value == -2
    assert j.poly.evaluate(grid_point(P(1), hp).coords) == -2
    assert j.measured_top_coefficient == Fraction(-1, 4)
    assert not j.degenerate_normalization
    assert not j.extended_grid_used


def test_interpolation_degenerate_11():
    hp = HookParams(1, 1)
    j = interpolation_J(P(1), hp)
    assert j.mode == "top"
    assert j.poly == SparsePoly(("x1", "y1"), {(2, 0): Fraction(-1, 4), (0, 2): Fraction(1, 4)})
    assert j.degenerate_normalization
    assert j.normalization_value == 0


def test_the_mode_is_the_degenerate_normalization_flag():
    labels = set()
    for hp in PAIRS:
        for mu in enumerate_hooks(hp, 4, "upto"):
            j = interpolation_J(mu, hp)
            assert (j.mode == "top") == j.degenerate_normalization, (hp, mu)
            labels.add(j.mode)
    assert labels == {"paper", "top"}


def test_a_degenerate_mu_costs_one_cache_miss():
    # paper_or_top passes through, so J is built once per mu, degenerate or
    # not: 47 hooks, 13 of them degenerate
    interpolation_J.cache_clear()
    for _ in range(3):
        for hp in PAIRS:
            for mu in enumerate_hooks(hp, 4, "upto"):
                paper_or_top(mu, hp)
    assert interpolation_J.cache_info().misses == 47


def test_normalization_target_transpose_convention():
    # the C^+ factor rides on the transposed index; first asymmetric case
    hp = HookParams(2, 1)
    assert normalization_target(P(1, 1), hp) == 0
    assert normalization_target(P(2), hp) == 24
    j = interpolation_J(P(2), hp)
    assert j.normalization_value == 24


def test_extended_grid_used():
    # sizes >= 3 at (2,1) leave the initial window underdetermined
    j = interpolation_J(P(3), HookParams(2, 1))
    assert j.extended_grid_used
    j = interpolation_J(P(1), HookParams(2, 1))
    assert not j.extended_grid_used


def _first_unique(system, mu, hp, cap=5):
    # The vanishing construction J_mu had before the closed form: widen the
    # window from 0 until the system pins J, at most `cap` extra sizes.
    from superbc.exactalg import UNIQUE

    for window in range(cap + 1):
        unknowns, matrix, rhs = system(mu, hp, window)
        outcome = solve_exact(matrix, rhs, ncols=len(unknowns))
        if outcome.tag == UNIQUE:
            return window, dict(zip(unknowns, outcome.solution))
    raise AssertionError(f"no window up to {cap} pins J for mu = {mu}")


def test_one_more_window_step_keeps_the_coefficients():
    from superbc.exactalg import UNIQUE

    for hp in (HookParams(2, 1), HookParams(2, 2), HookParams(3, 3)):
        for mu in enumerate_hooks(hp, 4, "upto"):
            j = interpolation_J(mu, hp)
            window, solution = _first_unique(vanishing_system, mu, hp)
            assert j.extended_grid_used == (window > 0)
            assert solution.items() <= dict(j.coefficients).items()
            unknowns, matrix, rhs = vanishing_system(mu, hp, window + 1)
            wider = solve_exact(matrix, rhs, ncols=len(unknowns))
            assert wider.tag == UNIQUE and dict(zip(unknowns, wider.solution)) == solution, (hp, mu)


def test_closed_form_j_is_the_windowed_vanishing_solve():
    from superbc.interpbc import _sp_squared

    def combination(pairs, hp):
        terms = add_terms((e, v * c) for nu, c in pairs for e, v in _sp_squared(nu, hp).terms.items())
        return SparsePoly(a_variables(hp), terms)

    checked = 0
    for hp, max_size in [(hp, 5) for hp in PAIRS] + [(HookParams(3, 3), 4)]:
        for mu in enumerate_hooks(hp, max_size, "upto"):
            j = interpolation_J(mu, hp)
            window, solution = _first_unique(vanishing_system, mu, hp)
            solution[mu] = Fraction(-1, 4) ** mu.size
            assert j.poly == combination(solution.items(), hp), (hp, mu)
            assert j.poly == combination(j.coefficients, hp), (hp, mu)
            assert j.extended_grid_used == (window > 0), (hp, mu)
            checked += 1
    assert checked == 85


def test_extended_grid_used_is_the_window_0_solve():
    # every (p, q) <= (3, 3), |mu| <= 6 where p + q <= 4 and <= 5 elsewhere:
    # the flag is the tag of the Fraction solve of the window-0 system, and
    # a unique solution is the closed form's coefficients
    from superbc.exactalg import UNIQUE

    checked = 0
    for hp in [HookParams(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]:
        for mu in enumerate_hooks(hp, 6 if hp.p + hp.q <= 4 else 5, "upto"):
            j = interpolation_J(mu, hp)
            unknowns, matrix, rhs = vanishing_system(mu, hp, 0)
            outcome = solve_exact(matrix, rhs, ncols=len(unknowns))
            assert j.extended_grid_used == (outcome.tag != UNIQUE), (hp, mu)
            if outcome.tag == UNIQUE:
                coefficients = dict(j.coefficients)
                assert list(outcome.solution) == [coefficients[nu] for nu in unknowns], (hp, mu)
            checked += 1
    assert checked == 227


def test_a_closed_form_the_checks_reject_is_an_internal_fault(monkeypatch):
    import superbc.interpbc
    from superbc.exactalg import add_terms
    from superbc.interpbc import InconsistentSystem, _lead_order

    hp = HookParams(2, 1)
    genuine = superbc.interpbc.factorial_super_schur
    other = next(terms for nu, _, _, terms in _lead_order(hp, 2)[1] if nu == P(1, 1))
    faults = [
        # one more constant term: in the squared span with the right top
        # degree, but nonzero at grid(∅)
        (lambda mu, hp_: add_terms([((0, 0, 0), 1)], dict(genuine(mu, hp_))), "does not vanish on the grid"),
        # twice the closed form: b_mu = 2
        (lambda mu, hp_: {e: 2 * c for e, c in genuine(mu, hp_).items()}, "top degree is not SP_mu"),
        # another hook of size |mu| in the top degree
        (lambda mu, hp_: add_terms(other.items(), dict(genuine(mu, hp_))), "top degree is not SP_mu"),
        # a term off the squared basis: x1^2 alone is not supersymmetric
        (lambda mu, hp_: {(2, 0, 0): 1}, "off the squared basis"),
    ]
    interpolation_J.cache_clear()
    try:
        for closed_form, message in faults:
            monkeypatch.setattr(superbc.interpbc, "factorial_super_schur", closed_form)
            with pytest.raises(InconsistentSystem, match=message):
                interpolation_J(P(2), hp)
            monkeypatch.undo()
    finally:
        interpolation_J.cache_clear()


def _top_degree_fault(fault, genuine, mu, hp):
    """The closed form of mu with its top degree broken in one way: a term
    off the dominant vectors (x-part or y-part not non-increasing) gets
    another coefficient or goes missing, or a term above the top degree
    comes in."""
    form = dict(genuine(mu, hp))
    top = [e for e in form if sum(e) == 2 * mu.size]
    victim = next(
        e for e in top
        if list(e[: hp.p]) != sorted(e[: hp.p], reverse=True) or list(e[hp.p :]) != sorted(e[hp.p :], reverse=True)
    )
    if fault == "non-dominant-coefficient":
        form[victim] += 1
    elif fault == "missing-non-dominant-term":
        del form[victim]
    else:
        form[(2 * mu.size + 2,) + (0,) * (hp.p + hp.q - 1)] = 1
    return form


@pytest.mark.parametrize("fault", ["non-dominant-coefficient", "missing-non-dominant-term", "term-above-the-top"])
def test_a_top_degree_off_sp_mu_is_an_internal_fault(monkeypatch, capsys, fault):
    # the top degree is read on SP_mu's dominant terms, the coefficients
    # off them and the number of terms included: each fault keeps the
    # dominant terms of the top degree as they are
    import superbc.interpbc
    from superbc.cli import run
    from superbc.interpbc import InconsistentSystem

    hp, mu = HookParams(2, 2), P(2, 1)
    genuine = superbc.interpbc.factorial_super_schur
    monkeypatch.setattr(
        superbc.interpbc, "factorial_super_schur",
        lambda mu_, hp_: _top_degree_fault(fault, genuine, mu_, hp_) if (mu_, hp_) == (mu, hp) else genuine(mu_, hp_),
    )
    interpolation_J.cache_clear()
    try:
        with pytest.raises(InconsistentSystem, match="top degree is not SP_mu"):
            interpolation_J(mu, hp)
        code = run(["interp", "--mu", "2,1", "--p", "2", "--q", "2"])
    finally:
        interpolation_J.cache_clear()
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("internal error: the closed form's top degree is not SP_mu")


def test_a_j_builds_the_squared_basis_only_below_its_size():
    # the top degree is checked on SP_mu's dominant terms, so a J of size d
    # reads the squared basis of the sizes below d alone
    from superbc.interpbc import _lead_order

    for hp, mu in [(HookParams(1, 1), P(4)), (HookParams(2, 2), P(3, 2)), (HookParams(3, 3), P(1, 1, 1, 1, 1))]:
        d = mu.size
        interpolation_J.cache_clear()
        _lead_order.cache_clear()
        interpolation_J(mu, hp)
        assert _lead_order.cache_info().misses == d, (hp, mu)
        for size in range(d):
            _lead_order(hp, size)
        assert _lead_order.cache_info().misses == d, (hp, mu)
    interpolation_J.cache_clear()


def _paper_system(mu, hp, window):
    # Reference system that imposes the normalization instead of checking it:
    # mu's own coefficient is an unknown, and a last row sets the value at
    # grid(mu) to the target in place of a fixed top coefficient.  Its rows
    # come from SparsePoly.evaluate at every grid point, not from the grid
    # kernel, and repeat whenever two points share an orbit.
    from superbc.interpbc import _sp_squared

    def row(lam):
        return [_sp_squared(nu, hp).evaluate(grid_point(lam, hp).coords) for nu in unknowns]

    unknowns = [nu for nu in enumerate_hooks(hp, mu.size, "upto") if nu.size < mu.size]
    unknowns.append(mu)
    matrix = [row(lam) for lam in enumerate_hooks(hp, mu.size + window, "upto") if not lam.contains(mu)]
    rhs = [Fraction(0)] * len(matrix)
    matrix.append(row(mu))
    rhs.append(normalization_target(mu, hp))
    return unknowns, matrix, rhs


def test_imposing_the_normalization_gives_the_same_j():
    checked = 0
    for hp, max_size in [(hp, 5) for hp in PAIRS] + [(HookParams(3, 3), 4)]:
        for mu in enumerate_hooks(hp, max_size, "upto"):
            if not normalization_target(mu, hp):
                continue
            j = interpolation_J(mu, hp)
            window, solution = _first_unique(_paper_system, mu, hp, cap=3)
            assert window == _first_unique(vanishing_system, mu, hp, cap=3)[0], (hp, mu)
            assert j.extended_grid_used == (window > 0)
            expected = {nu: solution.get(nu, Fraction(0)) for nu, _ in j.coefficients}
            assert dict(j.coefficients) == expected, (hp, mu)
            checked += 1
    assert checked == 59


def test_duality_swaps_the_two_families():
    # Sergeev-Veselov duality, an oracle across (p, q) that no single
    # construction checks: J_mu^(p,q)(x; y) = (-1)^|mu| J_mu'^(q,p)(y; x),
    # while h_0 goes to 1 - h_0, so the y-nodes of one side are the x-nodes
    # of the other.  In the squared basis SP_nu^(p,q)(x; y) is
    # (-1)^|nu| SP_nu'^(q,p)(y; x), so b_nu = (-1)^(|mu| + |nu|) b'_nu'.
    checked = 0
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            hp, dual = HookParams(p, q), HookParams(q, p)
            for d in range(5 if max(p, q) == 3 else 6):
                for mu in enumerate_hooks(hp, d):
                    # the closed forms, (-4)^|mu| J, first: J's own grid
                    # check would refuse a wrong node before the comparison;
                    # dual exponents are (y1..yp, x1..xq) in this side's names
                    closed = factorial_super_schur(mu.transpose(), dual)
                    swapped = {e[q:] + e[:q]: (-1) ** d * c for e, c in closed.items()}
                    assert swapped == factorial_super_schur(mu, hp), (mu, hp)
                    J, Jd = interpolation_J(mu, hp), interpolation_J(mu.transpose(), dual)
                    swapped = {e[q:] + e[:q]: (-1) ** d * c for e, c in Jd.poly.terms.items()}
                    assert swapped == J.poly.terms, (mu, hp)
                    dual_b = {nu.transpose(): (-1) ** (d + nu.size) * c for nu, c in Jd.coefficients}
                    assert dual_b == dict(J.coefficients), (mu, hp)
                    checked += 1
    assert checked == 133


def _stable_restriction(terms, hp):
    """x_p^2 = y_q^2 = t in a term map with even exponents: the map of the
    terms free of t in the other variables, and whether every power of t
    cancels."""
    p = hp.p
    grouped = add_terms(((e[: p - 1] + e[p:-1], e[p - 1] + e[-1]), c) for e, c in terms.items())
    return {rest: c for (rest, power), c in grouped.items() if not power}, all(not power for _, power in grouped)


def test_stability_drops_one_variable_of_each_family():
    # Sergeev-Veselov stability, an oracle across (p, q): x_p^2 = y_q^2 = t
    # takes J_mu^(p,q) to J_mu^(p-1,q-1) when mu is a (p-1, q-1)-hook and
    # to 0 otherwise, whatever t.  h_0 does not change along the step, but
    # the y-nodes do, so the two sides are not one sum relabelled.  SP_nu
    # restricts the same way, so b_nu agrees on the hooks both sides share.
    checked = 0
    for p, q in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        hp, low = HookParams(p, q), HookParams(p - 1, q - 1)
        for mu in enumerate_hooks(hp, 5, "upto"):
            stable = mu.is_hook(low)
            # the closed forms, (-4)^|mu| J, first: J's own grid check
            # would refuse a wrong node before the comparison
            closed, t_free = _stable_restriction(factorial_super_schur(mu, hp), hp)
            assert t_free and closed == (factorial_super_schur(mu, low) if stable else {}), (mu, hp)
            J = interpolation_J(mu, hp)
            restricted, t_free = _stable_restriction(J.poly.terms, hp)
            assert t_free and restricted == (interpolation_J(mu, low).poly.terms if stable else {}), (mu, hp)
            b = dict(J.coefficients)
            low_b = dict(interpolation_J(mu, low).coefficients) if stable else {}
            shared = enumerate_hooks(low, mu.size, "upto")
            assert [b[nu] for nu in shared] == [low_b.get(nu, 0) for nu in shared], (mu, hp)
            checked += 1
    assert checked == 76


def test_grid_kernel_matches_evaluate():
    # the expected values come from the theta = 1 Jack expansion through full
    # power-sum products, not from _sp_squared, which shares the kernel's
    # branching rule
    from superbc.interpbc import _basis_values, _grid_orbit

    for hp in PAIRS + [HookParams(3, 3)]:
        nus = enumerate_hooks(hp, 4, "upto")
        basis = [squared_substitution(phi_product(jack_P(nu, 1), hp, 1), hp) for nu in nus]
        for lam in enumerate_hooks(hp, 6, "upto"):
            point = grid_point(lam, hp).coords
            expected = [poly.evaluate(point) for poly in basis]
            assert _basis_values(nus, _grid_orbit(lam, hp)) == expected, (hp, lam)


def test_grid_orbit_is_an_invariant_of_the_squared_basis():
    from superbc.interpbc import _grid_orbit, _sp_squared

    collisions = 0
    for hp in PAIRS + [HookParams(3, 3)]:
        first = {}
        for lam in enumerate_hooks(hp, 6, "upto"):
            first.setdefault(_grid_orbit(lam, hp), lam)
        for lam in enumerate_hooks(hp, 6, "upto"):
            twin = first[_grid_orbit(lam, hp)]
            if twin == lam:
                continue
            collisions += 1
            for nu in enumerate_hooks(hp, 4, "upto"):
                poly = _sp_squared(nu, hp)
                assert poly.evaluate(grid_point(lam, hp).coords) == poly.evaluate(
                    grid_point(twin, hp).coords
                ), (hp, nu, lam, twin)
    assert collisions > 0


def test_vanishing_system_has_no_repeated_rows():
    for hp in PAIRS + [HookParams(3, 3)]:
        for mu in enumerate_hooks(hp, 4, "upto"):
            for window in range(3):
                unknowns, matrix, rhs = vanishing_system(mu, hp, window)
                rows = [tuple(row) + (b,) for row, b in zip(matrix, rhs)]
                assert len(set(rows)) == len(rows), (hp, mu, window)


def test_window_cap_pins_j7_at_32():
    # a vanishing solve pins J_(7) at (3, 2) only with five extra window sizes
    hp, mu = HookParams(3, 2), P(7)
    j = interpolation_J(mu, hp)
    assert j.mode in ("paper", "top") and j.extended_grid_used
    for lam in enumerate_hooks(hp, mu.size + 5, "upto"):
        if not lam.contains(mu):
            assert j.poly.evaluate(grid_point(lam, hp).coords) == 0, lam


def test_vanishing_with_window():
    for hp in PAIRS[:2]:
        for mu in enumerate_hooks(hp, 3, "upto"):
            j = interpolation_J(mu, hp)
            for lam in enumerate_hooks(hp, mu.size + 2, "upto"):
                if lam.contains(mu):
                    continue
                assert j.poly.evaluate(grid_point(lam, hp).coords) == 0


def test_top_degree_shape():
    for hp in PAIRS:
        for mu in enumerate_hooks(hp, 3, "upto"):
            j = interpolation_J(mu, hp)
            t = j.measured_top_coefficient
            assert t != 0
            from superbc.interpbc import _sp_squared

            assert j.poly.homogeneous_part(2 * mu.size) == _sp_squared(mu, hp) * t
            assert j.poly.degree == 2 * mu.size


def test_evaluation_matrix_upper_triangular():
    for hp in PAIRS:
        hooks = enumerate_hooks(hp, 3, "upto")
        assert hooks == sorted(hooks, key=sort_key)
        for i, mu in enumerate(hooks):
            j = interpolation_J(mu, hp)
            for lam in hooks[:i]:
                if not lam.contains(mu):
                    assert j.poly.evaluate(grid_point(lam, hp).coords) == 0


def test_w0_invariance_of_values():
    hp = HookParams(2, 2)
    j = interpolation_J(P(2, 1), hp)
    rng = random.Random(412)
    for _ in range(20):
        xs = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(2)]
        ys = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(2)]
        base = j.poly.evaluate(tuple(xs + ys))
        sx = [xs[1], xs[0]]
        sy = [ys[1], ys[0]]
        signs = [Fraction(rng.choice((-1, 1))) for _ in range(4)]
        flipped = [signs[0] * sx[0], signs[1] * sx[1], signs[2] * sy[0], signs[3] * sy[1]]
        assert j.poly.evaluate(tuple(flipped)) == base


def test_even_supersymmetry_of_j():
    for hp in PAIRS:
        for mu in enumerate_hooks(hp, 3, "upto"):
            assert is_even_supersymmetric(interpolation_J(mu, hp).poly, hp)


def test_diagonal_values_report():
    # the measured diagonal J_mu(grid(mu)) is the transposed-index target; the
    # plain-index C^+ product differs at (2) for (p, q) = (2, 1)
    hp = HookParams(2, 1)
    by_mu = {str(mu): interpolation_J(mu, hp) for mu in enumerate_hooks(hp, 2, "upto")}
    assert by_mu["1,1"].normalization_value == 0 and by_mu["1,1"].degenerate_normalization
    assert by_mu["2"].normalization_value == 24
    assert c_factor(P(2), 1, -1, "minus") * c_factor(P(2), 2 * hp.q - 2 * hp.p, -1, "plus") == 0
    for j in by_mu.values():
        assert j.normalization_value == normalization_target(j.mu, hp)


# -- shimura image ----------------------------------------------------------------


def test_shimura_image_examples():
    img = shimura_image(Partition(), HookParams(2, 1))
    assert img.poly == SparsePoly.constant(("x1", "x2", "y1"), 1)
    assert img.k_value == 1

    hp = HookParams(2, 1)
    img = shimura_image(P(1), hp)
    assert img.mode == "paper"
    assert img.poly == interpolation_J(P(1), hp).poly * Fraction(-1)
    # value at the point of mu: k_mu times the normalization target
    got = img.poly.evaluate(grid_point(P(1), hp).coords)
    assert got == k_mu(P(1)) * normalization_target(P(1), hp) == 2


def test_shimura_image_fallback_mode():
    img = shimura_image(P(1), HookParams(1, 1))
    assert img.mode == "top"
    assert img.interpolation.degenerate_normalization


# -- expansion and constants -------------------------------------------------------


def test_expansion_examples():
    rep = expansion_identity(0, HookParams(1, 1))
    assert rep.orientation == "both"
    assert rep.entries[0].coefficient == 1

    rep = expansion_identity(1, HookParams(1, 1))
    assert rep.entries[0].coefficient == 1 and rep.orientation == "both"

    rep = expansion_identity(2, HookParams(1, 1))
    assert [str(en.nu) for en in rep.entries] == ["2", "1,1"]
    assert all(en.coefficient == Fraction(1, 2) for en in rep.entries)
    assert all(en.hook_product == 2 for en in rep.entries)
    assert rep.orientation == "reciprocal"


def test_expansion_reconstructs_lhs():
    from math import factorial

    from superbc.interpbc import _sp_squared
    from superbc.superpoly import power_sum

    for hp in PAIRS:
        for m in range(4):
            rep = expansion_identity(m, hp)
            lhs = power_sum(2, hp) ** m * Fraction(1, factorial(m))
            rhs = SparsePoly.zero(lhs.vars)
            for en in rep.entries:
                rhs = rhs + _sp_squared(en.nu, hp) * en.coefficient
            assert lhs == rhs


def test_power_of_squares_is_the_polynomial_power():
    from superbc.interpbc import _power_of_squares
    from superbc.superpoly import power_sum

    for p in (1, 2, 3):
        for q in (1, 2, 3):
            hp = HookParams(p, q)
            for m in range(6):
                power = power_sum(2, hp) ** m
                assert _power_of_squares(m, hp) == power.terms, (hp, m)
                assert all(type(c) is int for c in _power_of_squares(m, hp).values())


def _expansion_by_solve(m, hp):
    """Reference: the size-m squared-basis coefficients of the power
    (1/m!) p_2^m by one exact solve over all monomials, unique or None."""
    from math import factorial

    from superbc.exactalg import UNIQUE
    from superbc.interpbc import _sp_squared
    from superbc.superpoly import power_sum

    lhs = power_sum(2, hp) ** m * Fraction(1, factorial(m))
    polys = [_sp_squared(nu, hp) for nu in enumerate_hooks(hp, m, "exact")]
    rows = sorted(set(lhs.terms).union(*(poly.terms for poly in polys)))
    matrix = [[poly.terms.get(e, Fraction(0)) for poly in polys] for e in rows]
    rhs = [lhs.terms.get(e, Fraction(0)) for e in rows]
    outcome = solve_exact(matrix, rhs, ncols=len(polys))
    return outcome.solution if outcome.tag == UNIQUE else None


def test_expansion_back_substitution_is_the_exact_solve():
    cases = [(HookParams(p, q), m) for p in (1, 2, 3) for q in (1, 2, 3) for m in range(5)]
    cases.append((HookParams(3, 3), 5))
    for hp, m in cases:
        rep = expansion_identity(m, hp)
        assert [en.nu for en in rep.entries] == enumerate_hooks(hp, m, "exact")
        assert tuple(en.coefficient for en in rep.entries) == _expansion_by_solve(m, hp), (hp, m)


@pytest.mark.parametrize("fault", ["earlier-lead-term", "lead-coefficient-2", "constant-term", "half-integer-term"])
def test_a_squared_basis_off_its_leads_is_an_internal_fault(monkeypatch, capsys, fault):
    import superbc.interpbc
    from superbc.cli import run
    from superbc.interpbc import InconsistentSystem, _lead_order

    hp, m = HookParams(2, 1), 3
    _, order = _lead_order(hp, m)
    (_, earlier_lead, _, _), (victim, victim_lead, _, victim_terms) = order[:2]
    assert victim.size == m and earlier_lead not in victim_terms
    other_term = next(e for e in victim_terms if e != victim_lead)
    # the victim gains a term on the lead of the hook before it, its own
    # lead coefficient becomes 2, it gains a term of degree 0, the lead of
    # the empty hook, or a coefficient that is not an integer; the basis is
    # SP_nu(x^2, y^2), so each exponent of the super Jack polynomial is half
    extra = {
        "earlier-lead-term": {earlier_lead: Fraction(1)},
        "lead-coefficient-2": {victim_lead: Fraction(2)},
        "constant-term": {(0, 0, 0): Fraction(1)},
        "half-integer-term": {other_term: Fraction(1, 2)},
    }[fault]
    extra = {tuple(e // 2 for e in exps): c for exps, c in extra.items()}

    def faulty_super_jack(nu, hp_, theta):
        poly = super_jack(nu, hp_, theta)
        if (nu, hp_) == (victim, hp):
            return SparsePoly(poly.vars, {**poly.terms, **extra})
        return poly

    monkeypatch.setattr(superbc.interpbc, "super_jack", faulty_super_jack)
    expansion_identity.cache_clear()
    _lead_order.cache_clear()
    try:
        with pytest.raises(InconsistentSystem, match="not triangular"):
            expansion_identity(m, hp)
        code = run(["expand", "--size", str(m), "--p", str(hp.p), "--q", str(hp.q)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("internal error: the squared basis is not triangular")
    finally:
        monkeypatch.undo()
        expansion_identity.cache_clear()
        _lead_order.cache_clear()


def test_derive_k_examples():
    assert derive_k(Partition(), HookParams(1, 1)) == 1
    assert derive_k(P(1), HookParams(2, 1)) == -2
    assert derive_k(P(1), HookParams(1, 2)) == -2
    with pytest.raises(NotAHook):
        derive_k(P(2, 2), HookParams(1, 1))


def test_derive_k_is_the_quotient_by_the_measured_top_coefficient():
    # derive_k builds no J; the quotient it stands for reads J's top coefficient
    for hp in PAIRS:
        for mu in enumerate_hooks(hp, 4, "upto"):
            e = next(en.coefficient for en in expansion_identity(mu.size, hp).entries if en.nu == mu)
            top = interpolation_J(mu, hp).measured_top_coefficient
            assert derive_k(mu, hp) == Fraction(1, 2) ** mu.size * e / top


def test_expansion_and_ledger_identities_at_all_nine_pairs():
    # e_nu H(nu) = 1, H the hook product C^-(1;-1), and k~ k_hook = 2^{|mu|},
    # on every hook of size <= 6 (<= 5 at max(p, q) = 3)
    rows = 0
    for p in range(1, 4):
        for q in range(1, 4):
            hp = HookParams(p, q)
            max_size = 5 if max(p, q) == 3 else 6
            for m in range(max_size + 1):
                for en in expansion_identity(m, hp).entries:
                    assert en.coefficient * c_factor(en.nu, 1, -1, "minus") == 1, (hp, en)
            for row in constants_ledger(hp, max_size):
                assert row.k_derived * row.k_hook == 2 ** row.mu.size and row.k_identity, row
                rows += 1
    assert rows == 205


def test_constants_ledger_consistency():
    # The degree-2|mu| part of k~ J_mu is 2^{-|mu|} e_mu SP_mu(x^2, y^2): the
    # ledger's k~ and e_mu must agree with the assembled polynomial J_mu.
    from superbc.interpbc import _sp_squared

    for hp in PAIRS[:2]:
        for row in constants_ledger(hp, 2):
            j = interpolation_J(row.mu, hp).poly
            top = (j * row.k_derived).homogeneous_part(2 * row.mu.size)
            scale = Fraction(1, 2) ** row.mu.size * row.expansion_coefficient
            assert top == _sp_squared(row.mu, hp) * scale


# -- verification suites ------------------------------------------------------------


def test_verify_properties_statuses():
    rep = verify_properties(VerifySpec("vanishing", HookParams(1, 1), 2, 2))
    assert rep.status == "degenerate" and rep.exit_code == 3
    assert all(r.status != "fail" for r in rep.records)

    rep = verify_properties(VerifySpec("normalization", HookParams(2, 1), 1, 2))
    assert rep.status == "pass" and rep.exit_code == 0

    rep = verify_properties(VerifySpec("res-eval", HookParams(1, 2), 2, 2))
    assert rep.status == "pass"

    rep = verify_properties(VerifySpec("expansion", HookParams(2, 2), 3, 2))
    assert rep.status == "pass"
    orientations = {r.mode for r in rep.records if r.mu is None and r.lam is None}
    assert orientations <= {"both", "reciprocal"}


def test_verify_all_deterministic():
    spec = VerifySpec("all", HookParams(1, 1), 2, 2)
    a = verify_properties(spec)
    b = verify_properties(spec)
    assert a.record() == b.record()
    assert a.text_lines() == b.text_lines()


def test_verify_spec_bounds():
    spec = VerifySpec("vanishing", HookParams(1, 1), 2, 2)
    for build in (lambda: VerifySpec("vanishing", HookParams(1, 1), 9, 2), lambda: spec._replace(max_size=9)):
        with pytest.raises(ValueError, match=re.escape("bounds exceed desk scale (max_size <= 6, window <= 4)")):
            build()
    with pytest.raises(ValueError, match=re.escape("unknown property 'nope'")):
        VerifySpec("nope", HookParams(1, 1), 2, 2)
    with pytest.raises(ValueError, match=re.escape("verification suites are desk scale: p, q <= 3")):
        VerifySpec("vanishing", HookParams(4, 1), 2, 2)
