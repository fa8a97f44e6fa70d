"""Shared hypothesis strategies for exact scalars, partitions, and polynomials."""

from fractions import Fraction

import hypothesis.strategies as st

from superbc.exactalg import RatFunc, SparsePoly
from superbc.partitions import Partition

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)

_coeff_lists = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4)


@st.composite
def ratfuncs(draw):
    num = draw(_coeff_lists)
    den = draw(_coeff_lists.filter(lambda cs: any(cs)))
    return RatFunc([Fraction(c) for c in num], [Fraction(c) for c in den])


scalars = st.one_of(rationals, ratfuncs())


@st.composite
def partitions(draw, max_part=6, max_length=5):
    parts = draw(st.lists(st.integers(min_value=1, max_value=max_part), max_size=max_length))
    return Partition(tuple(sorted(parts, reverse=True)))


@st.composite
def sparse_polys(draw, variables=("x", "y"), max_exp=3, max_terms=5, coeffs=rationals):
    n = len(variables)
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * n)
    terms = draw(st.dictionaries(exps, coeffs, max_size=max_terms))
    return SparsePoly(variables, terms)
