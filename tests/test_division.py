"""Division by the Weyl denominator, one positive root at a time.

The factor-wise quotient is held equal to generic long division by the
denominator alternant, non-divisible numerators must be refused, and the
larger characters it makes affordable are checked against the Freudenthal
recursion and the Weyl dimension formula.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from oracles import exact_div
from weylchar import characters, tables
from weylchar.algebra import WeightVec, build_algebra
from weylchar.characters import character, divide_by_denominator, multiplicities
from weylchar.errors import InputError, IntegrityError, NotDivisibleError
from weylchar.laurent import LaurentPoly, divide_by_binomials
from weylchar.weylgroup import freudenthal_multiplicities, weyl_dimension


def algebra(name):
    return build_algebra(name[0], int(name[1:]))


def oracle_cases():
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4"):
        for coords in itertools.product(range(2), repeat=algebra(name).rank):
            yield name, coords
    for i in range(5):
        yield "D5", tuple(1 if k == i else 0 for k in range(5))


def test_matches_long_division_by_the_denominator_alternant():
    checked = 0
    for name, coords in oracle_cases():
        a = algebra(name)
        table = tables.shared_table(a)
        num = tables.alternant(table, WeightVec.weight(coords))
        den = tables.alternant(table, WeightVec.weight((0,) * a.rank))
        assert divide_by_denominator(a, num).terms == exact_div(num, den).terms
        checked += 1
    assert checked == 2 + 4 + 4 + 4 + 8 + 8 + 8 + 16 + 5


@pytest.mark.parametrize("name, coords", [
    ("A1", (3,)), ("G2", (1, 0)), ("B3", (0, 1, 1)), ("D4", (0, 0, 1, 1)),
])
def test_non_divisible_numerator_is_refused(name, coords):
    a = algebra(name)
    num = tables.alternant(tables.shared_table(a), WeightVec.weight(coords))
    for e in sorted(num.terms)[:: max(1, len(num) // 4)]:
        for delta in (1, -1, 2):
            terms = dict(num.terms)
            terms[e] += delta
            with pytest.raises(NotDivisibleError) as info:
                divide_by_denominator(a, LaurentPoly(a.rank, terms))
            assert isinstance(info.value, IntegrityError)


def test_character_builds_only_the_numerator(monkeypatch):
    a = algebra("B3")
    built = []
    real = tables.alternant

    def counting(table, weight):
        built.append(tuple(weight.coords))
        return real(table, weight)

    monkeypatch.setattr(tables, "alternant", counting)
    characters._character_cached.cache_clear()
    character(a, (0, 1, 1))
    assert built == [(0, 1, 1)]


def test_f4_and_d5_against_recursion_and_dimension():
    for name in ("F4", "D5"):
        a = algebra(name)
        weights = [tuple(1 if k == i else 0 for k in range(a.rank))
                   for i in range(a.rank)]
        weights.append((1,) * a.rank)
        for coords in weights:
            w = WeightVec.weight(coords)
            res = character(a, w)
            assert multiplicities(res) == freudenthal_multiplicities(a, w)
            assert res.dimension == weyl_dimension(a, w)


@st.composite
def poly_and_steps(draw):
    r = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-3, 3)] * r)
    terms = draw(st.dictionaries(row, st.integers(-5, 5), max_size=5))
    steps = draw(st.lists(row.filter(any), max_size=4))
    return LaurentPoly(r, terms), steps


@given(poly_and_steps())
def test_binomial_division_round_trip(ps):
    p, steps = ps
    product = p
    for d in steps:
        product = product * LaurentPoly(p.rank, {d: 1, (0,) * p.rank: -1})
    assert divide_by_binomials(product, steps) == p
    assert divide_by_binomials(product, steps[::-1]) == p


def test_binomial_division_input_errors():
    p = LaurentPoly(2, {(1, 0): 1})
    with pytest.raises(InputError):
        divide_by_binomials(p, [(0, 0)])
    with pytest.raises(InputError):
        divide_by_binomials(p, [(1,)])
    with pytest.raises(NotDivisibleError):
        divide_by_binomials(p, [(1, 0)])
    assert divide_by_binomials(LaurentPoly.zero(2), [(1, 0)]).is_zero()
