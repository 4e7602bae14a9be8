"""Characters by Racah's recursion on the Weyl denominator A_rho.

The recursion is held equal to generic long division of the numerator
alternant by the denominator alternant under both methods.  A corrupted
A_rho, or a table that repeats an entry, must be refused, and the larger
characters the recursion makes affordable are checked against the
Freudenthal recursion and the Weyl dimension formula.
"""

import itertools

import pytest

from oracles import exact_div
from weylchar import characters, tables
from weylchar.algebra import WeightVec, build_algebra
from weylchar.characters import character, multiplicities
from weylchar.errors import IntegrityError
from weylchar.laurent import LaurentPoly
from weylchar.weylgroup import freudenthal_multiplicities, weyl_dimension


def algebra(name):
    return build_algebra(name[0], int(name[1:]))


@pytest.fixture
def fresh_characters():
    """Character cache emptied before and after a test that corrupts inputs."""
    characters._character_cached.cache_clear()
    yield
    characters._character_cached.cache_clear()


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
        want = exact_div(num, den).terms
        for method in ("gamma", "weyl"):
            assert character(a, coords, method).poly.terms == want
        checked += 1
    assert checked == 2 + 4 + 4 + 4 + 8 + 8 + 8 + 16 + 5


def test_character_builds_only_the_denominator(monkeypatch, fresh_characters):
    a = algebra("B3")
    built = []
    real = tables.alternant

    def counting(table, weight):
        built.append(tuple(weight.coords))
        return real(table, weight)

    monkeypatch.setattr(tables, "alternant", counting)
    character(a, (0, 1, 1))
    character(a, (1, 0, 0))
    assert built == [(0, 0, 0)] * 2


def test_every_flipped_sign_of_the_denominator_is_caught(
    g2, monkeypatch, fresh_characters
):
    den = tables.alternant(tables.shared_table(g2), WeightVec.weight((0, 0)))
    genuine = character(g2, (1, 1)).poly
    caught = []
    for e in sorted(den.terms):
        terms = dict(den.terms)
        terms[e] = -terms[e]
        flipped = LaurentPoly(g2.rank, terms)
        monkeypatch.setattr(tables, "alternant", lambda table, weight: flipped)
        characters._character_cached.cache_clear()
        try:
            got = character(g2, (1, 1)).poly
        except IntegrityError as exc:
            caught.append(str(exc))
        else:
            assert got == genuine, e  # a flip that slips through changes nothing
    # positivity is checked first, as the recursion goes; the dimension
    # catches the flips that keep every multiplicity positive
    assert sum("non-positive multiplicity" in m for m in caught) == 2
    assert sum("not the Weyl dimension" in m for m in caught) == 2
    assert len(caught) == 4


def test_a_repeated_leaf_is_refused(g2_table):
    """A G2 table whose trie repeats one leaf, with its sign, gives an
    alternant with a repeated exponent row, which alternant refuses."""
    *head, (parents, nodes) = g2_table.levels
    levels = (*head, (parents + parents[:1], nodes + nodes[:1]))
    table = tables.AlternantTable(
        algebra=g2_table.algebra,
        candidates=g2_table.candidates,
        levels=levels,
        signatures=g2_table.signatures + g2_table.signatures[:1],
    )
    with pytest.raises(IntegrityError, match="repeated exponent row"):
        tables.alternant(table, WeightVec.weight((0, 0)))


def test_f4_and_d5_against_recursion_and_dimension():
    """F4 and D5 at their fundamental weights and rho; E6 at 0 and its
    fundamental weights."""
    cases = []
    for name in ("F4", "D5", "E6"):
        a = algebra(name)
        weights = [tuple(1 if k == i else 0 for k in range(a.rank))
                   for i in range(a.rank)]
        weights.append((0,) * a.rank if name == "E6" else (1,) * a.rank)
        cases += [(a, w) for w in weights]
    for a, coords in cases:
        w = WeightVec.weight(coords)
        res = character(a, w)
        assert multiplicities(res) == freudenthal_multiplicities(a, w)
        assert res.dimension == weyl_dimension(a, w)
