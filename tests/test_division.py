"""Characters by Racah's recursion on the Weyl denominator A_rho.

The recursion is held equal to generic long division of the numerator
alternant by the denominator alternant under both methods.  A corrupted
A_rho, or a table that repeats an entry, must be refused, and the larger
characters the recursion makes affordable are checked against the
Freudenthal recursion and the Weyl dimension formula.
"""

import itertools
from operator import le

import pytest

from oracles import ORACLE_ALGEBRAS, alternant_shifts, exact_div
from weylchar import characters, tables
from weylchar.algebra import WeightVec, build_algebra
from weylchar.characters import character, multiplicities
from weylchar.errors import IntegrityError
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
    """A character reads the table's shifts once and builds no alternant."""
    a = algebra("B3")
    read = []
    real = tables.rho_shifts

    def counting(table):
        read.append(table.algebra)
        return real(table)

    def refused(table, weight):
        raise AssertionError("a character built an alternant")

    monkeypatch.setattr(tables, "rho_shifts", counting)
    monkeypatch.setattr(tables, "alternant", refused)
    character(a, (0, 1, 1))
    character(a, (1, 0, 0))
    assert read == [a] * 2


def test_every_flipped_sign_of_the_denominator_is_caught(
    g2, monkeypatch, fresh_characters
):
    shifts = tables.rho_shifts(tables.shared_table(g2))
    genuine = character(g2, (1, 1)).poly
    caught = []
    for n, (row, sign) in enumerate(shifts):
        flipped = shifts[:n] + [(row, -sign)] + shifts[n + 1:]
        monkeypatch.setattr(tables, "rho_shifts", lambda table: flipped)
        characters._character_cached.cache_clear()
        try:
            got = character(g2, (1, 1)).poly
        except IntegrityError as exc:
            caught.append(str(exc))
        else:
            assert got == genuine, row  # a flip that slips through changes nothing
    # positivity is checked first, as the recursion goes; the dimension
    # catches the flips that keep every multiplicity positive
    assert sum("non-positive multiplicity" in m for m in caught) == 2
    assert sum("not the Weyl dimension" in m for m in caught) == 2
    assert len(caught) == 4


def test_a_repeated_leaf_is_refused(g2_table, monkeypatch, fresh_characters):
    """A G2 table whose trie repeats one leaf, with its sign, gives an
    alternant with a repeated exponent row and a repeated shift rho - w rho;
    alternant and character both refuse it."""
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
    monkeypatch.setattr(tables, "shared_table", lambda a: table)
    with pytest.raises(IntegrityError, match="repeated row of rho - w rho"):
        character(g2_table.algebra, (1, 0))


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS + ["E6"])
def test_rho_shifts_equal_the_denominator_terms(name):
    """The table's shifts equal the terms of A_rho, each converted exactly."""
    table = tables.shared_table(algebra(name))
    assert sorted(tables.rho_shifts(table)) == alternant_shifts(table)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_both_routes_hand_racah_the_same_shifts(name, monkeypatch, fresh_characters):
    """At l_1, l_r and rho, the shifts Racah reads, those no deeper than the
    deepest depth of the descent, are the same rows by either route."""
    a = algebra(name)
    real = characters._racah
    read = []

    def recording(a, below, shifts):
        reach = [max(col) for col in zip(*[depth for _, depth in below])]
        read.append(sorted(t for t in shifts if all(map(le, t[0], reach))))
        return real(a, below, shifts)

    monkeypatch.setattr(characters, "_racah", recording)
    for coords in (a.fundamental_weights[0].coords,
                   a.fundamental_weights[-1].coords, (1,) * a.rank):
        read.clear()
        characters._character_cached.cache_clear()
        for method in ("gamma", "weyl"):
            character(a, coords, method)
        gamma, weyl = read
        assert gamma == weyl and gamma[0] == ((0,) * a.rank, 1), coords


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
