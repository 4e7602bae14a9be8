"""Characters via the table route, checked against frozen forms and the
recursion oracle."""

import pytest

import golden_g2
from weylchar.algebra import WeightVec, build_algebra, reflect
from weylchar.characters import character, multiplicities, present_alpha_basis
from weylchar.errors import InputError
from weylchar.laurent import LaurentPoly
from weylchar.weylgroup import freudenthal_multiplicities, weyl_dimension


def algebra(name):
    return build_algebra(name[0], int(name[1:]))


def test_g2_adjoint_character(g2):
    res = character(g2, WeightVec.weight((1, 0)))
    assert res.dimension == 14
    assert res.poly == golden_g2.ch_l1(g2)
    assert res.poly.coeff((0, 0)) == 2


def test_g2_seven_character(g2):
    res = character(g2, WeightVec.weight((0, 1)))
    assert res.dimension == 7
    assert len(res.poly) == 7
    assert res.poly == golden_g2.ch_l2(g2)


def test_g2_sixtyfour_character(g2):
    res = character(g2, WeightVec.weight((1, 1)))
    assert res.dimension == 64
    assert res.poly == golden_g2.ch_l1l2(g2)


def test_g2_twentyseven_character(g2):
    res = character(g2, WeightVec.weight((0, 2)))
    assert res.dimension == 27
    assert res.poly == golden_g2.ch_2l2(g2)


def test_methods_agree():
    for name, coords in [
        ("A1", (3,)), ("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 1)),
        ("A3", (1, 0, 1)),
    ]:
        a = algebra(name)
        w = WeightVec.weight(coords)
        assert character(a, w, method="gamma").poly == \
            character(a, w, method="weyl").poly


def test_trivial_character(g2):
    res = character(g2, WeightVec.weight((0, 0)))
    assert res.poly == LaurentPoly.one(2)
    assert res.dimension == 1


def test_character_accepts_coordinate_rows(g2):
    assert character(g2, (0, 1)).poly == character(
        g2, WeightVec.weight((0, 1))
    ).poly


def test_results_are_cached(g2):
    assert character(g2, (1, 1)) is character(g2, (1, 1))


def test_a1_half_integral_presentation():
    a1 = algebra("A1")
    assert present_alpha_basis(character(a1, (1,))) == "u^(1/2) + u^(-1/2)"
    assert present_alpha_basis(character(a1, (3,))) == \
        "u^(3/2) + u^(1/2) + u^(-1/2) + u^(-3/2)"


def test_g2_seven_presentation(g2):
    assert present_alpha_basis(character(g2, (0, 1))) == \
        "x y^2 + x y + y + 1 + y^-1 + x^-1 y^-1 + x^-1 y^-2"


def test_multiplicities_match_recursion():
    for name, coords in [
        ("G2", (1, 1)), ("B2", (1, 1)), ("A2", (2, 2)), ("C3", (1, 0, 1)),
    ]:
        a = algebra(name)
        w = WeightVec.weight(coords)
        assert multiplicities(character(a, w)) == \
            freudenthal_multiplicities(a, w)


def test_dimension_matches_weyl_formula():
    for name, coords in [("A3", (1, 1, 1)), ("B3", (0, 1, 1)), ("G2", (2, 0))]:
        a = algebra(name)
        w = WeightVec.weight(coords)
        res = character(a, w)
        assert res.dimension == sum(res.poly.terms.values()) == weyl_dimension(a, w)


def test_coefficients_positive_and_top_is_one():
    for name, coords in [("B2", (2, 1)), ("G2", (0, 3))]:
        a = algebra(name)
        res = character(a, WeightVec.weight(coords))
        assert all(c > 0 for c in res.poly.terms.values())
        assert res.poly.coeff(coords) == 1


def test_coefficients_constant_on_orbits(g2, b2):
    for a, coords in [(g2, (1, 1)), (b2, (2, 1))]:
        res = character(a, WeightVec.weight(coords))
        for e, c in res.poly.terms.items():
            for i in range(a.rank):
                image = reflect(a, WeightVec.weight(e), i)
                assert res.poly.coeff(tuple(image.coords)) == c


def test_input_errors(g2):
    with pytest.raises(InputError):
        character(g2, (-1, 0))
    with pytest.raises(InputError):
        character(g2, (1, 0, 0))
    with pytest.raises(InputError):
        character(g2, (1, 0), method="magic")
    with pytest.raises(InputError):
        character(g2, (1.0, 0))  # not the 14-dimensional character


def test_repr(g2):
    assert repr(character(g2, (0, 1))) == "CharacterResult(G2, [0, 1], dim=7)"
