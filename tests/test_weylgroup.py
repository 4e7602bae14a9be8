"""Weyl group generation, direct alternants, dimension and multiplicity
oracles."""

import itertools
import time

import pytest

from oracles import dominant_weights_in_box, mat_mul
from weylchar import algebra as algebra_module
from weylchar import characters, weylgroup
from weylchar.algebra import (
    ENVELOPE_MAX_ORDER,
    MAX_DOMINANT_WEIGHTS,
    WeightVec,
    build_algebra,
    check_envelope,
    weight_coords,
)
from weylchar.characters import METHODS, character, multiplicities
from weylchar.errors import EnvelopeError, InputError, IntegrityError
from weylchar.linalg import identity
from weylchar.weylgroup import (
    _dominant_weights_below,
    alternant_direct,
    freudenthal_multiplicities,
    generate,
    weyl_dimension,
)


def algebra(name):
    return build_algebra(name[0], int(name[1:]))


def test_group_orders_match_formula():
    for name, want in [
        ("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48),
        ("C3", 48), ("D4", 192), ("G2", 12), ("F4", 1152),
    ]:
        g = generate(algebra(name))
        assert len(g.elements) == want
        assert len(g.signatures) == want


def _closure_by_full_products(a):
    """Reference closure: every product M s_i as a full matrix product."""
    r = a.rank
    gens = [
        tuple(
            tuple((1 if j == k else 0) - (a.cartan[i][k] if j == i else 0)
                  for k in range(r))
            for j in range(r)
        )
        for i in range(r)
    ]
    signs = {identity(r): 1}
    frontier = [identity(r)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g)
                if prod not in signs:
                    signs[prod] = -signs[m]
                    nxt.append(prod)
        frontier = nxt
    elements = tuple(sorted(signs))
    return elements, tuple(signs[m] for m in elements)


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5",
    "G2", "F4",
])
def test_generate_matches_full_product_closure(name):
    a = algebra(name)
    g = generate(a)
    assert (g.elements, g.signatures) == _closure_by_full_products(a)


def test_signatures_balance():
    for name in ["A2", "B2", "G2", "A3"]:
        g = generate(algebra(name))
        assert set(g.signatures) == {1, -1}
        assert sum(g.signatures) == 0


def test_identity_in_group(a2):
    g = generate(a2)
    idx = g.elements.index(((1, 0), (0, 1)))
    assert g.signatures[idx] == 1


def test_envelope():
    assert ENVELOPE_MAX_ORDER == 51840
    check_envelope(algebra("D4"))
    check_envelope(algebra("F4"))
    check_envelope(build_algebra("E", 6))
    for family, rank in [("E", 7), ("E", 8), ("B", 7), ("A", 8)]:
        with pytest.raises(EnvelopeError):
            check_envelope(build_algebra(family, rank))


def test_alternant_direct_shape(g2):
    w = WeightVec.weight((1, 1))
    p = alternant_direct(g2, w)
    assert len(p) == 12
    assert sorted(p.terms.values()) == [-1] * 6 + [1] * 6
    assert p.coeff((2, 2)) == 1  # the identity image rho + weight


def test_alternant_direct_accepts_prebuilt_group(g2):
    g = generate(g2)
    w = WeightVec.weight((0, 2))
    assert alternant_direct(g2, w, group=g) == alternant_direct(g2, w)


def test_alternant_direct_requires_dominant_integral(g2):
    with pytest.raises(InputError):
        alternant_direct(g2, WeightVec.weight((-1, 0)))


def test_weyl_dimension_goldens():
    known = [
        ("A1", (1,), 2), ("A1", (3,), 4), ("A2", (1, 1), 8),
        ("A2", (3, 0), 10), ("A2", (1, 0), 3), ("A3", (0, 1, 0), 6),
        ("A3", (1, 0, 0), 4), ("A3", (1, 0, 1), 15), ("B2", (1, 0), 5),
        ("B2", (0, 1), 4), ("B2", (0, 2), 10), ("B3", (1, 0, 0), 7),
        ("B3", (0, 0, 1), 8), ("B3", (0, 1, 0), 21), ("C3", (1, 0, 0), 6),
        ("C3", (0, 1, 0), 14), ("C3", (2, 0, 0), 21),
        ("D4", (1, 0, 0, 0), 8), ("D4", (0, 1, 0, 0), 28),
        ("D4", (0, 0, 1, 0), 8), ("D4", (0, 0, 0, 1), 8),
        ("G2", (1, 0), 14), ("G2", (0, 1), 7), ("F4", (0, 0, 0, 1), 26),
        ("F4", (1, 0, 0, 0), 52),
    ]
    for name, coords, want in known:
        a = algebra(name)
        assert weyl_dimension(a, WeightVec.weight(coords)) == want
    e6 = build_algebra("E", 6)
    assert weyl_dimension(e6, WeightVec.weight((1, 0, 0, 0, 0, 0))) == 27


def test_weyl_dimension_trivial_and_errors(g2):
    assert weyl_dimension(g2, WeightVec.weight((0, 0))) == 1
    with pytest.raises(InputError):
        weyl_dimension(g2, WeightVec.weight((-1, 0)))


def test_freudenthal_a2_adjoint(a2):
    got = freudenthal_multiplicities(a2, WeightVec.weight((1, 1)))
    assert got == {
        (2, -1): 1, (-1, 2): 1, (1, 1): 1, (0, 0): 2, (-2, 1): 1,
        (1, -2): 1, (-1, -1): 1,
    }


def test_freudenthal_g2_seven(g2):
    got = freudenthal_multiplicities(g2, WeightVec.weight((0, 1)))
    assert got == {
        (0, 1): 1, (-1, 2): 1, (1, -1): 1, (0, 0): 1, (-1, 1): 1,
        (1, -2): 1, (0, -1): 1,
    }


def test_freudenthal_adjoint_zero_multiplicity_is_rank():
    # the adjoint weights are the roots plus a rank-fold zero weight
    for name, coords in [
        ("A2", (1, 1)), ("B2", (0, 2)), ("G2", (1, 0)), ("D4", (0, 1, 0, 0)),
    ]:
        a = algebra(name)
        got = freudenthal_multiplicities(a, WeightVec.weight(coords))
        assert got[(0,) * a.rank] == a.rank
        assert sum(got.values()) == weyl_dimension(a, WeightVec.weight(coords))
        nonzero = {e for e in got if any(e)}
        roots = {tuple(weight_coords(a, r)) for r in a.positive_roots}
        assert nonzero == roots | {tuple(-x for x in e) for e in roots}


def test_freudenthal_total_is_weyl_dimension():
    for name, coords in [
        ("A1", (4,)), ("A3", (1, 1, 0)), ("B3", (1, 0, 1)),
        ("C3", (0, 1, 1)), ("G2", (2, 1)),
    ]:
        a = algebra(name)
        got = freudenthal_multiplicities(a, WeightVec.weight(coords))
        assert sum(got.values()) == weyl_dimension(a, WeightVec.weight(coords))


def test_freudenthal_trivial(g2):
    assert freudenthal_multiplicities(g2, WeightVec.weight((0, 0))) == {
        (0, 0): 1
    }


def descent_cases():
    names = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D4", "D5", "G2", "F4")
    for name in names:
        a = algebra(name)
        for coords in itertools.product(range(2), repeat=a.rank):
            yield a, coords
        if a.rank <= 3:
            yield a, (2,) * a.rank
    e6 = build_algebra("E", 6)
    yield e6, (0,) * 6
    for i in range(6):
        yield e6, tuple(int(k == i) for k in range(6))


def test_descent_finds_the_box_in_the_same_order():
    checked = 0
    for a, coords in descent_cases():
        assert _dominant_weights_below(a, coords) == dominant_weights_in_box(
            a, coords
        ), (a.name, coords)
        checked += 1
    assert checked == 169


def test_descents_in_use_stay_under_the_cap():
    """The descent cap admits rho of E6, F4 and D5 with room to spare."""
    for name, count in [("E6", 226), ("F4", 58), ("D5", 44)]:
        a = algebra(name)
        assert len(_dominant_weights_below(a, (1,) * a.rank)) == count
        assert count < MAX_DOMINANT_WEIGHTS


def test_spread_past_the_cap_is_refused(monkeypatch):
    """G2 (1, 1) has 31 weights: under a cap of 30, both recursions refuse
    it."""
    a = algebra("G2")
    assert len(freudenthal_multiplicities(a, WeightVec.weight((1, 1)))) == 31
    monkeypatch.setattr(algebra_module, "MAX_CHARACTER_WEIGHTS", 30)
    with pytest.raises(EnvelopeError, match="more than 30 weights"):
        freudenthal_multiplicities(a, WeightVec.weight((1, 1)))
    characters._character_cached.cache_clear()  # G2 (1, 1) may be memoized
    try:
        for method in METHODS:
            with pytest.raises(EnvelopeError, match="more than 30 weights"):
                character(a, (1, 1), method)
    finally:
        characters._character_cached.cache_clear()


def test_freudenthal_refuses_a_multiplicity_that_is_not_positive(monkeypatch):
    """A dominant weight that the descent lists but no root string reaches
    gets multiplicity 0, which is refused, not left out of the map."""
    real = weylgroup._dominant_weights_below

    def padded(a, top):
        return real(a, top) + [((0, 0), (1, 1))]

    monkeypatch.setattr(weylgroup, "_dominant_weights_below", padded)
    with pytest.raises(IntegrityError, match="not a positive integer"):
        freudenthal_multiplicities(algebra("A2"), WeightVec.weight((1, 0)))


def test_long_root_strings():
    """A1 (512) has every weight 512 - 2k once; A2 (30, 30) agrees by both
    character methods and Freudenthal, at its Weyl dimension."""
    closed_form = {(512 - 2 * k,): 1 for k in range(513)}
    for name, coords in [("A1", (512,)), ("A2", (30, 30))]:
        a = algebra(name)
        w = WeightVec.weight(coords)
        got = freudenthal_multiplicities(a, w)
        assert sum(got.values()) == weyl_dimension(a, w)
        if name == "A1":
            assert got == closed_form
        for method in METHODS:
            assert multiplicities(character(a, w, method)) == got, method


def test_freudenthal_on_e7_and_e8_without_the_group():
    # E7 (0,...,0,1) is the 56, E7 (1,0,...,0) and E8 (0,...,0,1) the
    # adjoint modules; none of them needs the Weyl group, which is refused
    cases = [
        ("E7", (0,) * 6 + (1,), 56, None),
        ("E7", (1,) + (0,) * 6, 133, 7),
        ("E8", (0,) * 7 + (1,), 248, 8),
        ("E8", (1,) + (0,) * 7, 3875, None),
    ]
    t0 = time.perf_counter()
    for name, coords, dim, zero in cases:
        a = algebra(name)
        w = WeightVec.weight(coords)
        got = freudenthal_multiplicities(a, w)
        assert sum(got.values()) == weyl_dimension(a, w) == dim
        if zero is not None:
            assert got[(0,) * a.rank] == zero == a.rank
    assert time.perf_counter() - t0 < 5.0
