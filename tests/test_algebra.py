"""Root data construction: Cartan matrices, roots, weights, reflections."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import inverse_frac, root_string_positive_roots

from weylchar.algebra import (
    MAX_RANK,
    WeightVec,
    _positive_root_coords,
    _root_row,
    bilinear,
    build_algebra,
    dominant_reduce,
    is_dominant,
    orbit,
    pair_with_root,
    parse_algebra,
    reflect,
    root_coords,
    to_basis,
    weight_coords,
    weyl_order,
)
from weylchar.errors import EnvelopeError, InputError, IntegrityError
from weylchar.linalg import vec_mat
from weylchar.tables import shared_table
from weylchar.weylgroup import alternant_direct, generate

SUPPORTED = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2", "F4")


def algebra(name):
    return build_algebra(name[0], int(name[1:]))


ALGS = tuple(algebra(n) for n in SUPPORTED)


@st.composite
def algebra_and_weight(draw):
    a = draw(st.sampled_from(ALGS))
    coords = draw(
        st.tuples(*([st.integers(min_value=-3, max_value=3)] * a.rank))
    )
    return a, WeightVec.weight(coords)


def test_weyl_order_matches_literature():
    known = {
        "A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C3": 48,
        "D4": 192, "G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040,
        "E8": 696729600,
    }
    for name, want in known.items():
        assert weyl_order(name[0], int(name[1:])) == want


def test_cartan_matrix_goldens():
    assert algebra("A2").cartan == ((2, -1), (-1, 2))
    assert algebra("B2").cartan == ((2, -2), (-1, 2))
    assert algebra("C2").cartan == ((2, -1), (-2, 2))
    assert algebra("G2").cartan == ((2, -3), (-1, 2))
    assert algebra("F4").cartan == (
        (2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2),
    )


# every family at ranks 1 to 8 where it is defined, and the exceptional types
EVERY_TYPE = [f"{f}{r}" for f in "ABCD" for r in range(1, 9)
              if r >= {"A": 1, "B": 2, "C": 2, "D": 4}[f]] + [
    "G2", "F4", "E6", "E7", "E8",
]


@pytest.mark.parametrize("name", EVERY_TYPE)
def test_integer_adjugate_is_the_fraction_inverse(name):
    """Oracle: cartan_adjugate / cartan_det is the Gauss-Jordan inverse of C,
    and gram_weight_scaled / cartan_det is the form on weight rows, C^-1 D."""
    a = algebra(name)
    inv = inverse_frac(a.cartan)
    det = a.cartan_det
    assert det > 0
    assert [[Fraction(x, det) for x in row] for row in a.cartan_adjugate] == [
        list(row) for row in inv
    ]
    d = [n // 2 for n in a.root_norms]
    assert [[Fraction(x, det) for x in row] for row in a.gram_weight_scaled] == [
        [x * dj for x, dj in zip(row, d)] for row in inv
    ]
    assert root_coords(a, a.weyl_vector) == vec_mat(a.weyl_vector.coords, inv)


def test_d4_has_a_triple_node():
    c = algebra("D4").cartan
    degree = [sum(1 for x in row if x == -1) for row in c]
    assert sorted(degree) == [1, 1, 1, 3]


def test_root_norm_goldens():
    assert algebra("G2").root_norms == (6, 2)
    assert algebra("B3").root_norms == (4, 4, 2)
    assert algebra("C3").root_norms == (2, 2, 4)
    assert algebra("F4").root_norms == (4, 4, 2, 2)
    assert algebra("A3").root_norms == (2, 2, 2)
    assert algebra("G2").d == (3, 1)
    assert algebra("B3").d == (2, 2, 1)
    assert algebra("C3").d == (1, 1, 2)
    assert algebra("F4").d == (2, 2, 1, 1)
    assert algebra("A3").d == (1, 1, 1)


def test_positive_root_counts():
    counts = {
        "A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "B4": 16, "C2": 4,
        "C3": 9, "C4": 16, "D4": 12, "D5": 20, "G2": 6, "F4": 24, "E6": 36,
        "E7": 63, "E8": 120,
    }
    for name, want in counts.items():
        assert len(algebra(name).positive_roots) == want


# every supported type up to rank 8
ALL_TYPES = (
    [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)] + [f"D{r}" for r in range(4, 9)]
    + ["G2", "F4", "E6", "E7", "E8"]
)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_reflection_closure_equals_root_strings(name):
    cartan = algebra(name).cartan
    assert _positive_root_coords(cartan) == root_string_positive_roots(cartan)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_row_is_exact_on_the_root_lattice(name):
    """_root_row gives the integer root row of every positive root and of
    2 rho, their sum, from the weight rows."""
    a = algebra(name)
    for nw, alpha in zip(a.positive_roots_weight, a.positive_roots):
        got = _root_row(a, nw)
        assert got == alpha.coords and all(type(x) is int for x in got)
    total = tuple(map(sum, zip(*(n.coords for n in a.positive_roots))))
    assert _root_row(a, (2,) * a.rank) == total


def test_root_row_refuses_a_row_off_the_root_lattice():
    """l_1 of A2 has root row (2/3, 1/3): no exact division, IntegrityError."""
    for name, row in [("A2", (1, 0)), ("B3", (0, 0, 1)), ("E6", (1,) + (0,) * 5)]:
        with pytest.raises(IntegrityError, match="not in the root lattice"):
            _root_row(algebra(name), row)


def test_g2_positive_roots_golden(g2):
    got = {tuple(root_coords(g2, r)) for r in g2.positive_roots}
    assert got == {(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)}


def test_weyl_vector():
    for a in ALGS:
        assert tuple(a.weyl_vector.coords) == (1,) * a.rank
        total = [0] * a.rank
        for r in a.positive_roots:
            for i, x in enumerate(root_coords(a, r)):
                total[i] += x
        assert tuple(total) == tuple(
            2 * x for x in root_coords(a, a.weyl_vector)
        )
    assert tuple(root_coords(algebra("G2"), algebra("G2").weyl_vector)) == (3, 5)


def test_fundamental_weights_dual_to_simple_roots():
    for a in ALGS:
        for i, fw in enumerate(a.fundamental_weights):
            for j in range(a.rank):
                alpha = WeightVec.root(
                    tuple(1 if k == j else 0 for k in range(a.rank))
                )
                want = a.root_norms[j] // 2 if i == j else 0
                assert bilinear(a, fw, alpha) == want


def test_pair_with_root_on_weyl_vector():
    for a in ALGS:
        for j in range(a.rank):
            unit = tuple(1 if k == j else 0 for k in range(a.rank))
            assert pair_with_root(a, (1,) * a.rank, unit) == a.root_norms[j] // 2


def test_b2_fundamental_weight_has_fractional_root_coords(b2):
    assert tuple(root_coords(b2, b2.fundamental_weights[1])) == (
        Fraction(1, 2), 1,
    )


def test_weightvec_normalizes_integral_fractions():
    v = WeightVec.weight((Fraction(4, 2), Fraction(1, 1)))
    assert v.coords == (2, 1)
    assert all(isinstance(x, int) for x in v.coords)


@pytest.mark.parametrize("x", [0.1, 1.0, Decimal("1"), "1", "1/2", None])
def test_weightvec_takes_only_exact_coordinates(x):
    """Fraction() would take each of these; 0.1 became 3602879701896397/2**55."""
    for make in (WeightVec.weight, WeightVec.root):
        with pytest.raises(InputError, match="int or Fraction"):
            make((x, 1))


@given(algebra_and_weight())
def test_basis_round_trip(aw):
    a, v = aw
    n = root_coords(a, v)
    back = weight_coords(a, WeightVec.root(n))
    assert tuple(back) == tuple(v.coords)
    assert to_basis(a, to_basis(a, v, "root"), "weight") == v


@given(algebra_and_weight(), algebra_and_weight())
def test_bilinear_symmetric(aw, other):
    a, v = aw
    _, w = other
    if len(w.coords) != a.rank:
        return
    assert bilinear(a, v, w) == bilinear(a, w, v)


@given(algebra_and_weight(), st.integers(min_value=0, max_value=3))
def test_reflect_involution_and_invariance(aw, i):
    a, v = aw
    i %= a.rank
    assert reflect(a, reflect(a, v, i), i) == v
    assert bilinear(a, reflect(a, v, i), reflect(a, v, i)) == bilinear(a, v, v)


def test_reflect_negates_own_simple_root():
    for a in ALGS:
        for i in range(a.rank):
            alpha = WeightVec.root(
                tuple(1 if k == i else 0 for k in range(a.rank))
            )
            assert reflect(a, alpha, i) == WeightVec.root(
                tuple(-1 if k == i else 0 for k in range(a.rank))
            )


def test_orbit_sizes_golden():
    sizes = {
        "A2": (3, 3), "A3": (4, 6, 4), "B2": (4, 4), "B3": (6, 12, 8),
        "C3": (6, 12, 8), "D4": (8, 24, 8, 8), "G2": (6, 6),
    }
    for name, want in sizes.items():
        a = algebra(name)
        got = tuple(
            len(orbit(a, a.fundamental_weights[i])) for i in range(a.rank)
        )
        assert got == want


def test_orbit_closed_and_norm_constant(g2):
    seed = g2.fundamental_weights[0]
    seen = orbit(g2, seed)
    norm = bilinear(g2, seed, seed)
    for v in seen:
        assert bilinear(g2, v, v) == norm
        for i in range(g2.rank):
            assert reflect(g2, v, i) in seen
        assert dominant_reduce(g2, v) == seed


@given(algebra_and_weight())
def test_dominant_reduce_lands_dominant_inside_orbit(aw):
    a, v = aw
    d = dominant_reduce(a, v)
    assert is_dominant(a, d)
    assert v in orbit(a, d)


def test_is_dominant():
    for a in ALGS:
        for fw in a.fundamental_weights:
            assert is_dominant(a, fw)
            assert not is_dominant(
                a, WeightVec.weight(tuple(-x for x in fw.coords))
            )


def test_invalid_families_and_ranks():
    for family, rank in [
        ("D", 3), ("G", 3), ("F", 5), ("E", 5), ("E", 9), ("B", 1),
        ("A", 0), ("H", 2), ("A", 2.5), ("A", 2.0), ("G", True), ("A", None),
        ("A", "x"), ("A", "-1"), ("A", "+2"), ("G", "\u00b2"), ("G", "\u0662"),
        ("A", Fraction(2)), ("A", "1" * 5000),
    ]:
        with pytest.raises(InputError):
            build_algebra(family, rank)


def test_ranks_past_the_envelope_are_refused():
    assert build_algebra("A", MAX_RANK).rank == MAX_RANK   # the largest kept
    for family in "ABCD":
        for rank in [MAX_RANK + 1, 10**6, str(10**6)]:
            with pytest.raises(EnvelopeError, match="rank envelope"):
                build_algebra(family, rank)


def test_every_spelling_of_a_type_is_one_object():
    g2 = build_algebra("G", 2)
    for family, rank in [("g", 2), ("G", "2"), ("g", "02")]:
        assert build_algebra(family, rank) is g2
    assert parse_algebra(" g2 ") is g2
    assert shared_table(build_algebra("g", 2)) is shared_table(g2)
    zero = WeightVec.weight((0, 0))
    group = generate(build_algebra("G", "2"))
    assert alternant_direct(g2, zero, group=group) == alternant_direct(g2, zero)
    with pytest.raises(IntegrityError, match="different algebra"):
        alternant_direct(build_algebra("A", 2), WeightVec.weight((0, 0)), group=group)


def test_parse_algebra():
    assert parse_algebra("G2").name == "G2"
    assert parse_algebra("g2").name == "G2"
    assert parse_algebra(" d4 ").name == "D4"
    for bad in ["", "G", "42", "QQ", "A0", "Gx2", "G\u00b2", "B\u00b9", "G\u0662"]:
        with pytest.raises(InputError):
            parse_algebra(bad)
    for bad in ["A-1", "G-2", "A-", "A1_0", "A+2"]:   # signs are no part of a label
        with pytest.raises(InputError, match="cannot parse algebra label"):
            parse_algebra(bad)
