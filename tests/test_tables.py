"""Gamma tables: assembly, golden data, symbolic forms, and the envelope."""

from fractions import Fraction
from operator import sub

import pytest

import golden_g2
from oracles import (
    ORACLE_ALGEBRAS,
    det_int,
    inverse_frac,
    mat_mul,
    monomial_map,
    walked_orbit_drops,
    weight_row_compatibility,
)
from weylchar import tables
from weylchar.algebra import (
    WeightVec,
    bilinear,
    build_algebra,
    orbit,
    root_coords,
    weight_coords,
    weyl_order,
)
from weylchar.errors import EnvelopeError, InputError, IntegrityError
from weylchar.linalg import identity, vec_mat
from weylchar.tables import (
    alternant,
    build_table,
    exponent_forms,
    orbit_drops,
    selectors,
    shared_table,
)
from weylchar.verify import check_signatures_by_expansion
from weylchar.weylgroup import alternant_direct, generate


def algebra(name):
    return build_algebra(name[0], int(name[1:]))


def test_g2_candidates_golden(g2_table):
    got1 = tuple(v.coords for v in g2_table.candidates[0])
    got2 = tuple(v.coords for v in g2_table.candidates[1])
    assert got1 == golden_g2.CANDIDATES_SLOT1
    assert got2 == golden_g2.CANDIDATES_SLOT2


def entries(table):
    """selector -> signature, with the selectors read off the trie."""
    return dict(zip(selectors(table.levels), table.signatures))


def test_g2_entries_golden(g2_table):
    got = entries(g2_table)
    assert got == golden_g2.ENTRIES
    assert got[(1, 2)] == -1  # the lone mixed pairing off the trivial slot


def test_entries_sorted_by_selector(g2_table, a2_table):
    for t in (g2_table, a2_table):
        sel = selectors(t.levels)
        assert sel == sorted(sel) and len(sel) == len(set(sel)) == t.size


def test_orbit_drops_are_positive_root_rows():
    for name in ["A2", "B2", "B3", "G2", "D4"]:
        a = algebra(name)
        for i in range(a.rank):
            drops = orbit_drops(a, i)
            assert len(drops) == len(orbit(a, a.fundamental_weights[i]))
            assert drops[0].coords == (0,) * a.rank
            for d in drops:
                assert all(isinstance(x, int) and x >= 0 for x in d.coords)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS + ["E6"])
def test_orbit_drops_match_root_coordinates_of_the_orbit(name):
    """Oracle: root_coords of l_i - mu, in Fractions, over the weight orbit."""
    a = algebra(name)
    for i, lam in enumerate(a.fundamental_weights):
        want = sorted(
            (
                root_coords(
                    a,
                    WeightVec.weight(
                        tuple(x - y for x, y in zip(lam.coords, mu.coords))
                    ),
                )
                for mu in orbit(a, lam)
            ),
            key=lambda n: (sum(n), n),
        )
        got = orbit_drops(a, i)
        assert [d.coords for d in got] == want
        assert all(type(x) is int for d in got for x in d.coords)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS + ["E6", "E7"])
def test_orbit_drops_match_the_walk_that_carries_root_coordinates(name):
    """Oracle: the orbit walked downwards with the root coordinates of
    l_i - mu carried along, so no change of basis is made."""
    a = algebra(name)
    for i in range(a.rank):
        assert [d.coords for d in orbit_drops(a, i)] == walked_orbit_drops(a, i)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS + ["E6"])
def test_every_candidate_meets_the_diagonal_condition(name):
    """(l_i - g, l_i - g) = (l_i, l_i) for every candidate g of slot i.  The
    build tests only the cross conditions and relies on this."""
    a = algebra(name)
    for lam, slot in zip(a.fundamental_weights, shared_table(a).candidates):
        norm = bilinear(a, lam, lam)
        for g in slot:
            moved = WeightVec.weight(tuple(map(sub, lam.coords, weight_coords(a, g))))
            assert bilinear(a, moved, moved) == norm


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "C2", "C3",
    "C4", "C5", "D4", "D5", "D6", "G2", "F4", "E6",
])
def test_compatibility_matches_the_weight_row_form(name):
    """Oracle: the cross-condition sets tested on the candidates' root rows
    equal those tested on the weight rows of l_i - g with gram_weight_scaled,
    for every slot pair i < j the search reads."""
    a = algebra(name)
    cands = tuple(orbit_drops(a, i) for i in range(a.rank))
    want = weight_row_compatibility(a, cands)
    assert {
        key: [index_set(mask) for mask in masks]
        for key, masks in tables._compatibility(a, cands).items()
    } == {
        (i, j): sets for (i, j), sets in want.items() if i < j
    }


def index_set(mask):
    """The indices of the bits set in mask."""
    return frozenset(y for y in range(mask.bit_length()) if mask >> y & 1)


def test_packed_compatibility_near_the_64_bit_limit():
    """The packed columns read a dot product of -(2^63 - 1) exactly beside
    a match, and candidates whose dot products could reach 2^63 in absolute
    value are refused.  On A2, the candidate 0 of slot 1 has the form row
    (-1, 0) and the target 0, so its dot product with g is -g_1."""
    a = algebra("A2")
    first = (WeightVec.root((0, 0)),)

    def second(top):
        return tuple(map(WeightVec.root, [(top, 0), (0, 5), (3, 0)]))

    compat = tables._compatibility(a, (first, second(2**63 - 1)))
    assert compat == {(0, 1): [0b010]}
    with pytest.raises(EnvelopeError, match="64-bit"):
        tables._compatibility(a, (first, second(2**63)))


def test_entry_count_statement():
    """|W| selectors, which the search writes into the trie in sorted order."""
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]:
        a = algebra(name)
        t = build_table(a)
        assert t.size == weyl_order(a.family, a.rank)
        sel = selectors(t.levels)
        assert sel == sorted(sel)


def test_quadratic_conditions_hold_on_every_entry():
    for name in ["A2", "B2", "G2"]:
        a = algebra(name)
        t = build_table(a)
        fw = a.fundamental_weights
        for selector in selectors(t.levels):
            moved = [
                WeightVec.weight(
                    tuple(
                        m - g
                        for m, g in zip(
                            fw[i].coords,
                            weight_coords(
                                a, t.candidates[i][selector[i] - 1]
                            ),
                        )
                    )
                )
                for i in range(a.rank)
            ]
            for i in range(a.rank):
                for j in range(a.rank):
                    assert bilinear(a, moved[i], moved[j]) == bilinear(
                        a, fw[i], fw[j]
                    )


def _selectors_from_group(a, table):
    """Independent oracle: walk the Weyl group and read the drops off it."""
    group = generate(a)
    index = [
        {drop.coords: k + 1 for k, drop in enumerate(table.candidates[i])}
        for i in range(a.rank)
    ]
    expected = {}
    for mat, sign in zip(group.elements, group.signatures):
        selector = []
        for i, fw in enumerate(a.fundamental_weights):
            image = vec_mat(fw.coords, mat)
            drop = WeightVec.weight(
                tuple(m - x for m, x in zip(fw.coords, image))
            )
            selector.append(index[i][tuple(root_coords(a, drop))])
        expected[tuple(selector)] = sign
    return expected


def test_a2_table_matches_group_enumeration(a2, a2_table):
    assert entries(a2_table) == _selectors_from_group(a2, a2_table)


@pytest.mark.parametrize("name", ["B3", "D4", "F4"])
def test_table_matches_group_enumeration(name):
    a = algebra(name)
    table = build_table(a)
    assert entries(table) == _selectors_from_group(a, table)


def _entry_rows(a, table):
    """Per entry, its selector, its sign and the rows of U in the weight
    basis: l_i - g_i for the selected drop g_i of each slot i."""
    moved = [
        [
            tuple((1 if k == i else 0) - x
                  for k, x in enumerate(weight_coords(a, g)))
            for g in slot
        ]
        for i, slot in enumerate(table.candidates)
    ]
    for selector, sign in entries(table).items():
        yield selector, sign, tuple(moved[i][s - 1] for i, s in enumerate(selector))


def test_monomial_map_inverts_the_entry_map():
    """Oracle for the on-demand entry maps U^-1 = I - H^T C: U @ U^-1 is the
    identity, and on G2 and B3 the map is U's Fraction inverse."""
    for name in ["G2", "A2", "B3", "C3", "D4", "B4", "C4", "F4", "D5"]:
        a = algebra(name)
        t = build_table(a)
        ident = identity(a.rank)
        for selector, _sign, rows in _entry_rows(a, t):
            inverse = tuple(map(tuple, monomial_map(t, selector)))
            assert mat_mul(rows, inverse) == ident
            if name in ("G2", "B3"):
                assert inverse == inverse_frac(rows)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS + ["E6"])
def test_signatures_are_bareiss_determinants(name):
    """Oracle for the signs read off the root pairings: each is det U, by
    fraction-free Bareiss elimination."""
    a = algebra(name)
    t = shared_table(a)
    for _selector, sign, rows in _entry_rows(a, t):
        assert sign == det_int(rows)


def test_entry_with_rho_on_a_wall_is_refused(g2, monkeypatch):
    """The signs need U^-1 rho off every wall.  One altered G2 per-slot
    scalar h . rho puts that image of entry (2, 3) on a wall, and the build
    refuses it."""
    scalars = tables._slot_scalars

    def altered(a, cands, vec):
        out = scalars(a, cands, vec)
        out[0][1] += 1
        return out

    monkeypatch.setattr(tables, "_slot_scalars", altered)
    with pytest.raises(IntegrityError, match=r"entry \(2, 3\) maps rho onto a wall"):
        build_table(g2)


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "D4", "F4"])
def test_alternant_applies_every_monomial_map(name):
    """The trie walk in alternant() gives each entry the row
    (rho + weight) @ U^-1, with the entry's signature."""
    a = algebra(name)
    t = build_table(a)
    for coords in [(0,) * a.rank, tuple(range(a.rank)), (3,) + (0,) * (a.rank - 1)]:
        vec = tuple(x + 1 for x in coords)
        want = {
            vec_mat(vec, monomial_map(t, selector)): sign
            for selector, sign in entries(t).items()
        }
        got = alternant(t, WeightVec.weight(coords))
        assert got.terms == want
        assert list(got.terms) == list(want)


def test_alternant_near_the_64_bit_limit():
    """Packed rows decode exactly for exponents past 2^59, and a weight whose
    rows could pass 2^63 in absolute value is refused."""
    for name, coords in [("A2", (2**59, 2**59)), ("B3", (2**58, 3, 2**58))]:
        a = algebra(name)
        w = WeightVec.weight(coords)
        assert alternant(build_table(a), w) == alternant_direct(a, w)
    with pytest.raises(EnvelopeError):
        alternant(build_table(algebra("A2")), WeightVec.weight((2**60, 2**60)))


def test_build_is_deterministic(g2):
    t1 = build_table(g2)
    t2 = build_table(g2)
    assert t1.levels == t2.levels and t1.signatures == t2.signatures


def test_alternant_routes_agree():
    for name, coords in [
        ("A2", (0, 0)), ("A2", (2, 1)), ("B2", (1, 1)), ("B2", (3, 0)),
        ("G2", (0, 0)), ("G2", (1, 2)),
    ]:
        a = algebra(name)
        t = build_table(a)
        w = WeightVec.weight(coords)
        assert alternant(t, w) == alternant_direct(a, w)


def test_alternant_rho_equals_factored_form(g2, g2_table):
    zero = WeightVec.weight((0, 0))
    assert alternant(g2_table, zero) == golden_g2.alternant_rho(g2)


def test_alternant_rejects_bad_weights(g2_table):
    with pytest.raises(InputError):
        alternant(g2_table, WeightVec.weight((-1, 0)))
    with pytest.raises(InputError):
        alternant(g2_table, WeightVec.weight((1, 1, 1)))


def test_entry_exponents_match_defining_ratio(g2, g2_table):
    lam = (2, 1)
    shifted = WeightVec.weight((3, 2))  # rho + lam
    fw = g2.fundamental_weights
    forms = exponent_forms(g2_table)
    for n, selector in enumerate(selectors(g2_table.levels)):
        got = forms[n].evaluate(lam)
        for i in range(g2.rank):
            drop = g2_table.candidates[i][selector[i] - 1]
            moved = WeightVec.weight(
                tuple(
                    m - x
                    for m, x in zip(fw[i].coords, weight_coords(g2, drop))
                )
            )
            want = Fraction(2 * bilinear(g2, moved, shifted), g2.root_norms[i])
            assert got.coords[i] == want


def test_g2_affine_forms_golden(g2_table):
    forms = exponent_forms(g2_table)
    assert len(forms) == 12
    got = {f.as_rows(): f.signature for f in forms}
    assert got == golden_g2.AFFINE_FORMS


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_affine_forms_evaluate_to_alternant(name):
    """Every form evaluates to its own term of alternant(), sign included."""
    a = algebra(name)
    t = shared_table(a)
    forms = exponent_forms(t)
    for coords in [(0,) * a.rank, (1,) + (0,) * (a.rank - 1), tuple(range(2, a.rank + 2))]:
        ref = alternant(t, WeightVec.weight(coords))
        rows = {tuple(weight_coords(a, f.evaluate(coords))) for f in forms}
        assert len(rows) == len(ref.terms)
        for f in forms:
            e = tuple(weight_coords(a, f.evaluate(coords)))
            assert ref.coeff(e) == f.signature


def test_signature_expansion_check():
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"]:
        assert check_signatures_by_expansion(build_table(algebra(name)))


def test_signature_expansion_capped_for_f4():
    t = build_table(algebra("F4"))
    with pytest.raises(EnvelopeError):
        check_signatures_by_expansion(t)


def test_build_table_envelope():
    with pytest.raises(EnvelopeError):
        build_table(build_algebra("E", 7))
    with pytest.raises(EnvelopeError):
        build_table(build_algebra("E", 8))
