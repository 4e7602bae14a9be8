"""Acceptance gate: every shipped claim, exact arithmetic, zero tolerance.

Each test prints one PASS/FAIL line (run with -s to watch them stream).
"""

import itertools
import random
import time

import golden_g2
from oracles import exact_div
from weylchar import characters, tables
from weylchar.algebra import WeightVec, build_algebra, orbit, reflect, weyl_order
from weylchar.characters import character, multiplicities
from weylchar.cli import main as cli_main
from weylchar.errors import EnvelopeError
from weylchar.laurent import LaurentPoly
from weylchar.tables import (
    alternant,
    build_table,
    check_signatures_by_expansion,
    exponent_forms,
    selectors,
)
from weylchar.tensor import tensor_decompose
from weylchar.weylgroup import (
    alternant_direct,
    freudenthal_multiplicities,
    generate,
    weyl_dimension,
)

SUITE = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2")


def algebra(name):
    return build_algebra(name[0], int(name[1:]))


def report(label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)
    assert ok, line


def dominant_box(rank, top):
    return [
        WeightVec.weight(c)
        for c in itertools.product(range(top + 1), repeat=rank)
    ]


def test_criterion_1_g2_table_golden(g2):
    t0 = time.perf_counter()
    table = build_table(g2)
    elapsed = time.perf_counter() - t0
    got1 = tuple(v.coords for v in table.candidates[0])
    got2 = tuple(v.coords for v in table.candidates[1])
    entries = dict(zip(selectors(table.levels), table.signatures))
    ok = (
        table.size == 12
        and got1 == golden_g2.CANDIDATES_SLOT1
        and got2 == golden_g2.CANDIDATES_SLOT2
        and entries == golden_g2.ENTRIES
        and entries[(1, 2)] == -1
        and elapsed < 1.0
    )
    report(
        "criterion 1 (G2 table verbatim)", ok,
        f"12 entries, signatures match, built in {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_g2_symbolic_alternant(g2_table):
    forms = {f.as_rows(): f.signature for f in exponent_forms(g2_table)}
    ok = forms == golden_g2.AFFINE_FORMS and len(forms) == 12
    report(
        "criterion 2 (symbolic alternant)", ok,
        "12 signed affine exponent pairs reproduced exactly",
    )


def test_criterion_3_a_rho_factorization(g2, g2_table):
    got = alternant(g2_table, WeightVec.weight((0, 0)))
    want = golden_g2.alternant_rho(g2)
    report(
        "criterion 3 (A(rho) factorization)", got == want,
        f"{len(got)} monomials equal the six-factor expansion",
    )


def test_criterion_4_reference_characters(g2):
    cases = [
        ("Ch(l1)", (1, 0), golden_g2.ch_l1(g2), 14),
        ("Ch(l2)", (0, 1), golden_g2.ch_l2(g2), 7),
        ("Ch(l1+l2)", (1, 1), golden_g2.ch_l1l2(g2), 64),
        ("Ch(2 l2)", (0, 2), golden_g2.ch_2l2(g2), 27),
    ]
    details = []
    ok = True
    # table built, memo emptied: the timings below are the divisions
    tables.shared_table(g2)
    characters._character_cached.cache_clear()
    for label, coords, want, dim in cases:
        t0 = time.perf_counter()
        res = character(g2, coords)
        elapsed = time.perf_counter() - t0
        good = res.poly == want and res.dimension == dim and elapsed < 1.0
        ok = ok and good
        details.append(f"{label} dim {res.dimension} in {elapsed * 1000:.0f} ms")
    zero_coeff = character(g2, (1, 0)).poly.coeff((0, 0))
    seven_terms = len(character(g2, (0, 1)).poly)
    ok = ok and zero_coeff == 2 and seven_terms == 7
    report("criterion 4 (reference characters)", ok, "; ".join(details))


def test_criterion_5_tensor_example(g2):
    dec = tensor_decompose(g2, (1, 0), (1, 1))
    ok = (
        dec.as_dict() == golden_g2.TENSOR_L1_BY_L1L2
        and sum(
            mult * weyl_dimension(g2, WeightVec.weight(w))
            for w, mult in dec.summands
        ) == 896
    )
    report(
        "criterion 5 (tensor example)", ok,
        "7 summands, multiplicity 2 on (1,1), 14 * 64 = 896",
    )


def test_criterion_6_statement_suite():
    t0 = time.perf_counter()
    ok = True
    for name in SUITE:
        a = algebra(name)
        table = build_table(a)
        order = weyl_order(a.family, a.rank)
        ok = ok and table.size == order
        ok = ok and len(generate(a).elements) == order
        for i in range(a.rank):
            ok = ok and len(table.candidates[i]) == len(
                orbit(a, a.fundamental_weights[i])
            )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(
        "criterion 6 (statement suite)", ok,
        f"entry counts = |W| and candidate counts = orbit sizes for "
        f"{', '.join(SUITE)} in {elapsed:.1f} s",
    )


def test_criterion_7_triple_oracle():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for name in SUITE:
        a = algebra(name)
        table = build_table(a)
        group = generate(a)
        for w in dominant_box(a.rank, 2):
            ok = ok and alternant(table, w) == alternant_direct(a, w, group=group)
            res = character(a, w)
            ok = ok and multiplicities(res) == freudenthal_multiplicities(a, w)
            ok = ok and res.dimension == weyl_dimension(a, w)
            checked += 1
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(
        "criterion 7 (triple oracle)", ok,
        f"{checked} weights across {len(SUITE)} algebras in {elapsed:.1f} s",
    )


def test_criterion_8_property_suite():
    rng = random.Random(8)

    def rand_poly(rank):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(-4, 4) for _ in range(rank))
            terms[e] = rng.randint(-5, 5)
        return LaurentPoly(rank, terms)

    trips = 0
    while trips < 200:
        rank = rng.randint(1, 3)
        p, q = rand_poly(rank), rand_poly(rank)
        if q.is_zero():
            continue
        assert exact_div(p * q, q) == p
        trips += 1

    pairs = 0
    while pairs < 20:
        a = algebra(rng.choice(SUITE))
        top = 1 if a.rank >= 4 else 2
        coords = tuple(rng.randint(0, top) for _ in range(a.rank))
        res = character(a, coords)
        for e, c in res.poly.terms.items():
            for i in range(a.rank):
                image = reflect(a, WeightVec.weight(e), i)
                assert res.poly.coeff(tuple(image.coords)) == c
        pairs += 1

    zero_ok = True
    for name in SUITE + ("F4",):
        a = algebra(name)
        table = build_table(a)
        zero = WeightVec.weight((0,) * a.rank)
        zero_ok = zero_ok and alternant(table, zero) == alternant_direct(a, zero)
    report(
        "criterion 8 (property suite)", zero_ok,
        f"{trips} division round-trips, {pairs} orbit-constant characters, "
        f"A(rho) degeneracy on {len(SUITE) + 1} algebras",
    )


def test_criterion_9_signature_cross_validation():
    covered = []
    for name in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2"):
        a = algebra(name)
        if len(a.positive_roots) > tables.EXPANSION_MAX_ROOTS:
            continue
        assert check_signatures_by_expansion(build_table(a))
        covered.append(name)
    report(
        "criterion 9 (signature cross-validation)", len(covered) == 9,
        f"determinants match the expansion for {', '.join(covered)}",
    )


def test_envelope_rejection(capsys, tmp_path):
    codes = []
    for name in ("E7", "E8"):
        codes.append(
            cli_main(
                ["gamma", "--algebra", name, "--cache-dir", str(tmp_path)]
            )
        )
    capsys.readouterr()
    raised = False
    try:
        build_table(build_algebra("E", 8))
    except EnvelopeError:
        raised = True
    ok = codes == [4, 4] and raised
    report(
        "envelope rejection", ok,
        "E7 and E8 exit with code 4; library raises EnvelopeError",
    )


def test_amortization_benchmark():
    a = algebra("D4")
    weights = sorted(
        (c for c in itertools.product(range(4), repeat=4)),
        key=lambda c: (sum(c), c),
    )[:100]
    weights = [WeightVec.weight(c) for c in weights]
    assert len(set(w.coords for w in weights)) == 100

    t0 = time.perf_counter()
    table = build_table(a)
    via_table = [alternant(table, w) for w in weights]
    table_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    direct = [alternant_direct(a, w) for w in weights]  # regenerates W each call
    direct_time = time.perf_counter() - t0

    assert via_table == direct
    ratio = direct_time / table_time
    report(
        "amortization benchmark", ratio >= 5.0,
        f"100 alternants at D4: table build and alternants {table_time:.3f} s, "
        f"direct summation {direct_time:.3f} s, speedup {ratio:.1f}x",
    )
