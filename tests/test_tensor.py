"""Tensor product decomposition by the Brauer-Klimyk formula."""

import itertools

import pytest

import golden_g2
from oracles import peel_decompose
from weylchar import characters, tensor, weylgroup
from weylchar.algebra import WeightVec, build_algebra
from weylchar.errors import InputError
from weylchar.tensor import tensor_decompose
from weylchar.weylgroup import weyl_dimension


def algebra(name):
    return build_algebra(name[0], int(name[1:]))


def total_dimension(dec):
    return sum(
        mult * weyl_dimension(dec.algebra, WeightVec.weight(w))
        for w, mult in dec.summands
    )


def test_g2_golden_decomposition(g2):
    dec = tensor_decompose(g2, (1, 0), (1, 1))
    assert dec.as_dict() == golden_g2.TENSOR_L1_BY_L1L2
    assert total_dimension(dec) == 14 * 64 == 896


def test_summand_order_starts_at_the_sum(g2):
    # descending graded-lex on root-basis coordinates
    dec = tensor_decompose(g2, (1, 0), (1, 1))
    assert dec.summands == (
        ((2, 1), 1), ((0, 4), 1), ((1, 2), 1), ((0, 3), 1), ((1, 1), 2),
        ((0, 2), 1), ((0, 1), 1),
    )


# (algebra, largest coordinate, method): every ordered pair of highest weights
ORACLE_GRID = [
    ("A1", 4, "gamma"), ("A2", 2, "gamma"), ("B2", 2, "gamma"),
    ("G2", 2, "gamma"), ("B3", 1, "gamma"), ("C3", 1, "gamma"),
    ("A2", 1, "weyl"), ("G2", 1, "weyl"), ("C3", 1, "weyl"),
]
LARGER_PRODUCTS = [
    ("G2", (3, 3), (3, 3)),
    ("B3", (1, 1, 1), (1, 0, 1)),
    ("D4", (1, 0, 1, 1), (0, 1, 0, 0)),
]


@pytest.mark.parametrize("name, top, method", ORACLE_GRID)
def test_matches_peeling_on_the_grid(name, top, method):
    a = algebra(name)
    weights = list(itertools.product(range(top + 1), repeat=a.rank))
    for u, v in itertools.product(weights, repeat=2):
        want = peel_decompose(a, u, v, method)
        assert tensor_decompose(a, u, v, method).summands == want, (u, v)


@pytest.mark.parametrize("method", ["gamma", "weyl"])
@pytest.mark.parametrize(
    "name, u, v", LARGER_PRODUCTS, ids=[n for n, _, _ in LARGER_PRODUCTS]
)
def test_matches_peeling_on_larger_products(name, u, v, method):
    a = algebra(name)
    want = peel_decompose(a, u, v, method)
    assert tensor_decompose(a, u, v, method).summands == want


def test_gamma_route_computes_one_character(g2, monkeypatch):
    computed = []
    real = tensor.character

    def counting(a, weight, method="gamma"):
        computed.append(tuple(weight))
        return real(a, weight, method)

    monkeypatch.setattr(tensor, "character", counting)
    tensor_decompose(g2, (1, 0), (1, 1))
    assert computed == [(1, 0)]  # the smaller factor only


def test_a1_clebsch_gordan():
    a1 = algebra("A1")
    for m in range(5):
        for n in range(5):
            dec = tensor_decompose(a1, (m,), (n,))
            want = {(k,): 1 for k in range(abs(m - n), m + n + 1, 2)}
            assert dec.as_dict() == want


def test_commutes(g2, a2):
    for a, u, v in [(g2, (1, 0), (0, 2)), (a2, (2, 0), (1, 1))]:
        assert tensor_decompose(a, u, v).as_dict() == \
            tensor_decompose(a, v, u).as_dict()


def test_dimension_conserved():
    for name, u, v in [
        ("A2", (1, 1), (1, 1)), ("B2", (1, 0), (0, 2)),
        ("C3", (1, 0, 0), (0, 0, 1)), ("G2", (0, 1), (0, 1)),
    ]:
        a = algebra(name)
        dec = tensor_decompose(a, u, v)
        assert total_dimension(dec) == (
            weyl_dimension(a, WeightVec.weight(u))
            * weyl_dimension(a, WeightVec.weight(v))
        )


def test_trivial_factor(g2):
    dec = tensor_decompose(g2, (0, 0), (2, 1))
    assert dec.as_dict() == {(2, 1): 1}


def test_methods_agree(a2):
    gamma = tensor_decompose(a2, (1, 0), (0, 1), method="gamma")
    weyl = tensor_decompose(a2, (1, 0), (0, 1), method="weyl")
    assert gamma.as_dict() == weyl.as_dict() == {(1, 1): 1, (0, 0): 1}


def test_weyl_route_generates_the_group_once(g2, monkeypatch):
    calls = []
    real_generate = weylgroup.generate

    def counting_generate(a):
        calls.append(a.name)
        return real_generate(a)

    monkeypatch.setattr(weylgroup, "generate", counting_generate)
    characters._character_cached.cache_clear()
    dec = tensor_decompose(g2, (1, 1), (1, 0), method="weyl")
    assert len(dec.summands) == 7
    assert calls == ["G2"]
    # a bare direct alternant still prices in generating the group
    weylgroup.alternant_direct(g2, WeightVec.weight((1, 0)))
    weylgroup.alternant_direct(g2, WeightVec.weight((1, 0)))
    assert calls == ["G2"] * 3


def test_input_errors(g2):
    with pytest.raises(InputError):
        tensor_decompose(g2, (-1, 0), (1, 0))
    with pytest.raises(InputError):
        tensor_decompose(g2, (1, 0), (1, 0, 0))
