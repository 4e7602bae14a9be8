"""Laurent polynomial ring operations and exact division."""

import pytest
from hypothesis import given, strategies as st

from oracles import NotDivisibleError, exact_div
from weylchar.errors import InputError
from weylchar.laurent import LaurentPoly


@st.composite
def polys(draw, rank=None):
    r = rank if rank is not None else draw(st.integers(1, 3))
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        e = tuple(
            draw(st.integers(min_value=-4, max_value=4)) for _ in range(r)
        )
        terms[e] = draw(st.integers(min_value=-5, max_value=5))
    return LaurentPoly(r, terms)


@st.composite
def poly_pairs(draw):
    r = draw(st.integers(1, 3))
    return draw(polys(rank=r)), draw(polys(rank=r))


@st.composite
def poly_triples(draw):
    r = draw(st.integers(1, 3))
    return draw(polys(rank=r)), draw(polys(rank=r)), draw(polys(rank=r))


def test_constructors():
    z = LaurentPoly.zero(2)
    assert z.is_zero() and len(z) == 0
    one = LaurentPoly.one(2)
    assert one.coeff((0, 0)) == 1 and len(one) == 1
    m = LaurentPoly(2, {(1, -3): 4})
    assert m.coeff((1, -3)) == 4
    assert m.coeff((0, 0)) == 0


def test_zero_coefficients_dropped():
    p = LaurentPoly(1, {(3,): 0, (1,): 2})
    assert len(p) == 1 and p.coeff((3,)) == 0


def test_validation():
    with pytest.raises(InputError):
        LaurentPoly(0, {})
    with pytest.raises(InputError):
        LaurentPoly(2, {(1,): 1})
    with pytest.raises(InputError):
        LaurentPoly(1, {(1.5,): 1})
    with pytest.raises(InputError):
        LaurentPoly(1, {(1,): 1.5})
    with pytest.raises(InputError):
        LaurentPoly(1, {(1,): 1}) - LaurentPoly(2, {(1, 1): 1})


@given(polys())
def test_additive_inverse(p):
    assert p - p == LaurentPoly.zero(p.rank)


@given(poly_pairs())
def test_mul_commutes(pq):
    p, q = pq
    assert p * q == q * p


@given(poly_triples())
def test_mul_associates(pqr):
    p, q, r = pqr
    assert (p * q) * r == p * (q * r)


@given(polys())
def test_multiplicative_identity(p):
    assert p * LaurentPoly.one(p.rank) == p
    assert p * LaurentPoly.zero(p.rank) == LaurentPoly.zero(p.rank)


@given(polys(), st.integers(min_value=-4, max_value=4))
def test_scalar_multiplication(p, k):
    assert p * k == p * LaurentPoly(p.rank, {(0,) * p.rank: k})


@given(polys())
def test_translate_is_monomial_multiplication(p):
    delta = (1,) * p.rank
    assert p.translate(delta) == p * LaurentPoly(p.rank, {delta: 1})
    assert p.translate(delta).translate(tuple(-x for x in delta)) == p


@given(poly_pairs())
def test_exact_div_round_trip_grlex(pq):
    p, q = pq
    if q.is_zero():
        return
    assert exact_div(p * q, q) == p


def test_exact_div_negative_support():
    num = LaurentPoly(2, {(-3, -5): 1, (-2, -5): -1, (-3, -4): -1, (-2, -4): 1})
    den = LaurentPoly(2, {(-1, -2): 1, (0, -2): -1})
    assert exact_div(num, den) == LaurentPoly(2, {(-2, -3): 1, (-2, -2): -1})


def test_exact_div_rejects_nondivisible():
    num = LaurentPoly(1, {(2,): 1, (0,): 1})
    den = LaurentPoly(1, {(1,): 1, (0,): 1})
    with pytest.raises(NotDivisibleError):
        exact_div(num, den)
    # coefficient obstruction: x + 2 does not divide x^2 + 1 over Z
    with pytest.raises(NotDivisibleError):
        exact_div(
            LaurentPoly(1, {(2,): 1, (0,): 1}), LaurentPoly(1, {(1,): 1, (0,): 2})
        )


def test_exact_div_input_errors():
    one = LaurentPoly.one(1)
    with pytest.raises(InputError):
        exact_div(one, LaurentPoly.zero(1))
    with pytest.raises(InputError):
        exact_div(one, LaurentPoly.one(2))


def test_zero_divided_by_anything():
    q = LaurentPoly(2, {(1, 0): 3, (0, 1): -2})
    assert exact_div(LaurentPoly.zero(2), q) == LaurentPoly.zero(2)


@given(poly_pairs())
def test_equal_polys_hash_equal(pq):
    p, q = pq
    r = p * q
    s = q * p
    assert r == s and hash(r) == hash(s)
