import random
from fractions import Fraction as F
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qims.errors import ParameterError, StructureError
from qims.polyalg import (Polynomial, enumerate_basis, enumerate_basis_FT,
                          level_degree)
from qims.weylops import Q, flatten, make_parameters


def brute_V(L, N, M):
    k = (L - 1) * N
    return {t for t in product(range(M + 1), repeat=k) if sum(t) <= M}


def brute_F(L, N, T):
    k = (L - 1) * N
    cap = max(T)
    out = set()
    for t in product(range(cap + 1), repeat=k):
        if all(level_degree(t, m, N) <= T[m - 1] for m in range(1, L)):
            out.add(t)
    return out


def test_basis_examples():
    assert enumerate_basis(2, 1, 1) == [(0,), (1,)]
    assert len(enumerate_basis(2, 2, 2)) == 6
    assert len(enumerate_basis(3, 2, 3)) == comb(7, 4) == 35


def test_basis_matches_brute_force():
    for (L, N, M) in [(2, 1, 5), (2, 2, 4), (3, 2, 3), (4, 1, 3), (3, 3, 2)]:
        got = enumerate_basis(L, N, M)
        assert set(got) == brute_V(L, N, M)
        assert len(got) == len(set(got))


def test_basis_graded_lex_and_idempotent():
    basis = enumerate_basis(3, 2, 3)
    key = lambda A: (sum(A), A)
    assert basis == sorted(basis, key=key)
    assert sorted(sorted(basis, key=key), key=key) == basis


def test_basis_errors():
    with pytest.raises(ParameterError):
        enumerate_basis(1, 1, 2)
    with pytest.raises(ParameterError):
        enumerate_basis(2, 0, 2)
    with pytest.raises(ParameterError):
        enumerate_basis(2, 1, -1)


def test_basis_FT_examples():
    assert len(enumerate_basis_FT(2, 1, [2])) == 3
    assert len(enumerate_basis_FT(3, 1, [1, 1])) == 4
    assert len(enumerate_basis_FT(3, 2, [1, 2])) == comb(3, 2) * comb(4, 2) == 18


def test_basis_FT_matches_brute_force():
    for (L, N, T) in [(2, 2, (3,)), (3, 1, (2, 1)), (3, 2, (1, 2)), (4, 1, (1, 1, 2))]:
        got = enumerate_basis_FT(L, N, T)
        assert set(got) == brute_F(L, N, T)


def test_basis_FT_errors():
    with pytest.raises(ParameterError):
        enumerate_basis_FT(3, 1, [1])
    with pytest.raises(ParameterError):
        enumerate_basis_FT(2, 1, [-1])


def test_poly_cancellation_and_degree():
    p = Polynomial.monomial(2, 1, (1,))
    z = p + p.scale(-1)
    assert z.degree() == -1
    assert not z


def test_poly_coefficient_of_missing_and_scale():
    p = Polynomial(2, 1, {(0,): F(3), (1,): F(2)})
    assert p.coefficient((0,)) == 3
    assert p.coefficient((5,)) == 0
    q = Polynomial(2, 1, {(0,): F(1, 2)}).scale(F(1, 3))
    assert q.coefficient((0,)) == F(1, 6)


def test_poly_rejects_decimal_coefficients():
    # coefficients are exact only: a decimal is a ParameterError, a non-number
    # a StructureError
    p = Polynomial(2, 1, {(0,): F(1)})
    for build in (lambda: Polynomial(2, 1, {(0,): 0.5}),
                  lambda: Polynomial(2, 1, {(0,): F(1), (1,): 0.5j}),
                  lambda: p.scale(0.5),
                  lambda: p.scale(0.0)):
        with pytest.raises(ParameterError, match="decimal"):
            build()
    for bad in (True, "1/2", None):
        with pytest.raises(StructureError):
            Polynomial(2, 1, {(0,): bad})
    assert p.coefficient((1,)) == F(0) and Polynomial.zero(2, 1).max_abs() == F(0)


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def poly_strategy():
    idx = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(idx, coeffs, max_size=4).map(
        lambda d: Polynomial(3, 1, {k: F(v) for k, v in d.items()}))


def naive(a, op, b):
    """a op b on plain {index: Fraction} dicts, term by term."""
    out = {}
    if op == "*":
        pairs = [(tuple(x + y for x, y in zip(A, B)), F(s) * F(t))
                 for A, s in a.terms.items() for B, t in b.terms.items()]
    else:
        sign = 1 if op == "+" else -1
        pairs = list(a.terms.items()) + [(B, sign * F(t)) for B, t in b.terms.items()]
    for C, v in pairs:
        out[C] = out.get(C, F(0)) + v
    return {C: v for C, v in out.items() if v != 0}


@settings(max_examples=120, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b).terms == naive(a, "+", b)
    assert (a - b).terms == naive(a, "-", b)
    assert (a * b).terms == naive(a, "*", b)
    assert not a - a


def test_arithmetic_across_contexts_is_a_structure_error():
    # L = 3, N = 1 and L = 2, N = 2 both have two variables
    a = Polynomial(3, 1, {(1, 0): F(1), (0, 2): F(-2, 3)})
    b = Polynomial(2, 2, {(1, 0): F(1), (0, 2): F(-2, 3)})
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(StructureError, match="different"):
            op(a, b)
        with pytest.raises(StructureError, match="different"):
            op(b, a)
    params = make_parameters(2, 2, e=[F(1, 3), F(1, 6)], kappa=[F(2, 7), F(3, 5)],
                             theta=[F(1, 11), F(1, 13)])
    with pytest.raises(StructureError, match="context"):
        flatten(Q(1, 1), params)(a)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), coeffs, coeffs)
def test_scale_linearity(p, s, t):
    assert p.scale(F(s)).scale(F(t)) == p.scale(F(s) * F(t))


def test_degree_of_products():
    rnd = random.Random(3)
    for _ in range(40):
        terms = {(rnd.randint(0, 3), rnd.randint(0, 3)): F(rnd.randint(1, 5))
                 for _ in range(3)}
        p = Polynomial(3, 1, terms)
        q = Polynomial(3, 1, {(1, 0): F(1)})
        assert (p * q).degree() == p.degree() + 1


def test_basis_brute_force_at_stated_bound():
    # the largest configuration the brute-force oracle covers: 6 variables,
    # degree cap 5
    got = enumerate_basis(3, 3, 5)
    assert set(got) == brute_V(3, 3, 5)
    assert len(got) == comb(5 + 6, 6)
