from fractions import Fraction as F
from itertools import product
from math import comb

import pytest

from qims.errors import ParameterError, StructureError
from qims.polyalg import check_exact, enumerate_basis, enumerate_basis_FT


def brute_V(L, N, M):
    k = (L - 1) * N
    return {t for t in product(range(M + 1), repeat=k) if sum(t) <= M}


def brute_F(L, N, T):
    k = (L - 1) * N
    cap = max(T)
    out = set()
    for t in product(range(cap + 1), repeat=k):
        if all(sum(t[(m - 1) * N:m * N]) <= T[m - 1] for m in range(1, L)):
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
        assert got == sorted(brute_F(L, N, T), key=lambda A: (sum(A), A))  # graded-lex


@pytest.mark.parametrize("L,N", [(L, N) for L in (2, 3, 4) for N in (1, 2, 3)])
def test_basis_FT_is_the_filtered_V_basis_in_its_order(L, N):
    # the per-level product lists the level-capped tuples of V(sum T), in V's order
    levels = range(L - 1)
    for T in {(0,) * (L - 1), (2,) * (L - 1), tuple(levels), tuple(3 - m for m in levels),
              tuple(1 + m % 2 for m in levels)}:
        cuts = range(0, (L - 1) * N, N)
        want = [A for A in enumerate_basis(L, N, sum(T))
                if all(sum(A[k:k + N]) <= t for k, t in zip(cuts, T))]
        assert enumerate_basis_FT(L, N, T) == want, T


def test_basis_FT_errors():
    with pytest.raises(ParameterError):
        enumerate_basis_FT(3, 1, [1])
    with pytest.raises(ParameterError):
        enumerate_basis_FT(2, 1, [-1])


def test_poly_rejects_decimal_coefficients():
    # coefficients are exact only: a decimal is a ParameterError, a non-number
    # a StructureError
    for bad in (0.5, 0.5j, 0.0):
        with pytest.raises(ParameterError, match="decimal"):
            check_exact(bad)
    for bad in (True, "1/2", None):
        with pytest.raises(StructureError):
            check_exact(bad)
    assert check_exact(F(1, 2)) == F(1, 2) and check_exact(0) == 0


def test_basis_brute_force_at_stated_bound():
    # the largest configuration the brute-force oracle covers: 6 variables,
    # degree cap 5
    got = enumerate_basis(3, 3, 5)
    assert set(got) == brute_V(3, 3, 5)
    assert len(got) == comb(5 + 6, 6)
