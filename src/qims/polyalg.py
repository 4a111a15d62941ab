"""Multi-index bases, sparse linear combinations and the exactness check.

Monomials in the variables ``q_m^(i)`` (level m = 1..L-1, time index
i = 1..N) are indexed by flat row-major tuples of nonnegative integers:
position ``(m-1)*N + (i-1)`` holds the exponent of ``q_m^(i)``.  A
polynomial is a sparse map {index: coefficient}; :func:`lin` sums such
maps.  The exact algebra takes ``int`` or ``Fraction`` scalars only, and
:func:`check_exact` rejects a decimal (``float`` or ``complex``) with a
:class:`~qims.errors.ParameterError`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, prod

from .errors import ParameterError, StructureError

Index = tuple  # flat row-major exponent tuple of length (L-1)*N


def flat_pos(m: int, i: int, N: int) -> int:
    """Flat position of variable q_m^(i); m and i are 1-based."""
    return (m - 1) * N + (i - 1)


def _simplex(k: int, cap: int):
    # All k-tuples of nonnegative ints with sum <= cap.
    if k == 0:
        yield ()
        return
    for head in range(cap + 1):
        for rest in _simplex(k - 1, cap - head):
            yield (head,) + rest


def _graded(tuples) -> list[Index]:
    # graded lexicographic order: total degree, then row-major entries
    return sorted(tuples, key=lambda A: (sum(A), A))


def enumerate_basis(L: int, N: int, M: int) -> list[Index]:
    """All exponent tuples with d(A) <= M in graded lexicographic order.

    Grade is the total degree; ties are broken by row-major comparison of
    the entries.  The length is binomial(M + (L-1)N, (L-1)N).
    """
    if L < 2 or N < 1 or M < 0:
        raise ParameterError(f"need L >= 2, N >= 1, M >= 0, got L={L}, N={N}, M={M}")
    k = (L - 1) * N
    out = _graded(_simplex(k, M))
    assert len(out) == comb(M + k, k)
    return out


def enumerate_basis_FT(L: int, N: int, T) -> list[Index]:
    """All exponent tuples with d_m(A) <= T_m per level, in graded
    lexicographic order: the tuples of :func:`enumerate_basis` at M = sum(T)
    whose level sums fit, built as the product of one simplex per level.

    The length is the product over levels of binomial(T_m + N, N).
    """
    T = tuple(T)
    if L < 2 or N < 1:
        raise ParameterError(f"need L >= 2, N >= 1, got L={L}, N={N}")
    if len(T) != L - 1:
        raise ParameterError(f"T must have length L-1={L - 1}, got {len(T)}")
    if any(t < 0 for t in T):
        raise ParameterError(f"level caps must be nonnegative, got {T}")
    out = _graded(sum(parts, ()) for parts in product(*(_simplex(N, t) for t in T)))
    assert len(out) == prod(comb(t + N, N) for t in T)
    return out


def check_exact(x):
    """``x`` if it is an ``int`` or ``Fraction``; a decimal is a ParameterError,
    any other type a StructureError."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, (float, complex)):
        raise ParameterError(f"the algebra is exact and takes no decimal scalar {x!r}; "
                             "give exact rationals ('p/q' strings or integers)")
    raise StructureError(f"unsupported scalar type {type(x).__name__}")


def lin(terms):
    """Sum of c * m over the (c, m) in ``terms``, for sparse maps m {key: value}:
    a new map without zero values.  Every m is only read, never written."""
    acc = {}
    for c, m in terms:
        for k, x in m.items():
            acc[k] = acc.get(k, 0) + c * x
    return {k: x for k, x in acc.items() if x}


def max_abs(m):
    """Largest magnitude among the values of the sparse map ``m`` (0 when empty)."""
    return max((abs(x) for x in m.values()), default=0)
