"""Pfaffian rows from the cohomology reduction, plus exact identity checks.

``pfaffian_from_cohomology`` assembles, for each degree-M multi-index A, the
row expressing planck * dc_A/dz_i as a combination of the c_B: the scalar
bracket on c_A itself plus shifted-index contributions with one raised/
lowered entry, a raise/lower pair within one time column, a transfer between
two time columns, and the four-entry double transfer.  A term whose shifted
target leaves the level set is dropped; such terms always carry a vanishing
guard entry (the lowered entry was 0, or the raise had no room because
A_0 = 0), so a nonvanishing coefficient pointing outside the basis would
indicate a transcription bug and is asserted against.

The identity checks evaluate both sides of the two-copy symmetrized
rational-function identities used to reduce the coboundary terms; with
exact rational inputs the residual must be exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError, StructureError
from .polyalg import enumerate_basis, flat_pos
from .weylops import Parameters
from .hypint import dictionary_M


def _display_row(A, L, N, M, alpha, beta, gamma, z, i):
    """Coefficients of planck*z_i*dc_A/dz_i on the c_B basis."""
    pos = lambda n, j: flat_pos(n, j, N)
    Av = lambda n, j: A[pos(n, j)]
    A0 = M - sum(A)
    di = sum(Av(n, i) for n in range(1, L))
    zi = z[i - 1]
    row = {}

    def add(B, c):
        if c == 0:
            return
        if any(x < 0 for x in B) or sum(B) > M:
            return
        B = tuple(B)
        row[B] = row.get(B, 0) + c

    def shifted(*moves):
        B = list(A)
        for (n, j, delta) in moves:
            B[pos(n, j)] += delta
        return B

    # scalar bracket on c_A
    s = -beta[i - 1] * M
    for n in range(1, L):
        inner = sum(alpha[m - 1] for m in range(n, L))
        inner += -(L - n) - beta[i - 1] + sum(Av(m, i) for m in range(1, n + 1))
        s -= Av(n, i) * inner
    s += (A0 * (di - beta[i - 1])
          - sum(Av(n, i) * Av(n, j) for j in range(1, N + 1) for n in range(1, L))
          + Av(1, i) * (M - gamma)) / (zi - 1)
    for j in range(1, N + 1):
        if j == i:
            continue
        zj = z[j - 1]
        dj = sum(Av(n, j) for n in range(1, L))
        s += zj / (zi - zj) * sum(
            Av(n, i) * (dj + Av(n, j) - beta[j - 1]) - beta[i - 1] * Av(n, j)
            for n in range(1, L))
    add(list(A), s)

    # one entry lowered
    for n in range(1, L):
        coeff = -(A0 + 1) * (
            sum(Av(n, j) for j in range(1, N + 1)) + (gamma - M if n == 1 else 0)
        ) / (zi - 1)
        add(shifted((n, i, -1)), coeff)

    # one entry raised
    for n in range(1, L):
        add(shifted((n, i, +1)), zi / (zi - 1) * (di - beta[i - 1]) * (Av(n, i) + 1))

    # raise/lower within column i
    for n in range(1, L):
        pref = -(sum(Av(n, j) for j in range(1, N + 1))
                 + (gamma - M if n == 1 else 0)) / (zi - 1)
        for m in range(1, n):
            add(shifted((m, i, +1), (n, i, -1)), pref * (Av(m, i) + 1))
        for m in range(n + 1, L):
            add(shifted((m, i, +1), (n, i, -1)), pref * zi * (Av(m, i) + 1))

    # double transfer between columns i and j
    for j in range(1, N + 1):
        if j == i:
            continue
        zj = z[j - 1]
        for n in range(1, L):
            pref = (Av(n, j) + 1) / (zi - zj)
            for m in range(1, n):
                add(shifted((m, j, -1), (m, i, +1), (n, i, -1), (n, j, +1)),
                    pref * zj * (Av(m, i) + 1))
            for m in range(n + 1, L):
                add(shifted((m, j, -1), (m, i, +1), (n, i, -1), (n, j, +1)),
                    pref * zi * (Av(m, i) + 1))

    # single transfer j -> i and i -> j
    for j in range(1, N + 1):
        if j == i:
            continue
        zj = z[j - 1]
        dj = sum(Av(n, j) for n in range(1, L))
        for n in range(1, L):
            add(shifted((n, j, -1), (n, i, +1)),
                zi / (zi - zj) * (beta[i - 1] - di) * (Av(n, i) + 1))
            add(shifted((n, i, -1), (n, j, +1)),
                zj / (zi - zj) * (beta[j - 1] - dj) * (Av(n, j) + 1))
    return row


def pfaffian_from_cohomology(params: Parameters, z, M: int, i: int):
    """The D x D matrix P_i(z) with planck * dc/dz_i = P_i(z) c, assembled
    from the shift coefficients of the cohomology reduction; exact for exact
    rational z."""
    exps = dictionary_M(params, M)
    L, N = params.L, params.N
    if not 1 <= i <= N:
        raise StructureError(f"time index {i} out of range")
    z = tuple(z)
    exact = all(isinstance(x, (int, Fraction)) for x in z)
    zt = tuple(Fraction(x) if exact else float(x) for x in z)
    alpha = list(exps.alpha)
    beta = list(exps.beta)
    gamma = exps.gamma
    if not exact:
        alpha = [float(x) for x in alpha]
        beta = [float(x) for x in beta]
        gamma = float(gamma)
    basis = enumerate_basis(L, N, M)
    idx = {A: k for k, A in enumerate(basis)}
    D = len(basis)
    zero = Fraction(0) if exact else 0.0
    P = [[zero] * D for _ in range(D)]
    zi = zt[i - 1]
    for A in basis:
        row = _display_row(A, L, N, M, alpha, beta, gamma, zt, i)
        for B, c in row.items():
            P[idx[A]][idx[B]] += c / zi
    return P


@dataclass(frozen=True)
class CohomologyComparison:
    exact_equal: bool
    max_abs_diff: object
    lambda_shift: object          # scalar if P - M is a multiple of identity, else None
    discrepancy: tuple            # the difference matrix rows (empty when equal)


def compare_cohomology_operator(params: Parameters, z, M: int, i: int) -> CohomologyComparison:
    """Exact entrywise comparison of P_i(z) with the operator restriction M_i(z).

    Tests exact equality first; if that fails, tests whether the difference
    is lambda(z) * identity and reports the discrepancy either way (never
    silently).
    """
    from .pfaffian import PfaffianSystem

    P = pfaffian_from_cohomology(params, z, M, i)
    Mi = PfaffianSystem(params, ("V", M)).matrix_at(i, z)
    D = len(P)
    diff = [[Mi[a][b] - P[a][b] for b in range(D)] for a in range(D)]
    maxdiff = max(abs(x) for row in diff for x in row)
    if maxdiff == 0:
        return CohomologyComparison(True, Fraction(0), None, ())
    offdiag = max((abs(diff[a][b]) for a in range(D) for b in range(D) if a != b),
                  default=Fraction(0))
    lam = None
    if offdiag == 0 and all(diff[a][a] == diff[0][0] for a in range(D)):
        lam = diff[0][0]
    return CohomologyComparison(False, maxdiff, lam, tuple(tuple(r) for r in diff))


# --- two-copy rational identity checks ---------------------------------------------

# The smallest L at which each identity has a valid (n, l); the checks run there.
LEMMA_MIN_L = {"l_lt_n": 3, "n_lt_l": 4, "one_lt_l": 3, "l_eq_n": 2, "l_eq_0": 2,
               "jacobi": 2, "f0": 2}
LEMMA_IDS = tuple(LEMMA_MIN_L)


class _Ratio:
    """An exact rational kept as an unreduced pair of ints: no gcd per step.

    Ratios over an equal denominator add without cross multiplication, which
    keeps sums over inputs that share one denominator small.
    """

    __slots__ = ("n", "d")

    def __init__(self, n, d=1):
        self.n = n
        self.d = d

    def __add__(a, b):
        if isinstance(b, int):
            return _Ratio(a.n + b * a.d, a.d)
        if a.d == b.d:
            return _Ratio(a.n + b.n, a.d)
        return _Ratio(a.n * b.d + b.n * a.d, a.d * b.d)

    __radd__ = __add__

    def __neg__(a):
        return _Ratio(-a.n, a.d)

    def __sub__(a, b):
        if isinstance(b, int):
            return _Ratio(a.n - b * a.d, a.d)
        if a.d == b.d:
            return _Ratio(a.n - b.n, a.d)
        return _Ratio(a.n * b.d - b.n * a.d, a.d * b.d)

    def __rsub__(a, b):
        return _Ratio(b * a.d - a.n, a.d)

    def __mul__(a, b):
        if isinstance(b, int):
            return _Ratio(a.n * b, a.d)
        return _Ratio(a.n * b.n, a.d * b.d)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if not b.n:
            raise ZeroDivisionError("division by zero")
        return _Ratio(a.n * b.d, a.d * b.n)

    def __rtruediv__(a, b):
        if not a.n:
            raise ZeroDivisionError("division by zero")
        return _Ratio(b * a.d, a.n)


def _reduced(r):
    """|r| as a reduced Fraction: the one gcd of a residual."""
    return abs(Fraction(r.n, r.d))


def _ratios(*xs):
    """Exact rationals as ``_Ratio``s over their least common denominator."""
    xs = [Fraction(x) for x in xs]
    q = math.lcm(*(x.denominator for x in xs))
    return [_Ratio(x.numerator * (q // x.denominator), q) for x in xs]


def _copy(c, zs):
    """One copy's ``f0 = 1/prod g_m`` and, for each z in ``zs``, the row
    ``[f_1(z), ..., f_{L-1}(z)]`` with ``f_n(z) = f0 g_n / (1 - z c_last)``;
    the g_m are the chain gaps ``t_{m-1} - t_m`` with t_0 = 1."""
    gaps = [a - b for a, b in zip((1,) + c, c)]
    f0 = 1 / math.prod(gaps)
    return f0, [[h * g for g in gaps] for h in (f0 / (1 - z * c[-1]) for z in zs)]


def _C(n, c1, c2, L):
    """C(n, 1, 2): copy-1 coordinates against copy-2 partners; t_0^(2) = 1 and
    no partner below the last level."""
    out = 0
    chain2 = (1,) + c2
    for m in range(n, L):
        tm = c1[m - 1]
        term = -1 / (tm - chain2[m - 1]) + 2 / (tm - c2[m - 1])
        if m <= L - 2:
            term += -1 / (tm - c2[m])
        out += tm * term
    if n == 1:
        out += c1[0] / (c1[0] - 1)
    return out


def lemma_residual(lemma_id: str, *, L, t1=None, t2=None, zi=None, zj=None,
                   n=None, l=None, t=None):
    """|LHS - RHS| of one displayed identity at an exact sample point.

    The inputs are exact rationals; the sides are rational functions, so the
    residual is exactly zero whenever the identity holds.  ``zj = zi`` selects
    the degenerate clauses (the cross-index lines drop out).  Both sides are
    evaluated on unreduced integer ratios and reduced once, to a Fraction; a
    zero divisor raises ZeroDivisionError.
    """
    if lemma_id not in LEMMA_MIN_L:
        raise ParameterError(f"unknown lemma id {lemma_id!r}; pick one of {LEMMA_IDS}")
    if lemma_id == "l_lt_n" and not (1 <= l < n <= L - 1):
        raise ParameterError("l_lt_n requires 1 <= l < n <= L-1")
    if lemma_id == "n_lt_l" and not (2 <= n < l <= L - 1):
        raise ParameterError("n_lt_l requires 2 <= n < l <= L-1")
    if lemma_id in ("l_eq_n", "l_eq_0") and not 1 <= n <= L - 1:
        raise ParameterError(f"{lemma_id} requires 1 <= n <= L-1")
    if lemma_id == "one_lt_l":
        if n not in (None, 1):
            raise ParameterError("one_lt_l fixes n = 1")
        n = 1
        if not 1 < l <= L - 1:
            raise ParameterError("one_lt_l requires 1 < l <= L-1")

    if lemma_id == "jacobi":
        t, zi, zj = _ratios(t, zi, zj)
        lhs = t / (1 - zi * t)
        rhs = (1 - zj * t) / (zi - zj) * (1 / (1 - zi * t) - 1 / (1 - zj * t))
        return _reduced(lhs - rhs)
    if lemma_id == "f0":
        *c, zi = _ratios(*(t1[m] for m in range(L - 1)), zi)
        f0, (fi,) = _copy(tuple(c), (zi,))
        lhs = c[-1] / (1 - zi * c[-1])
        rhs = (-f0 + sum(fi)) / ((zi - 1) * f0)
        return _reduced(lhs - rhs)

    # Copy k takes t2 at the levels whose bit is set in k, t1 elsewhere; its
    # partner is the complement.  Every term of every identity below carries
    # 1/(c1_last c2_last) = 1/(t1_last t2_last) whatever the swap, so that
    # factor is left out of the terms and applied once at the end.
    degenerate = zj == zi
    zs = (zi,) if degenerate or lemma_id == "l_eq_0" else (zi, zj)
    xs = _ratios(*(t1[m] for m in range(L - 1)), *(t2[m] for m in range(L - 1)), *zs)
    t1, t2, zs = tuple(xs[:L - 1]), tuple(xs[L - 1:2 * L - 2]), xs[2 * L - 2:]
    zi, zj = zs[0], zs[-1]
    full = (1 << (L - 1)) - 1
    cs = [tuple(t2[m] if k >> m & 1 else t1[m] for m in range(L - 1))
          for k in range(full + 1)]
    copies = [_copy(c, zs) for c in cs]
    # f0, f_m(zi) and f_m(zj) of copy k, 1-based in m
    f0 = lambda k: copies[k][0]
    fi = lambda k, m: copies[k][1][0][m - 1]
    fj = lambda k, m: copies[k][1][-1][m - 1]

    def sym2(u, v):
        """Sum of u(copy 1) v(copy 2) over the per-level swaps."""
        return sum(u(k) * v(full ^ k) for k in range(full + 1))

    def lhs_with(v):
        """Sum of C(n, 1, 2) f_n(copy 1, zi) v(copy 2) over the swaps."""
        return sum(_C(n, cs[k], cs[full ^ k], L) * fi(k, n) * v(full ^ k)
                   for k in range(full + 1))

    if lemma_id == "l_lt_n":
        lhs = lhs_with(lambda k: fj(k, l))
        rhs = sym2(lambda k: fi(k, n), lambda k: fi(k, l))
        if not degenerate:
            rhs += zj / (zi - zj) * sym2(lambda k: fi(k, n) - fj(k, n),
                                         lambda k: fi(k, l) - fj(k, l))
    elif lemma_id in ("n_lt_l", "one_lt_l"):
        lhs = lhs_with(lambda k: fj(k, l))
        rhs = 0
        if not degenerate:
            rhs += sym2(lambda k: fi(k, n) - fj(k, n),
                        lambda k: zi * fi(k, l) - zj * fj(k, l)) / (zi - zj)
        if lemma_id == "one_lt_l":
            rhs += sym2(lambda k: f0(k) - fi(k, 1) - zi * sum(fi(k, m) for m in range(2, L)),
                        lambda k: fj(k, l)) / (zi - 1)
    elif lemma_id == "l_eq_n":
        lhs = lhs_with(lambda k: fj(k, n))
        rhs = sym2(lambda k: fi(k, n), lambda k: fi(k, n))
        if n != 1:
            rhs += sym2(lambda k: -f0(k) + sum(fi(k, m) for m in range(1, n + 1))
                        + zi * sum(fi(k, m) for m in range(n + 1, L)),
                        lambda k: fj(k, n)) / (zi - 1)
        if not degenerate:
            rhs += zj / (zi - zj) * sym2(lambda k: fi(k, n) - fj(k, n),
                                         lambda k: fi(k, n) - fj(k, n))
    else:  # l_eq_0
        lhs = lhs_with(f0)
        rhs = sym2(lambda k: fi(k, n),
                   lambda k: -(2 if n == 1 else 1) * f0(k)
                   + zi * sum(fi(k, m) for m in range(1, L))) / (zi - 1)
        if n == 1:
            rhs += sym2(lambda k: f0(k) - zi * sum(fi(k, m) for m in range(2, L)),
                        f0) / (zi - 1)
    return _reduced((lhs - rhs) / (t1[-1] * t2[-1]))


def random_lemma_sample(lemma_id: str, L: int, rng):
    """Exact rational sample off every singular locus of the identities.

    Every coordinate (the t's, zi, zj) is drawn distinct from the others and
    lies strictly inside (0, 1), so no gap, difference, 1 - z t or zi - 1 of
    ``lemma_residual`` is zero and no division there can fail.
    """
    def rq():
        return Fraction(rng.randint(1, 60), 61) + Fraction(rng.randint(0, 6), 431)

    vals = set()
    def fresh():
        while True:
            x = rq()
            if x not in vals and x != 0 and x != 1:
                vals.add(x)
                return x

    sample = {"L": L}
    if lemma_id == "jacobi":
        sample.update(t=fresh(), zi=fresh(), zj=fresh())
        return sample
    sample["t1"] = tuple(fresh() for _ in range(L - 1))
    sample["zi"] = fresh()
    if lemma_id == "f0":
        return sample
    sample["t2"] = tuple(fresh() for _ in range(L - 1))
    sample["zj"] = fresh()
    if lemma_id == "l_lt_n":
        n = rng.randint(2, L - 1)
        sample.update(n=n, l=rng.randint(1, n - 1))
    elif lemma_id == "n_lt_l":
        n = rng.randint(2, L - 2)
        sample.update(n=n, l=rng.randint(n + 1, L - 1))
    elif lemma_id == "one_lt_l":
        sample.update(l=rng.randint(2, L - 1))
    elif lemma_id in ("l_eq_n", "l_eq_0"):
        sample.update(n=rng.randint(1, L - 1))
    return sample
