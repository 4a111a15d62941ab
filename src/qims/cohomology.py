"""Pfaffian residues from the cohomology reduction, plus exact identity checks.

``pfaffian_from_cohomology`` assembles, for each degree-M multi-index A, the
row expressing planck * dc_A/dz_i as a combination of the c_B: the scalar
bracket on c_A itself plus shifted-index contributions with one raised/
lowered entry, a raise/lower pair within one time column, a transfer between
two time columns, and the four-entry double transfer.  Each term of
planck * z_i * dc_A/dz_i is c, c x/(z_i - 1) or c x/(z_i - z_j) with x = z_i
or the pole, so dividing by z_i leaves constant residues at the points
(0, 1, z_1..z_N): the assembly takes no z.  A term whose shifted target
leaves the level set is dropped, whatever its coefficient; exact residue
equality with the operator restriction (``compare_cohomology_operator``) is
the check that validates this.

The identity checks evaluate both sides of the two-copy symmetrized
rational-function identities used to reduce the coboundary terms; with
exact rational inputs the residual must be exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, StructureError
from .polyalg import enumerate_basis, flat_pos
from .weylops import Parameters, check_z
from .hypint import dictionary_M
from .pfaffian import _combine, _max_abs, residue_sum, restricted_residues


def _display_row(A, L, N, M, alpha, beta, gamma, i):
    """Residues {p: {B: coefficient}} of planck*dc_A/dz_i on the c_B basis at
    the points p of ``PfaffianSystem.residues[i]``."""
    pos = lambda n, j: flat_pos(n, j, N)
    Av = lambda n, j: A[pos(n, j)]
    A0 = M - sum(A)
    di = sum(Av(n, i) for n in range(1, L))
    row = {p: {} for p in range(N + 2) if p != i + 1}

    def add(B, c, p, x_is_pole=False):
        """Enter the term c x/(z_i - point p) of planck*z_i*dc_A/dz_i, with
        x = z_i, or x = point p if ``x_is_pole``: x/(z_i (z_i - point p)) is
        1/(z_i - point p), less 1/z_i if x = point p.  p = 0 is the constant c."""
        if c == 0 or any(x < 0 for x in B) or sum(B) > M:
            return
        B = tuple(B)
        for q, cq in ((p, c), (0, -c)) if x_is_pole else ((p, c),):
            row[q][B] = row[q].get(B, 0) + cq

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
    add(A, s, 0)
    add(A, A0 * (di - beta[i - 1])
        - sum(Av(n, i) * Av(n, j) for j in range(1, N + 1) for n in range(1, L))
        + Av(1, i) * (M - gamma), 1, True)
    for j in range(1, N + 1):
        if j == i:
            continue
        dj = sum(Av(n, j) for n in range(1, L))
        add(A, sum(Av(n, i) * (dj + Av(n, j) - beta[j - 1]) - beta[i - 1] * Av(n, j)
                   for n in range(1, L)), j + 1, True)

    # one entry lowered
    for n in range(1, L):
        coeff = -(A0 + 1) * (
            sum(Av(n, j) for j in range(1, N + 1)) + (gamma - M if n == 1 else 0))
        add(shifted((n, i, -1)), coeff, 1, True)

    # one entry raised
    for n in range(1, L):
        add(shifted((n, i, +1)), (di - beta[i - 1]) * (Av(n, i) + 1), 1)

    # raise/lower within column i
    for n in range(1, L):
        pref = -(sum(Av(n, j) for j in range(1, N + 1)) + (gamma - M if n == 1 else 0))
        for m in range(1, n):
            add(shifted((m, i, +1), (n, i, -1)), pref * (Av(m, i) + 1), 1, True)
        for m in range(n + 1, L):
            add(shifted((m, i, +1), (n, i, -1)), pref * (Av(m, i) + 1), 1)

    # double transfer between columns i and j
    for j in range(1, N + 1):
        if j == i:
            continue
        for n in range(1, L):
            pref = Av(n, j) + 1
            for m in range(1, n):
                add(shifted((m, j, -1), (m, i, +1), (n, i, -1), (n, j, +1)),
                    pref * (Av(m, i) + 1), j + 1, True)
            for m in range(n + 1, L):
                add(shifted((m, j, -1), (m, i, +1), (n, i, -1), (n, j, +1)),
                    pref * (Av(m, i) + 1), j + 1)

    # single transfer j -> i and i -> j
    for j in range(1, N + 1):
        if j == i:
            continue
        dj = sum(Av(n, j) for n in range(1, L))
        for n in range(1, L):
            add(shifted((n, j, -1), (n, i, +1)), (beta[i - 1] - di) * (Av(n, i) + 1), j + 1)
            add(shifted((n, i, -1), (n, j, +1)),
                (beta[j - 1] - dj) * (Av(n, j) + 1), j + 1, True)
    return row


def _residues(params: Parameters, M: int, i: int):
    """The residues of P_i as sparse rows over the degree-M basis, indexed as
    ``PfaffianSystem.residues[i]``."""
    exps = dictionary_M(params, M)
    L, N = params.L, params.N
    if not 1 <= i <= N:
        raise StructureError(f"time index {i} out of range")
    basis = enumerate_basis(L, N, M)
    idx = {A: k for k, A in enumerate(basis)}
    rows = [_display_row(A, L, N, M, exps.alpha, exps.beta, exps.gamma, i) for A in basis]
    return {p: [{idx[B]: c for B, c in row[p].items() if c} for row in rows] for p in rows[0]}


def pfaffian_from_cohomology(params: Parameters, z, M: int, i: int):
    """The D x D matrix P_i(z) with planck * dc/dz_i = P_i(z) c: the residues
    of the cohomology reduction summed at z; exact for exact rational z."""
    residues = _residues(params, M, i)
    return residue_sum(residues, check_z(params, z), i)


@dataclass(frozen=True)
class CohomologyComparison:
    exact_equal: bool
    max_abs_diff: object          # worst entry of a residue difference
    lambda_shift: object          # scalar at z if M_i - P_i is a multiple of identity, else None
    discrepancy: tuple            # the difference matrix rows at z (empty when equal)


def compare_cohomology_operator(params: Parameters, z, M: int, i: int) -> CohomologyComparison:
    """Exact residue-by-residue comparison of P_i with the operator restriction M_i.

    Equal residues at every point p prove P_i = M_i at every z.  Otherwise the
    difference is reported, never silently: ``lambda_shift`` is set when each
    residue difference is lambda_p times the identity (a gauge by a scalar
    function), as sum_p lambda_p / (z_i - point p) at z, and ``discrepancy``
    is M_i(z) - P_i(z).
    """
    P = _residues(params, M, i)
    z = check_z(params, z)
    basis = enumerate_basis(params.L, params.N, M)
    Mi = restricted_residues(params, i, basis, {A: k for k, A in enumerate(basis)}, f"V{M}")
    diff = {p: _combine([(1, Mi[p]), (-1, R)]) for p, R in P.items()}
    worst = max(_max_abs(R) for R in diff.values())
    if worst == 0:
        return CohomologyComparison(True, Fraction(0), None, ())
    lams = {p: R[0].get(0, 0) for p, R in diff.items()}
    lam = None
    if all(row.keys() <= {a} and row.get(a, 0) == lams[p]
           for p, R in diff.items() for a, row in enumerate(R)):
        lam = residue_sum({p: [{0: x}] for p, x in lams.items()}, z, i)[0][0]
    discrepancy = residue_sum(diff, z, i)
    return CohomologyComparison(False, worst, lam, tuple(tuple(r) for r in discrepancy))


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


def _coordinate(rng):
    """a/61 + b/431 for a in 1..60, b in 0..6, as one Fraction over 61 * 431."""
    a = rng.randint(1, 60)
    return Fraction(431 * a + 61 * rng.randint(0, 6), 26291)


def random_lemma_sample(lemma_id: str, L: int, rng):
    """Exact rational sample off every singular locus of the identities.

    Every coordinate (the t's, zi, zj) is drawn distinct from the others and
    lies strictly inside (0, 1), so no gap, difference, 1 - z t or zi - 1 of
    ``lemma_residual`` is zero and no division there can fail.
    """
    vals = set()
    def fresh():
        while True:
            x = _coordinate(rng)
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
