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
exact rational inputs the residual must be exactly zero.  ``lemma_round``
is one round of ``qims check lemmas``: each level L = max(model L,
LEMMA_MIN_L[lemma]) draws one exact point, shared by that level's
identities, whose copies, f-row prefix sums and C(n, 1, 2) table are built
once (``_Point``); each identity still gets one point per round, so
``lemma_samples`` points in all, and draws its own (n, l).
``lemma_residual`` is the one-identity case of the same evaluator.  The
evaluator runs in plain ints: a point's f0, f-rows and prefix sums are
numerators over one denominator shared by all copies, each C(n, 1, 2)
column numerators over its own, and each identity is a few int sums over
the swaps, combined with their prefactors and reduced once to a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add, mul, sub

from .errors import ParameterError
from .polyalg import check_exact, enumerate_basis, flat_pos
from .weylops import Parameters, check_times, check_z
from .hypint import dictionary_M
from .pfaffian import (_cleared, _combine_residues, _max_abs, require_exact, residue_sum,
                       restricted_residues)


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
    """The residues of P_i over the degree-M basis, in the form and indexing of
    ``PfaffianSystem.residues[i]``.  The reduction assumes kappa_n = 1 for
    2 <= n <= L-1 at every M, degree 1 included."""
    require_exact(params)
    exps = dictionary_M(params, M)
    L, N = params.L, params.N
    for n in range(2, L):
        if params.kappa[n] != 1:
            raise ParameterError(
                f"the cohomology reduction requires kappa_{n} = 1, got {params.kappa[n]}")
    check_times(N, i)
    basis = enumerate_basis(L, N, M)
    idx = {A: k for k, A in enumerate(basis)}
    rows = [_display_row(A, L, N, M, exps.alpha, exps.beta, exps.gamma[0], i) for A in basis]
    return {p: _cleared([{idx[B]: c for B, c in row[p].items()} for row in rows])
            for p in rows[0]}


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
    if all(Mi[p] == R for p, R in P.items()):  # both in lowest terms
        return CohomologyComparison(True, Fraction(0), None, ())
    diff = {p: _combine_residues([(1, Mi[p]), (-1, R)]) for p, R in P.items()}
    worst = max(Fraction(_max_abs(rows), den) for den, rows in diff.values())
    discrepancy = residue_sum(diff, z, i)
    scalar = all(row.keys() <= {a} and row.get(a, 0) == rows[0].get(0, 0)
                 for den, rows in diff.values() for a, row in enumerate(rows))
    lam = discrepancy[0][0] if scalar else None  # lambda(z) I is the whole difference
    return CohomologyComparison(False, worst, lam, tuple(tuple(r) for r in discrepancy))


# --- two-copy rational identity checks ---------------------------------------------

# The smallest L at which each identity has a valid (n, l); the checks run there.
LEMMA_MIN_L = {"l_lt_n": 3, "n_lt_l": 4, "one_lt_l": 3, "l_eq_n": 2, "l_eq_0": 2,
               "jacobi": 2, "f0": 2}
LEMMA_IDS = tuple(LEMMA_MIN_L)


def _reduced(terms, num=1, den=1):
    """|sum of a/b over the int pairs (a, b) of ``terms``| times num/den, as a
    reduced Fraction: the one gcd of a residual.  A zero b or den raises
    ZeroDivisionError."""
    top, bottom = 0, 1
    for a, b in terms:
        top, bottom = top * b + a * bottom, bottom * b
    return abs(Fraction(top * num, bottom * den))


def _numerators(*xs):
    """``(q, [X, ...])``: the exact rationals xs (ints or Fractions) as integer
    numerators X over their least common denominator q."""
    q = math.lcm(*(x.denominator for x in xs))
    return q, [x.numerator * (q // x.denominator) for x in xs]


def _f_tables(L, q, X, Z):
    """``(D, f0, rows)``: every copy's f0 and its f-rows at each z of ``Z`` as
    integer numerators over one denominator D, with ``f0[k]`` and
    ``rows[z][m-1][k]`` for copy k and level m.

    ``X`` holds the integer numerators over q of one chain (copy 0 only) or
    of two (all 2^(L-1) copies), ``Z`` those of the z's.  A copy's gap at
    level m, G_m = c_{m-1} - c_m with c_0 = q, is one of the four values
    fixed by the chains of levels m-1 and m (of two at m = 1), and its pole
    q^2 - Z c_last one of two per z.  D = P W is the product P of these
    distinct gaps times the product W of the poles, so with the copy's scale
    s = P/prod G_m, f0 = 1/prod g_m is q^(L-1) s W/D and f_m(z) =
    f0 g_m/(1 - z c_last) is q^L G_m s (W/(q^2 - Z c_last))/D.
    """
    levels = [[q - x[0] for x in X]]
    levels += [[a[m - 1] - b[m] for a in X for b in X] for m in range(1, L - 1)]
    poles = [q * q - z * x[-1] for z in Z for x in X]
    P, W = math.prod(map(math.prod, levels)), math.prod(poles)
    if not (P and W):
        raise ZeroDivisionError("division by zero")
    chains = [[X[k >> m & 1][m] for m in range(L - 1)] for k in range(len(X) ** (L - 1))]
    gaps = [list(map(sub, (q, *c), c)) for c in chains]
    scale = [P // math.prod(g) for g in gaps]
    by_level = list(zip(*gaps))
    rows = []
    for z in Z:
        w = [q ** L * W // (q * q - z * x[-1]) for x in X]
        base = [s * w[k >> (L - 2) & 1] for k, s in enumerate(scale)]
        rows.append([list(map(mul, base, g)) for g in by_level])
    top = q ** (L - 1) * W
    return P * W, [top * s for s in scale], rows


def _c_columns(L, t1, t2):
    """``(E_n, [numerator of C(n, 1, 2) over E_n for each copy k])`` for
    n = L-1 down to 1, from the integer numerators ``t1``, ``t2`` of
    coordinates over one denominator.

    C(n, 1, 2) sums, over the levels m = n..L-1, copy 1's t_m times
    -1/(t_m - t_{m-1}^(2)) + 2/(t_m - t_m^(2)) - 1/(t_m - t_{m+1}^(2)), with
    no partner below the last level; C(1, 1, 2) adds t_1/(t_1 - 1), which
    cancels level 1's first fraction (t_0^(2) = 1).  Level m's divisors are
    +-d_m = +-(t1_m - t2_m) and the four cross differences a_{m-1} - b_m
    (product A_m, A_1 = 1) and a_m - b_{m+1} (product A_{m+1}) of chains a, b,
    so C(n) has the denominator E_n = d_n A_n E_{n+1} (E_L = 1) and each
    C(n) is C(n + 1) plus level n's term.  A level's term reads only the swap
    bits of levels m-1..m+1, so each level has at most 8 distinct numerators.
    """
    full = (1 << (L - 1)) - 1
    X = (t1, t2)
    cross = {m: [a[m - 2] - b[m - 1] for a in X for b in X] for m in range(2, L)}
    col, E, R, B = None, 1, 1, 1  # R = E_{m+1}/A_{m+1}, B = A_{m+1}
    for m in range(L - 1, 0, -1):
        d = t1[m - 1] - t2[m - 1]
        A = math.prod(cross[m]) if m > 1 else 1
        if not (d and A):
            raise ZeroDivisionError("division by zero")
        shift, mask = (m - 2, 7) if m > 1 else (0, 3)
        two, dA, dB = 2 * A * B, d * A, d * B
        terms = []
        for key in range(min(mask, full >> shift) + 1):
            # the chains of levels m-1, m, m+1 in this swap
            lo, b, hi = (key & 1, key >> 1 & 1, key >> 2) if m > 1 else (0, key & 1, key >> 1)
            inner = two if b == 0 else -two  # 2/(t_m - t_m^(2)), t_m^(2) on chain 1 - b
            if m > 1:
                inner += dB * (A // cross[m][2 - 2 * lo + b])
            if m < L - 1:
                inner -= dA * (B // cross[m + 1][2 * b + 1 - hi])
            terms.append(X[b][m - 1] * inner * R)
        row = [terms[k >> shift & mask] for k in range(full + 1)]
        scale = d * A
        col = row if col is None else [c * scale + u for c, u in zip(col, row)]
        R, E, B = E * d, E * scale, A
        yield E, col


def _jacobi(q, t, zi, zj):
    """The jacobi residual at t, zi, zj given as integer numerators over q:
    with w = q^2 (1 - z t), the sides are q t/w_i and q (w_j - w_i)/((zi - zj) w_i)."""
    wi, wj = q * q - zi * t, q * q - zj * t
    return _reduced([(q * wj * (t * (zi - zj) - wj + wi), wi * wj * (zi - zj))])


def _sym2(u, v):
    """Sum of u(copy 1) v(copy 2) over the per-level swaps, for lists over the
    copies k: copy 2 of swap k is copy full ^ k = full - k."""
    return sum(map(mul, u, reversed(v)))


class _Point:
    """One exact point (t1, t2, zi, zj) and its tables, shared by every
    identity evaluated there.

    The coordinates are exact rationals (ints or Fractions), held as integer
    numerators over one denominator.  Copy k takes t2 at the levels whose
    bit is set in k, t1 elsewhere; its partner is the complement
    ``full ^ k``.  Built once, in plain ints: every copy's f0, its f-rows at
    zi and zj and the prefix sums of its zi row over one shared denominator
    (``_f_tables``), and C(n, 1, 2) for every swap and every n down to the
    lowest asked for, over one denominator per n (``_c_columns``).  Without
    t2 only copy 0 (all t1) is built, which is all the identity f0 reads.
    Without zj, or at zj = zi, the zj row is the zi row and the cross-index
    lines drop out.
    """

    def __init__(self, L, t1, t2, zi, zj=None):
        zs = (zi,) if zj is None or zj == zi else (zi, zj)
        q, xs = _numerators(*t1, *(t2 or ()), *zs)
        split = len(xs) - len(zs)
        X = (xs[:L - 1], xs[L - 1:split]) if t2 else (xs[:L - 1],)
        self.L, self.q, self.X, self.Z, self.degenerate = L, q, X, xs[split:], len(zs) == 1
        self.den, self.f0, rows = _f_tables(L, q, X, self.Z)
        self.fi, self.fj = rows[0], rows[-1]
        self.pi = list(accumulate(self.fi, lambda a, b: list(map(add, a, b))))
        self.columns = _c_columns(L, *X) if t2 else None
        self.C = []  # (E_n, C(n, 1, 2)) for n = L-1, L-2, ... as far as built

    def c_column(self, n):
        """C(n, 1, 2) of every swap, as (denominator, numerators); the levels
        below n are never built, so a pole there does not raise."""
        while len(self.C) < self.L - n:
            self.C.append(next(self.columns))
        return self.C[self.L - 1 - n]

    def residual(self, lemma_id, n=None, l=None):
        """|LHS - RHS| of one identity here: each side's block sums are ints,
        combined with their prefactors and reduced once to a Fraction."""
        q, zi, zj = self.q, self.Z[0], self.Z[-1]
        if lemma_id == "jacobi":
            return _jacobi(q, self.X[0][-1], zi, zj)
        # f0[k], and fi[m-1][k], fj[m-1][k], pi[m-1][k] for f_m(zi), f_m(zj) and
        # f_1(zi) + ... + f_m(zi) of copy k, all over self.den
        f0, fi, fj, pi = self.f0, self.fi, self.fj, self.pi
        if lemma_id == "f0":
            t, p, f = self.X[0][-1], pi[-1][0], f0[0]
            w = q * q - zi * t  # q^2 (1 - zi t)
            return _reduced([(q * (t * (zi - q) * f - w * (p - f)), w * (zi - q) * f)])

        # Each side is a few sums of copy-1 by copy-2 products over the swaps,
        # kept as (int sum, int divisor) pairs: the divisor carries the sum's
        # prefactor, zj/(zi - zj), 1/(zi - zj) or 1/(zi - 1), with the q's of
        # zi, zj cancelled, and C(n, 1, 2)'s denominator.  Every term also
        # carries 1/den^2 and 1/(c1_last c2_last) = 1/(t1_last t2_last)
        # whatever the swap; those are applied once at the end.
        if lemma_id == "one_lt_l":
            n = 1
        E, C = self.c_column(n)
        fin, fjn, last = fi[n - 1], fj[n - 1], pi[-1]
        cf = list(map(mul, C, fin))  # C(n, 1, 2) f_n(zi) of copy 1
        diff = lambda u, v: list(map(sub, u, v))
        if lemma_id == "l_lt_n":
            fil, fjl = fi[l - 1], fj[l - 1]
            terms = [(_sym2(cf, fjl), E), (-_sym2(fin, fil), 1)]
            if not self.degenerate:
                terms.append((-zj * _sym2(diff(fin, fjn), diff(fil, fjl)), zi - zj))
        elif lemma_id in ("n_lt_l", "one_lt_l"):
            fjl = fj[l - 1]
            terms = [(_sym2(cf, fjl), E)]
            if not self.degenerate:
                zfl = [zi * a - zj * b for a, b in zip(fi[l - 1], fjl)]
                terms.append((-_sym2(diff(fin, fjn), zfl), zi - zj))
            if lemma_id == "one_lt_l":
                u = [q * (a - b) - zi * (c - b) for a, b, c in zip(f0, fin, last)]
                terms.append((-_sym2(u, fjl), zi - q))
        elif lemma_id == "l_eq_n":
            terms = [(_sym2(cf, fjn), E), (-_sym2(fin, fin), 1)]
            if n != 1:
                u = [q * (b - a) + zi * (c - b) for a, b, c in zip(f0, pi[n - 1], last)]
                terms.append((-_sym2(u, fjn), zi - q))
            if not self.degenerate:
                d = diff(fin, fjn)
                terms.append((-zj * _sym2(d, d), zi - zj))
        else:  # l_eq_0
            a0 = -(2 if n == 1 else 1) * q
            rhs = _sym2(fin, [a0 * a + zi * c for a, c in zip(f0, last)])
            if n == 1:
                rhs += _sym2([q * a - zi * (c - b) for a, b, c in zip(f0, fin, last)], f0)
            terms = [(_sym2(cf, f0), E), (-rhs, zi - q)]
        t1, t2 = self.X
        return _reduced(terms, q * q, self.den ** 2 * t1[-1] * t2[-1])


# the inputs of each identity's sample besides L
_INPUTS = {"l_lt_n": "t1 t2 zi zj n l", "n_lt_l": "t1 t2 zi zj n l",
           "one_lt_l": "t1 t2 zi zj l", "l_eq_n": "t1 t2 zi zj n",
           "l_eq_0": "t1 t2 zi zj n", "jacobi": "t zi zj", "f0": "t1 zi"}


def _check_level(lemma_id, L):
    if lemma_id not in LEMMA_MIN_L:
        raise ParameterError(f"unknown lemma id {lemma_id!r}; pick one of {LEMMA_IDS}")
    if type(L) is not int or L < LEMMA_MIN_L[lemma_id]:
        raise ParameterError(
            f"{lemma_id} needs an integer L >= {LEMMA_MIN_L[lemma_id]}, got {L!r}")


def lemma_residual(lemma_id: str, *, L, t1=None, t2=None, zi=None, zj=None,
                   n=None, l=None, t=None):
    """|LHS - RHS| of one displayed identity at an exact sample point.

    The inputs are exact rationals (ints or Fractions; a decimal is a
    ParameterError); the sides are rational functions, so the residual is
    exactly zero whenever the identity holds.  ``zj = zi`` selects the
    degenerate clauses (the cross-index lines drop out); ``n`` and ``l`` are
    ints (a bool is a ParameterError).  This is the one-identity case of
    ``lemma_round``'s evaluator ``_Point``: the coordinates become integer
    numerators over one denominator, the point's tables plain ints over one
    shared denominator (one per n for C(n, 1, 2)), each side a few int sums
    over the swaps, and the residual one Fraction, reduced once; a zero
    divisor raises ZeroDivisionError.
    """
    _check_level(lemma_id, L)
    given = {"t1": t1, "t2": t2, "zi": zi, "zj": zj, "n": n, "l": l, "t": t}
    names = _INPUTS[lemma_id].split()
    missing = [name for name in names if given[name] is None]
    if missing:
        raise ParameterError(f"{lemma_id} needs {', '.join(missing)}")
    for name in names:
        if name in ("t1", "t2"):
            if len(given[name]) != L - 1:
                raise ParameterError(f"{name} needs L-1 = {L - 1} coordinates, "
                                     f"got {len(given[name])}")
            for x in given[name]:
                check_exact(x)
        elif name in ("n", "l"):
            if type(given[name]) is not int:
                raise ParameterError(f"{lemma_id} needs an integer {name}, got {given[name]!r}")
        else:
            check_exact(given[name])
    if lemma_id == "l_lt_n" and not (1 <= l < n <= L - 1):
        raise ParameterError("l_lt_n requires 1 <= l < n <= L-1")
    if lemma_id == "n_lt_l" and not (2 <= n < l <= L - 1):
        raise ParameterError("n_lt_l requires 2 <= n < l <= L-1")
    if lemma_id in ("l_eq_n", "l_eq_0") and not 1 <= n <= L - 1:
        raise ParameterError(f"{lemma_id} requires 1 <= n <= L-1")
    if lemma_id == "one_lt_l":
        if n is not None and (type(n) is not int or n != 1):
            raise ParameterError("one_lt_l fixes n = 1")
        if not 1 < l <= L - 1:
            raise ParameterError("one_lt_l requires 1 < l <= L-1")

    if lemma_id == "jacobi":
        q, xs = _numerators(t, zi, zj)
        return _jacobi(q, *xs)
    if lemma_id == "f0":
        return _Point(L, t1, None, zi).residual("f0")
    # l_eq_0 reads no zj
    return _Point(L, t1, t2, zi, None if lemma_id == "l_eq_0" else zj).residual(lemma_id, n, l)


def _coordinate(rng):
    """26291 (a/61 + b/431) for a in 1..60, b in 0..6: an int in 431..26226."""
    a = rng.randint(1, 60)
    return 431 * a + 61 * rng.randint(0, 6)


def _fresh(rng):
    """``fresh(count)``: a tuple of ``count`` exact coordinates in (0, 1), each
    distinct from every other that this ``fresh`` drew."""
    drawn = set()  # the integers of _coordinate, one per value

    def fresh(count):
        out = []
        while len(out) < count:
            x = _coordinate(rng)
            if x not in drawn:
                drawn.add(x)
                out.append(Fraction(x, 26291))
        return tuple(out)
    return fresh


def _two_copy_point(L, fresh):
    t1, (zi,) = fresh(L - 1), fresh(1)
    t2, (zj,) = fresh(L - 1), fresh(1)
    return {"t1": t1, "t2": t2, "zi": zi, "zj": zj}


def _indices(lemma_id, L, rng):
    """The (n, l) of one sample of the identity at level L (none for jacobi
    and f0)."""
    if lemma_id == "l_lt_n":
        n = rng.randint(2, L - 1)
        return {"n": n, "l": rng.randint(1, n - 1)}
    if lemma_id == "n_lt_l":
        n = rng.randint(2, L - 2)
        return {"n": n, "l": rng.randint(n + 1, L - 1)}
    if lemma_id == "one_lt_l":
        return {"l": rng.randint(2, L - 1)}
    if lemma_id in ("l_eq_n", "l_eq_0"):
        return {"n": rng.randint(1, L - 1)}
    return {}


def random_lemma_sample(lemma_id: str, L: int, rng):
    """Exact rational sample off every singular locus of the identities.

    Every coordinate (the t's, zi, zj) is drawn distinct from the others and
    lies strictly inside (0, 1), so no gap, difference, 1 - z t or zi - 1 of
    ``lemma_residual`` is zero and no division there can fail.
    """
    _check_level(lemma_id, L)
    fresh = _fresh(rng)
    if lemma_id == "jacobi":
        t, zi, zj = fresh(3)
        return {"L": L, "t": t, "zi": zi, "zj": zj}
    if lemma_id == "f0":
        return {"L": L, "t1": fresh(L - 1), "zi": fresh(1)[0]}
    return {"L": L, **_two_copy_point(L, fresh), **_indices(lemma_id, L, rng)}


def lemma_round(L: int, rng):
    """{lemma id: residual} of one round of the identity checks for a model
    at level L.

    Each identity runs at max(L, LEMMA_MIN_L[lemma]).  The identities of one
    level share one exact point (t1, t2, zi, zj) from ``random_lemma_sample``'s
    coordinates and its tables (``_Point``); jacobi takes t = t1_last there,
    and each two-copy identity draws its own (n, l).
    """
    levels = {lemma: max(L, LEMMA_MIN_L[lemma]) for lemma in LEMMA_IDS}
    out = {}
    for level in sorted(set(levels.values())):
        point = _Point(level, **_two_copy_point(level, _fresh(rng)))
        for lemma in LEMMA_IDS:
            if levels[lemma] == level:
                out[lemma] = point.residual(lemma, **_indices(lemma, level, rng))
    return {lemma: out[lemma] for lemma in LEMMA_IDS}
