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
``lemma_residual`` is the one-identity case of the same evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

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
    """Exact rationals (ints or Fractions) as ``_Ratio``s over their least
    common denominator."""
    q = math.lcm(*(x.denominator for x in xs))
    return [_Ratio(x.numerator * (q // x.denominator), q) for x in xs]


def _copy(c, zs, q):
    """One copy's ``f0 = 1/prod g_m`` and, for each z in ``zs``, the row
    ``[f_1(z), ..., f_{L-1}(z)]`` with ``f_n(z) = f0 g_n / (1 - z c_last)``;
    the g_m are the chain gaps ``t_{m-1} - t_m`` with t_0 = 1.  ``c`` and
    ``zs`` are the integer numerators of coordinates over one denominator q,
    so f0 = q^(L-1)/prod G_m and f_n(z) = q^L G_n/(prod G_m (q^2 - Z c_last))
    in the gaps' numerators G_m."""
    gaps = [a - b for a, b in zip((q,) + c, c)]
    den = math.prod(gaps)
    poles = [q * q - z * c[-1] for z in zs]
    if not den or 0 in poles:
        raise ZeroDivisionError("division by zero")
    top = q ** len(c)  # q^(L-1)
    return _Ratio(top, den), [[_Ratio(top * q * g, den * w) for g in gaps] for w in poles]


def _c_columns(L, t1, t2):
    """C(n, 1, 2) of copy k against its partner, as lists over k, for n = L-1
    down to 1, from the integer numerators ``t1``, ``t2`` of coordinates over
    one denominator.

    C(n, 1, 2) sums, over the levels m = n..L-1, copy 1's t_m times
    -1/(t_m - t_{m-1}^(2)) + 2/(t_m - t_m^(2)) - 1/(t_m - t_{m+1}^(2)), with
    no partner below the last level; C(1, 1, 2) adds t_1/(t_1 - 1), which
    cancels level 1's first fraction (t_0^(2) = 1).  A level's term reads
    only the swap bits of levels m-1..m+1, so each level has at most 8
    distinct terms, and each C(n) is C(n + 1) plus level n's term.
    """
    full = (1 << (L - 1)) - 1
    X = (t1, t2)

    def frac(x, y):
        if x == y:
            raise ZeroDivisionError("division by zero")
        return _Ratio(x, x - y)  # x/(x - y), both over one denominator

    def term(m, k):
        # copy 1's t_j (partner 0) or copy 2's (partner 1) in swap k
        at = lambda j, partner: X[(k >> (j - 1) & 1) ^ partner][j - 1]
        x = at(m, 0)
        out = 2 * frac(x, at(m, 1))
        if m > 1:
            out = out - frac(x, at(m - 1, 1))
        if m < L - 1:
            out = out - frac(x, at(m + 1, 1))
        return out

    col = None
    for m in range(L - 1, 0, -1):
        shift, mask = (m - 2, 7) if m > 1 else (0, 3)
        terms = [term(m, key << shift) for key in range(min(mask, full >> shift) + 1)]
        row = [terms[k >> shift & mask] for k in range(full + 1)]
        col = row if col is None else [a + b for a, b in zip(col, row)]
        yield col


def _jacobi(t, zi, zj):
    lhs = t / (1 - zi * t)
    rhs = (1 - zj * t) / (zi - zj) * (1 / (1 - zi * t) - 1 / (1 - zj * t))
    return _reduced(lhs - rhs)


class _Point:
    """One exact point (t1, t2, zi, zj) and its tables, shared by every
    identity evaluated there.

    Copy k takes t2 at the levels whose bit is set in k, t1 elsewhere; its
    partner is the complement ``full ^ k``.  Built once: each copy's f0, its
    f-rows at zi and zj, the prefix sums of its zi row, and C(n, 1, 2) for
    every swap and every n down to the lowest asked for.  Without t2 only
    copy 0 (all t1) is built, which is all the identity f0 reads.  Without
    zj, or at zj = zi, the zj row is the zi row and the cross-index lines
    drop out.
    """

    def __init__(self, L, t1, t2, zi, zj=None):
        zs = (zi,) if zj is None or zj == zi else (zi, zj)
        xs = _ratios(*t1, *(t2 or ()), *zs)
        split = len(xs) - len(zs)
        self.L, self.t1, self.t2, zs = L, xs[:L - 1], xs[L - 1:split], xs[split:]
        self.zi, self.zj, self.degenerate = zs[0], zs[-1], len(zs) == 1
        X = ([x.n for x in self.t1], [x.n for x in self.t2])
        self.full = full = (1 << (L - 1)) - 1 if t2 else 0
        copies = [_copy(tuple(X[k >> m & 1][m] for m in range(L - 1)), [z.n for z in zs],
                        zs[0].d) for k in range(full + 1)]
        self.f0 = [f0 for f0, rows in copies]
        self.fi = [rows[0] for f0, rows in copies]
        self.fj = [rows[-1] for f0, rows in copies]
        self.pi = [list(accumulate(row)) for row in self.fi]
        self.columns = _c_columns(L, *X) if t2 else None
        self.C = []  # C(L-1, 1, 2), C(L-2, 1, 2), ... as far as built

    def c_column(self, n):
        """C(n, 1, 2) of every swap; the levels below n are never built, so a
        pole there does not raise."""
        while len(self.C) < self.L - n:
            self.C.append(next(self.columns))
        return self.C[self.L - 1 - n]

    def residual(self, lemma_id, n=None, l=None):
        """|LHS - RHS| of one identity here, reduced once to a Fraction."""
        L, zi, zj, full = self.L, self.zi, self.zj, self.full
        if lemma_id == "jacobi":
            return _jacobi(self.t1[-1], zi, zj)
        # f0, f_m(zi), f_m(zj) and f_1(zi) + ... + f_m(zi) of copy k, 1-based in m
        f0 = lambda k: self.f0[k]
        fi = lambda k, m: self.fi[k][m - 1]
        fj = lambda k, m: self.fj[k][m - 1]
        pi = lambda k, m: self.pi[k][m - 1]
        if lemma_id == "f0":
            c = self.t1[-1]
            return _reduced(c / (1 - zi * c) - (-f0(0) + pi(0, L - 1)) / ((zi - 1) * f0(0)))

        # Every term of every identity below carries 1/(c1_last c2_last) =
        # 1/(t1_last t2_last) whatever the swap, so that factor is left out of
        # the terms and applied once at the end.
        if lemma_id == "one_lt_l":
            n = 1
        C = self.c_column(n)
        degenerate = self.degenerate

        def sym2(u, v):
            """Sum of u(copy 1) v(copy 2) over the per-level swaps.  The terms
            of swaps k and full ^ k share a denominator; each pair is added
            first, without cross multiplication."""
            return sum(u(k) * v(full ^ k) + u(full ^ k) * v(k) for k in range(full // 2 + 1))

        def lhs_with(v):
            """Sum of C(n, 1, 2) f_n(copy 1, zi) v(copy 2) over the swaps."""
            return sum(C[k] * fi(k, n) * v(full ^ k) for k in range(full + 1))

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
                rhs += sym2(lambda k: f0(k) - fi(k, 1) - zi * (pi(k, L - 1) - fi(k, 1)),
                            lambda k: fj(k, l)) / (zi - 1)
        elif lemma_id == "l_eq_n":
            lhs = lhs_with(lambda k: fj(k, n))
            rhs = sym2(lambda k: fi(k, n), lambda k: fi(k, n))
            if n != 1:
                rhs += sym2(lambda k: -f0(k) + pi(k, n) + zi * (pi(k, L - 1) - pi(k, n)),
                            lambda k: fj(k, n)) / (zi - 1)
            if not degenerate:
                rhs += zj / (zi - zj) * sym2(lambda k: fi(k, n) - fj(k, n),
                                             lambda k: fi(k, n) - fj(k, n))
        else:  # l_eq_0
            lhs = lhs_with(f0)
            rhs = sym2(lambda k: fi(k, n),
                       lambda k: -(2 if n == 1 else 1) * f0(k) + zi * pi(k, L - 1)) / (zi - 1)
            if n == 1:
                rhs += sym2(lambda k: f0(k) - zi * (pi(k, L - 1) - fi(k, 1)), f0) / (zi - 1)
        return _reduced((lhs - rhs) / (self.t1[-1] * self.t2[-1]))


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
    degenerate clauses (the cross-index lines drop out).  This is the
    one-identity case of ``lemma_round``'s evaluator ``_Point``: both sides
    are evaluated on unreduced integer ratios and reduced once, to a
    Fraction; a zero divisor raises ZeroDivisionError.
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
        elif name not in ("n", "l"):
            check_exact(given[name])
    if lemma_id == "l_lt_n" and not (1 <= l < n <= L - 1):
        raise ParameterError("l_lt_n requires 1 <= l < n <= L-1")
    if lemma_id == "n_lt_l" and not (2 <= n < l <= L - 1):
        raise ParameterError("n_lt_l requires 2 <= n < l <= L-1")
    if lemma_id in ("l_eq_n", "l_eq_0") and not 1 <= n <= L - 1:
        raise ParameterError(f"{lemma_id} requires 1 <= n <= L-1")
    if lemma_id == "one_lt_l":
        if n not in (None, 1):
            raise ParameterError("one_lt_l fixes n = 1")
        if not 1 < l <= L - 1:
            raise ParameterError("one_lt_l requires 1 < l <= L-1")

    if lemma_id == "jacobi":
        return _jacobi(*_ratios(t, zi, zj))
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
