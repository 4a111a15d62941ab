"""Hypergeometric integral solutions evaluated over one explicit chamber.

One exponent dictionary (``dictionary_M``) serves every degree M >= 1.
At M = 1 the weight is U = prod t_n^(alpha_n/kappa)
prod_i (1 - z_i t_{L-1})^(-beta_i/kappa) prod_n (t_{n-1} - t_n)^(-gamma_n/kappa)
with t_0 = 1.  At M >= 2 each copy carries the t_n, (1 - z_i t_{L-1}) and
(1 - t_1) factors, each pair of copies on adjacent levels n, n+1 the gap
factor with gamma_{n+1} = 1, and each pair within a level (t - t')^(2/kappa).
Every result is the coefficient vector over the degree-M basis, in basis
order, whatever the scheme.

The degree-1 solution integrates U against the rational forms phi_0,
phi_n^(i) over the nested simplex 0 < t_{L-1} < ... < t_1 < 1, the M = 1
case of the degree-M chamber below, and runs through the same kernel.  The
substitution t_n = t_{n-1} u_n maps the chamber onto the unit cube and
turns every singular factor of phi_0 into a per-axis Jacobi weight
u^a (1-u)^b; each phi_n^(i) adds one gap factor, a polynomial in the cube
variables.  So one Gauss-Jacobi tensor rule with the exact phi_0 exponents
serves every coefficient, its log weights dividing u^a (1-u)^b back out
because the kernel evaluates the whole integrand.

Degree-M solutions use M copies of each integration level, ordered so all
level-n copies exceed all level-(n+1) copies and copies decrease within a
level, and integrate the symmetrized product of M one-copy forms over that
single ordered chamber.  Each copy carries a factor 1/t_{L-1}^(a), matching
the degree-1 forms; without it the coefficient vector does not satisfy the
differential system.  The symmetrization is a generating function (Aomoto
& Kita, ch. 2): the sum over copy permutations of the labelled densities
is a coefficient of a product of M linear forms in y_(n,i), one per copy,
expanded once for every basis index; d/dz_i is the e-part of the same
product in truncated arithmetic, e^2 = 0.  On a tensor grid each chain
coordinate and gap is an outer product of 1-D node factors, so the grid is
never stacked: per-axis node arrays broadcast, and every factor keeps only
the axes it depends on.  Only the copy at the last chain position depends
on the deepest axis, so the weight times each term of its form is summed over
that axis first, and one contraction pairs those sums with the expanded
product of the other copies, which never reaches full size.  The weight's
log is taken the same way: log x_p is the sum of log v_j over j <= p, and
x_p - x_r = x_p (1 - v_(p+1) ... v_r), so every x_p power and the x_p part
of every gap become per-axis coefficients of log v_j, logged once per rule
(or, in Monte Carlo, read exactly off the inversion); only the bases that
do not separate, 1 - v_(p+1) ... v_r, 1 - x_p and 1 - z_j x_p, are logged,
each at the shape of the axes it depends on.  The grid is evaluated in
slabs of at most 2^15 points (:func:`_psiM_tensor`), so memory stays flat
as the node count and the number of axes grow.  Monte Carlo draws each cube
axis from a Kumaraswamy law whose endpoint powers match the integrand's, in
16 batches of mc_samples / 16 points; the inversion takes both log1mexp
branches on the whole batch and blends them by an exact 0/1 indicator.
Each evaluation makes one :class:`_Workspace`, shared by both refinement
passes or all batches: the work that does not depend on the points is done
there once, and every array (the chain pieces, the weight and its logs, the
last copy's form and its products with the weight, the sampled axes) is
written with ``out=`` into a named buffer of it that every slab or batch
reuses, so no slab allocates or faults in fresh pages.  The workspace
declares the chain pieces that the weight and the forms read, each under
the name of its buffer, and :class:`_ChainPoint` builds those alone: x_p at
every position, but 1 - x_p at the M level-1 positions only, as only the
factors (1 - t_1) read it.
The endpoint powers, and the window check on every face, come from the
integer orders of :func:`_face_orders`, tabulated once per (L, M) and
dotted with the exponents: exact in the parameters and free of z.

Every tensor result is checked against a second rule, never assumed
stable (the pair is in :func:`eval_psiM`).
All power-law bases are positive on the chamber for real z with
0 < z_i < 1, so principal branches apply throughout and no branch tracking
is needed.  Complex z is out of scope for quadrature (ODE transport covers
it).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product

import numpy as np

from .errors import ChamberError, ConvergenceError, ParameterError
from .polyalg import enumerate_basis, flat_pos
from .quadrature import MC_BATCHES, QuadratureSpec, gauss_jacobi_01, tanh_sinh_01
from .quadrature import log_beta as _log_beta  # the window check keeps its inputs > 0
from .weylops import Parameters, check_times


# --- parameter dictionary ---------------------------------------------------------

@dataclass(frozen=True)
class ExponentsM:
    """Weight exponents of the degree-M integral: alpha_n on t_n, beta_i on
    (1 - z_i t_{L-1}), gamma_1 on (1 - t_1) and gamma_n on (t_{n-1} - t_n)."""

    alpha: tuple
    beta: tuple
    gamma: tuple
    planck: object
    M: int

    @property
    def L(self):
        return len(self.alpha) + 1

    @property
    def N(self):
        return len(self.beta)


def dictionary_M(params: Parameters, M: int) -> ExponentsM:
    """alpha_n = e_{n+1} - e_n + kappa_{n+1}, beta_i = -theta_i,
    gamma_1 = kappa_1 + M - 1 and gamma_n = kappa_n, with e_L = e_0 and
    kappa_L = 1; requires kappa_0 - sum(theta) = M, and for M >= 2 also
    kappa_n = 1 for 2 <= n <= L-1."""
    if params.resonance_V != M:
        raise ParameterError(
            f"degree-M dictionary requires kappa_0 - sum(theta) = M, got "
            f"{params.resonance_V} != {M}")
    for n in range(2, params.L if M >= 2 else 2):
        if params.kappa[n] != 1:
            raise ParameterError(
                f"degree-M dictionary requires kappa_{n} = 1, got {params.kappa[n]}")
    L = params.L
    e = params.e + (params.e[0],)
    kap = params.kappa + (Fraction(1),)
    alpha = tuple(e[n + 1] - e[n] + kap[n + 1] for n in range(1, L))
    beta = tuple(-t for t in params.theta[1:])
    gamma = (params.kappa[1] + M - 1,) + params.kappa[2:]
    return ExponentsM(alpha, beta, gamma, params.planck, M)


def _check_z_box(z, N, i=None):
    z = _z_of_length(z, N)
    if any(not (0.0 < zi < 1.0) for zi in z):
        raise ChamberError(f"z {z} outside the real box (0,1)^N")
    if len(set(z)) != N:
        raise ChamberError("z entries must be pairwise distinct")
    if i is not None:
        check_times(N, i)
    return z


def _z_of_length(z, N):
    if not all(isinstance(x, numbers.Real) for x in z):
        raise ParameterError(f"quadrature and the series take a sequence of real numbers "
                             f"z, got {z!r}; propagate covers complex z")
    z = tuple(float(x) for x in z)
    if len(z) != N:
        raise ParameterError(f"z must have length N={N}")
    return z


# --- degree-1 forms -----------------------------------------------------------------

def _m1_form(A, N):
    """(n, i) of the form phi_n^(i) behind the degree-1 index A; (0, None) for phi_0."""
    if not any(A):
        return 0, None
    p = A.index(1)
    return p // N + 1, p % N + 1


@dataclass(frozen=True)
class IntegralResult:
    basis: tuple           # multi-indices, graded-lex
    vector: np.ndarray     # coefficients in basis order
    convergence: float     # relative change under node refinement, MC std error or series tail
    meta: dict
    derivative: np.ndarray = None  # dc/dz_i in basis order on the same nodes, when i is given


def eval_psi1(params: Parameters, z, quad: QuadratureSpec, i=None) -> IntegralResult:
    """Degree-1 coefficient vector c with c_(0) = int U phi_0 and
    c_(n,i) = -int U phi_n^(i): :func:`eval_psiM` at M = 1."""
    return eval_psiM(params, z, 1, quad, i)


# --- degree-1 series oracle ---------------------------------------------------------

def series_psi1(params: Parameters, z, order: int) -> IntegralResult:
    """Term-by-term integration of the cube integrand (N = 1 only, z = (z_1,)
    with |z_1| < 1).

    Expands the analytic factor (1 - z T)^(-s) in powers of zT and integrates
    each term as a product of Beta functions; entirely independent of the
    quadrature path.

    ``tail_bound`` is the largest over the basis of a bound on the error of
    c_A over |c_A|: the truncation error plus the rounding of the partial sum.
    With K = ``order``, term k is (s)_k z^k / k! times
    E_k = prod_m B(a_m + k + 1, b_m + 1), which decreases in k as every
    b_m > -1, and |(s)_k| <= (|s|)_k; so the terms after K sum to at most
    E_(K+1) (|s|)_(K+1) |z|^(K+1) / ((K + 1)! (1 - rho)), with
    rho = |z| max(1, (|s| + K + 1)/(K + 2)).  rho >= 1 is a ConvergenceError.
    Summing the K + 1 terms in floats is off by at most K u sum_k |term k|
    (u = eps/2; Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., section 4.2), which the (K + 1) eps sum_k |term k| it adds covers
    twice over.  Each term is taken as computed: its own rounding, a few ulps
    per factor of its running product, is the same at every order K.
    """
    if params.N != 1:
        raise ParameterError("the series oracle is defined for N = 1")
    if type(order) is not int or order < 0:  # bool too
        raise ParameterError(f"order must be a nonnegative integer, got {order!r}")
    exps = dictionary_M(params, 1)
    (zv,) = _z_of_length(z, 1)
    if abs(zv) >= 1:
        raise ParameterError(f"series requires |z| < 1, got {zv}")
    kp = float(exps.planck)
    expos = _window_check(exps)
    basis = tuple(enumerate_basis(exps.L, 1, 1))
    vec = np.zeros(len(basis))
    tails = []
    for slot, A in enumerate(basis):
        n, _ = _m1_form(A, 1)
        # phi_n has one gap t_{n-1} - t_n = u_1...u_{n-1} (1 - u_n) more than phi_0
        ab = [(float(ak + (k < n)), float(bk + (k == n))) for k, (ak, bk) in enumerate(expos, 1)]
        # (1 - zT)^(-beta/kappa) = sum_k (beta/kappa)_k (zT)^k / k!, one extra
        # power of 1/(1 - zT) for the degree-1 coefficients
        s = float(exps.beta[0]) / kp + (1.0 if n else 0.0)
        total = size = 0.0  # the partial sum and the sum of |terms|
        ratio = 1.0  # (s)_k / k!, carried as one float: k! alone overflows a float at k = 171
        major = 1.0  # (|s|)_k |z|^k / k!, the same way
        for k in range(order + 1):
            logterm = sum(_log_beta(ak + k + 1.0, bk + 1.0) for ak, bk in ab)
            term = ratio * zv ** k * math.exp(logterm)
            total += term
            size += abs(term)
            ratio *= (s + k) / (k + 1)
            major *= abs(zv) * (abs(s) + k) / (k + 1)
        vec[slot] = -total if n else total
        rho = abs(zv) * max(1.0, (abs(s) + order + 1) / (order + 2))
        if rho >= 1.0:
            raise ConvergenceError(
                f"series tail unbounded at order {order}: majorant ratio {rho:.3g} >= 1")
        moment = math.exp(sum(_log_beta(ak + order + 2.0, bk + 1.0) for ak, bk in ab))
        rounding = (order + 1) * math.ulp(1.0) * size
        tails.append((moment * major / (1.0 - rho) + rounding) / max(abs(total), 1e-300))
    return IntegralResult(basis, vec, max(tails),
                          {"scheme": "series", "order": order, "tail_bound": max(tails)})


# --- degree-M chamber machinery -----------------------------------------------------

def _mul(out, name, a, b):
    """a * b into ``out(name, shape)``."""
    return np.multiply(a, b, out=out(name, np.broadcast(a, b).shape))


class _ChainPoint:
    """Batched chamber points: the chain pieces that the :class:`_Workspace`
    ``ws`` declares, built into its buffers, and nothing else.

    Built from the cube variables v_0..v_(K-1), their complements and their
    logs ``logv``, per axis as arrays that broadcast against each other: one
    axis each on a tensor slab, the columns of a (P, K) batch for sampled
    points.  ``pieces`` maps the key of each piece, the name of its buffer,
    to its array, none computed with cancellation and each on only the axes
    it depends on: ("x", p) is the chain coordinate x_p = v_0 ... v_p
    (descending), at every position; ("omx", p) is 1 - x_p, only at the
    level-1 positions p < M, as only the weight's (1 - t_1) and the forms'
    1/(1 - t_1) read it; ("om", p, r) is 1 - v_(p+1) ... v_r, for each gap
    of the weight; ("gap", p, r) is x_p - x_r = x_p (1 - v_(p+1) ... v_r),
    for each adjacent-level pair of the forms.
    """

    def __init__(self, ws, v, omv, logv):
        out = ws.out
        x = [v[0]]
        for j in range(1, len(v)):
            x.append(_mul(out, ("x", j), x[j - 1], v[j]))
        pieces = {("x", p): xp for p, xp in enumerate(x)}
        pieces[("omx", 0)] = omv[0]
        for j in range(1, ws.M):  # 1 - x_j = 1 - x_(j-1) + x_(j-1) (1 - v_j)
            om = pieces[("omx", j)] = _mul(out, ("omx", j), x[j - 1], omv[j])
            om += pieces[("omx", j - 1)]
        for p, rs in ws.om_pieces.items():
            # 1 - v_(p+1) ... v_r = 1 - v_(p+1) ... v_(r-1) + v_(p+1) ... v_(r-1) (1 - v_r)
            top, prod, om = max(rs), v[p + 1], omv[p + 1]
            if p + 1 in rs:
                pieces[("om", p, p + 1)] = om
            for r in range(p + 2, top + 1):
                t = _mul(out, "tmp", prod, omv[r])
                om = np.add(om, t, out=out(("om", p, r) if r in rs else ("omacc", r % 2), t.shape))
                if r in rs:
                    pieces[("om", p, r)] = om
                if r < top:
                    prod = _mul(out, ("prod", r % 2), prod, v[r])
        for p, r in ws.gap_pairs:
            pieces[("gap", p, r)] = _mul(out, ("gap", p, r), x[p], pieces[("om", p, r)])
        self.logv, self.pieces = logv, pieces


def _times_plan(left, right, out):
    """The terms of ``left * right`` with e^2 = 0, both lists of monomials
    ending in their power of e, right linear in y: appends each new
    monomial to ``out`` and returns one (out index, left index, right
    index, add) per term, in expansion order, dropping those whose e-power
    passes 1; ``add`` is False at a monomial's first term."""
    index = {mono: o for o, mono in enumerate(out)}
    ops = []
    # left e^1 monomials first: keeps every sum in its established order
    for a in sorted(range(len(left)), key=lambda a: -left[a][-1]):
        for b, y in enumerate(right):
            key = tuple(map(operator.add, left[a], y))
            if key[-1] > 1:
                continue
            add = key in index
            if not add:
                index[key] = len(out)
                out.append(key)
            ops.append((index[key], a, b, add))
    return ops


def _expand(out, name, ops, left, right, outs):
    """Run a :func:`_times_plan` on arrays: outs[o] = left[a] * right[b] at a
    monomial's first term, outs[o] += left[a] * right[b] after it.  A None
    entry of ``outs`` gets the buffer ``(name, o)`` at its first term."""
    for o, a, b, add in ops:
        if add:
            outs[o] += _mul(out, "tmp", left[a], right[b])
        elif outs[o] is None:
            outs[o] = _mul(out, (name, o), left[a], right[b])
        else:
            np.multiply(left[a], right[b], out=outs[o])


def _product(out, name, factors):
    """The product of ``factors`` from the first one on; a lone factor itself."""
    if len(factors) == 1:
        return factors[0]
    res = out(name, np.broadcast(*factors).shape)
    np.multiply(factors[0], factors[1], out=res)
    for f in factors[2:]:
        np.multiply(res, f, out=res)
    return res


class _Workspace:
    """What one :func:`eval_psiM` call keeps for all its slabs or batches:
    z, the time index i (None without one), the basis order, the work that
    does not depend on the points, and the array buffers.

    That work is done once: the chain positions, the weight's log as
    per-axis coefficients of log v_j and atoms (the bases that are not
    monomials in v, merged by base), the chain pieces it and the forms read,
    the factors of every one-copy form, the pairings of the
    copies, one plan per other copy for the expansion of their product in
    truncated arithmetic (e^2 = 0, d/dz_i the e-part), and the sum each
    term of the contraction adds to.

    The arrays live in one flat buffer per name.  :meth:`out` gives the
    leading entries of the named buffer as a C-contiguous array of the
    shape asked for, and grows the buffer when it is too small.  Every
    array is written in full before it is read, so a slab reads nothing an
    earlier one left.
    """

    def __init__(self, exps: ExponentsM, z, basis, i):
        L, N, M = exps.L, exps.N, exps.M
        kp = float(exps.planck)
        self.z, self.i, self.basis, self.M, self._bufs = z, i, basis, M, {}
        # chain position of t_n^(a): all level-n copies exceed all level-(n+1)
        # copies, copies descending within a level
        pos = {(n, a): (n - 1) * M + (a - 1) for n in range(1, L) for a in range(1, M + 1)}
        self.tls = [pos[(L - 1, a)] for a in range(1, M + 1)]  # chain positions of the t_{L-1}
        self.rz = [("rz", j, p) for j in range(N) for p in self.tls]  # 1/(1 - z_j x_p)

        # the chain gaps t_n - t_(n+1) between adjacent levels, always positive
        # since level n lies above level n+1, each with its weight exponent
        # -gamma_(n+1)/kappa (-1/kappa at M >= 2, where gamma_(n+1) = 1)
        adjacent = {(pos[(n, a)], pos[(n + 1, b_)]): -float(exps.gamma[n]) / kp
                    for n in range(1, L - 1) for a in range(1, M + 1) for b_ in range(1, M + 1)}
        # (exponent, base) of every power in U and in the per-copy 1/t_{L-1};
        # ("rz", j, p) is the base 1 - z_j x_p, so its exponent is -beta_j/kappa
        powers = [(2.0 / kp, ("gap", pos[(n, a)], pos[(n, b_)]))
                  for n in range(1, L) for a in range(1, M + 1) for b_ in range(a + 1, M + 1)]
        powers += [(e, ("gap",) + pq) for pq, e in adjacent.items()]
        powers += [(float(exps.alpha[n - 1]) / kp - (n == L - 1), ("x", p))
                   for (n, a), p in pos.items()]
        powers += [(-float(exps.gamma[0]) / kp, ("omx", pos[(1, a)])) for a in range(1, M + 1)]
        powers += [(-float(exps.beta[j]) / kp, ("rz", j, p)) for _, j, p in self.rz]
        # the log of the weight, compiled: log x_p is the sum of log v_j over
        # j <= p and x_p - x_r = x_p (1 - v_(p+1) ... v_r), so every x_p power
        # and the x_p part of every gap is a coefficient of some log v_j; the
        # other bases, the atoms 1 - v_(p+1) ... v_r ("om", p, r), 1 - x_p and
        # 1 - z_j x_p, are merged by base.  Zero exponents drop out
        tail, atoms, self.om_pieces = [0.0] * ((L - 1) * M), {}, {}
        for e, (kind, *key) in powers:
            if kind in ("x", "gap"):  # the exponent of x_p, p = key[0]
                tail[key[0]] += e
            if kind == "gap":  # p -> each r of a piece 1 - v_(p+1) ... v_r
                self.om_pieces.setdefault(key[0], set()).add(key[1])
            if kind != "x":
                atom = ("om" if kind == "gap" else kind, *key)
                atoms[atom] = atoms.get(atom, 0.0) + e
        coef = list(accumulate(reversed(tail)))[::-1]  # log v_j is in each x_p, p >= j
        self.logv_coef = [(j, e) for j, e in enumerate(coef) if e]
        self.atoms = [(e, atom) for atom, e in atoms.items() if e]
        # the axes each term of the weight's log spans on a tensor slab:
        # log v_j axis j, the piece 1 - v_(p+1) ... v_r axes p+1..r, 1 - x_p
        # and 1 - z_j x_p axes 0..p
        self.weight_groups = _span_groups(
            tuple((j, j) for j, _ in self.logv_coef)
            + tuple((a[1] + 1, a[2]) if a[0] == "om" else (0, a[-1]) for _, a in self.atoms))
        # the reciprocal gaps of the forms, by the keys of their chain pieces:
        # 1/(t_n - t_(n+1)) and 1/(1 - t_1); the chain point builds those gaps,
        # 1 - x_p at level 1 and the pieces of every gap
        self.gap_pairs = list(adjacent)
        self.recip = [("gap", p, r) for p, r in adjacent] + [("omx", p) for p in range(M)]

        # the monomials of a one-copy form P_c, f_0 first, and for each copy
        # the factors of each: f_n^(j) lacks the gap t_(n-1) - t_n of f_0
        # and carries 1/(1 - z_j t_(L-1)), multiplied in last
        zero = (0,) * ((L - 1) * N)
        ykey = {(n, j): zero[:q] + (1,) + zero[q + 1:]
                for n in range(1, L) for j in range(1, N + 1) for q in [flat_pos(n, j, N)]}
        self.ys = [zero] + [ykey[(n, j)] for j in range(1, N + 1) for n in range(1, L)]

        def factors(c):
            cidx = [pos[(n, c[n - 1])] for n in range(1, L)]
            rg = [("omx", cidx[0])] + [("gap", p, r) for p, r in zip(cidx, cidx[1:])]
            return [rg] + [rg[:n - 1] + rg[n:] + [("rz", j - 1, cidx[-1])]
                           for j in range(1, N + 1) for n in range(1, L)]

        # pairing the other levels with level 1 by tau in S_M^(L-2): the
        # copies other than the one at the last chain position, and that one
        self.pairings = []
        for tau in product(permutations(range(1, M + 1)), repeat=L - 2):
            copies = [(b,) + tuple(t[b - 1] for t in tau) for b in range(1, M + 1)]
            self.pairings.append(([c for c in copies if c[-1] != M],
                                  next(c for c in copies if c[-1] == M)))
        self.forms = {c: factors(c) for others, last in self.pairings for c in others + [last]}

        # d/dz_i is the e-part of the same product with e^2 = 0: an f^(i)
        # term gains e r, r = t/(1 - z_i t) at its copy's t_(L-1)
        duals = []
        if i is not None:
            iy = {ykey[(n, i)] for n in range(1, L)}
            duals = list(iy)  # in the set's order, which fixes the order of every sum
            self.wide = [y in iy for y in self.ys]
            self.beta_i = float(exps.beta[i - 1]) / kp
        self.dual = [self.ys.index(y) for y in duals]

        # the product of the other copies from the constant monomial, one
        # plan per copy; each monomial ends in its power of e
        terms = [y + (0,) for y in self.ys] + [y + (1,) for y in duals]
        rows, self.steps = [zero + (0,)], []
        for _ in range(M - 1):
            left, rows = rows, []
            self.steps.append((_times_plan(left, terms, rows), len(rows)))
        self.nrows = len(rows)

        # the sum each entry G[m, k] of the contraction adds to: row m times
        # the k-th term of the last copy's form, then (with i) times its
        # e-part; the c_A sums come first in basis order, then the d/dz_i
        nb = len(basis)
        index = {A + (e,): e * nb + k for k, A in enumerate(basis) for e in (0, 1)}
        last = terms[:len(self.ys)] + ([y + (1,) for y in self.ys] if i is not None else [])
        # e^0 rows first: keeps every sum in its established order
        walk = sorted(enumerate(rows), key=lambda row: row[1][-1])
        self.acc = np.array([(index[A], m, k) for m, mono in walk for k, y in enumerate(last)
                             for A in [tuple(map(operator.add, mono, y))] if A in index]).T
        self.scale = np.array([(-1) ** sum(A) * math.factorial(M) for A in basis], float)

    def out(self, name, shape):
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size)
        return buf[:size].reshape(shape)


def _log_terms(out, dest, terms, first):
    """Add e * log(g) into ``dest`` for each (e, g, logged) of ``terms``, g
    itself when it is ``logged`` already; with ``first`` the first term
    overwrites ``dest`` instead."""
    for e, g, logged in terms:
        t = dest if first else out("tmp", np.shape(g))
        if logged:
            np.multiply(g, e, out=t)
        else:
            np.log(g, out=t)
            t *= e
        if not first:
            dest += t
        first = False


@functools.lru_cache(maxsize=None)
def _span_groups(spans):
    """The terms of the axis ``spans`` (lo, hi) grouped by span, narrowest
    first: per group its term indices and the next group whose span holds
    its own, or None."""
    groups = {}
    for m, span in enumerate(spans):
        groups.setdefault(span, []).append(m)
    order = sorted(groups, key=lambda span: span[1] - span[0])
    return tuple((tuple(groups[(lo, hi)]),
                  next((k for k in range(g + 1, len(order))
                        if order[k][0] <= lo and hi <= order[k][1]), None))
                 for g, (lo, hi) in enumerate(order))  # shared through the cache


def _weight(ws: _Workspace, logv, pieces, logw):
    """exp(logw) times the weight U and the per-copy 1/t_{L-1}, in the
    buffer "base" at the shape of logw, from the per-axis ``logv`` and
    ``pieces``, which maps each atom's key to its base: the chain point's
    pieces and each ("rz", j, p), 1 - z_j x_p.

    Its log is the workspace's compiled sum: per-axis coefficients of
    log v_j and the atoms, each e log(g) taken at the shape of g.  Each of
    the workspace's groups of terms below full size is summed at its shape
    and added into the next group that holds it; the sums left over meet
    logw in one full-size add each, then every full-size term is added (on
    a Monte Carlo batch, every term)."""
    out = ws.out
    base = out("base", logw.shape)
    terms = [(e, logv[j], True) for j, e in ws.logv_coef]
    terms += [(e, pieces[a], False) for e, a in ws.atoms]
    sums, full, roots = {}, [], []
    for g, (members, _) in enumerate(ws.weight_groups):
        first = terms[members[0]][1]
        shape = (1,) * (base.ndim - first.ndim) + first.shape
        if shape == base.shape:
            full += [terms[m] for m in members]
        else:
            sums[g] = out(("low", g), shape)
            _log_terms(out, sums[g], [terms[m] for m in members], True)
    for g, (_, into) in enumerate(ws.weight_groups):
        if g in sums:
            if into in sums:
                sums[into] += sums[g]
            else:
                roots.append(sums[g])
    if roots:
        np.add(logw, roots[0], out=base)
        for g in roots[1:]:
            base += g
    else:
        np.copyto(base, logw)
    _log_terms(out, base, full, False)
    return np.exp(base, out=base)


def _psiM_coeffs(ws: _Workspace, pt: _ChainPoint, logw):
    """Coefficient integrands summed over points, as float arrays in basis
    order: the sums and, with the workspace's time index i, their d/dz_i
    (None without one).

    logw already contains the quadrature weight and any substitution
    Jacobian; the per-copy 1/t_{L-1} normalization and the symmetric
    weight U go into a shared log-domain base (:func:`_weight`), from the
    chain point's per-axis log v and the atoms, each logged at its own
    shape; each reciprocal of a chain factor is taken once.

    The symmetrization is a generating function.  A copy whose level-n
    coordinate is t_n^(c_n) carries the linear form
    P_c = f_0(c) + sum_(n,j) y_(n,j) f_n^(j)(c).  Pairing the other levels
    with level 1 by tau in S_M^(L-2), the sum over all copy permutations of
    the labelled densities is A_0! prod A! [y^A] prod_b P_(b, tau(b)), so
    c_A = (-1)^|A| M! sum_tau [y^A] prod_b P_(b, tau(b)), one product
    expansion for every A at once.  d/dz_i is its e-part with e^2 = 0:
    with r(t) = t/(1 - z_i t) at a copy's t_{L-1}, each f_n^(i) gains
    e r, and the weight e (beta_i/kappa) r per copy; one scatter adds the
    contraction into the c_A sums and their d/dz_i.

    The copy whose t_{L-1} sits at the last chain position is the only one
    that depends on the deepest axis.  The other copies' product is
    expanded on its own arrays; the base times each term of the last copy's
    form is summed over the axes along which that product has length 1,
    and one contraction pairs the two.  The axes are read off the array
    shapes, so a (P, K) batch contracts nothing.
    """
    out, z, i = ws.out, ws.z, ws.i
    pieces = dict(pt.pieces)
    for key in ws.rz:  # 1 - z_j x_p, inverted once the weight has its log
        _, j, p = key
        x = pieces[("x", p)]
        t = np.multiply(x, z[j], out=out(key, np.shape(x)))
        pieces[key] = np.subtract(1.0, t, out=t)
    base = _weight(ws, pt.logv, pieces, logw)
    # the reciprocal of each factor of the forms, by its piece's key
    fac = {key: np.divide(1.0, pieces[key], out=pieces[key]) for key in ws.rz}
    for key in ws.recip:
        g = pieces[key]
        fac[key] = np.divide(1.0, g, out=out(("recip", key), np.shape(g)))

    if i is not None:
        r = {p: _mul(out, ("r", p), pieces[("x", p)], fac[("rz", i - 1, p)]) for p in ws.tls}
        dweight = out("dweight", np.broadcast_shapes(*(np.shape(r[p]) for p in ws.tls)))
        dweight.fill(0.0)
        for p in ws.tls:
            dweight += _mul(out, "tmp", r[p], ws.beta_i)
        bw = np.multiply(base, dweight, out=out("bw", base.shape))
        bwi = np.add(dweight, r[ws.tls[-1]], out=out("bwi", base.shape))
        bwi *= base  # an f^(i) term of the last copy gains its own r

    acc = np.zeros((1 if i is None else 2) * len(ws.basis))
    forms, sums = {}, {}
    for others, last in ws.pairings:
        for c in others:
            if c not in forms:  # the form's terms, then its e-parts
                lin = [_product(out, (("form", c), k), [fac[f] for f in fs])
                       for k, fs in enumerate(ws.forms[c])]
                forms[c] = lin + [_mul(out, ("dual", c, k), lin[k], r[ws.tls[c[-1] - 1]])
                                  for k in ws.dual]
        # the rows: the expanded product of the other copies
        shape = np.broadcast_shapes(*(np.shape(v) for c in others for v in forms[c]))
        shape = (1,) * (base.ndim - len(shape)) + shape
        R = out("R", (ws.nrows,) + shape)
        if not others:  # M = 1: the last copy alone
            R[0] = 1.0
        rows = [1.0]
        for s, (c, (ops, n)) in enumerate(zip(others, ws.steps)):
            new = list(R) if s == len(ws.steps) - 1 else [None] * n
            _expand(out, ("rows", s % 2), ops, rows, forms[c], new)
            rows = new
        if last not in sums:
            # S[k] pairs the base with the k-th term of the last copy's form,
            # S[len(ys) + k] with its e-part; one term is built at a time
            axes = tuple(ax for ax, (k, n) in enumerate(zip(shape, base.shape)) if k == 1 < n)
            ny = len(ws.ys)
            S = out(("S", last), ((1 if i is None else 2) * ny,) + shape)
            for k, fs in enumerate(ws.forms[last]):
                f = _product(out, "last", [fac[g] for g in fs])
                terms = [(S[k], base)]
                if i is not None:
                    terms.append((S[ny + k], bwi if ws.wide[k] else bw))
                for col, w in terms:
                    if axes:
                        np.sum(_mul(out, "tmp", w, f), axis=axes, keepdims=True, out=col)
                    else:
                        np.multiply(w, f, out=col)
            sums[last] = S
        S = sums[last]
        # einsum, not BLAS: the sum's order must not vary with BLAS threads
        G = np.einsum("mr,yr->my", R.reshape(len(R), -1), S.reshape(len(S), -1))
        np.add.at(acc, ws.acc[0], G[ws.acc[1], ws.acc[2]])
    c = acc.reshape(-1, len(ws.basis)) * ws.scale
    return c[0], None if i is None else c[1]


# --- exact window exponents ---------------------------------------------------------

def _window_faces(K, M):
    """The faces the window check reads, in its order: (axis, 0) and
    (axis, 1) for each axis, then at M >= 2 every corner of 2 or 3 faces."""
    faces = [((axis, side),) for axis in range(K) for side in (0, 1)]
    if M >= 2:
        faces += [tuple(zip(axes, sides)) for c in (2, 3) for axes in combinations(range(K), c)
                  for sides in product((0, 1), repeat=c)]
    return faces


@functools.lru_cache(maxsize=None)
def _face_orders(L, M):
    """Integer orders of the weight's bases on every face of
    :func:`_window_faces`: per face, the order of the base of each weight
    exponent in :func:`_face_exponents` order, and the integer rest.

    On the chamber each c_A is (-1)^|A| M! times a sum of products of
    positive factors: the weight, the reciprocal gaps of the one-copy forms
    and 1/(1 - z_j t) with 0 < z_j < 1.  Nothing cancels, so a coefficient's
    power is the least among its terms, and c_0 has the least of all: each
    of its copies carries f_0, which holds every reciprocal gap.  Each factor
    vanishes to an integer order as the faces are approached together at
    one rate, v -> 0 at side 0 and v -> 1 at side 1: x_p to
    #{j <= p at side 0}; the gap x_p - x_r = x_p (1 - v_(p+1) ... v_r) to
    that order, plus 1 if every j in p+1..r is at side 1; 1 - x_p to order 1
    if every j <= p is; the Jacobian v_j^(K-1-j) to K-1-j if j is at side 0;
    1/(1 - z_j t) to none, so z drops out.
    """
    K = (L - 1) * M
    lev = [range(n * M, (n + 1) * M) for n in range(L - 1)]  # chain positions per level
    table = []
    for faces in _window_faces(K, M):
        side = dict(faces)
        zeros = list(accumulate(side.get(j) == 0 for j in range(K)))  # order of x_p

        def ones(lo, hi):  # whether every axis lo..hi is at side 1
            return all(side.get(j) == 1 for j in range(lo, hi + 1))

        def gap(p, r):  # order of x_p - x_r for p < r
            return zeros[p] + ones(p + 1, r)

        # orders of the bases of alpha_n and of the within-level 2, level by
        # level, of -gamma_1 and of each -gamma_(n+1); the rest, the Jacobian
        # and the per-copy 1/t_(L-1), have integer exponents
        orders = []
        rest = sum(K - 1 - j for j, s in side.items() if s == 0) - sum(zeros[p] for p in lev[-1])
        for ps in lev:  # t_n and the within-level gaps
            orders += [sum(zeros[p] for p in ps), sum(gap(p, r) for p, r in combinations(ps, 2))]
        top = sum(ones(0, p) for p in lev[0])  # 1 - t_1, in the weight and in every form
        orders.append(top)
        rest -= top
        for n in range(L - 2):
            upper, lower = lev[n], lev[n + 1]
            orders.append(sum(gap(p, r) for p in upper for r in lower))
            # each copy pairs one upper position with one lower one.  The x_p
            # parts of the reciprocal gaps do not depend on the pairing;
            # ones(p + 1, r) holds just for p and r on the run of side-1 axes
            # through lower[0], and any pairing matches at most
            # min(#p, #r) of them, the best exactly
            rest -= sum(zeros[p] for p in upper) + min(sum(ones(p + 1, lower[0]) for p in upper),
                                                       sum(ones(lower[0], r) for r in lower))
        table.append((faces, tuple(orders), rest))
    return tuple(table)  # shared by every caller through the cache, so immutable


def _face_exponents(exps: ExponentsM):
    """Exact power of the cube integrand at each face of
    :func:`_window_faces`, as {faces: exponent}: the weight exponents
    (alpha_n and 2 level by level, -gamma_1, each -gamma_(n+1)) dotted with
    the orders of their bases, over kappa, plus the integer rest.
    The sum starts at ``Fraction(0)``, so exact parameters give the exact,
    reduced ``Fraction`` and decimal ones the same float as a plain sum."""
    L = exps.L
    weights = [w for n in range(L - 1) for w in (exps.alpha[n], 2)]
    weights += [-exps.gamma[0]] + [-exps.gamma[n + 1] for n in range(L - 2)]
    return {faces: sum((w * k for w, k in zip(weights, orders) if k), Fraction(0))
            / exps.planck + rest
            for faces, orders, rest in _face_orders(L, exps.M)}


def _window_check(exps: ExponentsM):
    """Integrability window on the concrete ordered chamber: the exact
    per-axis exponents (E0, E1) at v = 0 and v = 1, once checked.

    At M = 1 each must exceed -1; the integrand is a product of per-axis
    powers and bounded factors there, so corners add nothing.  At M >= 2
    each must exceed -0.98, and each corner of c = 2 or 3 faces -c + 0.05,
    as it integrates rho^(E + c - 1) drho.  The per-axis bound implies the
    analytic conditions: a within-level collision face has E1 = 2/kappa
    from the weight alone, so Re(2/kappa) > -1; an adjacent-level face
    (L >= 3) adds the forms' simple pole to the weight's (t - t')^(-1/kappa),
    E1 = -1/kappa - 1, so Re(1/kappa) < 0 and no kappa with Re(kappa) > 0
    converges there; axis 0 has E1 = -gamma_1/kappa - 1, so
    Re(gamma_1/kappa) < 0.
    """
    K = (exps.L - 1) * exps.M
    faces = _face_exponents(exps)
    expos = tuple((faces[((axis, 0),)], faces[((axis, 1),)]) for axis in range(K))
    if exps.M == 1:
        for a, b in expos:
            if not (a > -1 and b > -1):
                raise ConvergenceError(
                    f"nonconvergent exponent window: axis exponents ({float(a)}, "
                    f"{float(b)}) for the coefficients of phi_0")
        return expos
    for axis, pair in enumerate(expos):
        for side, expo in enumerate(pair):
            # guard band: a tensor or Monte Carlo estimate this close to a
            # nonintegrable face is numerically hopeless
            if expo <= -0.98:
                raise ConvergenceError(
                    f"nonconvergent endpoint exponent {float(expo):.3f} on axis {axis}, "
                    f"side {side}")
    for corner, expo in list(faces.items())[2 * K:]:
        if expo <= -len(corner) + 0.05:
            raise ConvergenceError(
                f"nonconvergent corner exponent {float(expo):.3f} at faces {list(corner)}")
    return expos


def eval_psiM(params: Parameters, z, M: int, quad: QuadratureSpec, i=None) -> IntegralResult:
    """Degree-M coefficient vector c_A over the ordered chamber.

    M = 1 takes a Gauss-Jacobi tensor rule whose per-axis weights are the
    exact endpoint exponents of phi_0 (:func:`_window_check`); every
    phi_n^(i) is a polynomial times that weight.  For M >= 2 the scheme is
    a tanh-sinh tensor rule or seeded Monte Carlo with a per-axis
    Kumaraswamy proposal (see :func:`_psiM_mc`) built from the same exact
    endpoint exponents.  A tensor rule covers K = M(L-1) <= 6 cube axes and
    fails on a relative change above ``stabilize_tol`` between its two
    rules: Gauss-Jacobi returns the n = ``nodes_per_axis`` rule and checks
    it against ceil(n/2) nodes, tanh-sinh returns int(1.5 n) | 1 nodes and
    checks them against n (``meta["nodes"]`` is the returned rule's).
    Slabs keep its memory flat, so the axis limit bounds run time, not
    memory: at the default 32 nodes L6N1M1 evaluates 16^5 + 32^5 ~ 3.5e7
    points in 1.7-1.8 s at 34.7 MiB max RSS on two shared vCPUs, L7N1M1
    (K = 6) 1.1e9 in 58 s at 35.0 MiB.  Monte Carlo never fails on its error
    or reads that bound: ``convergence`` is its standard error over
    max |c_A| (``meta["sem"]`` unscaled).  With a time index i,
    ``derivative`` is dc/dz_i, differentiated under the integral (z enters
    only through bounded factors) on the nodes of the returned rule or the
    same MC samples.
    """
    if type(M) is not int or M < 1:  # bool too: no silent M = 1
        raise ParameterError("M must be a positive integer")
    schemes = ("gauss_jacobi_tensor",) if M == 1 else ("tanh_sinh_tensor", "monte_carlo")
    if quad.scheme not in schemes:
        raise ParameterError(
            f"degree M={M} uses scheme {' or '.join(map(repr, schemes))}, got {quad.scheme!r}")
    exps = dictionary_M(params, M)
    z = _check_z_box(z, exps.N, i)
    basis = tuple(enumerate_basis(exps.L, exps.N, M))
    K = (exps.L - 1) * M
    if quad.scheme != "monte_carlo" and K > 6:
        raise ParameterError(f"tensor quadrature supports M(L-1) <= 6 axes, got {K}"
                             + ("; use monte_carlo" if M >= 2 else ""))
    expos = _window_check(exps)

    ws = _Workspace(exps, z, basis, i)
    if quad.scheme == "monte_carlo":
        c, err, d = _psiM_mc(ws, expos, quad.mc_samples, quad.seed)
        meta = {"scheme": "monte_carlo", "samples": quad.mc_samples, "seed": quad.seed, "sem": err}
    else:
        # both passes share the workspace; the coarse one computes a
        # derivative too and drops it
        n = quad.nodes_per_axis
        coarse, nodes = (-(-n // 2), n) if M == 1 else (n, int(n * 1.5) | 1)
        c1, _ = _psiM_tensor(ws, _axis_rules(quad.scheme, coarse, expos))
        c, d = _psiM_tensor(ws, _axis_rules(quad.scheme, nodes, expos))
        err = np.abs(c1 - c).max()
        meta = {"scheme": quad.scheme, "nodes": nodes}
    scale = np.abs(c).max()
    conv = err / scale if scale else 0.0
    if quad.scheme != "monte_carlo" and conv > quad.stabilize_tol:
        raise ConvergenceError(
            f"quadrature failed to stabilize: relative change {conv:.3e} under "
            f"node refinement")
    return IntegralResult(basis, c, conv,
                          {**meta, "chamber": "level_blocks"} if M >= 2 else meta, d)


# most points in one slab of a tensor grid (:func:`_psiM_tensor`): the
# workspace holds about a dozen arrays of this size at any grid size
_SLAB_POINTS = 1 << 15


def _axis_rules(scheme, nodes, expos):
    """Per-axis rules (v, 1 - v, log weight, log v) of a tensor scheme on
    the K = len(expos) cube axes; each log weight holds the rule's and the
    Jacobian v_j^(K-1-j) of x_j = v_0 ... v_j.

    A Gauss-Jacobi axis absorbs u^a (1-u)^b with (a, b) = expos[j] into its
    weights and divides it back out of its log weight, since the kernel
    evaluates the whole integrand; tanh-sinh ignores ``expos``.
    """
    K = len(expos)
    if scheme == "tanh_sinh_tensor":
        xs, omxs, ws = tanh_sinh_01(nodes)
        logx = np.log(xs)
        return [(xs, omxs, np.log(ws) + (K - 1 - j) * logx, logx) for j in range(K)]
    rules = []
    for j, (a, b) in enumerate(expos):
        u, w = gauss_jacobi_01(nodes, float(a), float(b))
        omu, logu = 1.0 - u, np.log(u)
        rules.append((u, omu, np.log(w) + (K - 1 - j - float(a)) * logu
                      - float(b) * np.log(omu), logu))
    return rules


def _tensor_slab(ws, rules, head):
    """The chain points and log weights of one slab, in the buffers of
    ``ws``: ``head`` slices the leading cube axes and the others are whole,
    each axis an array that broadcasts along that axis only.  The log
    weight is summed axis by axis at the shape of the axes so far, so only
    its last sum is of slab size."""
    K = len(rules)
    cuts = head + [slice(None)] * (K - len(head))
    axes = [(cut,) + (None,) * (K - 1 - j) for j, cut in enumerate(cuts)]
    v, omv, logws, logv = ([rule[k][a] for rule, a in zip(rules, axes)] for k in range(4))
    logw = logws[0]
    for j, lw in enumerate(logws[1:], 1):
        logw = np.add(logw, lw, out=ws.out(("logw", j), np.broadcast_shapes(logw.shape, lw.shape)))
    return _ChainPoint(ws, v, omv, logv), logw


def _psiM_tensor(ws: _Workspace, rules):
    """Tensor sums of the coefficients on the cube, for the per-axis rules
    of :func:`_axis_rules`, and with the workspace's time index i those of
    d/dz_i (None without one): float arrays in basis order.

    A slab fixes the first d axes at one node each and takes as many rows
    of axis d as fit in _SLAB_POINTS points, d the least for which one row
    (the axes after d) fits; d = 0 unless a row of axis 0 alone is too
    large.  Each slab goes through :func:`_psiM_coeffs` on its own, one
    broadcasting array per axis, and the slab sums are added in slab order.
    """
    K = len(rules)
    nodes = len(rules[0][0])
    d = next(d for d in range(K) if nodes ** (K - 1 - d) <= _SLAB_POINTS)
    rows = _SLAB_POINTS // nodes ** (K - 1 - d)
    total = np.zeros(len(ws.basis))
    dtotal = np.zeros(len(ws.basis)) if ws.i is not None else None
    for *fixed, lo in product(*[range(nodes)] * d, range(0, nodes, rows)):
        head = [slice(k, k + 1) for k in fixed] + [slice(lo, lo + rows)]
        c, dc = _psiM_coeffs(ws, *_tensor_slab(ws, rules, head))
        total += c
        if dtotal is not None:
            dtotal += dc
    return total, dtotal


def _kumaraswamy_inverse(ws, u, a, b):
    """Kumaraswamy(a, b) quantile of u in (0, 1) with its logs: returns
    (v, 1 - v, log v, log(1 - v^a)) for the CDF 1 - (1 - v^a)^b, in the
    buffers of ``ws``.

    log(1 - v^a) = log(1 - u)/b, and log v^a = log(1 - e^(log(1 - v^a))) by
    the log1mexp branch (Maechler 2012); each branch runs on the whole array
    with its argument clamped to its side of the cut at -log 2, so both are
    finite everywhere, and the two are blended by the 0/1 indicator ``far``
    of the side below the cut, below * far + above * (1 - far): one term is
    an exact zero, so the blend is exactly the branch of each point's side.
    Running each branch only on its own side gives the same bits but is
    slower: on one (3, 12,500) batch, boolean gather/scatter took 1.30-1.35 ms
    and ufunc ``where=`` 2.37-2.41 ms against 0.82-0.84 ms for both
    whole-array branches (medians of 200, two runs), as the masked copies and
    masked loops cost more than the second pair of transcendental passes.
    v and 1 - v come from exp and expm1 of log v, so neither cancels near a
    face.  log v is clipped to [log tiny, -5e-324], so neither v nor 1 - v
    rounds to 0 at the ends of the uniform grid (at a = 0.05, log v would
    fall below -745 there).  The log v it returns is the one the kernel's
    weight reads."""
    out = ws.out
    shape = np.shape(u)
    cut = -math.log(2.0)
    log1mva = np.negative(u, out=out("log1mva", shape))
    np.log1p(log1mva, out=log1mva)
    log1mva /= b
    logv = np.maximum(log1mva, cut, out=out("logv", shape))
    np.expm1(logv, out=logv)
    np.negative(logv, out=logv)
    np.log(logv, out=logv)
    below = np.minimum(log1mva, cut, out=out("below", shape))
    np.exp(below, out=below)
    np.negative(below, out=below)
    np.log1p(below, out=below)
    far = np.less(log1mva, cut, out=out("far", shape))  # 1.0 below the cut, else 0.0
    below *= far
    np.subtract(1.0, far, out=far)
    logv *= far
    logv += below
    logv /= a
    fin = np.finfo(float)
    np.maximum(logv, math.log(fin.tiny), out=logv)
    np.minimum(logv, -fin.smallest_subnormal, out=logv)
    omv = np.expm1(logv, out=out("omv", shape))
    np.negative(omv, out=omv)
    return np.exp(logv, out=out("v", shape)), omv, logv, log1mva


def _mc_batch(ws, u, a, b):
    """The chain points and log weights (cube Jacobian over the proposal
    density) of one batch of uniforms ``u`` of shape (K, P), in the buffers
    of ``ws``."""
    K, per = u.shape
    v, omv, logv, log1mva = _kumaraswamy_inverse(ws, u, a[:, None], b[:, None])
    out = ws.out
    logw = out("logw", (per,))
    logw.fill(-float(np.sum(np.log(a * b))))
    for j in range(K):
        t = np.multiply(logv[j], K - 1 - j - (a[j] - 1.0), out=out("tmp", (per,)))
        t -= np.multiply(log1mva[j], b[j] - 1.0, out=out("tmp2", (per,)))
        logw += t
    return _ChainPoint(ws, v, omv, logv), logw


def _psiM_mc(ws: _Workspace, expos, nsamples, seed):
    """Importance-sampled Monte Carlo on the cube image of the chamber.

    Each cube axis draws from Kumaraswamy(a, b) by inversion of one uniform,
    with a = E0 + 1 and b = E1 + 1 (at least 0.05) from the exact endpoint
    exponents (E0, E1).  Its density a b v^(a-1) (1 - v^a)^(b-1) has
    the endpoint powers of Beta(a, b), so the weighted integrand stays
    bounded near every face and the estimator has finite variance.  The
    seeded stream is evaluated in MC_BATCHES deterministic batches whose
    sizes differ by at most one, exactly ``nsamples`` points in all.
    Returns float arrays in basis order: the totals over all points divided
    by ``nsamples``, and with the workspace's time index i the same estimate
    of dc/dz_i on the same samples (None without one); between them the
    largest standard error of a coefficient's batch means.
    """
    K = len(expos)
    a = np.array([max(float(e0), -0.95) + 1.0 for e0, _ in expos])
    b = np.array([max(float(e1), -0.95) + 1.0 for _, e1 in expos])
    rng = np.random.default_rng(seed)
    total = np.zeros(len(ws.basis))
    dtotal = np.zeros(len(ws.basis)) if ws.i is not None else None
    means = np.empty((len(ws.basis), MC_BATCHES))  # one row of batch means per coefficient
    for k in range(MC_BATCHES):
        per = nsamples // MC_BATCHES + (k < nsamples % MC_BATCHES)
        # midpoints of a 2^-52 grid: uniform on the open interval (0, 1)
        u = ws.out("u", (K, per))
        u[...] = rng.integers(0, 1 << 52, size=(K, per))
        u += 0.5
        u *= 2.0 ** -52
        c, d = _psiM_coeffs(ws, *_mc_batch(ws, u, a, b))
        total += c
        means[:, k] = c / per
        if dtotal is not None:
            dtotal += d
    sem = max(float(np.std(row, ddof=1)) / math.sqrt(MC_BATCHES) for row in means)
    return total / nsamples, sem, None if dtotal is None else dtotal / nsamples


# --- differential-system residual ----------------------------------------------------

def pde_residual(params: Parameters, z, M: int, quad: QuadratureSpec, i: int = 1):
    """Relative residual || planck dc/dz_i - M_i(z) c || / || M_i(z) c ||.

    c and dc/dz_i come from one :func:`eval_psiM` call, which differentiates
    under the integral on the same nodes (or the same MC samples) as c.
    """
    from .pfaffian import PfaffianSystem

    res = eval_psiM(params, z, M, quad, i)
    rhs = PfaffianSystem(params, ("V", M)).matrix_float(i, z).real @ res.vector
    denom = float(np.linalg.norm(rhs))
    dc = float(params.planck) * res.derivative
    return float(np.linalg.norm(dc - rhs)) / denom if denom else 0.0
