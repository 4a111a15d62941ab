"""Oracles for the degree-M integrand and its chamber points.

``qims.hypint._psiM_coeffs`` symmetrizes the M copies of the one-copy forms
by a generating-function product.  This module sums over all M!^(L-1) copy
permutations instead, one basis index at a time, with the multinomial
weight of each index from :class:`PhiIndexData`.  Its base (the symmetric
weight U) is built per power, each base logged at full size, where the
kernel sums per-axis logs of the cube variables and the few bases that do
not separate, each at its own shape.  :func:`psiM_coeffs_per_power` runs
the kernel with that per-power base in place of its own weight, so the two
weights meet while everything else is the kernel's.

:func:`psi1_eval_at` is the degree-1 reference: one Gauss-Jacobi tensor
rule per level n of the forms phi_n^(i), each absorbing that level's own
endpoint exponents from :func:`axis_exponents_m1`, the closed formula of
the nested simplex, where ``qims.hypint.eval_psiM`` puts every degree-1
form on the one rule of phi_0 and reads its exponents from the degree-M
face exponents.

``qims.hypint._ChainPoint`` builds the chain pieces its workspace
declares (coordinates, level-1 complements, gaps and the pieces
1 - v_(p+1) ... v_r) and takes the per-axis log v, from per-axis arrays
that broadcast; :func:`from_cube` builds every piece from a stacked
``(..., K)`` grid by a cumulative product.  :func:`probe_exponent` measures
the power of the integrand at a set of faces from two one-point kernel
calls, where :func:`face_exponent` computes it exactly, one face at a time.
:func:`psiM_coeffs` runs the kernel on a fresh workspace and returns its
sums as dicts keyed by basis index.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product

import numpy as np

from qims.hypint import _m1_form, _psiM_coeffs, _Workspace
from qims.polyalg import flat_pos
from qims.quadrature import gauss_jacobi_01


def psiM_coeffs(exps, z, pt, logw, basis, i=None):
    """``qims.hypint._psiM_coeffs`` on a fresh workspace: dicts A -> value
    and, with a time index i, A -> d/dz_i of it (empty without one)."""
    c, d = _psiM_coeffs(_Workspace(exps, z, basis, i), pt, logw)
    return dict(zip(basis, c)), {} if d is None else dict(zip(basis, d))


def axis_exponents_m1(exps, n):
    """Per-axis cube exponents (a_k, b_k) of the degree-1 coefficients of
    phi_n^(i) (n >= 1, any i) or of phi_0 (n = 0), from the closed formula
    of the nested simplex; includes the substitution Jacobian and the form
    density.  Checks nothing."""
    a, b = [], []
    for k in range(1, exps.L):
        ak = sum(exps.alpha[k - 1:], Fraction(0))
        ak -= sum(exps.gamma[k:], Fraction(0))
        ak = ak / exps.planck - 1
        bk = -exps.gamma[k - 1] / exps.planck - 1
        # phi_n has one gap t_{n-1} - t_n = u_1...u_{n-1} (1 - u_n) more than phi_0
        if k <= n - 1:
            ak += 1
        if k == n:
            bk += 1
        a.append(ak)
        b.append(bk)
    return a, b


@dataclass(frozen=True)
class StackedChainPoint:
    """Chain points of a stacked cube grid, read as a
    ``qims.hypint._ChainPoint`` is: ``logv[j]``, and ``pieces`` under the
    same keys, but every piece at every position or pair p < r."""

    logv: np.ndarray
    pieces: dict


def from_cube(v, omv):
    """Chain points of the stacked cube variables ``v`` (..., K) and their
    complements: x = cumprod(v), 1 - x_j = 1 - x_(j-1) + x_(j-1) (1 - v_j),
    log v, 1 - v_(p+1) ... v_r accumulated factor by factor and
    x_p - x_r = x_p (1 - v_(p+1) ... v_r)."""
    K = v.shape[-1]
    x = np.cumprod(v, axis=-1)
    omx = np.empty_like(x)
    omx[..., 0] = omv[..., 0]
    for j in range(1, K):
        omx[..., j] = omx[..., j - 1] + x[..., j - 1] * omv[..., j]
    pieces = {}
    for p in range(K):
        pieces[("x", p)], pieces[("omx", p)] = x[..., p], omx[..., p]
        prod = np.ones_like(v[..., 0])
        omprod = np.zeros_like(v[..., 0])
        for r in range(p + 1, K):
            omprod = omprod + prod * omv[..., r]
            prod = prod * v[..., r]
            pieces[("om", p, r)] = omprod
            pieces[("gap", p, r)] = x[..., p] * omprod
    return StackedChainPoint(np.moveaxis(np.log(v), -1, 0), pieces)


def log_weight(exps, z, pt, logw):
    """log of exp(logw) U prod_copies 1/t_{L-1}, one power at a time, each
    base broadcast to the full shape of logw before its log is taken; and
    with r(t) = t/(1 - z_i t) the function i -> sum over copies of
    (beta_i/kappa) r(t_{L-1}), the weight's d/dz_i log.  Each gap is
    x_p (1 - v_(p+1) ... v_r) from ``pt``'s pieces, which a kernel chain
    point builds for every gap of the weight."""
    L, N, M = exps.L, exps.N, exps.M
    kp = float(exps.planck)
    # chain position of t_n^(a): all level-n copies exceed all level-(n+1)
    # copies, copies descending within a level
    pos = {(n, a): (n - 1) * M + (a - 1) for n in range(1, L) for a in range(1, M + 1)}
    shape = np.shape(logw)
    pieces = pt.pieces

    def log(g, log=np.log):
        return log(np.broadcast_to(g, shape))

    def gap(p, r):
        return pieces[("x", p)] * pieces[("om", p, r)]

    logbase = np.array(logw, copy=True)
    for n in range(1, L):
        for a in range(1, M + 1):
            for b_ in range(a + 1, M + 1):
                logbase += (2.0 / kp) * log(gap(pos[(n, a)], pos[(n, b_)]))
    for n in range(1, L - 1):
        for a in range(1, M + 1):
            for b_ in range(1, M + 1):
                logbase += (-float(exps.gamma[n]) / kp) * log(gap(pos[(n, a)],
                                                                  pos[(n + 1, b_)]))
    for n in range(1, L):
        an = float(exps.alpha[n - 1]) / kp
        for a in range(1, M + 1):
            logbase += an * log(pieces[("x", pos[(n, a)])])
    tls = [pieces[("x", pos[(L - 1, a)])] for a in range(1, M + 1)]
    for a in range(1, M + 1):
        tl = tls[a - 1]
        for j in range(N):
            logbase += (-float(exps.beta[j]) / kp) * log(-z[j] * tl, np.log1p)
        logbase += (-float(exps.gamma[0]) / kp) * log(pieces[("omx", pos[(1, a)])])
        logbase -= log(tl)  # per-copy 1/t_{L-1}

    def dweight(i):
        return sum(float(exps.beta[i - 1]) / kp * tl / (1.0 - z[i - 1] * tl) for tl in tls)

    return logbase, dweight


def psiM_coeffs_per_power(exps, z, pt, logw, basis, i=None):
    """The kernel's sums with the weight of :func:`log_weight`: the kernel
    on a fresh workspace whose compiled weight is emptied, so its base is
    exp of the log weight passed in, here the per-power one.  Dicts as in
    :func:`psiM_coeffs`."""
    ws = _Workspace(exps, z, basis, i)
    ws.logv_coef, ws.atoms, ws.weight_groups = [], [], []
    c, d = _psiM_coeffs(ws, pt, log_weight(exps, z, pt, logw)[0])
    return dict(zip(basis, c)), {} if d is None else dict(zip(basis, d))


def face_exponent(exps, faces):
    """Exact power of the cube integrand as the (axis, side) ``faces`` are
    approached together at one rate, v -> 0 at side 0 and v -> 1 at side 1,
    summed term by term for one set of faces; the oracle of
    ``qims.hypint._face_exponents``, which tabulates the integer orders once
    per (L, M).

    On the chamber each c_A is (-1)^|A| M! times a sum of products of
    positive factors: the weight, the reciprocal gaps of the one-copy forms
    and 1/(1 - z_j t) with 0 < z_j < 1.  Nothing cancels, so a coefficient's
    power is the least among its terms, and c_0 has the least of all: each
    of its copies carries f_0, which holds every reciprocal gap.  Each factor
    vanishes to an integer order: x_p to #{j <= p at side 0}; the gap
    x_p - x_r = x_p (1 - v_(p+1) ... v_r) to that order, plus 1 if every j
    in p+1..r is at side 1; 1 - x_p to order 1 if every j <= p is; the
    Jacobian v_j^(K-1-j) to K-1-j if j is at side 0; 1/(1 - z_j t) to none,
    so z drops out.
    """
    L, M, K = exps.L, exps.M, (exps.L - 1) * exps.M
    side = dict(faces)
    zeros = list(accumulate(side.get(j) == 0 for j in range(K)))  # order of x_p

    def ones(lo, hi):  # whether every axis lo..hi is at side 1
        return all(side.get(j) == 1 for j in range(lo, hi + 1))

    def gap(p, r):  # order of x_p - x_r for p < r
        return zeros[p] + ones(p + 1, r)

    lev = [range(n * M, (n + 1) * M) for n in range(L - 1)]  # chain positions per level
    # (kappa times a weight exponent, order of its base); the rest, the
    # Jacobian and the per-copy 1/t_(L-1), have integer exponents
    terms = []
    rest = sum(K - 1 - j for j, s in side.items() if s == 0) - sum(zeros[p] for p in lev[-1])
    for n, ps in enumerate(lev):  # t_n and the within-level gaps
        terms.append((exps.alpha[n], sum(zeros[p] for p in ps)))
        terms.append((2, sum(gap(p, r) for p, r in combinations(ps, 2))))
    top = sum(ones(0, p) for p in lev[0])  # 1 - t_1, in the weight and in every form
    terms.append((-exps.gamma[0], top))
    rest -= top
    for n in range(L - 2):
        upper, lower = lev[n], lev[n + 1]
        terms.append((-exps.gamma[n + 1], sum(gap(p, r) for p in upper for r in lower)))
        # each copy pairs one upper position with one lower one.  The x_p parts
        # of the reciprocal gaps do not depend on the pairing; ones(p + 1, r)
        # holds just for p and r on the run of side-1 axes through lower[0],
        # and any pairing matches at most min(#p, #r) of them, the best exactly
        rest -= sum(zeros[p] for p in upper) + min(sum(ones(p + 1, lower[0]) for p in upper),
                                                   sum(ones(lower[0], r) for r in lower))
    return sum(e * k for e, k in terms if k) / exps.planck + rest


def probe_exponent(exps, z, basis, moves):
    """Fitted power of the cube integrand as the listed (axis, side) faces
    are approached together, from one kernel call per distance; None when
    the probe value at either distance is 0 or not finite."""
    K = (exps.L - 1) * exps.M
    vals = []
    for eps in (1e-4, 5e-5):
        v = np.full((1, K), 0.5)
        for axis, side in moves:
            v[0, axis] = eps if side == 0 else 1.0 - eps
        omv = 1.0 - v
        for axis, side in moves:
            omv[0, axis] = 1.0 - eps if side == 0 else eps
        logw = np.zeros(1)
        for j in range(K):
            logw += (K - 1 - j) * np.log(v[0, j])  # cube Jacobian
        c, _ = psiM_coeffs(exps, z, from_cube(v, omv), logw, basis)
        vals.append(max(abs(val) for val in c.values()))
    if not all(0.0 < w < math.inf for w in vals):
        return None
    return (math.log(vals[0]) - math.log(vals[1])) / math.log(2.0)


def measured_window_accepts(exps, basis):
    """The window decision from measured powers: the analytic conditions on
    2/kappa, 1/kappa and gamma_1/kappa, then every face probed at one
    canonical z by :func:`probe_exponent`, per axis above -0.98 and at each
    corner of c = 2 or 3 faces above -c + 0.05.  True or False, or None when
    a probe underflows or overflows and its power is unmeasurable."""
    kp = float(exps.planck)
    if not (2.0 / kp > -1.0 and float(exps.gamma[0]) / kp < 1
            and (exps.L < 3 or 1.0 / kp < 0.0)):
        return False
    K = (exps.L - 1) * exps.M
    zc = tuple(0.15 + 0.7 * j / max(exps.N - 1, 1) if exps.N > 1 else 0.35
               for j in range(exps.N))
    probes = [[(axis, side)] for axis in range(K) for side in (0, 1)]
    probes += [list(zip(axes, sides)) for c in (2, 3) for axes in combinations(range(K), c)
               for sides in product((0, 1), repeat=c)]
    expos = [probe_exponent(exps, zc, basis, faces) for faces in probes]
    if None in expos:
        return None
    return all(e > (-0.98 if len(faces) == 1 else -len(faces) + 0.05)
               for faces, e in zip(probes, expos))


@dataclass(frozen=True)
class PhiIndexData:
    """Combinatorics of one degree-M coefficient form.

    ``segments`` lists ((n, i), S_prev, S) with copies S_prev+1..S carrying
    the (n, i) label; the final ``A0`` copies carry the plain form.  The
    block lengths plus A0 always sum to M and the multinomial weight is a
    positive integer.
    """

    A0: int
    multinomial: int
    sign: int
    segments: tuple

    @classmethod
    def from_index(cls, A, L, N, M):
        A0 = M - sum(A)
        segments = []
        s = 0
        for i in range(1, N + 1):
            for n in range(1, L):
                cnt = A[flat_pos(n, i, N)]
                if cnt:
                    segments.append(((n, i), s, s + cnt))
                s += cnt
        mult = math.factorial(M) // math.factorial(A0)
        for x in A:
            mult //= math.factorial(x)
        assert s + A0 == M and mult > 0
        return cls(A0, mult, (-1) ** (M - A0), tuple(segments))

    def copy_labels(self, M):
        """label of each copy 1..M: an (n, i) pair or None for the plain form."""
        out = [None] * M
        for (label, lo, hi) in self.segments:
            for a in range(lo, hi):
                out[a] = label
        return out



def psiM_coeffs_oracle(exps, z, pt, logw, basis, i=None):
    """The symmetrization written out: for every copy permutation sigma in
    S_M^(L-1) and every basis index A, the product of the labelled one-copy
    densities, summed against the base; dicts A -> value and, with a time
    index i, A -> d/dz_i of it (empty without one).

    logw already contains the quadrature weight and any substitution
    Jacobian; the per-copy 1/t_{L-1} normalization and the symmetric
    weight U go into a shared log-domain base, built by :func:`log_weight`.
    The rational densities keep their true signs.  With
    r(t) = t/(1 - z_i t), d/dz_i adds to the log of the integrand
    (beta_i/kappa) r(t_{L-1}) per copy and r once more per copy labelled
    (n, i), at that copy's own t_{L-1}.
    """
    L, N, M = exps.L, exps.N, exps.M
    # chain position of t_n^(a): all level-n copies exceed all level-(n+1)
    # copies, copies descending within a level
    pos = {(n, a): (n - 1) * M + (a - 1) for n in range(1, L) for a in range(1, M + 1)}
    pieces = pt.pieces

    logbase, dweights = log_weight(exps, z, pt, logw)
    dweight = 0.0 if i is None else dweights(i)
    base = np.exp(logbase)

    # per-sigma per-copy form factors;   copy a under sigma has level-n
    # coordinate t_n^(sigma_n(a))
    def copy_factors(sigma):
        """list over copies a=1..M of (f_0 value, {(n,i): f_n^(i) value}, r)."""
        out = []
        for a in range(1, M + 1):
            cidx = [pos[(n, sigma[n - 1][a - 1] + 1)] for n in range(1, L)]
            gaps = []
            for m in range(1, L):
                if m == 1:
                    gaps.append(pieces[("omx", cidx[0])])
                else:
                    p, r = sorted(cidx[m - 2:m])
                    g = pieces[("gap", p, r)]
                    # the piece is the positive chain gap; restore the sign of
                    # t_{m-1} - t_m when the permuted copy inverts the order
                    gaps.append(g if cidx[m - 2] < cidx[m - 1] else -g)
            inv_gaps = [1.0 / g for g in gaps]
            f0 = math.prod(inv_gaps)
            tl = pieces[("x", cidx[L - 2])]
            fni = {}
            for j in range(1, N + 1):
                pref = 1.0 / (1.0 - z[j - 1] * tl)
                for n in range(1, L):
                    fni[(n, j)] = pref * f0 * gaps[n - 1]
            out.append((f0, fni, None if i is None else tl / (1.0 - z[i - 1] * tl)))
        return out

    sigmas = list(product(permutations(range(M)), repeat=L - 1))
    info = {A: PhiIndexData.from_index(A, L, N, M) for A in basis}
    acc = {A: 0.0 for A in basis}
    dacc = {A: 0.0 for A in basis} if i is not None else {}
    for sigma in sigmas:
        facs = copy_factors(sigma)
        for A in basis:
            dens, dlog = None, dweight
            for a, label in enumerate(info[A].copy_labels(M)):
                f0, fni, r = facs[a]
                piece = f0 if label is None else fni[label]
                dens = piece if dens is None else dens * piece
                if label is not None and label[1] == i:
                    dlog = dlog + r
            acc[A] = acc[A] + float(np.sum(base * dens))
            if dacc:
                dacc[A] = dacc[A] + float(np.sum(base * dens * dlog))
    scale = {A: info[A].sign * info[A].multinomial for A in basis}
    return ({A: scale[A] * acc[A] for A in basis}, {A: scale[A] * dacc[A] for A in dacc})


def psi1_eval_at(exps, z, nodes, basis, i=None):
    """Every degree-1 coefficient in basis order, by one Gauss-Jacobi tensor
    rule per level n of the forms, and with a time index i also its d/dz_i
    on the same nodes (None without one)."""
    L, N = exps.L, exps.N
    kp = float(exps.planck)
    forms = [_m1_form(A, N) for A in basis]
    vec = np.zeros(len(basis))
    dvec = np.zeros(len(basis)) if i is not None else None
    for n in range(L):
        a, b = axis_exponents_m1(exps, n)
        rules = [gauss_jacobi_01(nodes, float(ak), float(bk)) for ak, bk in zip(a, b)]
        W = math.prod(np.ix_(*[w for _, w in rules]))
        T = math.prod(np.ix_(*[u for u, _ in rules]))
        base = np.ones_like(T)
        for j in range(N):
            base = base * (1.0 - z[j] * T) ** (-float(exps.beta[j]) / kp)
        if i is not None:
            # d/dz_i log: (beta_i/kappa) r, and one more r on a 1/(1 - z_i T) form
            r = T / (1.0 - z[i - 1] * T)
            dw = float(exps.beta[i - 1]) / kp * r
        for k, (m, j) in enumerate(forms):
            if m != n:
                continue
            val = W * base if j is None else W * base / (1.0 - z[j - 1] * T)
            sign = 1.0 if j is None else -1.0  # c_(n,i) = -int U phi_n^(i)
            vec[k] = sign * float(np.sum(val))
            if i is not None:
                dvec[k] = sign * float(np.sum(val * (dw + r if j == i else dw)))
    return vec, dvec
