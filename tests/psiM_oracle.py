"""Oracle for the degree-M integrand: the literal permutation sum.

``qims.hypint._psiM_coeffs`` symmetrizes the M copies of the one-copy forms
by a generating-function product.  This module sums over all M!^(L-1) copy
permutations instead, one basis index at a time, with the multinomial
weight of each index from :class:`PhiIndexData`.  The base (the symmetric
weight U) is built as in the kernel; only the symmetrization differs.
"""

import math
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from qims.polyalg import flat_pos


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
    weight U go into a shared log-domain base.  Power-law bases enter
    through their (positive) chain gaps.  The rational densities keep their
    true signs.  With r(t) = t/(1 - z_i t), d/dz_i adds to the log of the
    integrand (beta_i/kappa) r(t_{L-1}) per copy and r once more per copy
    labelled (n, i), at that copy's own t_{L-1}.
    """
    L, N, M = exps.L, exps.N, exps.M
    kp = float(exps.planck)
    # chain position of t_n^(a): all level-n copies exceed all level-(n+1)
    # copies, copies descending within a level
    pos = {(n, a): (n - 1) * M + (a - 1) for n in range(1, L) for a in range(1, M + 1)}
    x, omx = pt.x, pt.omx

    logbase = np.array(logw, copy=True)
    for n in range(1, L):
        for a in range(1, M + 1):
            for b_ in range(a + 1, M + 1):
                logbase += (2.0 / kp) * np.log(pt.gap(pos[(n, a)], pos[(n, b_)]))
    for n in range(1, L - 1):
        for a in range(1, M + 1):
            for b_ in range(1, M + 1):
                logbase += (-1.0 / kp) * np.log(pt.gap(pos[(n, a)], pos[(n + 1, b_)]))
    for n in range(1, L):
        an = float(exps.alpha[n - 1]) / kp
        for a in range(1, M + 1):
            logbase += an * np.log(x[..., pos[(n, a)]])
    dweight = 0.0
    for a in range(1, M + 1):
        tl = x[..., pos[(L - 1, a)]]
        for j in range(N):
            logbase += (-float(exps.beta[j]) / kp) * np.log1p(-z[j] * tl)
        logbase += (-float(exps.gamma) / kp) * np.log(omx[..., pos[(1, a)]])
        logbase -= np.log(tl)  # per-copy 1/t_{L-1}
        if i is not None:
            dweight = dweight + float(exps.beta[i - 1]) / kp * tl / (1.0 - z[i - 1] * tl)
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
                    gaps.append(omx[..., cidx[0]])
                else:
                    g = pt.gap(cidx[m - 2], cidx[m - 1])
                    # pt.gap is the positive chain gap; restore the sign of
                    # t_{m-1} - t_m when the permuted copy inverts the order
                    gaps.append(g if cidx[m - 2] < cidx[m - 1] else -g)
            inv_gaps = [1.0 / g for g in gaps]
            f0 = math.prod(inv_gaps)
            tl = x[..., cidx[L - 2]]
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
