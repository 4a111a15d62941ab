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
expanded once for every basis index.  d/dz_i is carried through that
product as a dual part.  On a tensor grid each chain coordinate and gap
is an outer product of 1-D node factors, so the grid is never stacked:
per-axis node arrays broadcast, and every factor keeps only the axes it
depends on.  Only the copy at the last chain position depends on the
deepest axis, so the weight times each term of its form is summed over
that axis first, and one contraction pairs those sums with the expanded
product of the other copies, which never reaches full size.  Full-size
arrays (the weight and its products with the last copy's form) are built
one slab of about 2^15 points at a time, so memory stays flat as the node
count grows.  Monte Carlo draws each cube axis from a Kumaraswamy law
whose endpoint powers match the integrand's.  Those powers, and the window
check on every face, come from the closed form of :func:`_face_exponent`,
exact in the parameters and free of z.

Every quadrature result is checked by node refinement (Gauss-Jacobi
doubles the nodes, tanh-sinh takes 1.5x as many), never assumed stable.
All power-law bases are positive on the chamber for real z with
0 < z_i < 1, so principal branches apply throughout and no branch tracking
is needed.  Complex z is out of scope for quadrature (ODE transport covers
it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product

import numpy as np

from .errors import ChamberError, ConvergenceError, ParameterError
from .polyalg import enumerate_basis, flat_pos
from .quadrature import MC_BATCHES, QuadratureSpec, gauss_jacobi_01, tanh_sinh_01
from .weylops import Parameters


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
    if i is not None and not 1 <= i <= N:
        raise ParameterError(f"time index i={i} out of range 1..{N}")
    return z


def _z_of_length(z, N):
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

def _log_beta(x, y):
    from scipy.special import gammaln

    return gammaln(x) + gammaln(y) - gammaln(x + y)


def series_psi1(params: Parameters, z, order: int) -> IntegralResult:
    """Term-by-term integration of the cube integrand (N = 1 only, z = (z_1,)
    with |z_1| < 1).

    Expands the analytic factor (1 - z T)^(-s) in powers of zT and integrates
    each term as a product of Beta functions; entirely independent of the
    quadrature path.
    """
    if params.N != 1:
        raise ParameterError("the series oracle is defined for N = 1")
    if order < 0:
        raise ParameterError("order must be nonnegative")
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
        ab = [(ak + (k < n), bk + (k == n)) for k, (ak, bk) in enumerate(expos, 1)]
        # (1 - zT)^(-beta/kappa) = sum_k (beta/kappa)_k (zT)^k / k!, one extra
        # power of 1/(1 - zT) for the degree-1 coefficients
        s = float(exps.beta[0]) / kp + (1.0 if n else 0.0)
        total = 0.0
        term = math.nan
        ratio = 1.0  # (s)_k / k!, carried as one float: k! alone overflows a float at k = 171
        for k in range(order + 1):
            logterm = sum(
                _log_beta(float(ak) + k + 1.0, float(bk) + 1.0) for ak, bk in ab)
            term = ratio * zv ** k * math.exp(logterm)
            total += term
            ratio *= (s + k) / (k + 1)
        vec[slot] = -total if n else total
        tails.append(abs(term) / max(abs(total), 1e-300))
    return IntegralResult(basis, vec, max(tails),
                          {"scheme": "series", "order": order, "tail_bound": max(tails)})


# --- degree-M chamber machinery -----------------------------------------------------

class _ChainPoint:
    """Batched chamber points with stable gap evaluation.

    Built from the cube variables v_0..v_(K-1) and their complements, given
    per axis as arrays that broadcast against each other: one axis each on
    a tensor slab, the columns of a (P, K) batch for sampled points.
    ``x[p]`` = v_0 ... v_p is chain coordinate p (descending), ``omx[p]`` is
    1 - x_p and ``gap(p, r)`` is x_p - x_r, all without cancellation; each
    keeps only the axes it depends on.
    """

    def __init__(self, v, omv):
        K = len(v)
        self.x, self.omx = [v[0]], [omv[0]]
        for j in range(1, K):
            self.x.append(self.x[j - 1] * v[j])
            self.omx.append(self.omx[j - 1] + self.x[j - 1] * omv[j])
        self._gaps = {}
        for p in range(K - 1):
            prod, omprod = 1.0, 0.0
            for r in range(p + 1, K):
                omprod = omprod + prod * omv[r]
                prod = prod * v[r]
                self._gaps[(p, r)] = self.x[p] * omprod

    def gap(self, p, r):
        if p == r:
            raise ValueError("no gap between a coordinate and itself")
        return self._gaps[(min(p, r), max(p, r))]


def _psiM_coeffs(exps: ExponentsM, z, pt: _ChainPoint, logw, basis, i=None):
    """Coefficient integrands summed over points: dicts A -> value and, with a
    time index i, A -> d/dz_i of it (empty without one).

    logw already contains the quadrature weight and any substitution
    Jacobian; the per-copy 1/t_{L-1} normalization and the symmetric
    weight U go into a shared log-domain base.  Power-law bases enter
    through their (positive) chain gaps, and each chain factor's log and
    reciprocal is taken once.

    The symmetrization is a generating function.  A copy whose level-n
    coordinate is t_n^(c_n) carries the linear form
    P_c = f_0(c) + sum_(n,j) y_(n,j) f_n^(j)(c).  Pairing the other levels
    with level 1 by tau in S_M^(L-2), the sum over all copy permutations of
    the labelled densities is A_0! prod A! [y^A] prod_b P_(b, tau(b)), so
    c_A = (-1)^|A| M! sum_tau [y^A] prod_b P_(b, tau(b)), one product
    expansion for every A at once.  d/dz_i rides along as a dual part:
    with r(t) = t/(1 - z_i t) at a copy's t_{L-1}, each f_n^(i) gains a
    factor r, and the weight adds (beta_i/kappa) r per copy.

    The copy whose t_{L-1} sits at the last chain position is the only one
    that depends on the deepest axis.  The other copies' product is
    expanded on its own arrays; the base times each term of the last copy's
    form is summed over the axes along which that product has length 1,
    and one contraction pairs the two.  The axes are read off the array
    shapes, so a (P, K) batch contracts nothing.
    """
    L, N, M = exps.L, exps.N, exps.M
    kp = float(exps.planck)
    # chain position of t_n^(a): all level-n copies exceed all level-(n+1)
    # copies, copies descending within a level
    pos = {(n, a): (n - 1) * M + (a - 1) for n in range(1, L) for a in range(1, M + 1)}
    tls = [pos[(L - 1, a)] for a in range(1, M + 1)]  # chain positions of the t_{L-1}
    x, omx = pt.x, pt.omx
    rz = {(j, p): 1.0 / (1.0 - z[j] * x[p]) for j in range(N) for p in tls}

    # the chain gaps t_n - t_(n+1) between adjacent levels, always positive
    # since level n lies above level n+1, each with its weight exponent
    # -gamma_(n+1)/kappa (-1/kappa at M >= 2, where gamma_(n+1) = 1)
    adjacent = {(pos[(n, a)], pos[(n + 1, b_)]): -float(exps.gamma[n]) / kp
                for n in range(1, L - 1) for a in range(1, M + 1) for b_ in range(1, M + 1)}

    # (exponent, base) of every power in U and in the per-copy 1/t_{L-1}
    powers = [(2.0 / kp, pt.gap(pos[(n, a)], pos[(n, b_)]))
              for n in range(1, L) for a in range(1, M + 1) for b_ in range(a + 1, M + 1)]
    powers += [(e, pt.gap(*pq)) for pq, e in adjacent.items()]
    powers += [(float(exps.alpha[n - 1]) / kp - (n == L - 1), x[p]) for (n, a), p in pos.items()]
    powers += [(-float(exps.gamma[0]) / kp, omx[pos[(1, a)]]) for a in range(1, M + 1)]
    powers += [(float(exps.beta[j]) / kp, val) for (j, p), val in rz.items()]
    logbase = np.array(logw, copy=True)
    for e, g in powers:
        logbase += e * np.log(g)
    base = np.exp(logbase, out=logbase)

    # the reciprocal gaps of the forms: 1/(1 - t_1) and 1/(t_n - t_(n+1))
    recip = {pq: 1.0 / pt.gap(*pq) for pq in adjacent}
    recip.update({p: 1.0 / omx[p] for p in range(M)})
    zero = (0,) * ((L - 1) * N)
    ykey = {(n, j): tuple(int(k == flat_pos(n, j, N)) for k in range(len(zero)))
            for n in range(1, L) for j in range(1, N + 1)}

    def form(c):
        """P_c as {monomial: array}."""
        cidx = [pos[(n, c[n - 1])] for n in range(1, L)]
        rg = [recip[cidx[0]]] + [recip[pq] for pq in zip(cidx, cidx[1:])]
        lin = {zero: math.prod(rg)}
        for j in range(1, N + 1):
            pref = rz[(j - 1, cidx[-1])]
            for n in range(1, L):
                rest = rg[:n - 1] + rg[n:]  # f_n^(j) lacks the gap t_(n-1) - t_n
                lin[ykey[(n, j)]] = pref * math.prod(rest)
        return lin

    acc = dict.fromkeys(basis, 0.0)
    dacc = dict.fromkeys(basis, 0.0) if i is not None else {}
    if i is not None:
        iy = {ykey[(n, i)] for n in range(1, L)}
        r = {p: x[p] * rz[(i - 1, p)] for p in tls}
        dweight = sum(float(exps.beta[i - 1]) / kp * r[p] for p in tls)
        bw = base * dweight
        bwi = base * (dweight + r[tls[-1]])  # an f^(i) term of the last copy gains its own r
    forms, sums = {}, {}
    for tau in product(permutations(range(1, M + 1)), repeat=L - 2):
        copies = [(b,) + tuple(t[b - 1] for t in tau) for b in range(1, M + 1)]
        poly = dpoly = None
        for c in copies:
            if c[-1] == M:
                last = c
                continue
            if c not in forms:
                lin = form(c)
                forms[c] = lin, ({y: lin[y] * r[pos[(L - 1, c[-1])]] for y in iy}
                                 if dacc else {})
            lin, dual = forms[c]
            # (poly + e dpoly)(lin + e dual), dropping e^2
            poly, dpoly = (lin, dual) if poly is None else (
                _times(poly, lin, {}), _times(poly, dual, _times(dpoly, lin, {})))
        if poly is None:  # M = 1: the last copy alone
            poly, dpoly = {zero: 1.0}, {}
        rows = list(poly.values()) + list(dpoly.values())
        if last not in sums:
            shape = np.broadcast_shapes(*(np.shape(v) for v in rows))
            shape = (1,) * (base.ndim - len(shape)) + shape
            axes = tuple(ax for ax, (k, n) in enumerate(zip(shape, base.shape)) if k == 1 < n)
            lin = form(last)
            terms = [(base, f) for f in lin.values()]
            if dacc:
                terms += [(bwi if y in iy else bw, f) for y, f in lin.items()]
            S = np.empty((len(terms),) + tuple(1 if ax in axes else n
                                               for ax, n in enumerate(base.shape)))
            for col, (w, f) in zip(S, terms):
                if axes:
                    np.sum(w * f, axis=axes, keepdims=True, out=col)
                else:
                    np.multiply(w, f, out=col)
            sums[last] = list(lin), S
        ys, S = sums[last]
        R = np.empty((len(rows),) + S.shape[1:])
        for row, v in zip(R, rows):
            row[...] = v
        # einsum, not BLAS: the sum's order must not vary with BLAS threads
        G = np.einsum("mr,yr->my", R.reshape(len(R), -1), S.reshape(len(S), -1))
        for m, mono in enumerate(poly):
            for k, y in enumerate(ys):
                A = tuple(u + v for u, v in zip(mono, y))
                if A in acc:
                    acc[A] += G[m, k]
                    if dacc:  # d(poly . lin) = poly . (bw lin + base dual) + dpoly . lin
                        dacc[A] += G[m, len(ys) + k]
        for m, mono in enumerate(dpoly, len(poly)):
            for k, y in enumerate(ys):
                A = tuple(u + v for u, v in zip(mono, y))
                if A in dacc:
                    dacc[A] += G[m, k]
    scale = {A: (-1) ** sum(A) * math.factorial(M) for A in basis}
    return ({A: scale[A] * acc[A] for A in basis}, {A: scale[A] * dacc[A] for A in dacc})


def _times(poly, lin, out):
    """Add poly * lin into out, both {monomial: array}; lin is linear in y."""
    for mono, val in poly.items():
        for y, f in lin.items():
            key = tuple(u + v for u, v in zip(mono, y))
            if key in out:
                out[key] += val * f  # out holds only fresh products
            else:
                out[key] = val * f
    return out


# --- exact window exponents ---------------------------------------------------------

def _face_exponent(exps: ExponentsM, faces):
    """Exact power of the cube integrand as the (axis, side) ``faces`` are
    approached together at one rate, v -> 0 at side 0 and v -> 1 at side 1.

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
    expos = tuple((_face_exponent(exps, [(axis, 0)]), _face_exponent(exps, [(axis, 1)]))
                  for axis in range(K))
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
    for faces in (list(zip(axes, sides)) for c in (2, 3) for axes in combinations(range(K), c)
                  for sides in product((0, 1), repeat=c)):
        expo = _face_exponent(exps, faces)
        if expo <= -len(faces) + 0.05:
            raise ConvergenceError(
                f"nonconvergent corner exponent {float(expo):.3f} at faces {faces}")
    return expos


def eval_psiM(params: Parameters, z, M: int, quad: QuadratureSpec, i=None) -> IntegralResult:
    """Degree-M coefficient vector c_A over the ordered chamber.

    M = 1 takes a Gauss-Jacobi tensor rule whose per-axis weights are the
    exact endpoint exponents of phi_0 (:func:`_window_check`); every
    phi_n^(i) is a polynomial times that weight.  For M >= 2 the scheme is
    a tanh-sinh tensor rule or seeded Monte Carlo with a per-axis
    Kumaraswamy proposal (see :func:`_psiM_mc`) built from the same exact
    endpoint exponents.  A tensor rule covers K = M(L-1) <= 6 cube axes and
    fails on a relative change above ``stabilize_tol`` under node refinement.
    Monte Carlo never fails on its error or reads that bound: ``convergence``
    is its standard error over max |c_A| (``meta["sem"]`` unscaled).  With a
    time index i, ``derivative`` is dc/dz_i, differentiated under the
    integral (z enters only through bounded factors) on the nodes of the
    finer rule or the same MC samples.
    """
    if M < 1:
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

    if quad.scheme == "monte_carlo":
        c, err, d = _psiM_mc(exps, z, basis, expos, quad.mc_samples, quad.seed, i)
        meta = {"scheme": "monte_carlo", "samples": quad.mc_samples, "seed": quad.seed, "sem": err}
    else:
        nodes = 2 * quad.nodes_per_axis if M == 1 else int(quad.nodes_per_axis * 1.5) | 1
        c1, _ = _psiM_tensor(exps, z, basis, _axis_rules(quad.scheme, quad.nodes_per_axis, expos))
        c, d = _psiM_tensor(exps, z, basis, _axis_rules(quad.scheme, nodes, expos), i)
        err = max(abs(c1[A] - c[A]) for A in basis)
        meta = {"scheme": quad.scheme, "nodes": nodes}
    scale = max(abs(v) for v in c.values())
    conv = err / scale if scale else 0.0
    if quad.scheme != "monte_carlo" and conv > quad.stabilize_tol:
        raise ConvergenceError(
            f"quadrature failed to stabilize: relative change {conv:.3e} under "
            f"node refinement")
    return IntegralResult(basis, np.array([c[A] for A in basis]), conv,
                          {**meta, "chamber": "level_blocks"} if M >= 2 else meta,
                          np.array([d[A] for A in basis]) if d else None)


# points per slab of a tensor grid: one _psiM_coeffs call holds about a dozen
# arrays of this size, whatever the node count
_SLAB_POINTS = 1 << 15


def _axis_rules(scheme, nodes, expos):
    """Per-axis rules (v, 1 - v, log weight) of a tensor scheme on the
    K = len(expos) cube axes; each log weight holds the rule's and the
    Jacobian v_j^(K-1-j) of x_j = v_0 ... v_j.

    A Gauss-Jacobi axis absorbs u^a (1-u)^b with (a, b) = expos[j] into its
    weights and divides it back out of its log weight, since the kernel
    evaluates the whole integrand; tanh-sinh ignores ``expos``.
    """
    K = len(expos)
    if scheme == "tanh_sinh_tensor":
        xs, omxs, ws = tanh_sinh_01(nodes)
        return [(xs, omxs, np.log(ws) + (K - 1 - j) * np.log(xs)) for j in range(K)]
    rules = []
    for j, (a, b) in enumerate(expos):
        u, w = gauss_jacobi_01(nodes, float(a), float(b))
        omu = 1.0 - u
        rules.append((u, omu, np.log(w) + (K - 1 - j - float(a)) * np.log(u)
                      - float(b) * np.log(omu)))
    return rules


def _psiM_tensor(exps: ExponentsM, z, basis, rules, i=None):
    """Tensor sums of the coefficients (and of d/dz_i) on the cube, for the
    per-axis rules of :func:`_axis_rules`.

    The grid is cut along axis 0 into slabs of about _SLAB_POINTS points;
    each slab goes through :func:`_psiM_coeffs` on its own, its cube
    variables and log weights given as one broadcasting array per axis, and
    the slab sums are added in slab order.
    """
    K = len(rules)
    nodes = len(rules[0][0])
    rows = max(1, _SLAB_POINTS // nodes ** (K - 1))
    coeffs = dict.fromkeys(basis, 0.0)
    derivs = dict.fromkeys(basis, 0.0) if i is not None else {}
    for lo in range(0, nodes, rows):
        # axis j of the slab as an array that broadcasts along axis j only
        axes = [(slice(lo, lo + rows),) + (None,) * (K - 1)]
        axes += [(slice(None),) + (None,) * (K - 1 - j) for j in range(1, K)]
        v, omv, logws = ([rule[k][a] for rule, a in zip(rules, axes)] for k in range(3))
        logw = np.zeros(np.broadcast_shapes(*(u.shape for u in v)))
        for lw in logws:
            logw += lw
        c, d = _psiM_coeffs(exps, z, _ChainPoint(v, omv), logw, basis, i)
        for total, part in ((coeffs, c), (derivs, d)):
            for A in part:
                total[A] += part[A]
    return coeffs, derivs


def _kumaraswamy_inverse(u, a, b):
    """Kumaraswamy(a, b) quantile of u in (0, 1) with its logs: returns
    (v, 1 - v, log v, log(1 - v^a)) for the CDF 1 - (1 - v^a)^b.

    log(1 - v^a) = log(1 - u)/b, and log v^a = log(1 - e^(log(1 - v^a))) by
    the log1mexp branch (Maechler 2012); v and 1 - v then come from exp and
    expm1 of log v, so neither cancels near a face.  log v is clipped to
    [log tiny, -5e-324], so neither v nor 1 - v rounds to 0 at the ends of
    the uniform grid (at a = 0.05, log v would fall below -745 there)."""
    log1mva = np.log1p(-u) / b
    cut = -math.log(2.0)  # each branch sees only arguments on its side of the cut
    logva = np.where(log1mva >= cut, np.log(-np.expm1(np.maximum(log1mva, cut))),
                     np.log1p(-np.exp(np.minimum(log1mva, cut))))
    fin = np.finfo(float)
    logv = np.clip(logva / a, math.log(fin.tiny), -fin.smallest_subnormal)
    return np.exp(logv), -np.expm1(logv), logv, log1mva


def _psiM_mc(exps: ExponentsM, z, basis, expos, nsamples, seed, i=None):
    """Importance-sampled Monte Carlo on the cube image of the chamber.

    Each cube axis draws from Kumaraswamy(a, b) by inversion of one uniform,
    with a = E0 + 1 and b = E1 + 1 (at least 0.05) from the exact endpoint
    exponents (E0, E1).  Its density a b v^(a-1) (1 - v^a)^(b-1) has
    the endpoint powers of Beta(a, b), so the weighted integrand stays
    bounded near every face and the estimator has finite variance.  The
    seeded stream is evaluated in MC_BATCHES deterministic batches whose
    sizes differ by at most one, exactly ``nsamples`` points in all.
    Returns the totals over all points divided by ``nsamples``, the
    standard error of the batch means and, with a time index i, the same
    estimate of dc/dz_i on the same samples.
    """
    K = (exps.L - 1) * exps.M
    a = np.array([max(float(e0), -0.95) + 1.0 for e0, _ in expos])
    b = np.array([max(float(e1), -0.95) + 1.0 for _, e1 in expos])
    rng = np.random.default_rng(seed)
    total, dtotal, means = dict.fromkeys(basis, 0.0), None, {A: [] for A in basis}
    for k in range(MC_BATCHES):
        per = nsamples // MC_BATCHES + (k < nsamples % MC_BATCHES)
        # midpoints of a 2^-52 grid: uniform on the open interval (0, 1)
        u = (rng.integers(0, 1 << 52, size=(K, per)) + 0.5) * 2.0 ** -52
        v, omv, logv, log1mva = _kumaraswamy_inverse(u, a[:, None], b[:, None])
        # cube Jacobian over the proposal density
        logw = np.full(per, -float(np.sum(np.log(a * b))))
        for j in range(K):
            logw += (K - 1 - j - (a[j] - 1.0)) * logv[j] - (b[j] - 1.0) * log1mva[j]
        c, d = _psiM_coeffs(exps, z, _ChainPoint(v, omv), logw, basis, i)
        for A in basis:
            total[A] += c[A]
            means[A].append(c[A] / per)
        dtotal = d if dtotal is None else {A: dtotal[A] + d[A] for A in d}
    sem = max(float(np.std(means[A], ddof=1)) / math.sqrt(MC_BATCHES) for A in basis)
    return ({A: total[A] / nsamples for A in basis}, sem,
            {A: dtotal[A] / nsamples for A in dtotal})


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
