"""Hypergeometric integral solutions evaluated over one explicit chamber.

The degree-1 solution integrates a weight U(t) against the rational forms
phi_0, phi_n^(i) over the nested simplex 0 < t_{L-1} < ... < t_1 < 1
(t_0 = 1).  The substitution t_n = t_{n-1} u_n maps this chamber onto the
unit cube and turns every singular factor into a per-axis Jacobi weight
u^a (1-u)^b, which Gauss-Jacobi nodes absorb exactly; only the analytic
factor prod_i (1 - z_i t_{L-1})^{-beta_i/kappa} remains in the integrand.

Degree-M solutions use M copies of each integration level, ordered so all
level-n copies exceed all level-(n+1) copies and copies decrease within a
level, and integrate the symmetrized product of M one-copy forms over that
single ordered chamber.  Each copy carries a factor 1/t_{L-1}^(a), matching
the degree-1 forms; without it the coefficient vector does not satisfy the
differential system.  The symmetrization is a generating function (Aomoto
& Kita, ch. 2): the sum over copy permutations of the labelled densities
is a coefficient of a product of M linear forms in y_(n,i), one per copy,
expanded once for every basis index.  d/dz_i is carried through that
product as a dual part.  Tensor grids are evaluated in slabs of about
2^15 points, so memory stays flat as the node count grows.

All power-law bases are positive on the chamber for real z with
0 < z_i < 1, so principal branches apply throughout and no branch tracking
is needed.  Complex z is out of scope for quadrature (ODE transport covers
it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
from scipy.special import gammaln

from .errors import ChamberError, ConvergenceError, ParameterError
from .polyalg import enumerate_basis, flat_pos
from .quadrature import QuadratureSpec, gauss_jacobi_01, tanh_sinh_01
from .weylops import Parameters


# --- parameter dictionaries -------------------------------------------------------

@dataclass(frozen=True)
class ExponentsM1:
    """Weight exponents of the degree-1 integral: U = prod t_n^(alpha_n/k)
    * prod (1-z_i t_{L-1})^(-beta_i/k) * prod (t_{n-1}-t_n)^(-gamma_n/k)."""

    alpha: tuple
    beta: tuple
    gamma: tuple
    planck: object

    @property
    def L(self):
        return len(self.alpha) + 1

    @property
    def N(self):
        return len(self.beta)


@dataclass(frozen=True)
class ExponentsM:
    """Weight exponents of the degree-M integral (single gamma on (1 - t_1))."""

    alpha: tuple
    beta: tuple
    gamma: object
    planck: object
    M: int

    @property
    def L(self):
        return len(self.alpha) + 1

    @property
    def N(self):
        return len(self.beta)


def dictionary_M1(params: Parameters) -> ExponentsM1:
    """alpha_n = e_{n+1} - e_n + kappa_{n+1}, beta_i = -theta_i, gamma_n = kappa_n,
    with e_L = e_0 and kappa_L = 1; requires the degree-1 resonance."""
    if params.resonance_V != 1:
        raise ParameterError(
            f"degree-1 dictionary requires kappa_0 - sum(theta) = 1, got {params.resonance_V}")
    L = params.L
    e = params.e + (params.e[0],)
    kap = params.kappa + (Fraction(1),)
    alpha = tuple(e[n + 1] - e[n] + kap[n + 1] for n in range(1, L))
    beta = tuple(-t for t in params.theta[1:])
    gamma = tuple(params.kappa[n] for n in range(1, L))
    return ExponentsM1(alpha, beta, gamma, params.planck)


def dictionary_M(params: Parameters, M: int) -> ExponentsM:
    """alpha_n = e_{n+1} - e_n + 1, beta_i = -theta_i, gamma = kappa_1 + M - 1;
    requires kappa_0 - sum(theta) = M and kappa_n = 1 for 2 <= n <= L-1."""
    if params.resonance_V != M:
        raise ParameterError(
            f"degree-M dictionary requires kappa_0 - sum(theta) = M, got "
            f"{params.resonance_V} != {M}")
    for n in range(2, params.L):
        if params.kappa[n] != 1:
            raise ParameterError(
                f"degree-M dictionary requires kappa_{n} = 1, got {params.kappa[n]}")
    L = params.L
    e = params.e + (params.e[0],)
    alpha = tuple(e[n + 1] - e[n] + 1 for n in range(1, L))
    beta = tuple(-t for t in params.theta[1:])
    gamma = params.kappa[1] + M - 1
    return ExponentsM(alpha, beta, gamma, params.planck, M)


# --- pointwise weight and forms ----------------------------------------------------

def _check_chamber_point(t, L):
    t = tuple(float(x) for x in t)
    if len(t) != L - 1:
        raise ChamberError(f"t must have length L-1={L - 1}")
    chain = (1.0,) + t
    if any(not (chain[k + 1] < chain[k]) for k in range(L - 1)) or not t[-1] > 0.0:
        raise ChamberError(f"point {t} outside the chamber 0 < t_(L-1) < ... < t_1 < 1")
    return t


def _check_z_box(z, N, i=None):
    z = tuple(float(x) for x in z)
    if len(z) != N:
        raise ChamberError(f"z must have length N={N}")
    if any(not (0.0 < zi < 1.0) for zi in z):
        raise ChamberError(f"z {z} outside the real box (0,1)^N")
    if len(set(z)) != N:
        raise ChamberError("z entries must be pairwise distinct")
    if i is not None and not 1 <= i <= N:
        raise ParameterError(f"time index i={i} out of range 1..{N}")
    return z


def weight_M1(t, z, exps: ExponentsM1) -> float:
    """U(t) at an interior chamber point; positive real (principal powers)."""
    L, N = exps.L, exps.N
    t = _check_chamber_point(t, L)
    z = _check_z_box(z, N)
    kp = float(exps.planck)
    chain = (1.0,) + t
    out = 0.0
    for n in range(1, L):
        out += float(exps.alpha[n - 1]) / kp * math.log(t[n - 1])
        out += -float(exps.gamma[n - 1]) / kp * math.log(chain[n - 1] - chain[n])
    for i in range(N):
        out += -float(exps.beta[i]) / kp * math.log(1.0 - z[i] * t[-1])
    return math.exp(out)


def forms_M1(t, z):
    """Densities of the basis forms against dt_1 ^ ... ^ dt_{L-1}.

    Returns (phi_0, phi) with phi[n-1][i-1] the density of phi_n^(i):
    phi_0 = 1/(t_{L-1} prod (t_{n-1}-t_n)) and
    phi_n^(i) = 1/((1-z_i t_{L-1}) t_{L-1}) prod_{m != n} 1/(t_{m-1}-t_m).
    """
    L = len(t) + 1
    N = len(z)
    t = _check_chamber_point(t, L)
    z = tuple(float(x) for x in z)
    chain = (1.0,) + t
    gaps = [chain[m - 1] - chain[m] for m in range(1, L)]
    phi0 = 1.0 / (t[-1] * math.prod(gaps))
    phi = [[1.0 / ((1.0 - z[i] * t[-1]) * t[-1] * math.prod(
        g for m, g in enumerate(gaps, start=1) if m != n))
        for i in range(N)] for n in range(1, L)]
    return phi0, phi


# --- degree-1 evaluation ------------------------------------------------------------

def _axis_exponents_m1(exps: ExponentsM1, key):
    """Exact per-axis cube exponents (a_k, b_k) for one coefficient.

    key is None for the constant coefficient or (n, i) for -phi_n^(i).
    Includes the substitution Jacobian and the form density.
    """
    L = exps.L
    a, b = [], []
    for k in range(1, L):
        ak = sum(exps.alpha[k - 1:], Fraction(0))
        ak -= sum(exps.gamma[k:], Fraction(0))
        ak = ak / exps.planck - 1
        bk = -exps.gamma[k - 1] / exps.planck - 1
        if key is not None:
            n = key[0]
            if k <= n - 1:
                ak += 1
            if k == n:
                bk += 1
        a.append(ak)
        b.append(bk)
    return a, b


def _coefficient_keys(L, N):
    return [None] + [(n, i) for n in range(1, L) for i in range(1, N + 1)]


def _psi1_eval_at(exps: ExponentsM1, z, nodes: int, i=None):
    """Evaluate every coefficient with per-(n)-group Gauss-Jacobi tensor rules,
    and with a time index i also its d/dz_i on the same nodes."""
    L, N = exps.L, exps.N
    kp = float(exps.planck)
    coeffs, derivs = {}, {}
    for n_group in [None] + list(range(1, L)):
        key0 = None if n_group is None else (n_group, 1)
        a, b = _axis_exponents_m1(exps, key0)
        for ak, bk in zip(a, b):
            if not (ak > -1 and bk > -1):
                raise ConvergenceError(
                    f"nonconvergent exponent window: axis exponents ({float(ak)}, "
                    f"{float(bk)}) for coefficient group {n_group}")
        rules = [gauss_jacobi_01(nodes, float(ak), float(bk)) for ak, bk in zip(a, b)]
        grids = np.meshgrid(*[u for u, _ in rules], indexing="ij")
        W = math.prod(np.ix_(*[w for _, w in rules]))
        T = math.prod(grids)
        base = np.ones_like(T)
        for j in range(N):
            base = base * (1.0 - z[j] * T) ** (-float(exps.beta[j]) / kp)
        if i is not None:
            # d/dz_i log: (beta_i/kappa) r, and one more r on a 1/(1 - z_i T) form
            r = T / (1.0 - z[i - 1] * T)
            dw = float(exps.beta[i - 1]) / kp * r
        for key in [None] if n_group is None else [(n_group, j) for j in range(1, N + 1)]:
            val = W * base if key is None else W * base / (1.0 - z[key[1] - 1] * T)
            sign = 1.0 if key is None else -1.0  # c_(n,i) = -int U phi_n^(i)
            coeffs[key] = sign * float(np.sum(val))
            if i is not None:
                derivs[key] = sign * float(np.sum(val * (dw + r if key and key[1] == i else dw)))
            del val  # one form's array alive at a time
    return coeffs, derivs


@dataclass(frozen=True)
class IntegralResult:
    basis: tuple           # multi-indices, graded-lex
    vector: np.ndarray     # coefficients in basis order
    coeffs: dict           # key -> value (None / (n,i) for M=1, index tuple for M>=2)
    convergence: float     # relative change under node doubling (or MC std error)
    meta: dict
    derivative: np.ndarray = None  # dc/dz_i on the same nodes, when i is given


def _m1_vector(coeffs, L, N):
    basis = tuple(enumerate_basis(L, N, 1))
    idx = {A: k for k, A in enumerate(basis)}
    vec = np.zeros(len(basis))
    vec[idx[(0,) * ((L - 1) * N)]] = coeffs[None]
    for (n, i), v in ((k, v) for k, v in coeffs.items() if k is not None):
        A = [0] * ((L - 1) * N)
        A[flat_pos(n, i, N)] = 1
        vec[idx[tuple(A)]] = v
    return basis, vec


def eval_psi1(params: Parameters, z, quad: QuadratureSpec, i=None) -> IntegralResult:
    """Degree-1 coefficient vector c with c_(0) = int U phi_0 and
    c_(n,i) = -int U phi_n^(i), by Gauss-Jacobi tensor quadrature on the cube.

    Stability is asserted by node doubling, never assumed.  Any other
    scheme is rejected.  With a time index i the result also carries
    dc/dz_i, differentiated under the integral on the doubled rule's nodes.
    """
    if quad.scheme != "gauss_jacobi_tensor":
        raise ParameterError(
            f"degree 1 uses scheme 'gauss_jacobi_tensor', got {quad.scheme!r}")
    exps = dictionary_M1(params)
    z = _check_z_box(z, exps.N, i)
    c1, _ = _psi1_eval_at(exps, z, quad.nodes_per_axis)
    c2, d2 = _psi1_eval_at(exps, z, 2 * quad.nodes_per_axis, i)
    scale = max(abs(v) for v in c2.values())
    change = max(abs(c1[k] - c2[k]) for k in c1) / scale if scale else 0.0
    if change > quad.stabilize_tol:
        raise ConvergenceError(
            f"quadrature failed to stabilize: relative change {change:.3e} after "
            f"doubling {quad.nodes_per_axis} nodes")
    basis, vec = _m1_vector(c2, exps.L, exps.N)
    return IntegralResult(basis, vec, c2, change,
                          {"scheme": "gauss_jacobi_tensor", "nodes": 2 * quad.nodes_per_axis},
                          _m1_vector(d2, exps.L, exps.N)[1] if d2 else None)


# --- degree-1 series oracle ---------------------------------------------------------

def _log_beta(x, y):
    return gammaln(x) + gammaln(y) - gammaln(x + y)


def series_psi1(params: Parameters, z, order: int) -> IntegralResult:
    """Term-by-term integration of the cube integrand (N = 1 only, |z| < 1).

    Expands the analytic factor (1 - z T)^(-s) in powers of zT and integrates
    each term as a product of Beta functions; entirely independent of the
    quadrature path.
    """
    if params.N != 1:
        raise ParameterError("the series oracle is defined for N = 1")
    if order < 0:
        raise ParameterError("order must be nonnegative")
    exps = dictionary_M1(params)
    zv = float(z[0]) if isinstance(z, (tuple, list)) else float(z)
    if abs(zv) >= 1:
        raise ParameterError(f"series requires |z| < 1, got {zv}")
    kp = float(exps.planck)
    coeffs = {}
    tails = []
    for key in _coefficient_keys(exps.L, 1):
        a, b = _axis_exponents_m1(exps, key)
        for ak, bk in zip(a, b):
            if not (ak > -1 and bk > -1):
                raise ConvergenceError(
                    f"nonconvergent exponent window for coefficient {key}")
        # (1 - zT)^(-beta/kappa) = sum_k (beta/kappa)_k (zT)^k / k!, one extra
        # power of 1/(1 - zT) for the degree-1 coefficients
        s = float(exps.beta[0]) / kp + (1.0 if key is not None else 0.0)
        total = 0.0
        term = math.nan
        poch = 1.0
        for k in range(order + 1):
            logterm = sum(
                _log_beta(float(ak) + k + 1.0, float(bk) + 1.0) for ak, bk in zip(a, b))
            term = poch * zv ** k / math.factorial(k) * math.exp(logterm)
            total += term
            poch *= s + k
        sign = -1.0 if key is not None else 1.0
        coeffs[key] = sign * total
        tails.append(abs(term) / max(abs(total), 1e-300))
    basis, vec = _m1_vector(coeffs, exps.L, 1)
    return IntegralResult(basis, vec, coeffs, max(tails),
                          {"scheme": "series", "order": order, "tail_bound": max(tails)})


# --- degree-M chamber machinery -----------------------------------------------------

class _ChainPoint:
    """Batched chamber points with stable gap evaluation.

    x[..., p] holds chain coordinate p (descending).  ``gap(p, r)`` returns
    x_p - x_r; on the tensor path these come from the cube variables without
    cancellation, on the MC path directly.
    """

    def __init__(self, x, omx, gaps=None):
        self.x = x
        self.omx = omx
        self._gaps = gaps

    def gap(self, p, r):
        if p == r:
            raise ValueError("no gap between a coordinate and itself")
        if p > r:
            p, r = r, p
        if self._gaps is not None:
            return self._gaps[(p, r)]
        return self.x[..., p] - self.x[..., r]

    @classmethod
    def from_cube(cls, v, omv):
        K = v.shape[-1]
        x = np.cumprod(v, axis=-1)
        omx = np.empty_like(x)
        omx[..., 0] = omv[..., 0]
        for j in range(1, K):
            omx[..., j] = omx[..., j - 1] + x[..., j - 1] * omv[..., j]
        gaps = {}
        for p in range(K):
            prod = np.ones_like(v[..., 0])
            omprod = np.zeros_like(v[..., 0])
            for r in range(p + 1, K):
                omprod = omprod + prod * omv[..., r]
                prod = prod * v[..., r]
                gaps[(p, r)] = x[..., p] * omprod
        return cls(x, omx, gaps)


def _psiM_coeffs(exps: ExponentsM, z, pt: _ChainPoint, logw, basis, i=None):
    """Coefficient integrands summed over points: dicts A -> value and, with a
    time index i, A -> d/dz_i of it (empty without one).

    logw already contains the quadrature weight and any substitution
    Jacobian; the per-copy 1/t_{L-1} normalization and the symmetric
    weight U go into a shared log-domain base.  Power-law bases enter
    through their (positive) chain gaps.

    The symmetrization is a generating function.  A copy whose level-n
    coordinate is t_n^(c_n) carries the linear form
    P_c = f_0(c) + sum_(n,j) y_(n,j) f_n^(j)(c), computed once for each of
    the M^(L-1) choices of c.  Pairing the other levels with level 1 by
    tau in S_M^(L-2), the sum over all copy permutations of the labelled
    densities is A_0! prod A! [y^A] prod_b P_(b, tau(b)), so
    c_A = (-1)^|A| M! sum_tau [y^A] prod_b P_(b, tau(b)), one product
    expansion for every A at once.  d/dz_i rides along as a dual part:
    with r(t) = t/(1 - z_i t) at a copy's t_{L-1}, each f_n^(i) gains a
    factor r, and the weight adds (beta_i/kappa) r per copy.
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

    # P_c and its dual part as {monomial: array}; the chain gaps between
    # adjacent levels are always positive, since level n lies above level n+1
    zero = (0,) * ((L - 1) * N)
    forms = {}
    for c in product(range(1, M + 1), repeat=L - 1):
        cidx = [pos[(n, c[n - 1])] for n in range(1, L)]
        gaps = [omx[..., cidx[0]]] + [pt.gap(cidx[m - 2], cidx[m - 1]) for m in range(2, L)]
        f0 = math.prod(1.0 / g for g in gaps)
        tl = x[..., cidx[-1]]
        lin, dual = {zero: f0}, {}
        for j in range(1, N + 1):
            pref = 1.0 / (1.0 - z[j - 1] * tl)
            for n in range(1, L):
                y = tuple(int(k == flat_pos(n, j, N)) for k in range(len(zero)))
                lin[y] = pref * (f0 * gaps[n - 1])
                if j == i:
                    dual[y] = lin[y] * (tl * pref)
        forms[c] = lin, dual

    def dot(w, f):  # einsum, not BLAS: the sum's order must not vary with BLAS threads
        return float(np.einsum("i,i", w.ravel(), f.ravel()))

    acc = dict.fromkeys(basis, 0.0)
    dacc = dict.fromkeys(basis, 0.0) if i is not None else {}
    bw = base * dweight if i is not None else None
    for tau in product(permutations(range(1, M + 1)), repeat=L - 2):
        poly, dpoly = forms[(1,) + tuple(t[0] for t in tau)]
        for b in range(2, M + 1):
            lin, dual = forms[(b,) + tuple(t[b - 1] for t in tau)]
            # (poly + e dpoly)(lin + e dual), dropping e^2
            poly, dpoly = (_times(poly, lin, {}),
                           _times(poly, dual, _times(dpoly, lin, {})))
        for A in basis:
            acc[A] += dot(base, poly[A])
            if dacc:
                dacc[A] += dot(bw, poly[A])
                if A in dpoly:
                    dacc[A] += dot(base, dpoly[A])
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


def _probe_exponent(exps: ExponentsM, z, basis, moves):
    """Fitted power of the cube integrand as the listed (axis, side) faces
    are approached together; +inf when the integrand vanishes there."""
    K = (exps.L - 1) * exps.M
    vals = []
    for eps in (1e-4, 5e-5):
        v = np.full((1, K), 0.5)
        for axis, side in moves:
            v[0, axis] = eps if side == 0 else 1.0 - eps
        omv = 1.0 - v
        for axis, side in moves:
            omv[0, axis] = 1.0 - eps if side == 0 else eps
        pt = _ChainPoint.from_cube(v, omv)
        logw = np.zeros(1)
        for j in range(K):
            logw += (K - 1 - j) * np.log(v[0, j])  # cube Jacobian
        c, _ = _psiM_coeffs(exps, z, pt, logw, basis)
        worst = max(abs(val) for val in c.values())
        if not math.isfinite(worst):
            raise ConvergenceError(
                f"integrand overflow while probing faces {moves}")
        vals.append(worst)
    if vals[0] == 0.0 and vals[1] == 0.0:
        return math.inf
    return (math.log(vals[0]) - math.log(vals[1])) / math.log(2.0)


def _axis_exponents_numeric(exps: ExponentsM, z, basis):
    """Measured per-axis endpoint exponents (v -> 0 and v -> 1 separately)."""
    K = (exps.L - 1) * exps.M
    return [tuple(_probe_exponent(exps, z, basis, [(axis, side)])
                  for side in (0, 1))
            for axis in range(K)]


@lru_cache(maxsize=8)
def _window_check_M(exps: ExponentsM, basis):
    """Integrability window on the concrete ordered chamber.

    Within-level collision faces carry (t-t')^(2/kappa) from the weight alone,
    so Re(2/kappa) > -1.  For L >= 3 the symmetrized densities put a simple
    pole on the adjacent-level collision faces on top of the weight's
    (t-t')^(-1/kappa), so those faces need -1 < Re(-1/kappa - 1) < 0, i.e.
    -1/2 < Re(1/kappa) < 0; no kappa with Re(kappa) > 0 makes the naive
    integral converge there.  The per-axis endpoint exponents of the
    substituted integrand are then measured numerically and must all
    exceed -1.  Nothing here depends on z, so a scan over z (``verify
    --plot``) runs the check once.
    """
    kp = float(exps.planck)
    # within-level collisions are codimension-1 faces of this chamber
    if not 2.0 / kp > -1.0:
        raise ConvergenceError(
            f"window violated: need Re(2/kappa) > -1, got {2.0 / kp}")
    if exps.L >= 3 and exps.M >= 2 and not 1.0 / kp < 0.0:
        raise ConvergenceError(
            "window violated: adjacent-level collision faces need "
            f"Re(1/kappa) < 0 for L >= 3, got 1/kappa = {1.0 / kp}")
    if not float(exps.gamma) / kp < 1:
        raise ConvergenceError("window violated: Re(gamma/kappa) must be below 1")
    # endpoint exponents do not depend on z (z only scales smooth factors), so
    # probe at a canonical point; the Monte Carlo proposal built from them is
    # then the same at every z, and a scan over z sees common random numbers
    zc = tuple(0.15 + 0.7 * j / max(exps.N - 1, 1) if exps.N > 1 else 0.35
               for j in range(exps.N))
    expos = tuple(_axis_exponents_numeric(exps, zc, basis))
    for axis, (e0, e1) in enumerate(expos):
        for side, expo in ((0, e0), (1, e1)):
            # guard band: an exponent this close to -1 is either measurement
            # noise on a divergent face or numerically hopeless
            if expo <= -0.98:
                raise ConvergenceError(
                    f"nonconvergent endpoint exponent {expo:.3f} on axis {axis}, "
                    f"side {side}")
    # composite faces: a codimension-c corner integrates rho^(E + c - 1) drho,
    # so it needs E > -c; per-axis probes cannot see these
    K = (exps.L - 1) * exps.M
    for c in (2, 3):
        if K < c:
            continue
        for axes in combinations(range(K), c):
            for sides in product((0, 1), repeat=c):
                expo = _probe_exponent(exps, zc, basis, list(zip(axes, sides)))
                if expo <= -c + 0.05:
                    raise ConvergenceError(
                        f"nonconvergent corner exponent {expo:.3f} at faces "
                        f"{list(zip(axes, sides))}")
    return expos


def eval_psiM(params: Parameters, z, M: int, quad: QuadratureSpec, i=None) -> IntegralResult:
    """Degree-M coefficient vector c_A over the ordered chamber.

    M = 1 delegates to :func:`eval_psi1` (same chamber, trivial
    symmetrization).  For M >= 2 the scheme is a tanh-sinh tensor rule on
    the cube image of the chamber (K = M(L-1) axes, K <= 6) or seeded
    Monte Carlo with sorted-uniform chamber samples; ``gauss_jacobi_tensor``
    is rejected there.  With a time index i, ``derivative`` is dc/dz_i,
    differentiated under the integral (z enters only through bounded factors)
    on the nodes of the returned rule or the same MC samples.
    """
    if M < 1:
        raise ParameterError("M must be a positive integer")
    if M == 1:
        return eval_psi1(params, z, quad, i)
    if quad.scheme == "gauss_jacobi_tensor":
        raise ParameterError(
            f"degree M={M} uses scheme 'tanh_sinh_tensor' or 'monte_carlo', "
            "got 'gauss_jacobi_tensor'")
    exps = dictionary_M(params, M)
    z = _check_z_box(z, exps.N, i)
    basis = tuple(enumerate_basis(exps.L, exps.N, M))
    expos = _window_check_M(exps, basis)
    K = (exps.L - 1) * M

    if quad.scheme == "monte_carlo":
        c, err, d = _psiM_mc(exps, z, basis, expos, quad.mc_samples, quad.seed, i)
        meta = {"scheme": "monte_carlo", "samples": quad.mc_samples, "seed": quad.seed, "sem": err}
    else:
        if K > 6:
            raise ParameterError(
                f"tensor quadrature supports M(L-1) <= 6 axes, got {K}; use monte_carlo")
        nodes = int(quad.nodes_per_axis * 1.5) | 1
        c1, _ = _psiM_tensor(exps, z, basis, quad.nodes_per_axis)
        c, d = _psiM_tensor(exps, z, basis, nodes, i)
        err = max(abs(c1[A] - c[A]) for A in basis)
        meta = {"scheme": "tanh_sinh_tensor", "nodes": nodes}
    scale = max(abs(v) for v in c.values())
    conv = err / scale if scale else 0.0
    if quad.scheme != "monte_carlo" and conv > quad.stabilize_tol:
        raise ConvergenceError(
            f"quadrature failed to stabilize: relative change {conv:.3e} under "
            f"node refinement")
    return IntegralResult(basis, np.array([c[A] for A in basis]), c, conv,
                          {**meta, "chamber": "level_blocks"},
                          np.array([d[A] for A in basis]) if d else None)


# points per slab of a tensor grid: one _psiM_coeffs call holds a few dozen
# arrays of this size, whatever the node count
_SLAB_POINTS = 1 << 15


def _psiM_tensor(exps: ExponentsM, z, basis, nodes, i=None):
    """Tanh-sinh tensor sums of the coefficients (and of d/dz_i) on the cube.

    The nodes^K grid is cut along axis 0 into slabs of about _SLAB_POINTS
    points; each slab goes through :func:`_psiM_coeffs` on its own and the
    slab sums are added in slab order.
    """
    K = (exps.L - 1) * exps.M
    xs, omxs, ws = tanh_sinh_01(nodes)
    # per-axis log weight: the rule's and the Jacobian x_j^(K-1-j) of x_j = prod v
    logws = [np.log(ws) + (K - 1 - j) * np.log(xs) for j in range(K)]
    rows = max(1, _SLAB_POINTS // nodes ** (K - 1))
    coeffs = dict.fromkeys(basis, 0.0)
    derivs = dict.fromkeys(basis, 0.0) if i is not None else {}
    for lo in range(0, nodes, rows):
        axes = [slice(lo, lo + rows)] + [slice(None)] * (K - 1)
        v = np.stack(np.meshgrid(*[xs[a] for a in axes], indexing="ij"), axis=-1)
        omv = np.stack(np.meshgrid(*[omxs[a] for a in axes], indexing="ij"), axis=-1)
        logw = np.zeros_like(v[..., 0])
        for j, a in enumerate(axes):
            logw += logws[j][a][(slice(None),) + (None,) * (K - 1 - j)]
        c, d = _psiM_coeffs(exps, z, _ChainPoint.from_cube(v, omv), logw, basis, i)
        for total, part in ((coeffs, c), (derivs, d)):
            for A in part:
                total[A] += part[A]
    return coeffs, derivs


def _psiM_mc(exps: ExponentsM, z, basis, expos, nsamples, seed, i=None, batches=16):
    """Importance-sampled Monte Carlo on the cube image of the chamber.

    Each cube axis draws from Beta(E0+1, E1+1) with (E0, E1) the measured
    endpoint exponents of the integrand, so the weighted integrand stays
    bounded near every face and the estimator has finite variance.  The
    stream is seeded and evaluated in equal deterministic batches, giving a
    batch-mean standard error.  Returns the means, that error and, with a
    time index i, the batch means of dc/dz_i on the same samples.
    """
    K = (exps.L - 1) * exps.M
    # rounding makes the proposal (and hence the sample stream) identical
    # across nearby z, so a scan over z sees common random numbers
    a = np.array([round(max(e[0], -0.95), 2) + 1.0 for e in expos])
    b = np.array([round(max(e[1], -0.95), 2) + 1.0 for e in expos])
    log_norm = sum(_log_beta(ai, bi) for ai, bi in zip(a, b))
    rng = np.random.default_rng(seed)
    per = max(1, nsamples // batches)
    per_batch, dbatch = {A: [] for A in basis}, []
    for _ in range(batches):
        # Beta draws via a Gamma pair keep the small side accurate: near a
        # singular face 1-v must not round to 0
        g1 = rng.gamma(np.broadcast_to(a, (per, K)))
        g2 = rng.gamma(np.broadcast_to(b, (per, K)))
        tot = g1 + g2
        v = g1 / tot
        omv = g2 / tot
        good = np.all((v > 0.0) & (omv > 0.0), axis=1)
        v, omv = v[good], omv[good]
        pt = _ChainPoint.from_cube(v, omv)
        logw = np.full(v.shape[0], log_norm)
        for j in range(K):
            logw += (K - 1 - j) * np.log(v[:, j])          # cube Jacobian
            logw -= (a[j] - 1.0) * np.log(v[:, j])         # / proposal density
            logw -= (b[j] - 1.0) * np.log(omv[:, j])
        c, d = _psiM_coeffs(exps, z, pt, logw, basis, i)
        for A in basis:
            per_batch[A].append(c[A] / per)
        dbatch.append(d)
    means = {A: float(np.mean(per_batch[A])) for A in basis}
    sem = max(float(np.std(per_batch[A], ddof=1)) / math.sqrt(batches) for A in basis)
    return means, sem, {A: sum(d[A] for d in dbatch) / per / batches for A in dbatch[0]}


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
