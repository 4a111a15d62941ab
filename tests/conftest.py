"""Shared parameter factories for the test suite.

Random draws are exact rationals; every factory returns parameters that
satisfy the linear constraints by construction.
"""

import random
from fractions import Fraction as F

import pytest

from qims.weylops import make_parameters


def rq(rnd, lo=-6, hi=6, den=9):
    return F(rnd.randint(lo, hi), rnd.randint(1, den))


def random_params(L, N, rnd, hbar=1, planck=1):
    ev = [rq(rnd) for _ in range(L - 1)]
    e = [F(L - 1, 2) - sum(ev)] + ev
    kappa = [rq(rnd) for _ in range(L)]
    theta = [rq(rnd) for _ in range(N)]
    return make_parameters(L, N, e=e, kappa=kappa, theta=theta, hbar=hbar,
                           planck=planck)


def random_z(N, rnd):
    zs = []
    while len(zs) < N:
        c = F(rnd.randint(2, 9), rnd.randint(10, 14))
        if c not in (0, 1) and c not in zs:
            zs.append(c)
    return tuple(zs)


def resonant_params(L, N, M, rnd, dict_m=False, kappa1=None, planck=1):
    """kappa_0 - sum(theta) = M; with dict_m also kappa_n = 1 for n >= 2."""
    theta = [F(rnd.randint(1, 9), rnd.randint(10, 19)) for _ in range(N)]
    k1 = kappa1 if kappa1 is not None else rq(rnd, -9, -1, 7)
    if dict_m:
        kappa = [M + sum(theta), k1] + [F(1)] * (L - 2)
    else:
        kappa = [M + sum(theta), k1] + [rq(rnd) for _ in range(L - 2)]
    ev = [rq(rnd, -3, 3, 6) for _ in range(L - 1)]
    e = [F(L - 1, 2) - sum(ev)] + ev
    return make_parameters(L, N, e=e, kappa=kappa, theta=theta, planck=planck)


def solve_e(alphas, interior_shifts):
    """e_0..e_{L-1} with alpha_n = e_{n+1} - e_n + interior_shifts[n-1] for
    n = 1..L-2, alpha_{L-1} = e_0 - e_{L-1} + 1, sum(e) = (L-1)/2; exact."""
    L = len(alphas) + 1
    c = [F(0)]  # e_k = x + c[k-1] for k = 1..L-1
    for n in range(1, L - 1):
        c.append(c[n - 1] + alphas[n - 1] - interior_shifts[n - 1])
    c0 = c[L - 2] + alphas[L - 2] - 1
    x = (F(L - 1, 2) - (sum(c) + c0)) / L
    return [x + c0] + [x + ck for ck in c]


def m1_window_params(L, N, planck=2):
    """Degree-1 resonance with every cube exponent integrable: alpha_n > 0,
    gamma_n = kappa_n < 0, planck > 0."""
    alphas = [F(3, 5) + F(n, 7) for n in range(L - 1)]
    gammas = [F(-1, n + 3) for n in range(1, L)]
    theta = [F(2, 7 + 2 * i) for i in range(N)]
    kappa0 = 1 + sum(theta)
    e = solve_e(alphas, gammas[1:])
    kappa = [kappa0] + gammas
    return make_parameters(L, N, e=e, kappa=kappa, theta=theta, planck=planck)


def fast_decay_m1_params(L, rnd):
    """N = 1 degree-1 window whose series converges quickly for |z| <= 1/2,
    drawn as ``perfbench/workloads.py`` draws its series jobs (planck 1)."""
    alphas = [F(3, 5) + F(n, 7) + F(rnd.randint(0, 4), 40) for n in range(L - 1)]
    gammas = [F(-2) - F(n, 5) - F(rnd.randint(0, 3), 30) for n in range(1, L)]
    theta = [F(2, 7) + F(rnd.randint(0, 4), 50)]
    return make_parameters(L, 1, e=solve_e(alphas, gammas[1:]), kappa=[1 + theta[0]] + gammas,
                           theta=theta, planck=1)


def m_window_params(L, N, M, gamma=F(-1, 2), planck=2):
    """Degree-M dictionary window for L = 2 (alpha > 0, gamma < 0, planck > 0)."""
    alphas = [F(3, 4) + F(n, 5) for n in range(L - 1)]
    theta = [F(2, 7 + 2 * i) for i in range(N)]
    kappa1 = gamma - M + 1
    kappa = [M + sum(theta), kappa1] + [F(1)] * (L - 2)
    e = solve_e(alphas, [F(1)] * (L - 2))
    return make_parameters(L, N, e=e, kappa=kappa, theta=theta, planck=planck)


def underflow_params(alpha):
    """L2N1 at degree 2 (planck 2) with alpha_1 = alpha: near the v_0 -> 0
    face the integrand underflows to 0 in double precision, for alpha = 150
    at distances 1e-4 and 5e-5, for alpha = 156 at 5e-5 only."""
    th = F(2, 7)
    return make_parameters(2, 1, e=solve_e([F(alpha)], []), kappa=[2 + th, F(-3, 2)],
                           theta=[th], planck=2)
