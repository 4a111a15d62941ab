import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest

from conftest import (m1_window_params, m_window_params, resonant_params, solve_e,
                      underflow_params)
from qims.errors import ConvergenceError, ParameterError
from qims.hypint import ExponentsM, dictionary_M, eval_psi1, eval_psiM, pde_residual, series_psi1
from qims.quadrature import QuadratureSpec
from qims.weylops import make_parameters


def test_dictionary_m1_values():
    params = m1_window_params(2, 1)
    exps = dictionary_M(params, 1)
    # L=2: alpha_1 = e_0 - e_1 + 1 (e_2 = e_0, kappa_2 = 1)
    assert exps.alpha[0] == params.e[0] - params.e[1] + 1
    assert exps.beta[0] == -params.theta[1]
    assert exps.gamma == (params.kappa[1],)


def test_dictionary_m1_round_trip():
    # at M = 1 the degree-M dictionary is the degree-1 formula for general
    # kappa_n: alpha_n = e_{n+1} - e_n + kappa_{n+1}, gamma_n = kappa_n
    for L, N in [(3, 2), (4, 1)]:
        params = m1_window_params(L, N)
        assert all(k != 1 for k in params.kappa[2:])
        exps = dictionary_M(params, 1)
        e, kap = params.e + (params.e[0],), params.kappa + (F(1),)
        assert exps.alpha == tuple(e[n + 1] - e[n] + kap[n + 1] for n in range(1, L))
        assert exps.beta == tuple(-t for t in params.theta[1:])
        assert exps.gamma == params.kappa[1:]
        assert exps.M == 1


def test_dictionary_m1_requires_resonance():
    rnd = random.Random(3)
    params = resonant_params(2, 1, 2, rnd)
    with pytest.raises(ParameterError):
        dictionary_M(params, 1)


def test_dictionary_m_values_and_m1_consistency():
    # gamma_1 = kappa_1 + M - 1 at every M; with kappa_2 = 1 the interior
    # alpha and gamma are those of the M = 1 formula
    for M in (1, 2, 3):
        params = m_window_params(3, 1, M, gamma=F(-1, 3))
        exps = dictionary_M(params, M)
        e = params.e + (params.e[0],)
        assert exps.alpha == tuple(e[n + 1] - e[n] + 1 for n in (1, 2))
        assert exps.beta == (-params.theta[1],)
        assert exps.gamma == (params.kappa[1] + M - 1, F(1)) == (F(-1, 3), F(1))


def test_dictionary_m_violations_named():
    rnd = random.Random(5)
    params = resonant_params(3, 1, 2, rnd, dict_m=False)
    if params.kappa[2] != 1:
        with pytest.raises(ParameterError) as exc:
            dictionary_M(params, 2)
        assert "kappa_2" in str(exc.value)
    params = resonant_params(2, 1, 2, rnd, dict_m=True)
    with pytest.raises(ParameterError):
        dictionary_M(params, 3)


@pytest.mark.parametrize("L,N", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_psi1_node_doubling_stable(L, N):
    params = m1_window_params(L, N)
    z = tuple(0.45 - 0.17 * k for k in range(N))
    res = eval_psi1(params, z, QuadratureSpec(nodes_per_axis=24))
    assert res.convergence < 1e-10
    assert len(res.vector) == 1 + (L - 1) * N


def test_psi1_beta_zero_z_independent():
    # theta_i = 0 makes the integrand z-free
    params = make_parameters(2, 1, e=solve_e([F(4, 5)], []), kappa=[F(1), F(-1, 3)],
                             theta=[F(0)], planck=2)
    a = eval_psi1(params, (0.3,), QuadratureSpec(nodes_per_axis=24))
    b = eval_psi1(params, (0.6,), QuadratureSpec(nodes_per_axis=24))
    assert abs(a.vector[0] - b.vector[0]) < 1e-10 * abs(a.vector[0])


def test_psi1_window_violation_raises():
    # gamma_1 > 0 with positive planck makes the constant coefficient
    # non-integrable at the (1 - u) endpoint
    theta = [F(2, 7)]
    params = make_parameters(2, 1, e=solve_e([F(4, 5)], []),
                             kappa=[1 + F(2, 7), F(1, 3)], theta=theta, planck=2)
    with pytest.raises(ConvergenceError):
        eval_psi1(params, (0.4,), QuadratureSpec(nodes_per_axis=16))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_series_matches_quadrature(L):
    params = m1_window_params(L, 1)
    for z in (0.3, 0.5):
        quad = eval_psi1(params, (z,), QuadratureSpec(nodes_per_axis=32))
        ser = series_psi1(params, (z,), 60)
        rel = np.abs(quad.vector - ser.vector).max() / np.abs(quad.vector).max()
        assert rel < 1e-8


def test_series_z0_beta_product():
    params = m1_window_params(3, 1)
    ser = series_psi1(params, (0.0,), 0)
    from scipy.special import gammaln
    from psiM_oracle import axis_exponents_m1
    a, b = axis_exponents_m1(dictionary_M(params, 1), 0)
    expect = math.exp(sum(
        gammaln(float(ak) + 1) + gammaln(float(bk) + 1) - gammaln(float(ak + bk) + 2)
        for ak, bk in zip(a, b)))
    assert not any(ser.basis[0])  # the constant coefficient comes first
    assert ser.vector[0] == pytest.approx(expect, rel=1e-13)
    quad = eval_psi1(params, (1e-12,), QuadratureSpec(nodes_per_axis=32))
    assert quad.vector[0] == pytest.approx(expect, rel=1e-9)


def test_series_gauss_2f1_oracle():
    from scipy.special import gammaln, hyp2f1
    params = m1_window_params(2, 1)
    exps = dictionary_M(params, 1)
    kp = float(exps.planck)
    a = float(exps.alpha[0]) / kp - 1
    b = -float(exps.gamma[0]) / kp - 1
    r = float(exps.beta[0]) / kp
    for z in (0.2, 0.45):
        expect = math.exp(gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2)) \
            * hyp2f1(r, a + 1, a + b + 2, z)
        got = series_psi1(params, (z,), 80).vector[0]
        assert got == pytest.approx(expect, rel=1e-10)


def test_series_ratio_rational_structure():
    # successive term ratios of the constant coefficient form a rational
    # function of k of degree <= L: fit on early ratios, predict later ones
    L = 3
    params = m1_window_params(L, 1)
    from psiM_oracle import axis_exponents_m1
    from qims.hypint import _log_beta
    exps = dictionary_M(params, 1)
    a, b = axis_exponents_m1(exps, 0)
    kp = float(exps.planck)
    s = float(exps.beta[0]) / kp
    terms = []
    poch = 1.0
    for k in range(22):
        logt = sum(_log_beta(float(ak) + k + 1, float(bk) + 1) for ak, bk in zip(a, b))
        terms.append(poch / math.factorial(k) * math.exp(logt))
        poch *= s + k
    ratios = [terms[k + 1] / terms[k] for k in range(21)]
    # fit ratio(k) = P(k)/Q(k), deg P = deg Q = L, on 2L+2 points via linear LS
    deg = L
    rows, rhs = [], []
    for k in range(2 * deg + 2):
        rows.append([k ** p for p in range(deg + 1)]
                    + [-ratios[k] * k ** p for p in range(deg)])
        rhs.append(ratios[k] * k ** deg)
    sol = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
    pc, qc = sol[:deg + 1], np.append(sol[deg + 1:], 1.0)
    for k in range(2 * deg + 2, 21):
        pred = sum(pc[p] * k ** p for p in range(deg + 1)) / \
            sum(qc[p] * k ** p for p in range(deg + 1))
        assert pred == pytest.approx(ratios[k], rel=1e-6)


def test_quadrature_and_series_reject_string_z():
    params = m1_window_params(2, 1)
    quad = QuadratureSpec(nodes_per_axis=16)
    for z in ("0.4", ("0.4",)):
        with pytest.raises(ParameterError, match="sequence of real numbers z"):
            eval_psiM(params, z, 1, quad)
        with pytest.raises(ParameterError, match="sequence of real numbers z"):
            series_psi1(params, z, 10)
    # numpy floats and exact rationals are real numbers
    want = eval_psiM(params, (0.4,), 1, quad).vector
    for z in ((np.float64(0.4),), (F(2, 5),)):
        assert eval_psiM(params, z, 1, quad).vector.tobytes() == want.tobytes()


def test_quadrature_and_series_reject_complex_z():
    params = m1_window_params(2, 1)
    with pytest.raises(ParameterError, match="propagate covers complex z"):
        eval_psiM(params, (0.4 + 0.1j,), 1, QuadratureSpec(nodes_per_axis=8))
    with pytest.raises(ParameterError, match="propagate covers complex z"):
        series_psi1(params, (0.4 + 0.1j,), 10)


def test_series_requires_domain():
    params = m1_window_params(2, 1)
    with pytest.raises(ParameterError):
        series_psi1(params, (1.2,), 10)
    with pytest.raises(ParameterError):
        series_psi1(params, (0.4,), -1)
    params2 = m1_window_params(2, 2)
    with pytest.raises(ParameterError):
        series_psi1(params2, (0.4, 0.2), 10)
    # phi_0's |s| = theta/planck = 20/7 puts the tail's majorant ratio
    # 0.9 (|s| + order + 1)/(order + 2) at 1.14 at order 5: an unproven tail is an error
    params3 = m1_window_params(2, 1, planck=F(1, 10))
    with pytest.raises(ConvergenceError, match="series tail unbounded at order 5"):
        series_psi1(params3, (0.9,), 5)
    assert series_psi1(params3, (0.9,), 20).meta["tail_bound"] > 0


@pytest.mark.parametrize("bad", [True, 1.0, 2.5])
def test_degree_and_series_order_must_be_ints(bad):
    # M = True once ran as M = 1; M = 1.0 and order = 2.5 raised a TypeError
    params = m1_window_params(2, 1)
    quad = QuadratureSpec(nodes_per_axis=8)
    for call in (lambda: eval_psiM(params, (0.4,), bad, quad),
                 lambda: pde_residual(params, (0.4,), bad, quad)):
        with pytest.raises(ParameterError, match="^M must be a positive integer$"):
            call()
    with pytest.raises(ParameterError, match="^order must be a nonnegative integer, got "):
        series_psi1(params, (0.4,), bad)


@pytest.mark.parametrize("L,N", [(L, N) for L in (2, 3, 4) for N in (1, 2)])
def test_m1_one_grid_matches_per_level_oracle(L, N):
    # every degree-1 form on the one phi_0 Gauss-Jacobi grid, through the
    # degree-M kernel, against one grid per form level (kappa_n != 1 for L >= 3)
    from psiM_oracle import psi1_eval_at
    from qims.polyalg import enumerate_basis
    params = m1_window_params(L, N)
    exps = dictionary_M(params, 1)
    assert all(k != 1 for k in params.kappa[1:])
    z = tuple(0.45 - 0.17 * k for k in range(N))
    basis = tuple(enumerate_basis(L, N, 1))
    for i in range(1, N + 1):
        res = eval_psiM(params, z, 1, QuadratureSpec(nodes_per_axis=32), i)
        assert res.basis == basis and res.meta == {"scheme": "gauss_jacobi_tensor", "nodes": 32}
        want, dwant = psi1_eval_at(exps, z, 32, basis, i)
        assert np.abs(res.vector - want).max() <= 1e-10 * np.abs(want).max(), i
        assert np.abs(res.derivative - dwant).max() <= 1e-10 * np.abs(dwant).max(), i


@pytest.mark.parametrize("M,quad,nodes,check_nodes", [
    (1, QuadratureSpec(nodes_per_axis=25, stabilize_tol=1.0), 25, 13),
    (2, QuadratureSpec(scheme="tanh_sinh_tensor", nodes_per_axis=21, stabilize_tol=1.0), 31, 21)],
    ids=["gauss_jacobi", "tanh_sinh"])
def test_refinement_returns_one_direct_pass(M, quad, nodes, check_nodes):
    # the result is a direct pass at meta["nodes"], bit for bit, and
    # convergence its max relative distance to the check rule's pass
    from qims import hypint
    params = m1_window_params(3, 2) if M == 1 else m_window_params(2, 1, M)
    z = tuple(0.45 - 0.17 * k for k in range(params.N))
    res = eval_psiM(params, z, M, quad, 1)
    assert res.meta["nodes"] == nodes
    exps = dictionary_M(params, M)
    expos = hypint._window_check(exps)

    def direct(nodes):
        ws = hypint._Workspace(exps, z, res.basis, 1)
        return hypint._psiM_tensor(ws, hypint._axis_rules(quad.scheme, nodes, expos))

    c, d = direct(res.meta["nodes"])
    _assert_same_bits((res.vector, res.derivative), (c, d))
    check, _ = direct(check_nodes)
    assert res.convergence == np.abs(check - c).max() / np.abs(c).max() > 0


def test_m1_unit_adjacent_exponent_misses_the_oracle():
    # control: an adjacent-level gap raised to -1/kappa, right at M >= 2
    # where gamma_2 = 1, is wrong here; the gap is the only place the kernel
    # reads gamma_2, so that kernel is this one run with gamma_2 = 1 on the
    # grid of the true exponents
    from dataclasses import replace
    from psiM_oracle import psi1_eval_at
    from qims import hypint
    exps = dictionary_M(m1_window_params(3, 1), 1)
    assert exps.gamma[1] != 1
    basis = tuple(hypint.enumerate_basis(3, 1, 1))
    rules = hypint._axis_rules("gauss_jacobi_tensor", 64, hypint._window_check(exps))
    want, _ = psi1_eval_at(exps, (0.4,), 64, basis)

    def gap(kernel_exps):
        c, _ = hypint._psiM_tensor(hypint._Workspace(kernel_exps, (0.4,), basis, None), rules)
        return max(abs(v - w) for v, w in zip(c, want)) / np.abs(want).max()

    assert gap(exps) <= 1e-10
    assert gap(replace(exps, gamma=(exps.gamma[0], F(1)))) > 1e-2


def test_psiM_m1_delegates_exactly():
    params = m1_window_params(3, 1)
    q = QuadratureSpec(nodes_per_axis=24)
    a = eval_psi1(params, (0.4,), q)
    b = eval_psiM(params, (0.4,), 1, q)
    assert np.array_equal(a.vector, b.vector)


@pytest.mark.parametrize("M,scheme", [(1, "tanh_sinh_tensor"), (1, "monte_carlo"),
                                      (2, "gauss_jacobi_tensor")])
def test_psiM_rejects_scheme_of_other_degree(M, scheme):
    params = m1_window_params(2, 1) if M == 1 else m_window_params(2, 1, M)
    with pytest.raises(ParameterError, match=scheme):
        eval_psiM(params, (0.4,), M, QuadratureSpec(scheme=scheme))


def test_psiM_coefficient_count_and_determinism():
    params = m_window_params(2, 1, 2)
    q = QuadratureSpec(scheme="monte_carlo", mc_samples=20000, seed=77)
    r1 = eval_psiM(params, (0.4,), 2, q)
    r2 = eval_psiM(params, (0.4,), 2, q)
    assert len(r1.vector) == 6 // 2  # |A_2| for one variable = 3
    assert np.array_equal(r1.vector, r2.vector)
    r3 = eval_psiM(params, (0.4,), 2,
                   QuadratureSpec(scheme="monte_carlo", mc_samples=20000, seed=78))
    assert not np.array_equal(r1.vector, r3.vector)


def test_psiM_mc_matches_tanh_sinh():
    params = m_window_params(2, 1, 2)
    ts = eval_psiM(params, (0.4,), 2,
                   QuadratureSpec(scheme="tanh_sinh_tensor", nodes_per_axis=61,
                                  stabilize_tol=1e-4))
    mc = eval_psiM(params, (0.4,), 2,
                   QuadratureSpec(scheme="monte_carlo", mc_samples=200000, seed=5))
    rel = np.abs(ts.vector - mc.vector).max() / np.abs(ts.vector).max()
    assert rel < 5e-3


def test_psiM_mc_matches_tanh_sinh_at_benchmark_size():
    # the size of the benchmark's Monte Carlo job, L2N2M3
    params = m_window_params(2, 2, 3)
    z = (0.4, 0.2)
    ts = eval_psiM(params, z, 3,
                   QuadratureSpec(scheme="tanh_sinh_tensor", nodes_per_axis=61,
                                  stabilize_tol=1e-4))
    mc = eval_psiM(params, z, 3,
                   QuadratureSpec(scheme="monte_carlo", mc_samples=200000, seed=20240))
    rel = np.abs(ts.vector - mc.vector).max() / np.abs(ts.vector).max()
    assert rel < 5e-3


@pytest.mark.parametrize("u", [1e-12, 0.5, 1 - 2.0 ** -40])
@pytest.mark.parametrize("a", [0.05, 0.37, 2.5])
@pytest.mark.parametrize("b", [0.05, 0.37, 2.5])
def test_kumaraswamy_inverse_matches_mpmath(u, a, b):
    import mpmath
    from qims.hypint import _kumaraswamy_inverse
    v, omv, logv, log1mva = _kumaraswamy_inverse(_fresh_ws(), np.array([u]), a, b)
    with mpmath.workdps(1000):  # enough digits for 1 - v ~ 1e-240 by plain subtraction
        # the quantile of the CDF 1 - (1 - v^a)^b, and its complement
        u, a, b = mpmath.mpf(u), mpmath.mpf(a), mpmath.mpf(b)
        want_v = (1 - (1 - u) ** (1 / b)) ** (1 / a)
        want_omv = 1 - want_v
        want_logv = mpmath.log(want_v)
        want_log1mva = mpmath.log(1 - u) / b
    assert v[0] == pytest.approx(float(want_v), rel=1e-12, abs=0)
    assert omv[0] == pytest.approx(float(want_omv), rel=1e-12, abs=0)
    assert logv[0] == pytest.approx(float(want_logv), rel=1e-12, abs=0)
    assert log1mva[0] == pytest.approx(float(want_log1mva), rel=1e-12, abs=0)


def test_kumaraswamy_inverse_at_the_ends_of_the_uniform_grid():
    # the sampler's uniforms run from 2^-53 to 1 - 2^-53; neither branch of
    # the log1mexp split may see an argument from the other side, and at
    # a = 0.05, b = 2.5 the unclipped v = exp(log v) would underflow to 0
    from qims.hypint import _kumaraswamy_inverse
    u = np.array([2.0 ** -53, 1 - 2.0 ** -53])
    for a in (0.05, 0.37, 2.5):
        for b in (0.05, 0.37, 2.5):
            v, omv, logv, log1mva = _kumaraswamy_inverse(_fresh_ws(), u, a, b)
            assert np.all(np.isfinite(logv)) and np.all(np.isfinite(log1mva))
            assert np.all((0 < v) & (v <= 1) & (0 < omv) & (omv <= 1))
            assert logv[0] < logv[1] < 0 and log1mva[1] < log1mva[0] < 0


def _kumaraswamy_where(u, a, b):
    """The np.where form of the log1mexp split: each branch on the whole
    array, its argument clamped to its side of the cut, one kept per point."""
    log1mva = np.log1p(-u) / b
    cut = -math.log(2.0)
    logva = np.where(log1mva >= cut, np.log(-np.expm1(np.maximum(log1mva, cut))),
                     np.log1p(-np.exp(np.minimum(log1mva, cut))))
    fin = np.finfo(float)
    logv = np.clip(logva / a, math.log(fin.tiny), -fin.smallest_subnormal)
    return np.exp(logv), -np.expm1(logv), logv, log1mva


def test_kumaraswamy_inverse_is_the_where_form_bit_for_bit():
    # log(1 - v^a) >= -log 2 exactly when u <= 1 - 2^-b: uniforms on the
    # sampler's grid, points a few ulps either side of that cut, and the
    # ends of the grid, each axis with its own (a, b)
    from qims.hypint import _kumaraswamy_inverse
    a = np.array([0.05, 0.37, 1.0, 2.5, 4.125])[:, None]
    b = np.array([2.5, 0.05, 0.25, 1.0, 0.37])[:, None]
    rng = np.random.default_rng(11)
    u = (rng.integers(0, 1 << 52, size=(5, 4000)) + 0.5) * 2.0 ** -52
    cut_u = 1.0 - 2.0 ** -b[:, 0]
    for k, c in enumerate(cut_u):
        u[k, :8] = [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0), c - 1e-12, c + 1e-12,
                    2.0 ** -53, 1 - 2.0 ** -53, 0.5]
    got, want = _kumaraswamy_inverse(_fresh_ws(), u, a, b), _kumaraswamy_where(u, a, b)
    log1mva = want[3]
    assert (log1mva >= -math.log(2.0)).any(axis=1).all()
    assert (log1mva < -math.log(2.0)).any(axis=1).all()
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("i", [None, 1])
def test_psiM_mc_evaluates_exactly_mc_samples(monkeypatch, i):
    # 1000 samples once ran as 16 batches of 62, 992 points in all
    from qims import hypint
    params = m_window_params(2, 1, 2)
    exps = dictionary_M(params, 2)
    basis = tuple(hypint.enumerate_basis(2, 1, 2))
    calls = []
    kernel = hypint._psiM_coeffs
    monkeypatch.setattr(hypint, "_psiM_coeffs", lambda ws, pt, logw: calls.append(
        (np.shape(pt.logv[-1])[0], kernel(ws, pt, logw))) or calls[-1][1])
    q = QuadratureSpec(scheme="monte_carlo", mc_samples=1000, seed=1)
    res = eval_psiM(params, (0.4,), 2, q, i)
    sizes = [n for n, _ in calls]
    assert sum(sizes) == 1000 and len(sizes) == 16 and max(sizes) - min(sizes) <= 1
    assert res.meta["samples"] == 1000
    # the estimate is the kernel's sums over all batches, divided by the sample count
    want = [sum(c[k] for _, (c, _) in calls) / 1000 for k in range(len(basis))]
    assert np.allclose(res.vector, want, rtol=1e-15, atol=0)
    if i is not None:
        dwant = [sum(d[k] for _, (_, d) in calls) / 1000 for k in range(len(basis))]
        assert np.allclose(res.derivative, dwant, rtol=1e-15, atol=0)


@pytest.mark.parametrize("n", [0, 5, 15])
def test_fewer_mc_samples_than_batches_rejected(n):
    with pytest.raises(ParameterError, match="mc_samples must be at least 16"):
        QuadratureSpec(scheme="monte_carlo", mc_samples=n)
    QuadratureSpec(scheme="monte_carlo", mc_samples=16)
    # each field has its type, checked ahead of its value; a bool is no count
    for kw in ({"nodes_per_axis": 10.5}, {"nodes_per_axis": True}, {"nodes_per_axis": "32"},
               {"mc_samples": 1000.0}, {"seed": 1.5}):
        with pytest.raises(ParameterError, match="has the wrong type"):
            QuadratureSpec(**kw)


def test_psiM_symmetrization_consistency():
    # coefficients whose block density is already symmetric: full Sym equals
    # the group order times the unsymmetrized ordered-chamber integral; the
    # mixed coefficient equals the sum of its separately-integrated orbit
    from psiM_oracle import from_cube, psiM_coeffs
    from qims.quadrature import tanh_sinh_01
    params = m_window_params(2, 1, 2)
    exps = dictionary_M(params, 2)
    z = (0.4,)
    xs, omxs, ws = tanh_sinh_01(61)
    V1, V2 = np.meshgrid(xs, xs, indexing="ij")
    O1, O2 = np.meshgrid(omxs, omxs, indexing="ij")
    v = np.stack([V1, V2], axis=-1)
    omv = np.stack([O1, O2], axis=-1)
    logw = np.log(np.outer(ws, ws)) + np.log(V1)
    pt = from_cube(v, omv)
    full, _ = psiM_coeffs(exps, z, pt, logw, ((0,), (1,), (2,)))

    # unsymmetrized single-assignment integrals over the same ordered chamber
    kp = float(exps.planck)
    t1, t2 = pt.pieces[("x", 0)], pt.pieces[("x", 1)]
    om1, om2 = pt.pieces[("omx", 0)], pt.pieces[("omx", 1)]
    base = np.exp(logw + (2 / kp) * np.log(pt.pieces[("gap", 0, 1)])
                  + float(exps.alpha[0]) / kp * (np.log(t1) + np.log(t2))
                  - float(exps.beta[0]) / kp * (np.log1p(-z[0] * t1) + np.log1p(-z[0] * t2))
                  - float(exps.gamma[0]) / kp * (np.log(om1) + np.log(om2))
                  - np.log(t1) - np.log(t2))
    f0_1, f0_2 = 1 / om1, 1 / om2
    f1_1, f1_2 = 1 / (1 - z[0] * t1), 1 / (1 - z[0] * t2)
    assert full[(0,)] == pytest.approx(2 * np.sum(base * f0_1 * f0_2), rel=1e-12)
    assert full[(2,)] == pytest.approx(2 * np.sum(base * f1_1 * f1_2), rel=1e-12)
    orbit = np.sum(base * f1_1 * f0_2) + np.sum(base * f1_2 * f0_1)
    assert full[(1,)] == pytest.approx(-2 * orbit, rel=1e-12)


# (L, N, M) sizes on which the generating-function kernel meets the
# permutation-sum oracle
KERNEL_SIZES = [(2, 1, 2), (2, 2, 3), (2, 1, 4), (3, 1, 2), (3, 2, 2), (3, 1, 3), (4, 1, 2)]


def criterion_10b_params():
    """The three-level degree-2 point of acceptance criterion 10b (planck -3)."""
    th1 = F(2, 7)
    return make_parameters(3, 1, e=[F(-5, 2), F(3), F(1, 2)],
                           kappa=[2 + th1, F(1, 2), F(1)], theta=[th1], planck=-3)


def _fresh_ws(exps=None, z=(0.4,)):
    """A new kernel workspace for ``exps`` (an L2N1M2 set by default) at z."""
    from qims.hypint import _Workspace, enumerate_basis
    exps = exps or kernel_exps(2, 1, 2)
    return _Workspace(exps, z, tuple(enumerate_basis(exps.L, exps.N, exps.M)), None)


def _axis_point(ws, per_axis):
    """The kernel's chain point in ``ws`` of the broadcasting per-axis
    arrays ``per_axis`` (values in (0, 1))."""
    from qims.hypint import _ChainPoint
    return _ChainPoint(ws, per_axis, [1.0 - u for u in per_axis], [np.log(u) for u in per_axis])


def kernel_exps(L, N, M, planck=F(2)):
    return ExponentsM(tuple(F(3, 4) + F(n, 5) for n in range(L - 1)),
                      tuple(F(-2, 7 + 2 * j) for j in range(N)),
                      (F(-1, 2),) + (F(1),) * (L - 2), planck, M)


@pytest.mark.parametrize("L,N,M", KERNEL_SIZES)
def test_kernel_matches_permutation_sum(L, N, M):
    from psiM_oracle import from_cube, psiM_coeffs, psiM_coeffs_oracle
    from qims.polyalg import enumerate_basis
    rng = np.random.default_rng(100 * L + 10 * N + M)
    K = (L - 1) * M
    v = rng.uniform(0.02, 0.98, size=(3, 4, K))  # a 3 x 4 batch of chamber points
    pt = from_cube(v, 1.0 - v)
    logw = rng.normal(size=(3, 4))
    exps = kernel_exps(L, N, M)
    z = tuple(0.45 - 0.17 * k for k in range(N))
    basis = tuple(enumerate_basis(L, N, M))
    for i in [None] + list(range(1, N + 1)):
        c, d = psiM_coeffs(exps, z, pt, logw, basis, i)
        want, dwant = psiM_coeffs_oracle(exps, z, pt, logw, basis, i)
        assert set(d) == set(dwant) == (set() if i is None else set(basis))
        for A in basis:
            assert c[A] == pytest.approx(want[A], rel=1e-12, abs=0), (i, A)
            if i is not None:
                assert d[A] == pytest.approx(dwant[A], rel=1e-12, abs=0), (i, A)


def test_times_plan_drops_e_squared():
    # monomials in two y-variables and a last e entry: (1 + y1 + e y0)(1 + y0 + y1 + e + e y1)
    from qims.hypint import _times_plan
    left = [(0, 0, 0), (0, 1, 0), (1, 0, 1)]
    right = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]
    out = []
    ops = _times_plan(left, right, out)
    assert len(set(out)) == len(out)
    assert all(mono[-1] <= 1 for mono in out)
    kept = [(a, b) for a in range(len(left)) for b in range(len(right))
            if left[a][-1] + right[b][-1] <= 1]
    assert sorted((a, b) for _, a, b, _ in ops) == kept  # each kept product exactly once
    seen = set()
    for o, a, b, add in ops:
        assert out[o] == tuple(u + v for u, v in zip(left[a], right[b]))
        assert add == (o in seen)
        seen.add(o)
    # the e^1 left monomial is walked first
    assert [a for _, a, _, _ in ops][:3] == [2, 2, 2]


def _assert_same_chain(ws, pt, want, shape, K):
    # every piece the kernel reads from the chain point: the atoms of the
    # weight, the reciprocal gaps of the forms and the x_p of the last level
    read = {a for _, a in ws.atoms if a[0] != "rz"} | set(ws.recip)
    assert read | {("x", p) for p in ws.tls} <= set(pt.pieces)
    for p in range(K):
        assert np.array_equal(np.broadcast_to(pt.logv[p], shape), want.logv[p]), p
    for key, piece in pt.pieces.items():
        assert np.array_equal(np.broadcast_to(piece, shape), want.pieces[key]), key


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_broadcast_slab_chain_point_equals_stacked_grid(K, monkeypatch):
    # the chain points and weights _psiM_tensor hands the kernel, slab by slab,
    # against the stacked meshgrid and cumprod of the same slab; each slab is
    # checked when the kernel gets it, as the next one reuses its buffers
    from psiM_oracle import from_cube
    from qims import hypint
    from qims.quadrature import tanh_sinh_01
    exps = ExponentsM((F(3, 4),), (F(-2, 7),), (F(-1, 2),), F(2), K)
    basis = tuple(hypint.enumerate_basis(2, 1, K))
    nodes = 5
    xs, omxs, ws = tanh_sinh_01(nodes)
    seen = []

    def check_slab(workspace, pt, logw):
        lo = 2 * len(seen)
        axes = [xs[lo:lo + 2]] + [xs] * (K - 1)
        v = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        omv = np.stack(np.meshgrid(*[omxs[lo:lo + 2]] + [omxs] * (K - 1), indexing="ij"),
                       axis=-1)
        _assert_same_chain(workspace, pt, from_cube(v, omv), v.shape[:-1], K)
        want = np.zeros(v.shape[:-1])
        for j in range(K):
            rows = slice(lo, lo + 2) if j == 0 else slice(None)
            want += (np.log(ws) + (K - 1 - j) * np.log(xs))[rows][
                (slice(None),) + (None,) * (K - 1 - j)]
        assert np.array_equal(logw, want)
        # x_p and 1 - x_p vary along axes 0..p only, log v_p along axis p,
        # 1 - v_(p+1) ... v_r along axes p+1..r and x_p - x_r along axes 0..r
        for p in range(K):
            assert pt.logv[p].shape == v.shape[p:p + 1] + (1,) * (K - 1 - p)
        for (kind, *key), piece in pt.pieces.items():
            first = key[0] + 1 if kind == "om" else 0
            assert piece.shape == v.shape[first:key[-1] + 1] + (1,) * (K - 1 - key[-1]), key
        seen.append(lo)
        return np.zeros(len(basis)), None

    monkeypatch.setattr(hypint, "_SLAB_POINTS", 2 * nodes ** (K - 1))  # slabs of 2, 2, 1 rows
    monkeypatch.setattr(hypint, "_psiM_coeffs", check_slab)
    hypint._psiM_tensor(hypint._Workspace(exps, (0.4,), basis, None),
                        hypint._axis_rules("tanh_sinh_tensor", nodes, [(0, 0)] * K))
    assert seen == [0, 2, 4]


@pytest.mark.parametrize("L,N,M", KERNEL_SIZES)
def test_kernel_on_broadcast_grid_equals_stacked_grid(L, N, M):
    # the same values; the broadcast layout sums the deepest axis first, so
    # the two round differently
    from psiM_oracle import from_cube, psiM_coeffs
    from qims.polyalg import enumerate_basis
    K = (L - 1) * M
    rng = np.random.default_rng(10 * K + N)
    axes = [np.sort(rng.uniform(0.02, 0.98, size=4)) for _ in range(K)]
    v = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    per_axis = [u[(slice(None),) + (None,) * (K - 1 - j)] for j, u in enumerate(axes)]
    logw = rng.normal(size=v.shape[:-1])
    exps = kernel_exps(L, N, M)
    z = tuple(0.45 - 0.17 * k for k in range(N))
    basis = tuple(enumerate_basis(L, N, M))
    for i in (None, N):
        c, d = psiM_coeffs(exps, z, _axis_point(_fresh_ws(exps, z), per_axis), logw, basis, i)
        want, dwant = psiM_coeffs(exps, z, from_cube(v, 1.0 - v), logw, basis, i)
        assert set(d) == set(dwant) == (set() if i is None else set(basis))
        for A in basis:
            assert c[A] == pytest.approx(want[A], rel=1e-13, abs=0), (i, A)
            if i is not None:
                assert d[A] == pytest.approx(dwant[A], rel=1e-13, abs=0), (i, A)


@pytest.mark.parametrize("L,N,M", KERNEL_SIZES)
def test_kernel_on_broadcast_grid_matches_permutation_sum(L, N, M):
    # the contraction over the deepest axis against the symmetrization written out
    from psiM_oracle import from_cube, psiM_coeffs, psiM_coeffs_oracle
    from qims.polyalg import enumerate_basis
    K = (L - 1) * M
    rng = np.random.default_rng(20 * K + N)
    axes = [np.sort(rng.uniform(0.02, 0.98, size=4)) for _ in range(K)]
    v = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    per_axis = [u[(slice(None),) + (None,) * (K - 1 - j)] for j, u in enumerate(axes)]
    logw = rng.normal(size=v.shape[:-1])
    exps = kernel_exps(L, N, M)
    z = tuple(0.45 - 0.17 * k for k in range(N))
    basis = tuple(enumerate_basis(L, N, M))
    for i in [None] + list(range(1, N + 1)):
        c, d = psiM_coeffs(exps, z, _axis_point(_fresh_ws(exps, z), per_axis), logw, basis, i)
        want, dwant = psiM_coeffs_oracle(exps, z, from_cube(v, 1.0 - v), logw, basis, i)
        assert set(d) == set(dwant) == (set() if i is None else set(basis))
        for A in basis:
            assert c[A] == pytest.approx(want[A], rel=1e-12, abs=0), (i, A)
            if i is not None:
                assert d[A] == pytest.approx(dwant[A], rel=1e-12, abs=0), (i, A)


@pytest.mark.parametrize("L,N,M", KERNEL_SIZES)
def test_kernel_weight_matches_per_power_oracle(L, N, M):
    # the weight from per-axis logs and atoms, each at its own shape, against
    # every power's base logged at full size, the rest of the kernel shared:
    # on a broadcast slab, and on a Monte Carlo batch whose log v is the
    # inversion's own
    from psiM_oracle import psiM_coeffs, psiM_coeffs_per_power
    from qims.hypint import _ChainPoint, _kumaraswamy_inverse
    from qims.polyalg import enumerate_basis
    K = (L - 1) * M
    rng = np.random.default_rng(30 * K + N)
    exps = kernel_exps(L, N, M)
    z = tuple(0.45 - 0.17 * k for k in range(N))
    basis = tuple(enumerate_basis(L, N, M))
    axes = [np.sort(rng.uniform(0.02, 0.98, size=4)) for _ in range(K)]
    per_axis = [u[(slice(None),) + (None,) * (K - 1 - j)] for j, u in enumerate(axes)]
    # each chain point in its own workspace, as each lives in its buffers
    slab = (_axis_point(_fresh_ws(exps, z), per_axis), rng.normal(size=(4,) * K))
    ws = _fresh_ws(exps, z)
    v, omv, logv, _ = _kumaraswamy_inverse(ws, rng.uniform(size=(K, 50)),
                                           rng.uniform(0.6, 2.5, size=(K, 1)),
                                           rng.uniform(0.6, 2.5, size=(K, 1)))
    batch = (_ChainPoint(ws, v, omv, logv), rng.normal(size=50))
    for pt, logw in (slab, batch):
        for i in (None, N):
            c, d = psiM_coeffs(exps, z, pt, logw, basis, i)
            want, dwant = psiM_coeffs_per_power(exps, z, pt, logw, basis, i)
            assert set(d) == set(dwant) == (set() if i is None else set(basis))
            for A in basis:
                assert c[A] == pytest.approx(want[A], rel=1e-13, abs=0), (i, A)
                if i is not None:
                    assert d[A] == pytest.approx(dwant[A], rel=1e-13, abs=0), (i, A)


def test_batch_chain_point_equals_stacked_grid():
    # Monte Carlo passes the columns of a (P, K) batch; one level of five
    # copies, and two levels of two, whose chain point has adjacent-level gaps
    from psiM_oracle import from_cube
    from qims.hypint import _ChainPoint
    rng = np.random.default_rng(7)
    for exps in (ExponentsM((F(3, 4),), (F(-2, 7),), (F(-1, 2),), F(2), 5), kernel_exps(3, 1, 2)):
        K = (exps.L - 1) * exps.M
        v = rng.uniform(0.0, 1.0, size=(500, K))
        omv = 1.0 - v
        ws = _fresh_ws(exps)
        _assert_same_chain(ws, _ChainPoint(ws, v.T, omv.T, np.log(v.T)), from_cube(v, omv),
                           (500,), K)


def test_chain_point_builds_only_the_declared_pieces(monkeypatch):
    # 1 - x_p at the level-1 positions p < M only, every other piece where
    # the workspace declares it, and no accessor that builds one on demand
    from qims import hypint
    workspaces = []

    def spy(ws, pt, logw):
        workspaces.append(ws)
        return kernel(ws, pt, logw)

    kernel = hypint._psiM_coeffs
    monkeypatch.setattr(hypint, "_psiM_coeffs", spy)
    eval_psiM(m1_window_params(4, 1), (0.4,), 1, QuadratureSpec(nodes_per_axis=32))
    assert len(set(map(id, workspaces))) == 1
    assert not [name for name in workspaces[0]._bufs
                if isinstance(name, tuple) and name[0] == "omx"]

    ws = _fresh_ws(kernel_exps(3, 1, 2))  # K = 4: positions 0, 1 at level 1, 2, 3 at level 2
    axes = [np.linspace(0.1, 0.9, 3)[(slice(None),) + (None,) * (3 - j)] for j in range(4)]
    pt = _axis_point(ws, axes)
    assert [name for name in ws._bufs if isinstance(name, tuple) and name[0] == "omx"] == [
        ("omx", 1)]
    adjacent = [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert set(pt.pieces) == ({("x", p) for p in range(4)} | {("omx", 0), ("omx", 1)}
                              | {("om", p, r) for p, r in adjacent + [(0, 1), (2, 3)]}
                              | {("gap", p, r) for p, r in adjacent})
    assert not [name for name in dir(pt) if not name.startswith("_")
                and callable(getattr(pt, name))]


def _all_faces(K):
    """Per-axis faces, then every corner of 2 or 3 faces, as the window check reads them."""
    faces = [[(axis, side)] for axis in range(K) for side in (0, 1)]
    return faces + [list(zip(axes, sides)) for c in (2, 3) for axes in combinations(range(K), c)
                    for sides in product((0, 1), repeat=c)]


def _assert_exact_matches_probes(exps):
    from psiM_oracle import probe_exponent
    from qims.hypint import _face_exponents
    from qims.polyalg import enumerate_basis
    z = tuple(0.45 - 0.17 * k for k in range(exps.N))
    basis = tuple(enumerate_basis(exps.L, exps.N, exps.M))
    expos = _face_exponents(exps)
    assert list(expos) == [tuple(faces) for faces in _all_faces((exps.L - 1) * exps.M)]
    for faces, expo in expos.items():
        assert type(expo) is F
        assert abs(float(expo) - probe_exponent(exps, z, basis, faces)) < 2e-3, faces


@pytest.mark.parametrize("L,N,M", KERNEL_SIZES)
def test_tabulated_face_exponents_equal_the_oracle(L, N, M):
    # the integer orders tabulated once per (L, M), dotted with the weight
    # exponents, against the per-face sum of the oracle on every face: equal
    # Fractions, and at float exponents the same bits, as the terms are
    # summed in the same order
    from psiM_oracle import face_exponent
    from qims.hypint import _face_exponents, _face_orders
    K = (L - 1) * M
    floats = ExponentsM(tuple(0.61 + 0.3 * n for n in range(L - 1)), (-0.2,) * N,
                        (-0.45,) + (1.0,) * (L - 2), 1.7, M)
    for exps in (kernel_exps(L, N, M, F(2)), kernel_exps(L, N, M, F(-3, 2)), floats):
        expos = _face_exponents(exps)
        assert list(expos) == [tuple(faces) for faces in _all_faces(K)]
        for faces, expo in expos.items():
            want = face_exponent(exps, list(faces))
            assert type(expo) is type(want) and expo == want, (exps, faces)
    assert _face_orders(L, M) is _face_orders(L, M)  # built once per (L, M)


@pytest.mark.parametrize("L,N,M", KERNEL_SIZES)
def test_batched_probe_exponents_match_one_point_probes(L, N, M):
    # the exact exponents that replaced the batched probe, against the power
    # the one-point probe measures at 1e-4 and 5e-5, on every face and at
    # both signs of planck; (3, 1, 3) is the K = 6 case with 232 faces
    for planck in (F(2), F(-2)):
        _assert_exact_matches_probes(kernel_exps(L, N, M, planck))


def test_exact_face_exponents_match_one_point_probes_at_10b():
    _assert_exact_matches_probes(dictionary_M(criterion_10b_params(), 2))


def test_m1_face_exponents_are_the_simplex_formula():
    # at M = 1 the per-axis face exponents are those of the nested simplex
    from psiM_oracle import axis_exponents_m1
    from qims.hypint import _face_exponents
    for L in range(2, 8):
        for N in (1, 2, 3):
            for planck in (F(2), F(-2), F(3, 2), F(-5, 7)):
                exps = dictionary_M(resonant_params(L, N, 1, random.Random(10 * L + N),
                                                    planck=planck), 1)
                expos = _face_exponents(exps)
                assert len(expos) == 2 * (L - 1)  # no corners at M = 1
                got = [(expos[((k, 0),)], expos[((k, 1),)]) for k in range(L - 1)]
                assert got == list(zip(*axis_exponents_m1(exps, 0))), (L, N, planck)


def test_window_decisions_match_the_measured_check():
    # seeded degree-M sets, L <= 3 and K <= 4: the exact check accepts and
    # rejects as the measured one does wherever every probe is measurable
    from psiM_oracle import measured_window_accepts
    from qims.hypint import _window_check
    from qims.polyalg import enumerate_basis
    rnd = random.Random(23)
    seen = []
    for _ in range(120):
        L = rnd.choice((2, 2, 3))
        M, N = rnd.choice((2, 3)) if L == 2 else 2, rnd.choice((1, 2))
        exps = ExponentsM(tuple(F(rnd.randint(-6, 24), rnd.randint(1, 6)) for _ in range(L - 1)),
                          tuple(F(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(N)),
                          (F(rnd.randint(-12, 6), rnd.randint(1, 6)),) + (F(1),) * (L - 2),
                          F(rnd.choice((-1, 1)) * rnd.randint(1, 12), rnd.randint(1, 3)), M)
        want = measured_window_accepts(exps, tuple(enumerate_basis(L, N, M)))
        try:
            _window_check(exps)
            got = True
        except ConvergenceError:
            got = False
        assert want is None or got == want, exps
        seen.append(want)
    assert seen.count(True) >= 10 and seen.count(False) >= 10


def test_window_check_makes_no_kernel_call(monkeypatch):
    from qims import hypint
    exps = dictionary_M(m_window_params(2, 2, 3), 3)
    calls = []
    monkeypatch.setattr(hypint, "_psiM_coeffs", lambda *a, **k: calls.append(1))
    assert len(hypint._window_check(exps)) == 3
    assert calls == []


def test_slabbed_tensor_equals_one_slab(monkeypatch):
    from qims import hypint
    exps = dictionary_M(m_window_params(2, 1, 3), 3)
    basis = tuple(hypint.enumerate_basis(2, 1, 3))
    nodes = 49  # 13 rows of 49^2 points per slab: 3 full slabs and one of 10 rows
    assert nodes % (hypint._SLAB_POINTS // nodes ** 2) != 0
    calls = []
    kernel = hypint._psiM_coeffs
    monkeypatch.setattr(hypint, "_psiM_coeffs", lambda *a: calls.append(1) or kernel(*a))
    rules = hypint._axis_rules("tanh_sinh_tensor", nodes, [(0, 0)] * 3)
    c, d = hypint._psiM_tensor(hypint._Workspace(exps, (0.4,), basis, 1), rules)
    assert len(calls) == 4
    monkeypatch.setattr(hypint, "_SLAB_POINTS", nodes ** 3)
    c1, d1 = hypint._psiM_tensor(hypint._Workspace(exps, (0.4,), basis, 1), rules)
    assert len(calls) == 5
    for k in range(len(basis)):
        assert c[k] == pytest.approx(c1[k], rel=1e-14, abs=0)
        assert d[k] == pytest.approx(d1[k], rel=1e-14, abs=0)


def test_slabs_fix_leading_axes_at_five_axes(monkeypatch):
    # L6N1M1 has K = 5 cube axes.  At 5 nodes and slabs of at most 100
    # points the axes after axis 0 hold 625 points and those after axis 1
    # 125, so axes 0 and 1 are fixed one node at a time and each slab takes
    # rows of axis 2: 4 rows of 25 points, then 1, for each of 25 pairs
    from qims import hypint
    exps = dictionary_M(m1_window_params(6, 1), 1)
    basis = tuple(hypint.enumerate_basis(6, 1, 1))
    nodes, K = 5, 5
    rules = hypint._axis_rules("gauss_jacobi_tensor", nodes, hypint._window_check(exps))
    sizes = []
    kernel = hypint._psiM_coeffs
    monkeypatch.setattr(hypint, "_psiM_coeffs",
                        lambda ws, pt, logw: sizes.append(logw.size) or kernel(ws, pt, logw))
    monkeypatch.setattr(hypint, "_SLAB_POINTS", 100)
    c, d = hypint._psiM_tensor(hypint._Workspace(exps, (0.4,), basis, 1), rules)
    assert sizes == [100, 25] * 25
    monkeypatch.setattr(hypint, "_SLAB_POINTS", nodes ** K)
    c1, d1 = hypint._psiM_tensor(hypint._Workspace(exps, (0.4,), basis, 1), rules)
    assert sizes[50:] == [nodes ** K]
    for k in range(len(basis)):
        assert c[k] == pytest.approx(c1[k], rel=1e-14, abs=0)
        assert d[k] == pytest.approx(d1[k], rel=1e-14, abs=0)


@pytest.mark.parametrize("M,quad,i", [
    (1, QuadratureSpec(nodes_per_axis=24), None),
    (2, QuadratureSpec(scheme="tanh_sinh_tensor", nodes_per_axis=21, stabilize_tol=1.0), None),
    (2, QuadratureSpec(scheme="tanh_sinh_tensor", nodes_per_axis=21, stabilize_tol=1.0), 1),
    (2, QuadratureSpec(scheme="monte_carlo", mc_samples=1000, seed=1), None)],
    ids=["gauss_jacobi", "tanh_sinh", "tanh_sinh_with_i", "monte_carlo"])
def test_one_workspace_per_evaluation(monkeypatch, M, quad, i):
    # both refinement passes, or all Monte Carlo batches, share one workspace
    from qims import hypint
    made = []

    class Counted(hypint._Workspace):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(hypint, "_Workspace", Counted)
    params = m1_window_params(2, 1) if M == 1 else m_window_params(2, 1, M)
    eval_psiM(params, (0.4,), M, quad, i)
    assert len(made) == 1


def _record_kernel(monkeypatch, hypint):
    """Route the kernel through a recorder of each slab's or batch's sums."""
    kernel, sums = hypint._psiM_coeffs, []
    monkeypatch.setattr(hypint, "_psiM_coeffs", lambda *a: sums.append(kernel(*a)) or sums[-1])
    return kernel, sums


def _assert_same_bits(got, want):
    for part, wpart in zip(got, want):
        assert (part is None) == (wpart is None)
        if part is not None:
            assert part.shape == wpart.shape and part.tobytes() == wpart.tobytes()


def test_workspace_slabs_equal_fresh_arrays_bit_for_bit(monkeypatch):
    # 9 rows of 81 points in slabs of 2 rows, after a pass of 3-row slabs at
    # 13 nodes in the same workspace: every slab uses the leading part of
    # buffers a larger slab made, and the last has 1 row; each slab's sums
    # must be those of the same slab in a fresh workspace, bit for bit
    from qims import hypint
    exps = dictionary_M(m_window_params(2, 1, 3), 3)
    basis = tuple(hypint.enumerate_basis(2, 1, 3))
    nodes = 9
    rules = hypint._axis_rules("tanh_sinh_tensor", nodes, [(0, 0)] * 3)
    kernel, sums = _record_kernel(monkeypatch, hypint)
    ws = hypint._Workspace(exps, (0.4,), basis, 1)
    monkeypatch.setattr(hypint, "_SLAB_POINTS", 3 * 13 ** 2)
    hypint._psiM_tensor(ws, hypint._axis_rules("tanh_sinh_tensor", 13, [(0, 0)] * 3))
    del sums[:]
    monkeypatch.setattr(hypint, "_SLAB_POINTS", 2 * nodes ** 2)
    hypint._psiM_tensor(ws, rules)
    assert len(sums) == 5
    for lo, got in zip(range(0, nodes, 2), sums):
        fresh = hypint._Workspace(exps, (0.4,), basis, 1)
        pt, logw = hypint._tensor_slab(fresh, rules, [slice(lo, lo + 2)])
        assert logw.shape[0] == min(2, nodes - lo)
        _assert_same_bits(got, kernel(fresh, pt, logw))


def test_workspace_batches_equal_fresh_arrays_bit_for_bit(monkeypatch):
    # 647 = 16 * 40 + 7 samples: seven batches of 41 points, then nine of 40
    # on the leading part of every buffer; each batch replayed from the
    # seeded stream in a fresh workspace gives the same sums, bit for bit
    from qims import hypint
    exps = dictionary_M(m_window_params(2, 2, 3), 3)
    basis = tuple(hypint.enumerate_basis(2, 2, 3))
    expos = hypint._window_check(exps)
    z = (0.4, 0.2)
    kernel, sums = _record_kernel(monkeypatch, hypint)
    hypint._psiM_mc(hypint._Workspace(exps, z, basis, 2), expos, 647, 9)
    a = np.array([max(float(e0), -0.95) + 1.0 for e0, _ in expos])
    b = np.array([max(float(e1), -0.95) + 1.0 for _, e1 in expos])
    rng = np.random.default_rng(9)
    assert len(sums) == 16
    for k, got in enumerate(sums):
        u = (rng.integers(0, 1 << 52, size=(3, 41 if k < 7 else 40)) + 0.5) * 2.0 ** -52
        fresh = hypint._Workspace(exps, z, basis, 2)
        pt, logw = hypint._mc_batch(fresh, u, a, b)
        _assert_same_bits(got, kernel(fresh, pt, logw))


def _traced_growth(monkeypatch, hypint, run):
    """For each slab or batch after the first, the traced peak above the
    traced memory at the end of the previous one's kernel call."""
    import tracemalloc
    kernel, marks = hypint._psiM_coeffs, []

    def traced(*args):
        res = kernel(*args)
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return res

    monkeypatch.setattr(hypint, "_psiM_coeffs", traced)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
    return [peak - prev for (prev, _), (_, peak) in zip(marks, marks[1:])]


def test_slab_loop_allocates_no_slab_array(monkeypatch):
    # numpy reports its data buffers to tracemalloc: once the first slab has
    # filled the workspace, no later slab of either refinement pass grows
    # the traced memory by as much as one array of slab size, the
    # derivative's arrays included.  The coarse pass at 49 nodes takes 4
    # slabs of up to 13 * 49^2 points, the finer one at 73 nodes 13 slabs of
    # up to 6 * 73^2; that is more, so the finer pass's first slab grows the
    # buffers and is the one exception
    from qims import hypint
    params = m_window_params(2, 2, 3)
    quad = QuadratureSpec(scheme="tanh_sinh_tensor", nodes_per_axis=49, stabilize_tol=1.0)
    slab = 8 * (hypint._SLAB_POINTS // 49 ** 2) * 49 ** 2
    growth = _traced_growth(monkeypatch, hypint,
                            lambda: eval_psiM(params, (0.4, 0.2), 3, quad, 1))
    assert len(growth) == 4 + 13 - 1, growth
    assert max(growth[:3] + growth[4:]) < slab, (growth, slab)


def test_mc_batch_loop_allocates_only_its_draw(monkeypatch):
    # rng.integers has no out=: each batch allocates its (K, P) integer draw,
    # and nothing else of batch size
    from qims import hypint
    exps = dictionary_M(m_window_params(2, 2, 3), 3)
    basis = tuple(hypint.enumerate_basis(2, 2, 3))
    per = 4000
    growth = _traced_growth(monkeypatch, hypint, lambda: hypint._psiM_mc(
        hypint._Workspace(exps, (0.4, 0.2), basis, 1), hypint._window_check(exps), 16 * per, 5))
    assert len(growth) == 15 and max(growth) < 8 * 3 * per + 8 * per, growth


@pytest.mark.parametrize("alpha", [150, 156])
@pytest.mark.parametrize("quad", [QuadratureSpec(scheme="monte_carlo", mc_samples=20000, seed=3),
                                  QuadratureSpec(scheme="tanh_sinh_tensor", nodes_per_axis=41)],
                         ids=["monte_carlo", "tanh_sinh"])
def test_underflowing_window_probe_is_unmeasurable(alpha, quad):
    # the integrand underflows to 0 in double precision within 1e-4 of the
    # v_0 -> 0 face, so a probe there measures no power; the exact exponents
    # still admit the set and the quadrature decides: tanh-sinh settles at 81
    # nodes, Monte Carlo agrees with it, and 41 nodes fail to stabilize
    from psiM_oracle import probe_exponent
    from qims.hypint import _window_check
    params = underflow_params(alpha)
    exps = dictionary_M(params, 2)
    assert probe_exponent(exps, (0.35,), ((0,), (1,), (2,)), [(0, 0)]) is None
    assert _window_check(exps) == ((alpha, F(-3, 4)), ({150: 74, 156: 77}[alpha], 1))
    if quad.scheme == "tanh_sinh_tensor":
        with pytest.raises(ConvergenceError, match="failed to stabilize"):
            eval_psiM(params, (0.4,), 2, quad)
        return
    ts = eval_psiM(params, (0.4,), 2, QuadratureSpec(scheme="tanh_sinh_tensor",
                                                     nodes_per_axis=81))
    assert ts.convergence < 1e-9
    mc = eval_psiM(params, (0.4,), 2, quad)
    assert np.abs(mc.vector - ts.vector).max() < 3 * mc.convergence * np.abs(ts.vector).max()


def test_pde_residual_m1():
    for (L, N) in [(2, 1), (3, 1), (2, 2)]:
        params = m1_window_params(L, N)
        z = tuple(0.45 - 0.17 * k for k in range(N))
        r = pde_residual(params, z, 1, QuadratureSpec(nodes_per_axis=24), i=1)
        assert r < 1e-5, (L, N, r)


def test_pde_residual_m2_tanh_sinh():
    params = m_window_params(2, 1, 2)
    q = QuadratureSpec(scheme="tanh_sinh_tensor", nodes_per_axis=81,
                       stabilize_tol=1e-4)
    assert pde_residual(params, (0.4,), 2, q) < 1e-4


def _stencil(params, z, M, quad, i, h=5e-3):
    """4-point central difference of the coefficients in z_i, on the same
    nodes or MC samples at every point: the oracle for the derivative that
    eval_psiM takes under the integral."""
    def c_at(k):
        zz = list(z)
        zz[i - 1] += k * h
        return eval_psiM(params, tuple(zz), M, quad).vector
    return (c_at(-2) - 8 * c_at(-1) + 8 * c_at(1) - c_at(2)) / (12 * h)


@pytest.mark.parametrize("scheme,L,N,M", [("gauss_jacobi_tensor", L, N, 1)
                                          for L in (2, 3, 4) for N in (1, 2)]
                         + [("tanh_sinh_tensor", 2, N, 2) for N in (1, 2)]
                         + [("monte_carlo", 2, 2, 2)])
def test_derivative_under_the_integral_matches_stencil(scheme, L, N, M):
    params = m1_window_params(L, N) if M == 1 else m_window_params(L, N, M)
    quad = {"gauss_jacobi_tensor": QuadratureSpec(nodes_per_axis=24),
            "tanh_sinh_tensor": QuadratureSpec(scheme=scheme, nodes_per_axis=81,
                                               stabilize_tol=1e-4),
            "monte_carlo": QuadratureSpec(scheme=scheme, mc_samples=20000, seed=7)}[scheme]
    bound = 1e-6 if scheme == "monte_carlo" else 1e-7
    z = tuple(0.45 - 0.17 * k for k in range(N))
    plain = eval_psiM(params, z, M, quad)
    assert plain.derivative is None
    for i in range(1, N + 1):
        res = eval_psiM(params, z, M, quad, i)
        # asking for the derivative leaves the coefficients bit for bit alone
        assert np.array_equal(res.vector, plain.vector)
        want = _stencil(params, z, M, quad, i)
        gap = np.abs(res.derivative - want).max() / np.abs(want).max()
        assert gap < bound, (i, gap)
    with pytest.raises(ParameterError, match="time index"):
        eval_psiM(params, z, M, quad, N + 1)


def test_level_chamber_obstruction_L3_M2():
    # documented obstruction: for L >= 3, M >= 2 a positive planck makes the
    # level-ordered chamber integrals diverge (caught by the window check)...
    th1 = F(2, 7)
    params = make_parameters(3, 1, e=[F(-5, 2), F(3), F(1, 2)],
                             kappa=[2 + th1, F(1, 2), F(1)], theta=[th1], planck=3)
    with pytest.raises(ConvergenceError):
        eval_psiM(params, (0.4,), 2, QuadratureSpec(scheme="monte_carlo",
                                                    mc_samples=1000, seed=1))
    # ... while negative planck converges but the chamber is not a cycle, so
    # the coefficients do NOT satisfy the differential system
    params = make_parameters(3, 1, e=[F(-5, 2), F(3), F(1, 2)],
                             kappa=[2 + th1, F(1, 2), F(1)], theta=[th1], planck=-3)
    q = QuadratureSpec(scheme="monte_carlo", mc_samples=120000, seed=20240)
    r = pde_residual(params, (0.4,), 2, q)
    assert r > 0.1


def test_phi_index_data_combinatorics():
    from psiM_oracle import PhiIndexData
    # L=3, N=2, M=3, A with entries (1,0),(0,2) row-major -> A0 = 0
    A = (1, 0, 0, 2)
    info = PhiIndexData.from_index(A, 3, 2, 3)
    assert info.A0 == 0
    assert info.multinomial == 3  # 3!/(1! 2!)
    assert info.sign == -1
    labels = info.copy_labels(3)
    assert labels == [(1, 1), (2, 2), (2, 2)]
    # block lengths + A0 = M
    assert sum(hi - lo for _, lo, hi in info.segments) + info.A0 == 3
    empty = PhiIndexData.from_index((0, 0, 0, 0), 3, 2, 3)
    assert empty.A0 == 3 and empty.sign == 1 and empty.multinomial == 1
    assert empty.copy_labels(3) == [None, None, None]
