import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import m1_window_params, m_window_params, resonant_params, solve_e
from qims.errors import ChamberError, ConvergenceError, ParameterError
from qims.hypint import (ExponentsM, dictionary_M, dictionary_M1, eval_psi1, eval_psiM,
                         forms_M1, pde_residual, series_psi1, weight_M1)
from qims.quadrature import QuadratureSpec
from qims.weylops import make_parameters


def test_dictionary_m1_values():
    params = m1_window_params(2, 1)
    exps = dictionary_M1(params)
    # L=2: alpha_1 = e_0 - e_1 + 1 (e_2 = e_0, kappa_2 = 1)
    assert exps.alpha[0] == params.e[0] - params.e[1] + 1
    assert exps.beta[0] == -params.theta[1]
    assert exps.gamma[0] == params.kappa[1]


def test_dictionary_m1_round_trip():
    params = m1_window_params(3, 2)
    exps = dictionary_M1(params)
    e, kap = params.e + (params.e[0],), params.kappa + (F(1),)
    for n in range(1, 3):
        assert exps.alpha[n - 1] == e[n + 1] - e[n] + kap[n + 1]
    assert exps.gamma == params.kappa[1:]


def test_dictionary_m1_requires_resonance():
    rnd = random.Random(3)
    params = resonant_params(2, 1, 2, rnd)
    with pytest.raises(ParameterError):
        dictionary_M1(params)


def test_dictionary_m_values_and_m1_consistency():
    params = m_window_params(3, 1, 1, gamma=F(-1, 3))
    dM = dictionary_M(params, 1)
    d1 = dictionary_M1(params)
    assert dM.alpha == d1.alpha          # kappa_n = 1 for n >= 2
    assert dM.beta == d1.beta
    assert dM.gamma == d1.gamma[0]       # gamma = kappa_1 + M - 1 = kappa_1
    assert all(g == 1 for g in d1.gamma[1:])


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


def test_weight_m1_trivial_and_single_factor():
    exps0 = dictionary_M1(m1_window_params(2, 1))
    zero = type(exps0)((F(0),), (F(0),), (F(0),), exps0.planck)
    assert weight_M1((0.5,), (0.5,), zero) == pytest.approx(1.0)
    one = type(exps0)((exps0.planck,), (F(0),), (F(0),), exps0.planck)
    assert weight_M1((0.5,), (0.5,), one) == pytest.approx(0.5)


def test_weight_m1_log_domain_oracle():
    params = m1_window_params(3, 1)
    exps = dictionary_M1(params)
    t, z = (0.7, 0.3), (0.45,)
    kp = float(exps.planck)
    logs = (float(exps.alpha[0]) / kp * math.log(0.7)
            + float(exps.alpha[1]) / kp * math.log(0.3)
            - float(exps.beta[0]) / kp * math.log(1 - 0.45 * 0.3)
            - float(exps.gamma[0]) / kp * math.log(1 - 0.7)
            - float(exps.gamma[1]) / kp * math.log(0.7 - 0.3))
    assert weight_M1(t, z, exps) == pytest.approx(math.exp(logs), rel=1e-14)


def test_weight_m1_chamber_violation():
    exps = dictionary_M1(m1_window_params(3, 1))
    with pytest.raises(ChamberError):
        weight_M1((0.3, 0.7), (0.4,), exps)
    with pytest.raises(ChamberError):
        weight_M1((0.7, 0.3), (1.4,), exps)


def test_forms_m1_L2():
    phi0, phi = forms_M1((0.4,), (0.3,))
    assert phi0 == pytest.approx(1 / (0.4 * 0.6))
    assert phi[0][0] == pytest.approx(1 / ((1 - 0.3 * 0.4) * 0.4))


def test_forms_m1_structure():
    # (1 - z_i t_{L-1}) * phi_n^(i) has no i-dependence
    phi0, phi = forms_M1((0.7, 0.3), (0.45, 0.2))
    for n in range(2):
        vals = {round((1 - z * 0.3) * phi[n][i], 12)
                for i, z in enumerate((0.45, 0.2))}
        assert len(vals) == 1
    assert phi0 > 0 and all(v > 0 for row in phi for v in row)


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
    assert abs(a.coeffs[None] - b.coeffs[None]) < 1e-10 * abs(a.coeffs[None])


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
    from qims.hypint import _axis_exponents_m1, dictionary_M1
    exps = dictionary_M1(params)
    a, b = _axis_exponents_m1(exps, None)
    expect = math.exp(sum(
        gammaln(float(ak) + 1) + gammaln(float(bk) + 1) - gammaln(float(ak + bk) + 2)
        for ak, bk in zip(a, b)))
    assert ser.coeffs[None] == pytest.approx(expect, rel=1e-13)
    quad = eval_psi1(params, (1e-12,), QuadratureSpec(nodes_per_axis=32))
    assert quad.coeffs[None] == pytest.approx(expect, rel=1e-9)


def test_series_gauss_2f1_oracle():
    from scipy.special import gammaln, hyp2f1
    params = m1_window_params(2, 1)
    exps = dictionary_M1(params)
    kp = float(exps.planck)
    a = float(exps.alpha[0]) / kp - 1
    b = -float(exps.gamma[0]) / kp - 1
    r = float(exps.beta[0]) / kp
    for z in (0.2, 0.45):
        expect = math.exp(gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2)) \
            * hyp2f1(r, a + 1, a + b + 2, z)
        got = series_psi1(params, (z,), 80).coeffs[None]
        assert got == pytest.approx(expect, rel=1e-10)


def test_series_ratio_rational_structure():
    # successive term ratios of the constant coefficient form a rational
    # function of k of degree <= L: fit on early ratios, predict later ones
    L = 3
    params = m1_window_params(L, 1)
    from qims.hypint import _axis_exponents_m1, _log_beta, dictionary_M1
    exps = dictionary_M1(params)
    a, b = _axis_exponents_m1(exps, None)
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


def test_series_requires_domain():
    params = m1_window_params(2, 1)
    with pytest.raises(ParameterError):
        series_psi1(params, (1.2,), 10)
    with pytest.raises(ParameterError):
        series_psi1(params, (0.4,), -1)
    params2 = m1_window_params(2, 2)
    with pytest.raises(ParameterError):
        series_psi1(params2, (0.4, 0.2), 10)


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


def test_psiM_symmetrization_consistency():
    # coefficients whose block density is already symmetric: full Sym equals
    # the group order times the unsymmetrized ordered-chamber integral; the
    # mixed coefficient equals the sum of its separately-integrated orbit
    from psiM_oracle import from_cube
    from qims.hypint import _psiM_coeffs, dictionary_M
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
    full, _ = _psiM_coeffs(exps, z, pt, logw, ((0,), (1,), (2,)))

    # unsymmetrized single-assignment integrals over the same ordered chamber
    kp = float(exps.planck)
    t1, t2 = pt.x[0], pt.x[1]
    om1, om2 = pt.omx[0], pt.omx[1]
    base = np.exp(logw + (2 / kp) * np.log(pt.gap(0, 1))
                  + float(exps.alpha[0]) / kp * (np.log(t1) + np.log(t2))
                  - float(exps.beta[0]) / kp * (np.log1p(-z[0] * t1) + np.log1p(-z[0] * t2))
                  - float(exps.gamma) / kp * (np.log(om1) + np.log(om2))
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


def kernel_exps(L, N, M):
    return ExponentsM(tuple(F(3, 4) + F(n, 5) for n in range(L - 1)),
                      tuple(F(-2, 7 + 2 * j) for j in range(N)), F(-1, 2), F(2), M)


@pytest.mark.parametrize("L,N,M", KERNEL_SIZES)
def test_kernel_matches_permutation_sum(L, N, M):
    from psiM_oracle import from_cube, psiM_coeffs_oracle
    from qims.hypint import ExponentsM, _psiM_coeffs
    from qims.polyalg import enumerate_basis
    rng = np.random.default_rng(100 * L + 10 * N + M)
    K = (L - 1) * M
    v = rng.uniform(0.02, 0.98, size=(3, 4, K))  # a 3 x 4 batch of chamber points
    pt = from_cube(v, 1.0 - v)
    logw = rng.normal(size=(3, 4))
    exps = ExponentsM(tuple(F(3, 4) + F(n, 5) for n in range(L - 1)),
                      tuple(F(-2, 7 + 2 * j) for j in range(N)), F(-1, 2), F(2), M)
    z = tuple(0.45 - 0.17 * k for k in range(N))
    basis = tuple(enumerate_basis(L, N, M))
    for i in [None] + list(range(1, N + 1)):
        c, d = _psiM_coeffs(exps, z, pt, logw, basis, i)
        want, dwant = psiM_coeffs_oracle(exps, z, pt, logw, basis, i)
        assert set(d) == set(dwant) == (set() if i is None else set(basis))
        for A in basis:
            assert c[A] == pytest.approx(want[A], rel=1e-12, abs=0), (i, A)
            if i is not None:
                assert d[A] == pytest.approx(dwant[A], rel=1e-12, abs=0), (i, A)


def _assert_same_chain(pt, want, shape, K):
    for p in range(K):
        assert np.array_equal(np.broadcast_to(pt.x[p], shape), want.x[p]), p
        assert np.array_equal(np.broadcast_to(pt.omx[p], shape), want.omx[p]), p
        for r in range(p + 1, K):
            assert np.array_equal(np.broadcast_to(pt.gap(p, r), shape), want.gap(p, r)), (p, r)
            assert pt.gap(r, p) is pt.gap(p, r)


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_broadcast_slab_chain_point_equals_stacked_grid(K, monkeypatch):
    # the chain points and weights _psiM_tensor hands the kernel, slab by slab,
    # against the stacked meshgrid and cumprod of the same slab
    from psiM_oracle import from_cube
    from qims import hypint
    from qims.quadrature import tanh_sinh_01
    exps = ExponentsM((F(3, 4),), (F(-2, 7),), F(-1, 2), F(2), K)
    basis = tuple(hypint.enumerate_basis(2, 1, K))
    nodes = 5
    monkeypatch.setattr(hypint, "_SLAB_POINTS", 2 * nodes ** (K - 1))  # slabs of 2, 2, 1 rows
    seen = []
    monkeypatch.setattr(hypint, "_psiM_coeffs", lambda exps, z, pt, logw, basis, i:
                        seen.append((pt, logw)) or (dict.fromkeys(basis, 0.0), {}))
    hypint._psiM_tensor(exps, (0.4,), basis, nodes)
    xs, omxs, ws = tanh_sinh_01(nodes)
    assert len(seen) == 3
    for lo, (pt, logw) in zip((0, 2, 4), seen):
        axes = [xs[lo:lo + 2]] + [xs] * (K - 1)
        v = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        omv = np.stack(np.meshgrid(*[omxs[lo:lo + 2]] + [omxs] * (K - 1), indexing="ij"),
                       axis=-1)
        _assert_same_chain(pt, from_cube(v, omv), v.shape[:-1], K)
        want = np.zeros(v.shape[:-1])
        for j in range(K):
            rows = slice(lo, lo + 2) if j == 0 else slice(None)
            want += (np.log(ws) + (K - 1 - j) * np.log(xs))[rows][
                (slice(None),) + (None,) * (K - 1 - j)]
        assert np.array_equal(logw, want)
        # x_p and 1 - x_p vary along axes 0..p only
        for p in range(K):
            assert pt.x[p].shape == pt.omx[p].shape == v.shape[:p + 1] + (1,) * (K - 1 - p)


@pytest.mark.parametrize("L,N,M", KERNEL_SIZES)
def test_kernel_on_broadcast_grid_equals_stacked_grid(L, N, M):
    # the same values summed in the same order, so equal to the last bit
    from psiM_oracle import from_cube
    from qims.hypint import _ChainPoint, _psiM_coeffs
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
        got = _psiM_coeffs(exps, z, _ChainPoint(per_axis, [1.0 - u for u in per_axis]),
                           logw, basis, i)
        assert got == _psiM_coeffs(exps, z, from_cube(v, 1.0 - v), logw, basis, i)


def test_batch_chain_point_equals_stacked_grid():
    # Monte Carlo and the window probes pass the columns of a (P, K) batch
    from psiM_oracle import from_cube
    from qims.hypint import _ChainPoint
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 1.0, size=(500, 5))
    omv = 1.0 - v
    _assert_same_chain(_ChainPoint(v.T, omv.T), from_cube(v, omv), (500,), 5)


@pytest.mark.parametrize("L,N,M", KERNEL_SIZES)
def test_batched_probe_exponents_match_one_point_probes(L, N, M):
    from psiM_oracle import probe_exponent
    from qims.hypint import _axis_exponents_numeric
    from qims.polyalg import enumerate_basis
    exps = kernel_exps(L, N, M)
    z = tuple(0.45 - 0.17 * k for k in range(N))
    basis = tuple(enumerate_basis(L, N, M))
    K = (L - 1) * M
    measured = _axis_exponents_numeric(exps, z, basis)
    assert [faces for faces, _ in measured[:2 * K]] == [
        [(axis, side)] for axis in range(K) for side in (0, 1)]
    assert len(measured) == 2 * K + 4 * math.comb(K, 2) + 8 * math.comb(K, 3)
    for faces, expo in measured:
        assert expo == probe_exponent(exps, z, basis, faces), faces


def test_window_check_is_one_kernel_call(monkeypatch):
    from qims import hypint
    exps = dictionary_M(m_window_params(2, 2, 3), 3)
    basis = tuple(hypint.enumerate_basis(2, 2, 3))
    calls = []
    kernel = hypint._psiM_coeffs
    monkeypatch.setattr(hypint, "_psiM_coeffs",
                        lambda *a, **k: calls.append(1) or kernel(*a, **k))
    hypint._window_check_M.cache_clear()
    try:
        hypint._window_check_M(exps, basis)
    finally:
        hypint._window_check_M.cache_clear()
    assert len(calls) == 1


def test_slabbed_tensor_equals_one_slab(monkeypatch):
    from qims import hypint
    exps = dictionary_M(m_window_params(2, 1, 3), 3)
    basis = tuple(hypint.enumerate_basis(2, 1, 3))
    nodes = 49  # 13 rows of 49^2 points per slab: 3 full slabs and one of 10 rows
    assert nodes % (hypint._SLAB_POINTS // nodes ** 2) != 0
    calls = []
    kernel = hypint._psiM_coeffs
    monkeypatch.setattr(hypint, "_psiM_coeffs", lambda *a: calls.append(1) or kernel(*a))
    c, d = hypint._psiM_tensor(exps, (0.4,), basis, nodes, 1)
    assert len(calls) == 4
    monkeypatch.setattr(hypint, "_SLAB_POINTS", nodes ** 3)
    c1, d1 = hypint._psiM_tensor(exps, (0.4,), basis, nodes, 1)
    assert len(calls) == 5
    for A in basis:
        assert c[A] == pytest.approx(c1[A], rel=1e-14, abs=0)
        assert d[A] == pytest.approx(d1[A], rel=1e-14, abs=0)


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
