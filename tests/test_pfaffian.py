import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import random_params, random_z, resonant_params
from dense_oracle import (DenseSystem, fraction_flatness, point_flatness,
                          propagate_stagewise, transport_matrix_float)
from qims.errors import ParameterError, PropagationError, SingularityError, SubspaceError
from qims.pfaffian import (PfaffianSystem, ZPath, codim2_flats, flatness_residual, propagate,
                           restricted_residues)
from qims.polyalg import enumerate_basis
from qims.weylops import make_parameters


def v_system(L, N, M, seed=0, planck=1):
    return PfaffianSystem(resonant_params(L, N, M, random.Random(seed),
                                          planck=planck), ("V", M))


def test_restriction_small_example():
    rnd = random.Random(2)
    params = resonant_params(2, 1, 1, rnd)
    mat = PfaffianSystem(params, ("V", 1)).matrix_at(1, (F(2, 5),))
    assert len(mat) == 2 and len(mat[0]) == 2
    assert all(isinstance(x, F) for row in mat for x in row)


def test_resonance_violation_reports_index():
    rnd = random.Random(3)
    params = random_params(2, 1, rnd)  # generic: resonance fails
    with pytest.raises(ParameterError):
        PfaffianSystem(params, ("V", 1))
    # a system built on V(M) with the resonance for M-1 must fail with the
    # overflow location when forced through the builder
    theta = [F(1, 7)]
    kappa = [1 + F(1, 7), F(2, 5)]  # resonance = 1 = M - 1
    params = make_parameters(2, 1, e=[F(1, 3), F(1, 6)], kappa=kappa, theta=theta)
    with pytest.raises(ParameterError):
        PfaffianSystem(params, ("V", 2))


def test_overflow_detection_carries_index():
    # force the out-of-space path directly: V(M) columns built with broken
    # resonance leak one degree up
    rnd = random.Random(4)
    params = resonant_params(2, 1, 1, rnd)
    sys1 = PfaffianSystem(params, ("V", 1))
    # shrink the basis map artificially to trigger the error branch
    from qims.pfaffian import _columns
    from qims.weylops import flatten, hamiltonian_parts
    op = flatten(hamiltonian_parts(1, params)["pole1"], params)
    basis = sys1.basis[:-1]
    with pytest.raises(SubspaceError) as exc:
        _columns(op, basis, {A: k for k, A in enumerate(basis)}, "probe")
    assert exc.value.offending_index is not None


def test_ft_restriction():
    # kappa_m = -T_m keeps F(T) invariant; L=3, T=(1,1)
    theta = [F(1, 7)]
    kappa0 = F(1, 3)
    params = make_parameters(3, 1, e=[F(1, 2), F(1, 3), F(1, 6)],
                             kappa=[kappa0, F(-1), F(-1)], theta=theta)
    system = PfaffianSystem(params, ("F", (1, 1)))
    assert system.dim == 4
    mat = system.matrix_at(1, (F(2, 5),))
    assert len(mat) == 4
    # violated level cap reported
    bad = make_parameters(3, 1, e=[F(1, 2), F(1, 3), F(1, 6)],
                          kappa=[kappa0, F(-1), F(-2)], theta=theta)
    with pytest.raises(ParameterError):
        PfaffianSystem(bad, ("F", (1, 1)))


@pytest.mark.parametrize("L,N,M", [(2, 3, 3), (3, 2, 2), (4, 1, 3), (2, 1, 199)])
def test_v_restriction_full_basis_no_overflow(L, N, M):
    system = v_system(L, N, M, seed=L * 10 + N)
    assert system.dim <= 200
    for i in range(1, N + 1):
        system.matrix_at(i, random_z(N, random.Random(7)))


def test_flatness_exact_commutator_and_derivative():
    r = flatness_residual(v_system(2, 2, 1, seed=5))
    assert r.commutator == 0 and r.derivative_rel == 0 and r.conditions == 6
    assert isinstance(r.commutator, F) and isinstance(r.derivative_rel, F)


@pytest.mark.parametrize("N,flats,conditions", [(1, 0, 0), (2, 4, 6), (3, 19, 26),
                                                (4, 55, 71)])
def test_codim2_flats_counted(N, flats, conditions):
    # 2 hyperplanes through a flat where two pairs of points meet, 3 where a
    # triple meets; one commutator per flat is implied by the others
    found = codim2_flats(N)
    assert len(found) == flats
    assert sum(len(hs) - 1 for hs in found) == conditions
    assert all(len(hs) in (2, 3) and (0, 1) not in hs for hs in found)


def central_difference(system, z, i, j, h=1e-5):
    """Float oracle for d M_j / d z_i from matrix_float."""
    def at(delta):
        zz = [complex(x) for x in z]
        zz[i - 1] += delta
        return system.matrix_float(j, zz)
    return (at(h) - at(-h)) / (2 * h)


@pytest.mark.parametrize("z", [(F(1, 4), F(2, 3)), (0.3 + 0.2j, 0.7 - 0.1j)])
@pytest.mark.parametrize("i,j", [(1, 2), (2, 1)])
def test_cross_derivative_matches_central_difference(z, i, j):
    # the dense closed form K_ji/(z_i - z_j)^2 against the residue form's matrix_float
    params = resonant_params(3, 2, 1, random.Random(11))
    exact = np.array(DenseSystem(params, 1).cross_derivative(z, i, j), dtype=complex)
    oracle = central_difference(PfaffianSystem(params, ("V", 1)), z, i, j)
    assert np.abs(exact).max() > 0
    assert np.abs(exact - oracle).max() <= 1e-8 * np.abs(exact).max()


def plant(rows, a, b, x):
    rows[a][b] = rows[a].get(b, 0) + x


def planted_v_system():
    system = v_system(2, 2, 2, seed=5)
    # V_1 enters M_1 as V_1/(z_1 - 1) - V_1/z_1
    plant(system.residues[1][1], 0, 1, F(1, 5))
    plant(system.residues[1][0], 0, 1, -F(1, 5))
    return system


def asymmetric_k_system():
    system = v_system(2, 2, 1, seed=5)
    plant(system.residues[1][3], 0, 0, 1)  # d_2 M_1 gains 1/(z_1 - z_2)^2 at entry (0, 0)
    return system


def small_asymmetric_k_system():
    # every K entry below 1, so the symmetry defect's max(1, |K_ij|, |K_ji|) is 1
    system = v_system(2, 2, 1, seed=5)
    system.residues[1][3] = [{0: F(1, 3)}] + [{} for _ in range(system.dim - 1)]
    system.residues[2][2] = [{} for _ in range(system.dim)]
    return system


def test_flatness_negative_control_asymmetric_K():
    system = asymmetric_k_system()
    K12, K21 = system.residues[1][3], system.residues[2][2]
    scale = max([F(1)] + [abs(x) for K in (K12, K21) for row in K for x in row.values()])
    assert flatness_residual(system).derivative_rel == 1 / scale != 0


def test_flatness_negative_control_planted_V():
    r = flatness_residual(planted_v_system())
    assert r.commutator > 0 and isinstance(r.commutator, F) and r.derivative_rel == 0


def test_flatness_single_time_trivial():
    r = flatness_residual(v_system(2, 1, 1, seed=6))
    assert r.commutator == 0 and r.derivative_rel == 0 and r.conditions == 0


def test_matrices_commute_at_many_exact_points():
    rnd = random.Random(8)
    for (L, N, M) in [(2, 2, 1), (3, 2, 1)]:
        dense = DenseSystem(resonant_params(L, N, M, random.Random(L + N)), M)
        for _ in range(20):
            assert point_flatness(dense, random_z(N, rnd), 1, 2) == (0, 0)


ORACLE_SIZES = [(2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 2), (4, 2, 1), (2, 4, 1), (3, 3, 1)]


@pytest.mark.parametrize("L,N,M", ORACLE_SIZES)
def test_residue_form_matches_dense_assembly(L, N, M):
    rnd = random.Random(100 * L + 10 * N + M)
    params = resonant_params(L, N, M, rnd)
    system, dense = PfaffianSystem(params, ("V", M)), DenseSystem(params, M)
    z = random_z(N, rnd)
    for i in range(1, N + 1):
        assert system.matrix_at(i, z) == dense.matrix_at(i, z)
    r = flatness_residual(system)
    assert r.commutator == 0 and r.derivative_rel == 0
    assert point_flatness(dense, z, 1, 2) == (0, 0)


@pytest.mark.parametrize("L,N,M", ORACLE_SIZES)
def test_one_index_restriction_equals_the_system_residues(L, N, M):
    # compare_cohomology_operator restricts one H_i through this helper
    params = resonant_params(L, N, M, random.Random(100 * L + 10 * N + M))
    system = PfaffianSystem(params, ("V", M))
    basis = enumerate_basis(L, N, M)
    index_of = {A: k for k, A in enumerate(basis)}
    for i in range(1, N + 1):
        assert restricted_residues(params, i, basis, index_of, f"V{M}") == system.residues[i]


def ft_system():
    params = make_parameters(3, 2, e=[F(1, 2), F(1, 3), F(1, 6)],
                             kappa=[F(1, 3), F(-2), F(-1)], theta=[F(1, 7), F(2, 9)])
    return PfaffianSystem(params, ("F", (2, 1)))


@pytest.mark.parametrize("build", [
    *[lambda L=L, N=N, M=M: PfaffianSystem(
        resonant_params(L, N, M, random.Random(100 * L + 10 * N + M)), ("V", M))
      for L, N, M in ORACLE_SIZES],
    ft_system, planted_v_system, asymmetric_k_system, small_asymmetric_k_system],
    ids=[f"L{L}N{N}M{M}" for L, N, M in ORACLE_SIZES]
    + ["F21", "planted_V", "asymmetric_K", "small_asymmetric_K"])
def test_integer_flatness_matches_fraction_oracle(build):
    system = build()
    got, want = flatness_residual(system), fraction_flatness(system)
    assert got == want
    assert all(type(x) is F for x in got[:2] + want[:2])
    assert got.conditions == want.conditions == sum(
        len(hs) - 1 for hs in codim2_flats(system.params.N))


def closed_loop(N, rnd):
    z = [float(x) for x in random_z(N, rnd)]
    return [z, [x + 0.03 + 0.05j * (k + 1) for k, x in enumerate(z)],
            [x - 0.02 + 0.04j for x in z], z]


@pytest.mark.parametrize("L,N,M", ORACLE_SIZES)
def test_array_step_matches_stagewise_oracle(L, N, M):
    # the array form sums the stages in another order: same steps, last digits move
    rnd = random.Random(100 * L + 10 * N + M)
    system = PfaffianSystem(resonant_params(L, N, M, rnd), ("V", M))
    path = ZPath(closed_loop(N, rnd))
    c0 = np.array([rnd.uniform(-1, 1) for _ in range(system.dim)], dtype=complex)
    want, want_stats = propagate_stagewise(system, path, c0)
    # a block of two equal columns has the vector's RMS error, so the same steps
    for start in (c0, np.column_stack([c0, c0])):
        got, stats = propagate(system, path, start, with_stats=True)
        assert stats == want_stats and got.shape == start.shape
        assert np.abs(got.T - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("L,N,M", ORACLE_SIZES)
def test_residue_transport_matches_matrix_float_transport(L, N, M):
    rnd = random.Random(100 * L + 10 * N + M)
    system = PfaffianSystem(resonant_params(L, N, M, rnd), ("V", M))
    z = [float(x) for x in random_z(N, rnd)]
    waypoints = [z, [x + 0.03 + 0.05j * (k + 1) for k, x in enumerate(z)]]
    c0 = np.array([rnd.uniform(-1, 1) for _ in range(system.dim)], dtype=complex)
    got = propagate(system, ZPath(waypoints), c0, rtol=1e-12, atol=1e-14)
    want = transport_matrix_float(system, waypoints, c0, rtol=1e-12, atol=1e-14)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_zpath_guards():
    with pytest.raises(SingularityError):
        ZPath([(0.5,), (1.0,)])        # hits z=1
    with pytest.raises(SingularityError):
        ZPath([(0.4, 0.7), (0.7, 0.4)])  # crosses z_1 = z_2
    p = ZPath([(0.4, 0.7), (0.45, 0.72)])
    assert p.dim == 2 and not p.is_closed()


def test_propagate_trivial_cases():
    system = v_system(2, 2, 1, seed=9)
    c0 = np.array([1.0, -0.5, 0.25])
    out = propagate(system, ZPath([(0.4, 0.7)]), c0)
    assert np.array_equal(out, c0)
    out = propagate(system, ZPath([(0.4, 0.7), (0.5, 0.8)]), np.zeros(3))
    assert np.all(out == 0)
    block = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(propagate(system, ZPath([(0.4, 0.7)]), block), block)
    for bad in (np.zeros(2), np.zeros((2, 3)), np.zeros((3, 1, 1)), np.float64(1)):
        with pytest.raises(ParameterError, match="c0 must have shape"):
            propagate(system, ZPath([(0.4, 0.7)]), bad)


@pytest.mark.parametrize("waypoints", [[(0.4, 0.7), (math.nan, 0.8)], [(math.inf, 0.7)],
                                       [(complex(0.5, math.nan),)]])
def test_zpath_rejects_non_finite_waypoints(waypoints):
    # every pole-guard comparison with NaN is false, so the guard alone let these through
    with pytest.raises(ParameterError, match="finite"):
        ZPath(waypoints)


@pytest.mark.parametrize("c0,end,rtol", [([math.nan, 0, 0], 0.5, 1e-10),
                                         ([1, 0, 0], 0.5, math.nan)])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_propagate_non_finite_input_raises(c0, end, rtol):
    # a NaN error estimate once grew the step forever instead of failing
    system = v_system(2, 2, 1, seed=9)
    with pytest.raises(PropagationError, match="non-finite") as exc:
        propagate(system, ZPath([(0.4, 0.7), (end, 0.8)]), np.array(c0), rtol=rtol)
    assert exc.value.location == (0, 0.0)


def test_propagate_path_independence():
    system = v_system(2, 2, 1, seed=10)
    c0 = np.array([1.0, 0.3, -0.2])
    rtol = 1e-10
    a = propagate(system, ZPath([(0.35, 0.7), (0.5, 0.8)]), c0, rtol=rtol)
    b = propagate(system, ZPath([(0.35, 0.7), (0.38, 0.82), (0.5, 0.8)]), c0,
                  rtol=rtol)
    assert np.abs(a - b).max() <= 10 * rtol * max(1.0, np.abs(a).max())
    # tolerance-halving convergence oracle
    tight = propagate(system, ZPath([(0.35, 0.7), (0.5, 0.8)]), c0, rtol=rtol / 10,
                      atol=1e-13)
    assert np.abs(a - tight).max() <= 10 * rtol * max(1.0, np.abs(a).max())


def test_propagate_linearity():
    system = v_system(2, 2, 1, seed=11)
    rtol = 1e-10
    path = ZPath([(0.35, 0.7), (0.45, 0.75)])
    c0 = np.array([1.0, 0.0, 0.5])
    c1 = np.array([0.2, -1.0, 0.1])
    al, be = 1.7, -0.6
    lhs = propagate(system, path, al * c0 + be * c1, rtol=rtol)
    rhs = al * propagate(system, path, c0, rtol=rtol) + be * propagate(
        system, path, c1, rtol=rtol)
    assert np.abs(lhs - rhs).max() <= 5 * rtol * max(1.0, np.abs(lhs).max())


def test_monodromy_contractible_and_degenerate():
    system = v_system(2, 2, 1, seed=12)
    c0 = np.array([1.0, 0.2, -0.1])
    rtol = 1e-10
    loop = ZPath([(0.4, 0.7), (0.45, 0.73), (0.42, 0.75), (0.4, 0.7)])
    out = propagate(system, loop, c0, rtol=rtol)
    assert np.abs(out - c0).max() <= 10 * rtol * max(1.0, np.abs(c0).max())
    out = propagate(system, ZPath([(0.4, 0.7), (0.4, 0.7)]), c0)
    assert np.array_equal(out, c0)


def test_monodromy_collision_loop_composition():
    # loop around z_1 = z_2 in complex z: transported vector recorded; two
    # traversals compose
    system = v_system(2, 2, 1, seed=13, planck=2)
    c0 = np.array([1.0, 0.4, -0.3], dtype=complex)
    # octagonal loop whose difference z_1 - z_2 winds once around 0
    r = 0.1
    import cmath
    pts = []
    for k in range(8):
        w = r * cmath.exp(2j * cmath.pi * k / 8)
        pts.append((0.5 + w / 2, 0.5 - w / 2))
    pts.append(pts[0])
    loop = ZPath(pts)
    rtol = 1e-11
    once = propagate(system, loop, c0, rtol=rtol)
    twice = propagate(system, loop, once, rtol=rtol)
    double = ZPath(pts + pts[1:])
    direct = propagate(system, double, c0, rtol=rtol)
    assert np.abs(direct - twice).max() <= 20 * rtol * max(1.0, np.abs(twice).max())
    # a genuine monodromy-like action: the loop need not act trivially
    assert once.shape == c0.shape


def test_matrix_float_matches_exact():
    system = v_system(3, 2, 1, seed=14)
    z = (F(2, 5), F(3, 7))
    exact = system.matrix_at(1, z)
    approx = system.matrix_float(1, [float(x) for x in z])
    err = max(abs(complex(exact[a][b]) - approx[a, b])
              for a in range(system.dim) for b in range(system.dim))
    assert err < 1e-12


def circle(center, radius=0.1, n=16):
    return [center + radius * cmath.exp(2j * cmath.pi * k / n) for k in range(n + 1)]


@pytest.mark.parametrize("L,N,M,key,planck", [
    (2, 1, 2, (1, 0), 1), (3, 1, 1, (1, 0), 2), (2, 1, 4, (1, 0), 2),
    (2, 1, 2, (1, 1), 2), (3, 1, 1, (1, 1), 1), (2, 1, 4, (1, 1), 2),
    (2, 2, 1, (1, 3), 1), (2, 2, 2, (1, 3), 2)])
def test_monodromy_about_one_hyperplane(L, N, M, key, planck):
    # a loop about one hyperplane H alone has eigenvalues exp(2 pi i lambda / planck)
    # for lambda in spec(A_H), whatever integrator carries the solutions round
    system = v_system(L, N, M, seed=17 + L + M, planck=planck)
    if N == 1:
        loop = [(z,) for z in circle(key[1])]
    else:  # z_1 - z_2 winds once about 0 while z_1 + z_2 stays put
        loop = [(0.5 + w / 2, 0.5 - w / 2) for w in circle(0)]
    T = propagate(system, ZPath(loop), np.eye(system.dim), rtol=1e-11, atol=1e-13)
    want = np.exp(2j * np.pi * np.linalg.eigvals(system.residue_array([key])) / planck)
    cost = np.abs(want[:, None] - np.linalg.eigvals(T)[None, :])
    rows, cols = linear_sum_assignment(cost)
    # measured 4e-13 to 1.7e-10: the eigenvalues of T amplify its rtol-relative
    # error by their condition number, which reaches 300 at L2M4 about z = 1
    assert cost[rows, cols].max() <= 1e-8
