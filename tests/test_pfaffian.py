import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import random_params, random_z, resonant_params
from dense_oracle import (DenseSystem, fraction_columns, fraction_flatness, fraction_residues,
                          fractions, point_flatness, propagate_stagewise,
                          transport_matrix_float, zpath_guard)
from qims.errors import ParameterError, PropagationError, SingularityError, SubspaceError
from qims.pfaffian import (PfaffianSystem, ZPath, _cleared, codim2_flats, flatness_residual,
                           propagate, restricted_residues)
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
    # M must be an int: 1.5 and True once built V(1) on a V(1)-resonant point
    params = resonant_params(2, 1, 1, rnd)
    for M in (1.5, True, F(1), "1"):
        with pytest.raises(ParameterError, match="integer M"):
            PfaffianSystem(params, ("V", M))


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
    # the integer rows report what the Fraction oracle reports
    with pytest.raises(SubspaceError) as want:
        fraction_columns(op, basis, {A: k for k, A in enumerate(basis)}, "probe")
    assert str(exc.value) == str(want.value)
    assert exc.value.offending_index == want.value.offending_index
    assert exc.value.coefficient == want.value.coefficient
    assert type(exc.value.coefficient) is F


def test_columns_reduce_to_lowest_terms():
    # (1/2) q p maps q^2 to q^2: den 2 times the entry is 2, which the residue divides out
    from qims.pfaffian import _columns
    from qims.weylops import Mul, P, Q, Sc, flatten
    params = resonant_params(2, 1, 1, random.Random(4))
    op = flatten(Mul(Sc(F(1, 2)), Q(1, 1), P(1, 1)), params)
    assert op.den == 2 and op.image((2,)) == {(2,): 2}
    assert _columns(op, [(2,)], {(2,): 0}, "probe") == (1, [{0: 1}])


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
    # each cap must be an int: (1.5, 1) and (True, 1) once built F((1, 1));
    # a bare int is no sequence of caps
    for T in ((1.5, 1), (True, 1), (1, 1.0), 1):
        with pytest.raises(ParameterError, match="integer caps"):
            PfaffianSystem(params, ("F", T))


@pytest.mark.parametrize("L,N,M", [(2, 3, 3), (3, 2, 2), (4, 1, 3), (2, 1, 199)])
def test_v_restriction_full_basis_no_overflow(L, N, M):
    system = v_system(L, N, M, seed=L * 10 + N)
    assert system.dim <= 200
    for i in range(1, N + 1):
        system.matrix_at(i, random_z(N, random.Random(7)))


@pytest.mark.parametrize("call,message", [
    (lambda s: s.matrix_at(0, (F(3, 10), F(3, 5))), "time index i=0 out of range 1..2"),
    (lambda s: s.matrix_at(3, (F(3, 10), F(3, 5))), "time index i=3 out of range 1..2"),
    (lambda s: s.matrix_at(1, (F(3, 10),)), "z must have length N=2"),
    (lambda s: s.matrix_float(3, [0.3, 0.6]), "time index i=3 out of range 1..2"),
    (lambda s: s.matrix_float(1, [0.3]), "z must have length N=2"),
    (lambda s: s.matrix_float(1, [0.3, 0.6, 0.9]), "z must have length N=2")],
    ids=["at_i0", "at_i3", "at_short_z", "float_i3", "float_short_z", "float_long_z"])
def test_matrix_rejects_a_bad_time_index_or_z_length(call, message):
    system = PfaffianSystem(resonant_params(2, 2, 1, random.Random(3)), ("V", 1))
    with pytest.raises(ParameterError) as exc:
        call(system)
    assert str(exc.value) == message


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


def plant(system, frac, i, p, a, b, x):
    """Add x to entry (a, b) of residue (i, p) in the Fraction residues ``frac``
    and store that residue re-cleared in ``system``."""
    rows = frac[i][p]
    rows[a][b] = rows[a].get(b, 0) + x
    system.residues[i][p] = _cleared(rows)


def with_oracle(system):
    return system, fraction_residues(system)


def planted_v_system():
    system, frac = with_oracle(v_system(2, 2, 2, seed=5))
    # V_1 enters M_1 as V_1/(z_1 - 1) - V_1/z_1
    plant(system, frac, 1, 1, 0, 1, F(1, 5))
    plant(system, frac, 1, 0, 0, 1, -F(1, 5))
    return system, frac


def asymmetric_k_system():
    system, frac = with_oracle(v_system(2, 2, 1, seed=5))
    plant(system, frac, 1, 3, 0, 0, 1)  # d_2 M_1 gains 1/(z_1 - z_2)^2 at entry (0, 0)
    return system, frac


def small_asymmetric_k_system():
    # every K entry below 1, so the symmetry defect's max(1, |K_ij|, |K_ji|) is 1
    system, frac = with_oracle(v_system(2, 2, 1, seed=5))
    frac[1][3] = [{0: F(1, 3)}] + [{} for _ in range(system.dim - 1)]
    frac[2][2] = [{} for _ in range(system.dim)]
    for i, p in ((1, 3), (2, 2)):
        system.residues[i][p] = _cleared(frac[i][p])
    return system, frac


def test_flatness_negative_control_asymmetric_K():
    system, frac = asymmetric_k_system()
    K12, K21 = frac[1][3], frac[2][2]
    scale = max([F(1)] + [abs(x) for K in (K12, K21) for row in K for x in row.values()])
    assert flatness_residual(system).derivative_rel == 1 / scale != 0


def test_flatness_negative_control_planted_V():
    r = flatness_residual(planted_v_system()[0])
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


def test_each_time_is_restricted_once_on_first_use(monkeypatch):
    built = []
    monkeypatch.setattr("qims.pfaffian.restricted_residues",
                        lambda params, i, *args: built.append(i)
                        or restricted_residues(params, i, *args))
    system = v_system(2, 3, 1, seed=4)
    exact = system.matrix_at(2, (F(1, 5), F(1, 2), F(7, 10)))
    decimal = system.matrix_float(2, (0.2, 0.5, 0.7))
    assert np.abs(np.array(exact, dtype=complex) - decimal).max() < 1e-12
    assert built == [2]
    # reading every time restricts the rest in order and reuses H_2's
    assert list(system.residues) == [1, 2, 3] and built == [2, 1, 3]
    flatness_residual(system)
    assert built == [2, 1, 3]


def ft_system(T=(2, 1)):
    params = make_parameters(3, 2, e=[F(1, 2), F(1, 3), F(1, 6)],
                             kappa=[F(1, 3), F(-T[0]), F(-T[1])], theta=[F(1, 7), F(2, 9)])
    return PfaffianSystem(params, ("F", T))


def oracle_system(L, N, M):
    return PfaffianSystem(resonant_params(L, N, M, random.Random(100 * L + 10 * N + M)),
                          ("V", M))


@pytest.mark.parametrize("build", [
    *[lambda L=L, N=N, M=M: oracle_system(L, N, M) for L, N, M in ORACLE_SIZES],
    lambda: ft_system((2, 2))], ids=[f"L{L}N{N}M{M}" for L, N, M in ORACLE_SIZES] + ["F22"])
def test_integer_residues_match_fraction_oracle(build):
    system = build()
    want = fraction_residues(system)
    assert system.residues.keys() == want.keys()
    for i, res in system.residues.items():
        assert res.keys() == want[i].keys()
        for p, (den, rows) in res.items():
            assert fractions((den, rows)) == want[i][p]
            # lowest terms: equal residues are equal pairs
            assert den > 0 and all(x for row in rows for x in row.values())
            assert math.gcd(den, *(x for row in rows for x in row.values())) == 1


@pytest.mark.parametrize("build", [
    *[lambda L=L, N=N, M=M: with_oracle(oracle_system(L, N, M)) for L, N, M in ORACLE_SIZES],
    lambda: with_oracle(ft_system()), planted_v_system, asymmetric_k_system,
    small_asymmetric_k_system],
    ids=[f"L{L}N{N}M{M}" for L, N, M in ORACLE_SIZES]
    + ["F21", "planted_V", "asymmetric_K", "small_asymmetric_K"])
def test_integer_flatness_matches_fraction_oracle(build):
    system, frac = build()
    got, want = flatness_residual(system), fraction_flatness(system.params.N, frac)
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
    # the Taylor series at rtol lands within rtol of adaptive DP5 run at rtol/100
    # (measured: at most 0.11 rtol, at L3N3M2), as a vector and as each column
    # of a block of two equal columns
    rnd = random.Random(100 * L + 10 * N + M)
    system = PfaffianSystem(resonant_params(L, N, M, rnd), ("V", M))
    path = ZPath(closed_loop(N, rnd))
    c0 = np.array([rnd.uniform(-1, 1) for _ in range(system.dim)], dtype=complex)
    rtol = 1e-10
    want = propagate_stagewise(system, path, c0, rtol=rtol / 100, atol=1e-14)
    for start in (c0, np.column_stack([c0, c0])):
        got, _ = propagate(system, path, start, rtol=rtol)
        assert got.shape == start.shape
        assert np.abs(got.T - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("N,M,waypoints", [
    (1, 2, [(0.7 + 6.01e-4j,), (1.3 + 6.01e-4j,)]),                   # passes z_1 = 1
    (2, 1, [(0.4 + 2.01e-4j, 0.6 - 2.01e-4j), (0.6 + 2.01e-4j, 0.4 - 2.01e-4j)])],
    ids=["z=1", "z1=z2"])
def test_propagate_grazing_a_pole_matches_dop853(N, M, waypoints):
    # each segment passes its hyperplane just outside the ZPath guard, where
    # steps of 0.4 of the pole distance are shortest; the residue there has
    # exponents spec/planck in [0, 1], so the solutions stay bounded past the
    # pole, and each step may add rtol |c| (measured: 9.1e-13 and 6.9e-12 in
    # 35 steps)
    system = v_system(2, N, M, seed=7, planck=2)
    path = ZPath(waypoints)
    c0 = np.array([random.Random(7).uniform(-1, 1) for _ in range(system.dim)], dtype=complex)
    rtol = 1e-12
    got, stats = propagate(system, path, c0, rtol=rtol, atol=1e-14)
    want = transport_matrix_float(system, waypoints, c0, rtol=1e-13, atol=1e-15)
    assert stats.steps > 30
    assert np.abs(got - want).max() <= stats.steps * rtol * np.abs(want).max()


def test_propagate_large_exponents_match_dop853():
    # at planck 1/8 the residue at 0 has exponent -128: with steps of 0.4 of
    # the pole distance alone the series cancels catastrophically (given 1000
    # orders it returned a relative error of 7.5e71); the rate cap keeps the
    # cancellation bounded (measured: 8e-16 in 85 steps)
    system = v_system(2, 1, 2, seed=7, planck=F(1, 8))
    waypoints, c0 = [(0.05,), (0.5,)], np.array([1.0, -0.5, 0.25], dtype=complex)
    rtol = 1e-10
    got, stats = propagate(system, ZPath(waypoints), c0, rtol=rtol)
    want = transport_matrix_float(system, waypoints, c0, rtol=1e-12, atol=1e-300)
    assert np.abs(got - want).max() <= stats.steps * rtol * np.abs(want).max()


def test_propagate_unsettled_series_raises():
    # the terms shrink geometrically, so reaching 1e-300 |c| takes hundreds of
    # orders (781 in two steps with no cap), more than the cap allows per step
    system = v_system(2, 2, 1, seed=9)
    with pytest.raises(PropagationError, match="unsettled") as exc:
        propagate(system, ZPath([(0.4, 0.7), (0.5, 0.8)]), np.ones(3), rtol=1e-300,
                  atol=1e-300)
    assert exc.value.location == (0, 0.0)


@pytest.mark.parametrize("L,N,M", ORACLE_SIZES)
def test_residue_transport_matches_matrix_float_transport(L, N, M):
    rnd = random.Random(100 * L + 10 * N + M)
    system = PfaffianSystem(resonant_params(L, N, M, rnd), ("V", M))
    z = [float(x) for x in random_z(N, rnd)]
    waypoints = [z, [x + 0.03 + 0.05j * (k + 1) for k, x in enumerate(z)]]
    c0 = np.array([rnd.uniform(-1, 1) for _ in range(system.dim)], dtype=complex)
    got, _ = propagate(system, ZPath(waypoints), c0, rtol=1e-12, atol=1e-14)
    want = transport_matrix_float(system, waypoints, c0, rtol=1e-12, atol=1e-14)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_zpath_guards():
    # propagate guards every segment, a repeated waypoint included; ZPath does not
    system = v_system(2, 2, 1, seed=9)
    with pytest.raises(SingularityError, match="segment 1 passes within 0 "):
        propagate(system, ZPath([(0.4, 0.7), (0.45, 0.72), (0.7, 0.4)]), np.ones(3))
    with pytest.raises(SingularityError, match="segment 0 passes within 0 "):
        propagate(v_system(2, 1, 1, seed=9), ZPath([(0.5,), (1.0,)]), np.ones(2))
    with pytest.raises(SingularityError, match=r"segment 0 passes within 0 .* \(guard 0\)"):
        propagate(system, ZPath([(0.0, 0.7), (0.0, 0.7)]), np.ones(3))
    assert ZPath([(0.4, 0.7), (0.7, 0.4)]).dim == 2


def near_pole_segments(N, rnd, count):
    """Straight segments past the hyperplanes z_i = 0, z_i = 1 and z_i = z_j at
    1e-4 to 1e-2 of their length, the guard being 1e-3; one in 20 is a repeated
    waypoint, half of those on a hyperplane exactly."""
    def cplx(r):
        return complex(rnd.uniform(-r, r), rnd.uniform(-r, r))

    for _ in range(count):
        i, kind = rnd.randrange(N), rnd.choice(["0", "1", "z_j"])
        z = [complex(rnd.uniform(-0.5, 1.5), rnd.uniform(-0.5, 0.5)) for _ in range(N)]
        if rnd.random() < 0.05:
            if rnd.random() < 0.5:
                z[i] = {"0": 0j, "1": 1 + 0j}.get(kind, z[(i + 1) % N])
            yield z, list(z)
            continue
        length = 10 ** rnd.uniform(-2, 0)
        d = [cplx(1) for _ in range(N)]
        d = [x * length / math.sqrt(sum(abs(y) ** 2 for y in d)) for x in d]
        s, off = rnd.uniform(-0.1, 1.1), length * 10 ** rnd.uniform(-4, -2) * cmath.exp(
            2j * math.pi * rnd.random())
        if kind == "z_j":  # z_i - z_j = sqrt 2 off at s, off away from the hyperplane
            j = (i + 1 + rnd.randrange(N - 1)) % N
            z[i] = z[j] + math.sqrt(2) * off - s * (d[i] - d[j])
        else:
            z[i] = int(kind) + off - s * d[i]
        yield z, [x + y for x, y in zip(z, d)]


@pytest.mark.parametrize("N", [2, 3])
def test_propagate_guard_matches_zpath_oracle(N):
    # propagate rejects exactly the segments the per-variable geometry of
    # zpath_guard rejects, with the same message; with NaN in c0 a segment the
    # guard passes fails on its first Taylor term instead of being transported
    system = v_system(2, N, 1, seed=9)
    nan = np.full(system.dim, np.nan)
    outcomes = []
    for wa, wb in near_pole_segments(N, random.Random(N), 1200):
        want = got = None
        try:
            zpath_guard([wa, wb])
        except SingularityError as exc:
            want = str(exc)
        try:
            propagate(system, ZPath([wa, wb]), nan)
        except SingularityError as exc:
            got = str(exc)
        except PropagationError:
            pass
        assert got == want, (wa, wb)
        outcomes.append(want is None)
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.8


@pytest.mark.parametrize("rtol", [1e-8, 1e-10, 1e-12, 1e-14])
def test_propagate_raises_when_rounding_swamps_the_endpoint(rtol):
    # past z_1 = 0 at 6e-4, just outside the guard, the exponents -16 and -9
    # of A_0 grow c to 1e43 and back, so rounding leaves O(1) relative error
    # in the endpoint (it differed by O(1) from one rtol to the next)
    system = v_system(2, 1, 2, seed=7)
    path = ZPath([(-0.3 + 6.0006e-4j,), (0.3 + 6.0006e-4j,)])
    c0 = np.array([random.Random(7).uniform(-1, 1) for _ in range(system.dim)], dtype=complex)
    with pytest.raises(PropagationError, match="lost accuracy") as exc:
        propagate(system, path, c0, rtol=rtol, atol=1e-14)
    assert exc.value.location == (0, 1.0)
    # a path without a step adds no rounding, whatever rtol asks
    out, _ = propagate(system, ZPath(path.waypoints[:1]), c0, rtol=1e-20, atol=1e-300)
    assert np.array_equal(out, c0)


def test_propagate_trivial_cases():
    system = v_system(2, 2, 1, seed=9)
    c0 = np.array([1.0, -0.5, 0.25])
    out, _ = propagate(system, ZPath([(0.4, 0.7)]), c0)
    assert np.array_equal(out, c0)
    out, _ = propagate(system, ZPath([(0.4, 0.7), (0.5, 0.8)]), np.zeros(3))
    assert np.all(out == 0)
    block = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(propagate(system, ZPath([(0.4, 0.7)]), block)[0], block)
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
    a, _ = propagate(system, ZPath([(0.35, 0.7), (0.5, 0.8)]), c0, rtol=rtol)
    b, _ = propagate(system, ZPath([(0.35, 0.7), (0.38, 0.82), (0.5, 0.8)]), c0,
                     rtol=rtol)
    assert np.abs(a - b).max() <= 10 * rtol * max(1.0, np.abs(a).max())
    # tolerance-halving convergence oracle
    tight, _ = propagate(system, ZPath([(0.35, 0.7), (0.5, 0.8)]), c0, rtol=rtol / 10,
                         atol=1e-13)
    assert np.abs(a - tight).max() <= 10 * rtol * max(1.0, np.abs(a).max())


def test_propagate_linearity():
    system = v_system(2, 2, 1, seed=11)
    rtol = 1e-10
    path = ZPath([(0.35, 0.7), (0.45, 0.75)])
    c0 = np.array([1.0, 0.0, 0.5])
    c1 = np.array([0.2, -1.0, 0.1])
    al, be = 1.7, -0.6
    lhs, _ = propagate(system, path, al * c0 + be * c1, rtol=rtol)
    rhs = al * propagate(system, path, c0, rtol=rtol)[0] + be * propagate(
        system, path, c1, rtol=rtol)[0]
    assert np.abs(lhs - rhs).max() <= 5 * rtol * max(1.0, np.abs(lhs).max())


def test_monodromy_contractible_and_degenerate():
    system = v_system(2, 2, 1, seed=12)
    c0 = np.array([1.0, 0.2, -0.1])
    rtol = 1e-10
    loop = ZPath([(0.4, 0.7), (0.45, 0.73), (0.42, 0.75), (0.4, 0.7)])
    out, _ = propagate(system, loop, c0, rtol=rtol)
    assert np.abs(out - c0).max() <= 10 * rtol * max(1.0, np.abs(c0).max())
    out, _ = propagate(system, ZPath([(0.4, 0.7), (0.4, 0.7)]), c0)
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
    once, _ = propagate(system, loop, c0, rtol=rtol)
    twice, _ = propagate(system, loop, once, rtol=rtol)
    double = ZPath(pts + pts[1:])
    direct, _ = propagate(system, double, c0, rtol=rtol)
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
    T, _ = propagate(system, ZPath(loop), np.eye(system.dim), rtol=1e-11, atol=1e-13)
    want = np.exp(2j * np.pi * np.linalg.eigvals(system.residue_array([key])) / planck)
    cost = np.abs(want[:, None] - np.linalg.eigvals(T)[None, :])
    rows, cols = linear_sum_assignment(cost)
    # measured 4e-13 to 1.7e-10: the eigenvalues of T amplify its rtol-relative
    # error by their condition number, which reaches 300 at L2M4 about z = 1
    assert cost[rows, cols].max() <= 1e-8
