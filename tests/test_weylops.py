import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import random_params, random_z, resonant_params
from qims import weylops
from qims.errors import ParameterError, SingularityError, StructureError
from qims.polyalg import enumerate_basis, flat_pos, lin
from qims.weylops import (Add, Mul, P, Q, Sc, ahat_commutator_residual,
                          braid_residual_adjacent, braid_residual_disjoint,
                          commutator_residual, flatten, garnier_example_residual,
                          hamiltonian, hamiltonian_flat, make_parameters)


@pytest.fixture
def p21():
    return make_parameters(2, 1, e=[F(1, 3), F(1, 6)], kappa=[F(2, 7), F(3, 5)],
                           theta=[F(1, 11)])


def test_parameter_constraints_enforced():
    with pytest.raises(ParameterError):
        make_parameters(2, 1, e=[F(1, 3), F(1, 3)], kappa=[F(1), F(1)], theta=[F(1)])
    with pytest.raises(ParameterError):
        make_parameters(2, 1, e=[F(1, 4), F(1, 4)], kappa=[F(1), F(1)],
                        theta=[F(1)], theta0=F(5))
    with pytest.raises(ParameterError):
        make_parameters(2, 1, e=[F(1, 4), F(1, 4)], kappa=[F(1), F(1)],
                        theta=[F(1)], planck=0)


@pytest.mark.parametrize("hbar", [0, F(0), 0.0])
def test_zero_hbar_rejected(hbar):
    # [p, q] = hbar = 0 leaves the entry commutator relations nothing to divide by
    with pytest.raises(ParameterError, match="hbar must be nonzero"):
        make_parameters(2, 1, e=[F(1, 4), F(1, 4)], kappa=[F(1), F(1)],
                        theta=[F(1)], hbar=hbar)


def test_theta0_derived_and_checked(p21):
    assert p21.theta[0] == F(2, 7) + F(3, 5) - F(1, 11)
    q = make_parameters(2, 1, e=[F(1, 3), F(1, 6)], kappa=[F(2, 7), F(3, 5)],
                        theta=[F(1, 11)], theta0=p21.theta[0])
    assert q.theta == p21.theta


def test_derivation_rule(p21):
    assert flatten(P(1, 1), p21).apply_index((2,)) == {(1,): F(2)}


def test_boundary_q0_on_constant(p21):
    assert flatten(Q(0, 1), p21).apply_index((0,)) == {(0,): p21.theta[1]}


def test_boundary_p_m0_eigenvalue(p21):
    expect = {(1,): p21.kappa[1] + p21.hbar}
    assert flatten(P(1, 0), p21).apply_index((1,)) == expect


def test_index_out_of_range(p21):
    with pytest.raises(StructureError):
        flatten(Q(5, 1), p21)


def test_canonical_commutation_random_monomials():
    rnd = random.Random(7)
    params = random_params(3, 2, rnd, hbar=F(3, 2))
    L, N = 3, 2
    for _ in range(200):
        A = tuple(rnd.randint(0, 3) for _ in range((L - 1) * N))
        m, i = rnd.randint(1, L - 1), rnd.randint(1, N)
        n, j = rnd.randint(1, L - 1), rnd.randint(1, N)
        comm = lin([(1, flatten(Mul(P(m, j), Q(n, i)), params).apply_index(A)),
                    (-1, flatten(Mul(Q(n, i), P(m, j)), params).apply_index(A))])
        expect = {A: params.hbar} if (m, j) == (n, i) else {}
        assert comm == expect


def test_hamiltonian_singular_z(p21):
    for z in [(F(0),), (F(1),)]:
        with pytest.raises(SingularityError):
            hamiltonian(1, p21, z)
    params = random_params(2, 2, random.Random(0))
    with pytest.raises(SingularityError):
        hamiltonian(1, params, (F(1, 3), F(1, 3)))


def test_hamiltonian_on_constant_resonance_zero():
    # with kappa_0 - sum(theta) = 0 the action on 1 has no degree-1 part
    rnd = random.Random(5)
    params = resonant_params(2, 1, 0, rnd)
    z = random_z(1, rnd)
    out = hamiltonian_flat(1, params, z).apply_index((0,))
    assert all(sum(B) <= 0 for B in out)


def test_action_leading_coefficient_formula():
    # coefficient of q_n^(i) q^A in z_i(z_i-1) H_i q^A for d(A) = M
    rnd = random.Random(11)
    for (L, N, M) in [(2, 1, 2), (3, 2, 2), (4, 1, 3)]:
        params = random_params(L, N, rnd)
        z = random_z(N, rnd)
        i = rnd.randint(1, N)
        zi = z[i - 1]
        op = flatten(Mul(Sc(zi * (zi - 1)), hamiltonian(i, params, z)), params)
        res_v = params.kappa[0] - sum(params.theta[1:])
        for A in enumerate_basis(L, N, M):
            if sum(A) != M:
                continue
            out = op.apply_index(A)
            for n in range(1, L):
                B = list(A)
                B[flat_pos(n, i, N)] += 1
                dn = sum(A[flat_pos(n, jj, N)] for jj in range(1, N + 1))
                expect = -(res_v - M) * (params.kappa[n] + dn)
                assert out.get(tuple(B), F(0)) == expect


def test_degree_raised_by_at_most_one():
    rnd = random.Random(13)
    for (L, N) in [(2, 2), (3, 2), (3, 3)]:
        params = random_params(L, N, rnd)
        z = random_z(N, rnd)
        H = hamiltonian_flat(1, params, z)
        for A in enumerate_basis(L, N, 3):
            out = H.apply_index(A)
            assert all(sum(B) <= sum(A) + 1 for B in out)


def test_commutator_same_index_trivial(p21):
    z = (F(2, 5),)
    assert commutator_residual(1, 1, p21, z, enumerate_basis(2, 1, 3)) == 0


def test_commutator_path_reports_hbar():
    # negative control for the shared commutator path: [p, q] q^A = hbar q^A
    params = make_parameters(2, 1, e=[F(1, 3), F(1, 6)], kappa=[F(2, 7), F(3, 5)],
                             theta=[F(1, 11)], hbar=F(3, 2))
    p, q = flatten(P(1, 1), params), flatten(Q(1, 1), params)
    probes = enumerate_basis(2, 1, 3)
    # the scaled path carries hbar = 3/2 as the numerator 3 over p.den * q.den = 2
    assert (p.den, q.den) == (2, 1)
    assert all(weylops._commutator(p, q, A) == {A: 3} for A in probes)
    assert weylops._commutator_max(p, q, probes) == F(3, 2)


@pytest.mark.parametrize("L,N,dmax", [(2, 2, 3), (3, 3, 2)])
def test_hamiltonians_commute_exactly(L, N, dmax):
    rnd = random.Random(100 * L + N)
    params = random_params(L, N, rnd)
    z = random_z(N, rnd)
    probes = enumerate_basis(L, N, dmax)
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            assert commutator_residual(i, j, params, z, probes) == 0


def test_ahat_commutators_interior():
    rnd = random.Random(21)
    params = random_params(3, 2, rnd)
    probes = enumerate_basis(3, 2, 3)
    # disjoint time indices commute outright
    assert ahat_commutator_residual(1, 2, params, probes,
                                    entries=[(1, 1, 1, 1), (1, 2, 2, 1)]) == 0
    # same index: full interior sweep
    assert ahat_commutator_residual(1, 1, params, probes) == 0
    assert ahat_commutator_residual(2, 2, params, probes,
                                    entries=[(1, 2, 2, 1), (1, 1, 2, 2), (2, 1, 1, 2)]) == 0


def _ahat_residual_per_quadruple(i, j, params, probes):
    """The interior entry relations with every operator compiled again for
    each (m, n, m', n'): the oracle for the compiled-once sweep."""
    from qims.polyalg import lin, max_abs
    from qims.weylops import _commutator
    rng = range(1, params.L)
    hbar, worst = params.hbar, F(0)
    for m, n, mp, np_ in itertools.product(rng, repeat=4):
        a = flatten(weylops.ahat_entry(m, n, i), params)
        b = flatten(weylops.ahat_entry(mp, np_, j), params)
        terms = []
        if i == j and n == mp:
            terms.append(weylops.ahat_entry(m, np_, i))
        if i == j and np_ == m:
            terms.append(Mul(Sc(-1), weylops.ahat_entry(mp, n, i)))
        rhs = flatten(Mul(Sc(hbar), Add(*terms)), params)
        scaled = max(max_abs(lin([(rhs.den, _commutator(a, b, A)),
                                  (-a.den * b.den, rhs.image(tuple(A)))])) for A in probes)
        worst = max(worst, scaled * a.unit * b.unit * rhs.unit / abs(hbar))
    return worst


@pytest.mark.parametrize("L", [3, 4])
def test_ahat_residual_matches_per_quadruple_form(L, monkeypatch):
    params = random_params(L, 2, random.Random(70 + L))
    probes = enumerate_basis(L, 2, 2)
    for i, j in ((1, 1), (1, 2)):
        assert ahat_commutator_residual(i, j, params, probes) == 0
        assert _ahat_residual_per_quadruple(i, j, params, probes) == 0
    # a wrong (1, 2) entry breaks the same-index relations (disjoint indices
    # still commute); both forms see the same residual
    entry = weylops.ahat_entry
    monkeypatch.setattr(weylops, "ahat_entry", lambda m, n, i: Mul(Sc(2), entry(m, n, i))
                        if (m, n) == (1, 2) else entry(m, n, i))
    for i, j in ((1, 1), (1, 2)):
        got = ahat_commutator_residual(i, j, params, probes)
        assert (got != 0) == (i == j)
        assert got == _ahat_residual_per_quadruple(i, j, params, probes)


@pytest.mark.parametrize("L,N", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_sweeps_leave_cached_images_unchanged(L, N, monkeypatch):
    # the sweeps combine cached images with polyalg.lin, which only reads its
    # maps: afterwards every cached image still equals a fresh one.  The braid
    # sweeps need three time indices (four for the disjoint one); only the
    # images are checked, not the residuals.
    built, init = [], weylops.FlatOp.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(weylops.FlatOp, "__init__", recording_init)
    rnd = random.Random(90 + 10 * L + N)
    params, z = random_params(L, N, rnd, hbar=F(3, 2)), random_z(N, rnd)
    probes = enumerate_basis(L, N, 2)
    commutator_residual(1, 2, params, z, probes)
    ahat_commutator_residual(1, 1, params, probes)
    ahat_commutator_residual(1, 2, params, probes)
    if N >= 3:
        braid_residual_adjacent(1, 2, 3, params, probes)
    if N >= 4:
        braid_residual_disjoint(1, 2, 3, 4, params, probes)
    if L == 2:
        for i in range(1, N + 1):
            garnier_example_residual(i, params, z, probes)
    cached = [(op, A, img) for op in built for A, img in op._images.items()]
    assert len(cached) > len(probes)
    assert all(img == op._image(A) for op, A, img in cached)


def test_braid_relations():
    rnd = random.Random(31)
    params = random_params(2, 4, rnd)
    probes = enumerate_basis(2, 4, 1)
    assert braid_residual_disjoint(1, 2, 3, 4, params, probes) == 0
    params3 = random_params(3, 3, rnd)
    probes3 = enumerate_basis(3, 3, 2)
    assert braid_residual_adjacent(1, 2, 3, params3, probes3) == 0
    assert braid_residual_adjacent(2, 3, 1, params3, probes3) == 0


def test_braid_requires_distinct():
    rnd = random.Random(1)
    params = random_params(2, 3, rnd)
    with pytest.raises(StructureError):
        braid_residual_adjacent(1, 1, 2, params, [])


@pytest.mark.parametrize("sweep,indices", [
    (braid_residual_adjacent, (0, 1, 2)), (braid_residual_adjacent, (1, 2, 3)),
    (braid_residual_disjoint, (0, 1, 2, 3)), (braid_residual_disjoint, (1, 2, 3, 4))])
def test_braid_rejects_a_time_index_outside_1_to_N(sweep, indices):
    # at N = 2 the boundary index 0 once gave the triple (0, 1, 2) a residual
    # of 189/64 instead of an error
    params = random_params(2, 2, random.Random(112), hbar=F(3, 2))
    with pytest.raises(ParameterError, match="time index i=[03] out of range 1..2"):
        sweep(*indices, params, enumerate_basis(2, 2, 2))


def test_garnier_example_exact():
    rnd = random.Random(41)
    for N in (1, 2):
        params = random_params(2, N, rnd, hbar=F(2))
        z = random_z(N, rnd)
        probes = enumerate_basis(2, N, 3)
        for i in range(1, N + 1):
            assert garnier_example_residual(i, params, z, probes) == 0


@pytest.mark.parametrize("i", [0, 3])
def test_garnier_example_rejects_a_time_index_outside_1_to_N(i):
    # z[i - 1] once read past z (IndexError at i = N + 1) or wrapped to z_N,
    # where the operator divided by z_i - z_j = 0 (ZeroDivisionError at i = 0)
    params = random_params(2, 2, random.Random(47), hbar=F(2))
    z = (F(1, 3), F(2, 5))
    for call in (lambda: weylops.garnier_example_operator(i, params, z),
                 lambda: garnier_example_residual(i, params, z, enumerate_basis(2, 2, 1))):
        with pytest.raises(ParameterError) as exc:
            call()
        assert str(exc.value) == f"time index i={i} out of range 1..2"


def test_garnier_needs_L2():
    rnd = random.Random(43)
    params = random_params(3, 1, rnd)
    with pytest.raises(StructureError):
        garnier_example_residual(1, params, (F(1, 3),), [])


def test_hamiltonian_coefficients_rational_in_z():
    # z_i(z_i-1)prod(z_i-z_j) * M_i(z) entries are polynomial in z_i: a
    # degree-bounded exact interpolation through 7 points predicts an 8th
    rnd = random.Random(53)
    params = resonant_params(2, 2, 1, rnd)
    from qims.pfaffian import PfaffianSystem
    system = PfaffianSystem(params, ("V", 1))
    z2 = F(3, 7)
    zs = [F(k, 17) for k in range(2, 10)]

    def entry(z1, a, b):
        mat = system.matrix_at(1, (z1, z2))
        return mat[a][b] * z1 * (z1 - 1) * (z1 - z2)

    for (a, b) in [(0, 0), (1, 2), (2, 1)]:
        pts = [(z, entry(z, a, b)) for z in zs[:7]]
        # exact Lagrange interpolation at the 8th point
        z8 = zs[7]
        acc = F(0)
        for k, (xk, yk) in enumerate(pts):
            term = yk
            for l, (xl, _) in enumerate(pts):
                if l != k:
                    term *= (z8 - xl) / (xk - xl)
            acc += term
        assert acc == entry(z8, a, b)


def test_ahat_commutators_boundary_entries_hold_verbatim():
    # the derived boundary rows/columns (index 0) satisfy the same entry
    # commutation relations as the interior block, on probes, exactly
    import itertools
    rnd = random.Random(61)
    params = random_params(3, 2, rnd)
    probes = enumerate_basis(3, 2, 2)
    entries = list(itertools.product(range(3), repeat=4))
    assert ahat_commutator_residual(1, 1, params, probes, entries=entries) == 0
    assert ahat_commutator_residual(1, 2, params, probes, entries=entries) == 0
