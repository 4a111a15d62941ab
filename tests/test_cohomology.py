import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import lemma_oracle
from conftest import m_window_params, random_z, resonant_params
from qims import cohomology, weylops
from qims.cohomology import (LEMMA_IDS, LEMMA_MIN_L, compare_cohomology_operator,
                             lemma_residual, pfaffian_from_cohomology,
                             random_lemma_sample)
from qims.errors import ParameterError
from qims.hypint import dictionary_M, eval_psiM
from qims.pfaffian import PfaffianSystem
from qims.polyalg import enumerate_basis, flat_pos
from qims.quadrature import QuadratureSpec


CONFIGS = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 2, 2), (2, 2, 2), (4, 1, 1)]


@pytest.mark.parametrize("L,N,M", CONFIGS)
def test_cohomology_equals_operator_exactly(L, N, M):
    rnd = random.Random(97 * L + 13 * N + M)
    params = resonant_params(L, N, M, rnd, dict_m=True)
    for _ in range(3):
        z = random_z(N, rnd)
        for i in range(1, N + 1):
            cmp = compare_cohomology_operator(params, z, M, i)
            assert cmp.exact_equal, (L, N, M, i, cmp.max_abs_diff)
    for i in range(1, N + 1):
        # lowest terms, as the operator side, so equal residues are equal pairs
        for den, rows in cohomology._residues(params, M, i).values():
            nums = [x for row in rows for x in row.values()]
            assert den > 0 and all(nums) and math.gcd(den, *nums) == 1


def matrix_float(params, z, M, i):
    return PfaffianSystem(params, ("V", M)).matrix_float(i, [float(x) for x in z])


def eval_psiM_at(params, z, M, i):
    return eval_psiM(params, [float(x) for x in z], M, QuadratureSpec(nodes_per_axis=8), i)


def hamiltonian_parts(params, z, M, i):
    return weylops.hamiltonian_parts(i, params)


@pytest.mark.parametrize("fn", [pfaffian_from_cohomology, compare_cohomology_operator,
                                matrix_float, eval_psiM_at, hamiltonian_parts])
@pytest.mark.parametrize("i", [0, 3, True])
def test_bad_time_index_is_the_restrictions_parameter_error(fn, i):
    # the error PfaffianSystem.matrix_at raises for the same i; True once
    # passed its range check as M_1 (True == 1)
    L, N, M = 2, 2, 1
    rnd = random.Random(29)
    params = resonant_params(L, N, M, rnd, dict_m=True)
    z = random_z(N, rnd)
    with pytest.raises(ParameterError) as want:
        PfaffianSystem(params, ("V", M)).matrix_at(i, z)
    with pytest.raises(ParameterError, match=f"^time index i={i} out of range 1..2$") as got:
        fn(params, z, M, i)
    assert str(got.value) == str(want.value)


def test_comparison_restricts_only_the_compared_hamiltonian(monkeypatch):
    from qims import pfaffian
    L, N, M, i = 3, 3, 2, 2
    params = resonant_params(L, N, M, random.Random(5), dict_m=True)
    built, parts = [], []
    monkeypatch.setattr(pfaffian.PfaffianSystem, "__init__",
                        lambda *a: built.append(a) or pytest.fail("built a PfaffianSystem"))
    hamiltonian_parts = pfaffian.hamiltonian_parts
    monkeypatch.setattr(pfaffian, "hamiltonian_parts",
                        lambda j, p: parts.append(j) or hamiltonian_parts(j, p))
    assert compare_cohomology_operator(params, random_z(N, random.Random(6)), M, i).exact_equal
    assert built == [] and parts == [i]


def plant(monkeypatch, edit):
    """Run ``edit(A, residues)`` on the residues of every row of the cohomology side."""
    display_row = cohomology._display_row

    def planted(A, *args):
        residues = display_row(A, *args)
        edit(A, residues)
        return residues

    monkeypatch.setattr(cohomology, "_display_row", planted)


def test_planted_entry_is_reported_not_absorbed(monkeypatch):
    # 1/5 added to one off-diagonal entry of the point-1 residue of P_1
    rnd = random.Random(41)
    L, N, M = 2, 1, 2
    params = resonant_params(L, N, M, rnd, dict_m=True)
    basis = enumerate_basis(L, N, M)

    def entry(A, res):
        if A == basis[0]:
            res[1][basis[1]] = res[1].get(basis[1], 0) + F(1, 5)

    plant(monkeypatch, entry)
    z = random_z(N, rnd)
    cmp = compare_cohomology_operator(params, z, M, 1)
    assert cmp.exact_equal is False
    assert cmp.max_abs_diff == F(1, 5)
    assert cmp.lambda_shift is None
    expected = [[F(0)] * len(basis) for _ in basis]
    expected[0][1] = -F(1, 5) / (z[0] - 1)
    assert [list(r) for r in cmp.discrepancy] == expected


def test_scalar_shift_is_reported_as_lambda(monkeypatch):
    # P_1 shifted by -lambda_p I at each point p, so M_1 - P_1 = lambda(z) I
    rnd = random.Random(43)
    L, N, M, i = 2, 2, 1, 1
    params = resonant_params(L, N, M, rnd, dict_m=True)
    lam = {0: F(2, 3), 1: F(-1, 7), 3: F(5, 11)}  # the points 0, 1 and z_2

    def shift(A, res):
        for p, x in lam.items():
            res[p][A] = res[p].get(A, 0) - x

    plant(monkeypatch, shift)
    z = random_z(N, rnd)
    points = (0, 1) + z
    expected = sum(x / (z[i - 1] - points[p]) for p, x in lam.items())
    cmp = compare_cohomology_operator(params, z, M, i)
    assert cmp.exact_equal is False
    assert cmp.max_abs_diff == F(2, 3)
    assert cmp.lambda_shift == expected and type(cmp.lambda_shift) is F
    D = len(enumerate_basis(L, N, M))
    assert [list(r) for r in cmp.discrepancy] == \
        [[expected if a == b else 0 for b in range(D)] for a in range(D)]


def test_diagonal_entry_matches_scalar_bracket():
    # diagonal of z_i * P_i is the scalar bracket of the reduction
    rnd = random.Random(31)
    L, N, M = 3, 2, 2
    params = resonant_params(L, N, M, rnd, dict_m=True)
    z = random_z(N, rnd)
    i = 2
    exps = dictionary_M(params, M)
    P = pfaffian_from_cohomology(params, z, M, i)
    basis = enumerate_basis(L, N, M)
    zi = z[i - 1]
    for idx, A in enumerate(basis):
        beta_i = exps.beta[i - 1]
        di = sum(A[flat_pos(n, i, N)] for n in range(1, L))
        A0 = M - sum(A)
        s = -beta_i * M
        for n in range(1, L):
            An = A[flat_pos(n, i, N)]
            inner = sum(exps.alpha[m - 1] for m in range(n, L)) - (L - n) - beta_i \
                + sum(A[flat_pos(m, i, N)] for m in range(1, n + 1))
            s -= An * inner
        s += (A0 * (di - beta_i)
              - sum(A[flat_pos(n, i, N)] * A[flat_pos(n, j, N)]
                    for j in range(1, N + 1) for n in range(1, L))
              + A[flat_pos(1, i, N)] * (M - exps.gamma[0])) / (zi - 1)
        for j in range(1, N + 1):
            if j == i:
                continue
            zj = z[j - 1]
            dj = sum(A[flat_pos(n, j, N)] for n in range(1, L))
            s += zj / (zi - zj) * sum(
                A[flat_pos(n, i, N)] * (dj + A[flat_pos(n, j, N)] - exps.beta[j - 1])
                - beta_i * A[flat_pos(n, j, N)] for n in range(1, L))
        assert P[idx][idx] == s / zi


def test_cohomology_float_path():
    rnd = random.Random(7)
    params = resonant_params(2, 2, 1, rnd, dict_m=True)
    z = (0.4, 0.7)
    P = pfaffian_from_cohomology(params, z, 1, 1)
    system = PfaffianSystem(params, ("V", 1))
    Mi = system.matrix_float(1, z)
    err = max(abs(P[a][b] - Mi[a, b].real) for a in range(3) for b in range(3))
    assert err < 1e-12


def test_m1_pfaffian_consistent_with_integral():
    # finite differences of the quadrature coefficients against P_i rows
    params = m_window_params(2, 1, 1, gamma=F(-1, 2))
    q = QuadratureSpec(nodes_per_axis=32)
    z0, h = 0.4, 5e-3
    cs = {d: eval_psiM(params, (z0 + d * h,), 1, q).vector for d in (-2, -1, 0, 1, 2)}
    dc = (cs[-2] - 8 * cs[-1] + 8 * cs[1] - cs[2]) / (12 * h)
    P = np.array([[float(x) for x in row]
                  for row in pfaffian_from_cohomology(params, (z0,), 1, 1)])
    resid = np.linalg.norm(float(params.planck) * dc - P @ cs[0]) / \
        np.linalg.norm(P @ cs[0])
    assert resid < 1e-6


def test_reduction_requires_unit_interior_kappa_at_degree_one():
    # the degree-1 dictionary takes any kappa_2; the reduction does not
    from conftest import m1_window_params
    params = m1_window_params(3, 1)
    assert params.kappa[2] != 1 and dictionary_M(params, 1).gamma[1] == params.kappa[2]
    with pytest.raises(ParameterError, match="kappa_2"):
        compare_cohomology_operator(params, (F(2, 5),), 1, 1)


# the identities with cross-index lines, which drop out at zj = zi
DEGENERATE = ["l_lt_n", "n_lt_l", "one_lt_l", "l_eq_n"]
# the identities whose left side carries the two-copy term C(n, 1, 2)
WITH_C = DEGENERATE + ["l_eq_0"]


@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_lemma_identities_exact(lemma):
    rnd = random.Random(LEMMA_IDS.index(lemma))
    Lmin = LEMMA_MIN_L[lemma]
    for L in (Lmin, Lmin + 1):
        for _ in range(8):
            s = random_lemma_sample(lemma, L, rnd)
            assert lemma_residual(lemma, **s) == 0, (lemma, L, s)


@pytest.mark.parametrize("lemma", DEGENERATE)
def test_lemma_degenerate_clauses(lemma):
    rnd = random.Random(5)
    for _ in range(5):
        s = random_lemma_sample(lemma, LEMMA_MIN_L[lemma], rnd)
        s["zj"] = s["zi"]
        assert lemma_residual(lemma, **s) == 0


@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_lemma_kernel_matches_fraction_oracle(lemma):
    rnd = random.Random(100 + LEMMA_IDS.index(lemma))
    Lmin = LEMMA_MIN_L[lemma]
    for L in range(Lmin, Lmin + 3):
        for _ in range(4):
            s = random_lemma_sample(lemma, L, rnd)
            cases = [s, dict(s, zj=s["zi"])] if lemma in DEGENERATE else [s]
            for x in cases:
                got = lemma_residual(lemma, **x)
                assert type(got) is F and got == lemma_oracle.lemma_residual(lemma, **x), \
                    (lemma, x)


def plant_in_C(monkeypatch):
    """Add 1 to C(n, 1, 2) in both evaluators: every entry of the kernel's
    columns (its denominator to each numerator) and the oracle's _C."""
    monkeypatch.setattr(cohomology, "_c_columns", lambda *a, cols=cohomology._c_columns:
                        ((E, [c + E for c in col]) for E, col in cols(*a)))
    monkeypatch.setattr(lemma_oracle, "_C",
                        lambda n, c1, c2, L, C=lemma_oracle._C: C(n, c1, c2, L) + 1)


def plant_in_f0(monkeypatch):
    """Add 1 to f0 of every copy in both evaluators: the shared denominator to
    each numerator of the kernel's f0 table, and the oracle's _f0."""
    def planted(*a, tables=cohomology._f_tables):
        D, f0, rows = tables(*a)
        return D, [f + D for f in f0], rows
    monkeypatch.setattr(cohomology, "_f_tables", planted)
    monkeypatch.setattr(lemma_oracle, "_f0", lambda c, L, f0=lemma_oracle._f0: f0(c, L) + 1)


# the identities that read f0, with the n at which they do (None: every n)
WITH_F0 = {"f0": None, "l_eq_0": None, "one_lt_l": None, "l_eq_n": 2}


@pytest.mark.parametrize("lemma", WITH_F0)
def test_lemma_kernel_matches_oracle_with_f0_planted(lemma, monkeypatch):
    # a constant planted in f0 of both evaluators breaks every identity that
    # reads f0, which an error of one overall factor in the f-tables would not
    plant_in_f0(monkeypatch)
    rnd = random.Random(8)
    for L in range(LEMMA_MIN_L[lemma], LEMMA_MIN_L[lemma] + 3):
        s = random_lemma_sample(lemma, L, rnd)
        cases = [s, dict(s, zj=s["zi"])] if lemma in DEGENERATE else [s]
        for x in cases:
            for idx in index_choices(lemma, L):
                if WITH_F0[lemma] is not None and idx["n"] < WITH_F0[lemma]:
                    continue
                y = dict(x, **idx)
                got = lemma_residual(lemma, **y)
                assert type(got) is F and got != 0, (lemma, y)
                assert got == lemma_oracle.lemma_residual(lemma, **y), (lemma, y)


@pytest.mark.parametrize("lemma", WITH_C)
def test_lemma_kernel_matches_oracle_off_the_identity(lemma, monkeypatch):
    # a constant planted in C(n, 1, 2) of both evaluators breaks the identity;
    # the nonzero residuals must still agree exactly
    plant_in_C(monkeypatch)
    rnd = random.Random(7)
    for L in (LEMMA_MIN_L[lemma], LEMMA_MIN_L[lemma] + 1):
        s = random_lemma_sample(lemma, L, rnd)
        got = lemma_residual(lemma, **s)
        assert got != 0 and got == lemma_oracle.lemma_residual(lemma, **s)


def index_choices(lemma, L):
    """Every valid (n, l) of the identity at level L."""
    r = range(1, L)
    return {"l_lt_n": [dict(n=n, l=l) for n in r for l in r if l < n],
            "n_lt_l": [dict(n=n, l=l) for n in r for l in r if 2 <= n < l],
            "one_lt_l": [dict(l=l) for l in r if l > 1],
            "l_eq_n": [dict(n=n) for n in r], "l_eq_0": [dict(n=n) for n in r],
            "jacobi": [{}], "f0": [{}]}[lemma]


def oracle_at(lemma, L, point, idx):
    """The oracle's residual at a round's shared point; jacobi takes t = t1_last."""
    if lemma == "jacobi":
        return lemma_oracle.lemma_residual(lemma, L=L, t=point["t1"][-1], zi=point["zi"],
                                           zj=point["zj"])
    return lemma_oracle.lemma_residual(lemma, L=L, **point, **idx)


@pytest.mark.parametrize("planted", [False, True], ids=["exact", "planted"])
@pytest.mark.parametrize("L", range(2, 7))
def test_shared_point_matches_fraction_oracle(L, planted, monkeypatch):
    # every identity with LEMMA_MIN_L <= L <= LEMMA_MIN_L + 2, at every (n, l),
    # from one point's tables, at zj != zi and at zj = zi; with a constant
    # planted in C(n, 1, 2) the residuals of WITH_C are nonzero and still agree
    if planted:
        plant_in_C(monkeypatch)
    point = cohomology._two_copy_point(L, cohomology._fresh(random.Random(40 + L)))
    lemmas = [lemma for lemma in LEMMA_IDS if 0 <= L - LEMMA_MIN_L[lemma] <= 2]
    assert lemmas
    for at in (point, dict(point, zj=point["zi"])):
        tables = cohomology._Point(L, **at)
        for lemma in lemmas:
            if lemma == "jacobi" and at["zj"] == at["zi"]:
                continue
            for idx in index_choices(lemma, L):
                got = tables.residual(lemma, **idx)
                assert type(got) is F and got == oracle_at(lemma, L, at, idx), (lemma, idx, at)
                assert (got != 0) == (planted and lemma in WITH_C), (lemma, idx, at)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_lemma_round_replays_against_the_oracle(L):
    # a round draws one point per level in increasing level order, then each
    # identity of that level in LEMMA_IDS order draws its (n, l)
    got = cohomology.lemma_round(L, random.Random(L))
    rnd = random.Random(L)
    levels = {lemma: max(L, LEMMA_MIN_L[lemma]) for lemma in LEMMA_IDS}
    want = {}
    for level in sorted(set(levels.values())):
        point = cohomology._two_copy_point(level, cohomology._fresh(rnd))
        for lemma in LEMMA_IDS:
            if levels[lemma] == level:
                idx = cohomology._indices(lemma, level, rnd)
                want[lemma] = oracle_at(lemma, level, point, idx)
    assert list(got) == list(LEMMA_IDS) and got == want
    assert all(type(r) is F and r == 0 for r in got.values())


@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_lemma_zero_divisor_raises(lemma):
    # zi = 1/t_last puts a pole of f_n(zi) (of 1/(1 - zi t) for jacobi) on the sample
    s = random_lemma_sample(lemma, LEMMA_MIN_L[lemma] + 1, random.Random(3))
    s["zi"] = 1 / (s["t"] if lemma == "jacobi" else s["t1"][-1])
    for evaluate in (lemma_residual, lemma_oracle.lemma_residual):
        with pytest.raises(ZeroDivisionError):
            evaluate(lemma, **s)


@pytest.mark.parametrize("lemma", [x for x in LEMMA_IDS if x != "jacobi"])
def test_lemma_coincident_coordinates_fail_as_in_the_oracle(lemma):
    # t1_2 = t1_1 zeroes a gap of copy 0; t2_1 = t1_1 is a pole of C(1, 1, 2)
    # only, so an identity evaluated at n >= 2 does not see it
    def outcome(evaluate, x):
        try:
            return evaluate(lemma, **x)
        except ZeroDivisionError:
            return ZeroDivisionError

    rnd = random.Random(4)
    for _ in range(4):
        s = random_lemma_sample(lemma, max(3, LEMMA_MIN_L[lemma]), rnd)
        t1 = s["t1"]
        assert outcome(lemma_residual, dict(s, t1=(t1[0],) + t1[:1] + t1[2:])) \
            is ZeroDivisionError
        if lemma in WITH_C:
            x = dict(s, t2=t1[:1] + s["t2"][1:])
            got = outcome(lemma_residual, x)
            assert got == outcome(lemma_oracle.lemma_residual, x)
            assert (got is ZeroDivisionError) == (s.get("n", 1) == 1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 777, 20240])
def test_lemma_sample_coordinates_match_three_fraction_form(seed):
    # integer draws over 61 * 431 give the samples and the rng stream of the
    # sampler that adds Fraction(a, 61) + Fraction(b, 431) and dedupes Fractions
    def samples(sample):
        rnd = random.Random(seed)
        out = [sample(lemma, L, rnd) for lemma in LEMMA_IDS
               for L in range(LEMMA_MIN_L[lemma], LEMMA_MIN_L[lemma] + 3)
               for _ in range(3)]
        return out, rnd.getstate()

    got, want = samples(random_lemma_sample), samples(lemma_oracle.random_lemma_sample)
    assert got == want


def test_lemma_sample_validation():
    with pytest.raises(ParameterError, match=r"l_lt_n requires 1 <= l < n <= L-1"):
        lemma_residual("l_lt_n", L=3, n=1, l=1, t1=(F(1, 2), F(1, 3)),
                       t2=(F(1, 5), F(1, 7)), zi=F(1, 11), zj=F(1, 13))
    with pytest.raises(ParameterError, match=r"l_eq_0 requires 1 <= n <= L-1"):
        lemma_residual("l_eq_0", L=3, n=0, t1=(F(1, 2), F(1, 3)),
                       t2=(F(1, 5), F(1, 7)), zi=F(1, 11), zj=F(1, 13))
    with pytest.raises(ParameterError, match="unknown lemma id 'nonsense'"):
        lemma_residual("nonsense", L=2)


@pytest.mark.parametrize("lemma,L", [("n_lt_l", 3), ("l_lt_n", 2), ("l_eq_n", 1),
                                     ("jacobi", 1), ("f0", 0), ("l_eq_0", 2.0)])
def test_lemma_sample_rejects_a_level_below_the_identity(lemma, L):
    with pytest.raises(ParameterError, match=f"{lemma} needs an integer L >= "):
        random_lemma_sample(lemma, L, random.Random(0))


def test_lemma_sample_rejects_an_unknown_id():
    with pytest.raises(ParameterError, match="unknown lemma id 'nonsense'"):
        random_lemma_sample("nonsense", 3, random.Random(0))


@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_lemma_residual_rejects_malformed_samples(lemma):
    s = random_lemma_sample(lemma, LEMMA_MIN_L[lemma] + 1, random.Random(11))
    chains = [key for key in ("t1", "t2") if key in s]
    for key in chains:
        for bad in (s[key][:-1], s[key] + (F(1, 3),)):
            with pytest.raises(ParameterError, match=f"{key} needs L-1 = "):
                lemma_residual(lemma, **dict(s, **{key: bad}))
    for key in s.keys() - {"L"}:
        with pytest.raises(ParameterError, match=f"{lemma} needs {key}"):
            lemma_residual(lemma, **{k: v for k, v in s.items() if k != key})
    decimals = [dict(s, **{key: (0.3,) + s[key][1:]}) for key in chains]
    decimals += [dict(s, **{key: 0.3}) for key in ("t", "zi", "zj") if key in s]
    for x in decimals:
        with pytest.raises(ParameterError, match="no decimal scalar 0.3"):
            lemma_residual(lemma, **x)


@pytest.mark.parametrize("lemma", [x for x in LEMMA_IDS if x not in ("jacobi", "f0")])
def test_lemma_residual_rejects_non_int_indices(lemma):
    # a float, bool or str n or l is a ParameterError, not a TypeError from
    # indexing or comparing, nor n = True read as n = 1; one_lt_l fixes n = 1
    L = LEMMA_MIN_L[lemma] + 1
    s = random_lemma_sample(lemma, L, random.Random(12))
    keys = [key for key in ("n", "l") if key in s] + (["n"] if lemma == "one_lt_l" else [])
    for key in keys:
        value = s.get(key, 1)
        for bad in (float(value), value + 0.5, True, False, str(value)):
            with pytest.raises(ParameterError, match=f"{lemma} needs an integer {key}"
                               if key in s else "one_lt_l fixes n = 1"):
                lemma_residual(lemma, **dict(s, **{key: bad}))
