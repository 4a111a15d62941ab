"""The compiled integer kernel of ``FlatOp`` against the written-order oracle.

Random exact parameters, operators and probe monomials: every compiled
image must equal the one the uncompiled written-order loop computes, with
exact equality for rational inputs and within 1e-12 for float inputs.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from conftest import random_params, random_z
from qims import weylops
from qims.polyalg import enumerate_basis
from qims.weylops import (Add, Mul, Q, Sc, ahat_entry, flatten,
                          garnier_example_operator, hamiltonian, make_parameters,
                          omega_tree)
from written_order import commutator, written_order


@st.composite
def models(draw):
    """(params, z, probes) with L in {2,3,4}, N <= 3 and hbar in {1, 3/2, 2}."""
    L = draw(st.integers(2, 4))
    N = draw(st.integers(1, 3))
    hbar = draw(st.sampled_from([F(1), F(3, 2), F(2)]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    params = random_params(L, N, rnd, hbar=hbar)
    k = (L - 1) * N
    probes = draw(st.lists(st.tuples(*[st.integers(0, 3)] * k), min_size=1, max_size=4))
    return params, random_z(N, rnd), probes


def operator_trees(draw, params, z):
    L, N = params.L, params.N
    i = draw(st.integers(1, N))
    b = st.integers(0, N)  # time indices, boundary 0 included
    lv = st.integers(0, L - 1)
    trees = [hamiltonian(i, params, z),
             omega_tree(draw(b), draw(b), L),
             ahat_entry(draw(lv), draw(lv), draw(b))]
    if L == 2:
        trees.append(garnier_example_operator(i, params, z))
    return trees


@settings(max_examples=40, deadline=None)
@given(models(), st.data())
def test_kernel_matches_written_order(model, data):
    params, z, probes = model
    c0 = data.draw(st.sampled_from([1, F(-2, 7)]))
    for tree in operator_trees(data.draw, params, z):
        op, oracle = flatten(tree, params), written_order(tree, params)
        assert isinstance(op.den, int) and all(isinstance(c, int) for c, _ in op.terms)
        assert len(op.terms) <= len(oracle.terms)
        for A in probes:
            assert op.apply_index(A, c0) == oracle.apply_index(A, c0)


@settings(max_examples=20, deadline=None)
@given(models(), st.data())
def test_cached_images_match_written_order(model, data):
    # a sweep fills each operator's image cache; what it keeps must be what a
    # fresh operator and the written-order oracle compute
    params, z, probes = model
    probes = [tuple(A) for A in probes]
    for tree in operator_trees(data.draw, params, z):
        op, oracle = flatten(tree, params), written_order(tree, params)
        weylops._commutator_max(op, op, probes)
        first = {A: op.image(A) for A in probes}
        fresh = flatten(tree, params)
        for A in probes:
            assert op.apply_index(A) == oracle.apply_index(A)
            assert op.image(A) == first[A] == fresh.image(A)


@settings(max_examples=10, deadline=None)
@given(models())
def test_commutator_residual_matches_written_order(model):
    params, z, probes = model
    i, j = 1, params.N
    a, b = weylops.hamiltonian_flat(i, params, z), weylops.hamiltonian_flat(j, params, z)
    wa = written_order(hamiltonian(i, params, z), params)
    wb = written_order(hamiltonian(j, params, z), params)
    assert all(commutator(wa, wb, A) == {} for A in probes)
    assert weylops._commutator_max(a, b, probes) == 0


def test_float_parameters_match_written_order():
    # den = 1 path: float coefficients keep their type through the kernel
    rnd = random.Random(3)
    exact = random_params(3, 2, rnd, hbar=F(3, 2))
    params = make_parameters(3, 2, e=[float(x) for x in exact.e],
                             kappa=[float(x) for x in exact.kappa],
                             theta=[float(x) for x in exact.theta[1:]], hbar=1.5)
    z = (0.31, 0.67)
    for tree in (hamiltonian(1, params, z), omega_tree(1, 2, 3), ahat_entry(0, 1, 2)):
        op, oracle = flatten(tree, params), written_order(tree, params)
        assert op.den == 1
        for A in enumerate_basis(3, 2, 2):
            got, want = op.apply_index(A), oracle.apply_index(A)
            assert all(isinstance(c, float) for c in got.values())
            for B in set(got) | set(want):
                assert abs(got.get(B, 0.0) - want.get(B, 0.0)) <= 1e-12 * max(
                    1.0, abs(want.get(B, 0.0)))


def test_perturbed_pair_reports_oracle_residual():
    # negative control: [H_1, H_1 + q_1^(1)] = [H_1, q_1^(1)] is not zero
    rnd = random.Random(17)
    params = random_params(2, 2, rnd, hbar=F(3, 2))
    z = random_z(2, rnd)
    h1 = hamiltonian(1, params, z)
    bumped = Add(h1, Q(1, 1))
    probes = enumerate_basis(2, 2, 2)
    a, b = flatten(h1, params), flatten(bumped, params)
    wa, wb = written_order(h1, params), written_order(bumped, params)
    want = max(abs(c) for A in probes for c in commutator(wa, wb, A).values())
    assert want != 0
    assert weylops._commutator_max(a, b, probes) == want


def test_merge_drops_cancelling_strings():
    params = make_parameters(2, 1, e=[F(1, 3), F(1, 6)], kappa=[F(2, 7), F(3, 5)],
                             theta=[F(1, 11)])
    op = flatten(Add(Q(1, 1), Mul(Sc(F(-1)), Q(1, 1))), params)
    assert op.terms == [] and op.apply_index((2,)) == {}


def test_hams_dict_reused_at_another_point():
    # one dict shared across points: an entry is read only at its own (k, params, z)
    rnd = random.Random(5)
    params = random_params(2, 2, rnd)
    probes = enumerate_basis(2, 2, 2)
    z1, z2 = (F(1, 3), F(2, 3)), (F(1, 5), F(3, 7))
    bumped = flatten(Add(hamiltonian(2, params, z1), Q(1, 1)), params)
    hams = {(2, params, z1): bumped}
    want = weylops._commutator_max(weylops.hamiltonian_flat(1, params, z1), bumped, probes)
    assert weylops.commutator_residual(1, 2, params, z1, probes, hams=hams) == want != 0
    assert weylops.commutator_residual(1, 2, params, z2, probes, hams=hams) == 0
    assert len(hams) == 4
