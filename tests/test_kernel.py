"""The compiled integer kernel of ``FlatOp`` against the written-order oracle.

Random exact parameters, operators and probe monomials: every compiled
image must equal, exactly, the one the uncompiled written-order loop
computes.  The compile is exact only: a decimal scalar is a ParameterError.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_params, random_z
from qims import weylops
from qims.errors import ParameterError
from qims.polyalg import enumerate_basis
from qims.weylops import (Add, Mul, P, Q, Sc, ahat_entry, flatten,
                          garnier_example_operator, hamiltonian, hamiltonian_flat,
                          make_parameters, omega_tree)
from written_order import commutator, fraction_compile, written_order


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
    c0 = data.draw(st.sampled_from([1, F(-2, 7), 0]))
    for tree in operator_trees(data.draw, params, z):
        op, oracle = flatten(tree, params), written_order(tree, params)
        assert isinstance(op.den, int) and all(isinstance(c, int) for c, _ in op.terms)
        assert len(op.terms) <= len(oracle.terms)
        for A in probes:
            assert op.apply_index(A, c0) == oracle.apply_index(A, c0)


@settings(max_examples=40, deadline=None)
@given(models(), st.data())
def test_integer_pair_compile_matches_fraction_compile(model, data):
    # the same den, terms in the same order and the same kernel as merging the
    # Fraction expansion
    params, z, _ = model
    trees = operator_trees(data.draw, params, z)
    zero = Add(trees[0], Mul(Sc(-1), trees[0]))
    for tree in trees + [zero]:
        op = flatten(tree, params)
        den, terms, kernel = fraction_compile(tree, params)
        assert (op.den, op.terms, op._kernel) == (den, terms, kernel)
        assert [type(c) for c, _ in op.terms] == [type(c) for c, _ in terms]
        assert isinstance(op.den, int)
    # op is T - T: every term cancels
    assert op.den == 1 and op.terms == [] and op._kernel == []


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


def test_decimal_scalars_are_rejected():
    # a decimal or complex scalar in a tree, in the parameters, in hbar or in z
    # is a ParameterError wherever it reaches the exact algebra
    rnd = random.Random(3)
    exact = random_params(3, 2, rnd, hbar=F(3, 2))
    decimal = make_parameters(3, 2, e=[float(x) for x in exact.e],
                              kappa=[float(x) for x in exact.kappa],
                              theta=[float(x) for x in exact.theta[1:]])
    decimal_hbar = make_parameters(3, 2, e=exact.e, kappa=exact.kappa,
                                   theta=exact.theta[1:], hbar=1.5)
    for build in (lambda: flatten(Mul(Sc(0.5), Q(1, 1)), exact),
                  lambda: flatten(Add(Sc(1j), P(2, 2)), exact),
                  lambda: flatten(Q(0, 1), decimal),  # theta_1 enters the expansion
                  lambda: flatten(Mul(Q(1, 1), P(1, 1)), decimal_hbar),
                  lambda: flatten(Q(1, 1), decimal_hbar),  # no p: hbar still checked
                  lambda: flatten(Mul(Sc(0.25), Q(1, 2)), exact),
                  lambda: hamiltonian_flat(1, exact, (0.31, 0.67)),
                  lambda: hamiltonian_flat(2, exact, (0.31 + 0.1j, 0.67)),
                  lambda: hamiltonian_flat(1, decimal, random_z(2, rnd)),
                  lambda: flatten(Sc(0.5), exact),  # the constant 0.5
                  lambda: flatten(Add(Q(1, 1), Sc(2j)), exact),
                  lambda: flatten(Mul(Sc(0.5), Sc(1)), exact)):  # 1 scaled by 0.5
        with pytest.raises(ParameterError, match="exact"):
            build()
