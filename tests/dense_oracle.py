"""The restriction in its assembled dense form, kept as a test oracle.

``PfaffianSystem`` stores M_i(z) as exact residues.  This module builds the
constant matrices of z_i H_i = W_i + V_i/(z_i - 1) + sum_j K_ij z_j/(z_i - z_j)
straight from the operators, as dense row-major lists of Fractions, and
keeps the checks that work at one point z: the exact commutator
[M_i(z), M_j(z)] and the exact cross-derivative
d_i M_j - d_j M_i = (K_ji - K_ij)/(z_i - z_j)^2.  It also keeps the residues
built as sparse rows of ``Fraction``s, the oracle for the integer rows of
``PfaffianSystem.residues``; Kohno's conditions on those ``Fraction``
residues, the oracle for ``flatness_residual``; and an adaptive
Dormand-Prince 5(4) integrator with one stage at a time on one vector, an
oracle for the Taylor-series ``propagate``; and the pole guard on a path's
segments in the geometry ``ZPath`` once ran, the oracle for the guard in
``propagate``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from qims.errors import PropagationError, SingularityError, SubspaceError
from qims.pfaffian import FlatnessResult, _combine, codim2_flats
from qims.polyalg import enumerate_basis, lin
from qims.weylops import flatten, hamiltonian_parts


class DenseSystem:
    """W_i, V_i and K_ij of the restriction to V(M), as dense exact matrices."""

    def __init__(self, params, M):
        self.basis = enumerate_basis(params.L, params.N, M)
        self.dim = len(self.basis)
        index_of = {A: k for k, A in enumerate(self.basis)}

        def dense(op):
            flat = flatten(op, params)
            out = [[Fraction(0)] * self.dim for _ in self.basis]
            for b, B in enumerate(self.basis):
                for A, c in flat.apply_index(B).items():
                    out[index_of[A]][b] = c
            return out

        self.W, self.V, self.K = {}, {}, {}
        for i in range(1, params.N + 1):
            parts = hamiltonian_parts(i, params)
            self.W[i] = dense(parts["const"])
            self.V[i] = dense(parts["pole1"])
            self.K[i] = {j: dense(op) for j, op in parts["cross"].items()}

    def matrix_at(self, i, z):
        """M_i(z) = [W_i + V_i/(z_i - 1) + sum_j K_ij z_j/(z_i - z_j)] / z_i."""
        zi, D = z[i - 1], self.dim
        out = [[self.W[i][a][b] + self.V[i][a][b] / (zi - 1) for b in range(D)]
               for a in range(D)]
        for j, K in self.K[i].items():
            cj = z[j - 1] / (zi - z[j - 1])
            for a in range(D):
                for b in range(D):
                    out[a][b] += K[a][b] * cj
        return [[x / zi for x in row] for row in out]

    def cross_derivative(self, z, i, j):
        """d M_j / d z_i for i != j: exactly K_ji / (z_i - z_j)^2."""
        c = 1 / (z[i - 1] - z[j - 1]) ** 2
        return [[x * c for x in row] for row in self.K[j][i]]


def mat_mul(A, B):
    D = len(A)
    return [[sum(A[a][k] * B[k][b] for k in range(D)) for b in range(D)] for a in range(D)]


def max_abs(A):
    return max((abs(x) for row in A for x in row), default=Fraction(0))


def point_flatness(dense, z, i, j):
    """Exact max|[M_i(z), M_j(z)]| and max|d_i M_j - d_j M_i| relative to
    max(1, |d_i M_j|, |d_j M_i|); zero for both is a proof of flatness at z."""
    Mi, Mj = dense.matrix_at(i, z), dense.matrix_at(j, z)
    ij, ji = mat_mul(Mi, Mj), mat_mul(Mj, Mi)
    comm = [[x - y for x, y in zip(r, s)] for r, s in zip(ij, ji)]
    dj, di = dense.cross_derivative(z, i, j), dense.cross_derivative(z, j, i)
    diff = [[x - y for x, y in zip(r, s)] for r, s in zip(dj, di)]
    return max_abs(comm), max_abs(diff) / max(1, max_abs(dj), max_abs(di))


def transport_matrix_float(system, waypoints, c0, rtol, atol):
    """planck dc/dz_i = M_i(z) c along straight segments, with matrix_float
    rebuilt at every stage as the right-hand side (scipy's DOP853)."""
    c = np.asarray(c0, dtype=complex)
    planck, N = complex(system.params.planck), system.params.N
    for wa, wb in zip(waypoints, waypoints[1:]):
        wa, dz = np.asarray(wa, dtype=complex), np.subtract(wb, wa)

        def rhs(s, y):
            z = wa + s * dz
            return sum(dz[i - 1] * (system.matrix_float(i, z) @ y)
                       for i in range(1, N + 1)) / planck
        c = solve_ivp(rhs, (0.0, 1.0), c, method="DOP853", rtol=rtol, atol=atol).y[:, -1]
    return c


def zpath_guard(waypoints, guard=1e-3):
    """Raise SingularityError where a segment passes within ``guard`` times its
    length of a hyperplane z_k = 0, z_k = 1 or z_k = z_l, reporting the first
    such k and its nearest hyperplane; each distance is computed per variable."""

    def closest(a, b):  # min over s in [0, 1] of |a + s b|
        if b == 0:
            return abs(a)
        return abs(a + min(1.0, max(0.0, -((a * b.conjugate()).real) / abs(b) ** 2)) * b)

    pts = [tuple(complex(x) for x in w) for w in waypoints]
    for seg, (wa, wb) in enumerate(zip(pts, pts[1:])):
        floor = guard * math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(wa, wb)))
        for k, (a, b) in enumerate((x, y - x) for x, y in zip(wa, wb)):
            d = min([closest(a, b), closest(a - 1, b)]
                    + [closest(a - wa[l], b - (wb[l] - wa[l])) / math.sqrt(2)
                       for l in range(len(wa)) if l != k])
            if d == 0 or d < floor:
                raise SingularityError(f"segment {seg} passes within {d:.3g} of a pole "
                                       f"hyperplane (guard {floor:.3g})")


def fraction_columns(flat_op, basis, index_of, what):
    """An operator on the span of ``basis`` as sparse rows of ``Fraction``s;
    error on leakage."""
    rows = [{} for _ in basis]
    for bcol, B in enumerate(basis):
        for A, c in flat_op.apply_index(B).items():
            row = index_of.get(A)
            if row is None:
                raise SubspaceError(
                    f"{what}: image of basis element {B} has out-of-space "
                    f"coefficient {c} at {A}",
                    offending_index=A,
                    coefficient=c,
                )
            if c:
                rows[row][bcol] = c
    return rows


def fraction_restriction(params, i, basis, index_of, space):
    """The residues {p: Fraction rows} of H_i on the span of ``basis``, indexed
    as ``PfaffianSystem.residues[i]``."""
    parts = hamiltonian_parts(i, params)

    def restrict(op, what):
        return fraction_columns(flatten(op, params), basis, index_of,
                                f"H_{i} {what} part on {space}")

    W = restrict(parts["const"], "z-free")
    V = restrict(parts["pole1"], "1/(z_i-1)")
    K = {j + 1: restrict(op, f"z_{j}/(z_i-z_{j})") for j, op in parts["cross"].items()}
    A0 = _combine([(1, W), (-1, V)] + [(-1, Kj) for Kj in K.values()])
    return {0: A0, 1: V, **K}


def fraction_residues(system):
    """``fraction_restriction`` of every H_i on the basis of ``system``."""
    return {i: fraction_restriction(system.params, i, system.basis, system.index_of, "oracle")
            for i in system.residues}


def fractions(residue):
    """A residue ``(den, rows)`` as sparse rows of ``Fraction``s."""
    den, rows = residue
    return [{b: Fraction(x, den) for b, x in row.items()} for row in rows]


def _product(A, B):
    return [lin((x, B[k]) for k, x in row.items()) for row in A]


def fraction_flatness(N, res):
    """Kohno's commutators and the symmetry defect K_ij - K_ji on the residues
    ``res`` = {i: {p: Fraction rows}}, as a ``FlatnessResult``."""
    def worst_entry(rows):
        # a planted int entry stays an int; Fraction keeps the quotient below exact
        return max((Fraction(abs(x)) for row in rows for x in row.values()), default=Fraction(0))

    worst, conditions = Fraction(0), 0
    for hyperplanes in codim2_flats(N):
        As = [res[q - 1][p] for p, q in hyperplanes]
        total = _combine([(1, A) for A in As])
        for A in As[:-1]:
            comm = _combine([(1, _product(A, total)), (-1, _product(total, A))])
            worst = max(worst, worst_entry(comm))
        conditions += len(As) - 1
    asym = Fraction(0)
    for i, j in itertools.combinations(range(1, N + 1), 2):
        Kij, Kji = res[i][j + 1], res[j][i + 1]
        diff = _combine([(1, Kij), (-1, Kji)])
        asym = max(asym, worst_entry(diff) / max(1, worst_entry(Kij), worst_entry(Kji)))
    return FlatnessResult(worst, asym, conditions)


_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def propagate_stagewise(system, path, c0, rtol=1e-10, atol=1e-12):
    """``propagate`` for one vector by Dormand-Prince 5(4) with elementary step
    control, each stage and weight summed in a Python loop."""
    c = np.asarray(c0, dtype=complex).copy()
    keys = [(i, p) for i, res in system.residues.items() for p in res]
    n, D = len(keys), system.dim
    stack = system.residue_array(keys)
    kappa = complex(system.params.planck)
    for seg, (wa, wb) in enumerate(zip(path.waypoints, path.waypoints[1:])):
        if wa == wb:
            continue
        pa, pb = (0, 1) + wa, (0, 1) + wb
        coef = np.array([(wb[i - 1] - wa[i - 1]) / kappa for i, _ in keys])
        f0 = np.array([wa[i - 1] - pa[p] for i, p in keys])
        df = np.array([wb[i - 1] - pb[p] for i, p in keys]) - f0

        def rhs(s, y):
            return (coef / (f0 + s * df)) @ (stack @ y).reshape(n, D)

        s, h = 0.0, 0.1
        k1 = rhs(s, c)
        while s < 1.0:
            h = min(h, 1.0 - s)
            if h < 1e-14:
                raise PropagationError(f"step size underflow on segment {seg}",
                                       location=(seg, s))
            ks = [k1]
            for row, crow in zip(_DP_A[1:], _DP_C[1:]):
                y = c + h * sum(a * k for a, k in zip(row, ks))
                ks.append(rhs(s + crow * h, y))
            c5 = c + h * sum(b * k for b, k in zip(_DP_B5, ks))
            c4 = c + h * sum(b * k for b, k in zip(_DP_B4, ks))
            scale = atol + rtol * np.maximum(np.abs(c), np.abs(c5))
            enorm = math.sqrt(float(np.mean(np.abs((c5 - c4) / scale) ** 2)))
            if not math.isfinite(enorm):
                raise PropagationError(f"non-finite error estimate on segment {seg}",
                                       location=(seg, s))
            if enorm <= 1.0:
                s += h
                c = c5
                k1 = ks[6]  # FSAL
            fac = 0.9 * (enorm ** -0.2) if enorm > 0 else 5.0
            h *= min(5.0, max(0.2, fac))
    return c
