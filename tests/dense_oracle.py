"""The restriction in its assembled dense form, kept as a test oracle.

``PfaffianSystem`` stores M_i(z) as exact residues.  This module builds the
constant matrices of z_i H_i = W_i + V_i/(z_i - 1) + sum_j K_ij z_j/(z_i - z_j)
straight from the operators, as dense row-major lists of Fractions, and
keeps the checks that work at one point z: the exact commutator
[M_i(z), M_j(z)] and the exact cross-derivative
d_i M_j - d_j M_i = (K_ji - K_ij)/(z_i - z_j)^2.
"""

from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from qims.polyalg import enumerate_basis
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
