"""Finite-dimensional restrictions of the Hamiltonians and ODE transport.

A :class:`PfaffianSystem` holds the matrices M_i(z) of H_i on an invariant
subspace, with the convention

    (M_i)_{A,B} = coefficient of q^A in H_i q^B,

so the coefficient vector c of Psi = sum c_A q^A satisfies
``planck * d c / d z_i = M_i(z) c`` verbatim.  (Transpose bugs are the
likeliest failure mode here; every consumer relies on this one convention.)

z_i H_i depends on z only through the scalars 1/(z_i - 1) and
z_j/(z_i - z_j), so the system precomputes three families of constant
matrices and assembles M_i(z) by scalar combination.  Entries of M_i are
therefore rational in z with denominators dividing
z_i (z_i - 1) prod_{j != i} (z_i - z_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PropagationError, SingularityError, SubspaceError
from .polyalg import enumerate_basis, enumerate_basis_FT
from .weylops import Parameters, check_z, flatten, hamiltonian_parts


def _columns(flat_op, basis, index_of, what):
    """Columns of an operator on the span of ``basis``; error on leakage."""
    D = len(basis)
    cols = []
    for bcol, B in enumerate(basis):
        out = flat_op.apply_index(B)
        col = [Fraction(0)] * D
        for A, c in out.items():
            row = index_of.get(A)
            if row is None:
                raise SubspaceError(
                    f"{what}: image of basis element {B} has out-of-space "
                    f"coefficient {c} at {A}",
                    offending_index=A,
                    coefficient=c,
                )
            col[row] = c
        cols.append(col)
    return [[cols[b][a] for b in range(D)] for a in range(D)]  # row-major


class PfaffianSystem:
    """Restriction of all H_i to V(M) or F(T), with fast evaluation in z."""

    def __init__(self, params: Parameters, space):
        kind, data = space
        if any(not isinstance(x, (int, Fraction)) for x in params.e + params.kappa + params.theta):
            raise ParameterError("restriction requires exact-rational parameters")
        self.params = params
        L, N = params.L, params.N
        if kind == "V":
            M = int(data)
            res = params.resonance_V
            if res != M:
                raise ParameterError(
                    f"V(M) requires kappa_0 - sum(theta_1..N) = M exactly; "
                    f"got {res} != {M}"
                )
            self.basis = enumerate_basis(L, N, M)
        elif kind == "F":
            T = tuple(int(t) for t in data)
            for m in range(1, L):
                if params.kappa[m] != -T[m - 1]:
                    raise ParameterError(
                        f"F(T) requires kappa_{m} = -T_{m} exactly; "
                        f"got {params.kappa[m]} != {-T[m - 1]}"
                    )
            self.basis = enumerate_basis_FT(L, N, T)
        else:
            raise ParameterError(f"unknown space kind {kind!r}; use ('V', M) or ('F', T)")
        self.space = (kind, data)
        self.index_of = {A: k for k, A in enumerate(self.basis)}
        self.dim = len(self.basis)

        # constant part matrices: z_i H_i = W_i + V_i/(z_i-1) + sum_j K_ij z_j/(z_i-z_j)
        self._W = {}
        self._V = {}
        self._K = {}
        for i in range(1, N + 1):
            parts = hamiltonian_parts(i, params)
            self._W[i] = _columns(flatten(parts["const"], params), self.basis, self.index_of,
                                  f"H_{i} z-free part on {kind}{data}")
            self._V[i] = _columns(flatten(parts["pole1"], params), self.basis, self.index_of,
                                  f"H_{i} 1/(z_i-1) part on {kind}{data}")
            self._K[i] = {
                j: _columns(flatten(op, params), self.basis, self.index_of,
                            f"H_{i} z_{j}/(z_i-z_{j}) part on {kind}{data}")
                for j, op in parts["cross"].items()
            }
        self._float_cache = None

    def matrix_at(self, i: int, z):
        """Exact D x D matrix M_i(z) for exact rational z."""
        z = check_z(self.params, z)
        zi = z[i - 1]
        D = self.dim
        W, V = self._W[i], self._V[i]
        c1 = 1 / (zi - 1)
        out = [[(W[a][b] + V[a][b] * c1) for b in range(D)] for a in range(D)]
        for j, K in self._K[i].items():
            cj = z[j - 1] / (zi - z[j - 1])
            for a in range(D):
                Ka = K[a]
                row = out[a]
                for b in range(D):
                    row[b] += Ka[b] * cj
        inv = 1 / zi
        return [[x * inv for x in row] for row in out]

    def _floats(self):
        if self._float_cache is None:
            conv = lambda mat: np.array([[complex(x) for x in row] for row in mat])
            self._float_cache = {
                i: (conv(self._W[i]), conv(self._V[i]),
                    {j: conv(K) for j, K in self._K[i].items()})
                for i in self._W
            }
        return self._float_cache

    def matrix_float(self, i: int, z) -> np.ndarray:
        """M_i(z) as a complex numpy array; z may be float or complex."""
        z = [complex(x) for x in z]
        zi = z[i - 1]
        if zi == 0 or zi == 1 or any(zi == z[j] for j in range(len(z)) if j != i - 1):
            raise SingularityError(f"z_{i} at a pole for matrix evaluation")
        W, V, Ks = self._floats()[i]
        out = W + V / (zi - 1)
        for j, K in Ks.items():
            out = out + K * (z[j - 1] / (zi - z[j - 1]))
        return out / zi


# --- flatness -------------------------------------------------------------------

class FlatnessResult(NamedTuple):
    commutator: object      # exact max-abs entry of [M_i(z), M_j(z)]
    derivative_rel: object  # exact max-abs entry of d_i M_j - d_j M_i, relative


def _mat_mul_exact(A, B):
    D = len(A)
    return [[sum(A[a][k] * B[k][b] for k in range(D)) for b in range(D)] for a in range(D)]


def _max_abs_exact(A):
    return max((abs(x) for row in A for x in row), default=Fraction(0))


def cross_derivative(system: PfaffianSystem, z, i: int, j: int):
    """d M_j / d z_i for i != j: exactly K_ji / (z_i - z_j)^2.

    Only the term K_ji z_i/(z_j - z_i) of z_j M_j depends on z_i, and
    d/dz_i [z_i/(z_j - z_i)] = z_j/(z_j - z_i)^2 cancels the 1/z_j.  Exact
    for exact z; complex z gives complex entries.
    """
    c = 1 / (z[i - 1] - z[j - 1]) ** 2
    return [[x * c for x in row] for row in system._K[j][i]]


def flatness_residual(system: PfaffianSystem, z, i: int, j: int) -> FlatnessResult:
    """Exact commutator of M_i, M_j and exact cross-derivative d_i M_j - d_j M_i.

    The derivative residual is relative to max(1, |d_i M_j|, |d_j M_i|).
    Both are exact rationals for exact z, so zero is a proof at z.
    """
    if i == j:
        return FlatnessResult(Fraction(0), Fraction(0))
    z = check_z(system.params, z)
    Mi = system.matrix_at(i, z)
    Mj = system.matrix_at(j, z)
    comm = _mat_mul_exact(Mi, Mj)
    rev = _mat_mul_exact(Mj, Mi)
    D = system.dim
    comm = [[comm[a][b] - rev[a][b] for b in range(D)] for a in range(D)]
    dj = cross_derivative(system, z, i, j)
    di = cross_derivative(system, z, j, i)
    diff = [[dj[a][b] - di[a][b] for b in range(D)] for a in range(D)]
    scale = max(1, _max_abs_exact(dj), _max_abs_exact(di))
    return FlatnessResult(_max_abs_exact(comm), _max_abs_exact(diff) / scale)


# --- paths and transport ----------------------------------------------------------

_POLE_GUARD = Fraction(1, 1000)  # min pole distance relative to segment length


def _segment_min_affine(a, b):
    """min over s in [0,1] of |a + s b| for complex a, b."""
    if b == 0:
        return abs(a)
    s = -((a * b.conjugate()).real) / (abs(b) ** 2)
    s = min(1.0, max(0.0, s))
    return abs(a + s * b)


@dataclass(frozen=True)
class ZPath:
    """Piecewise-straight path in z-space avoiding the pole hyperplanes.

    Every point of every segment must keep a distance of at least
    ``guard`` times the segment length from each hyperplane z_i = 0,
    z_i = 1 and z_i = z_j.
    """

    waypoints: tuple
    guard: float = float(_POLE_GUARD)

    def __init__(self, waypoints, guard=float(_POLE_GUARD)):
        pts = tuple(tuple(complex(x) for x in w) for w in waypoints)
        if len(pts) < 1:
            raise ParameterError("a path needs at least one waypoint")
        N = len(pts[0])
        if any(len(w) != N for w in pts):
            raise ParameterError("all waypoints must have the same dimension")
        object.__setattr__(self, "waypoints", pts)
        object.__setattr__(self, "guard", float(guard))
        for seg, (wa, wb) in enumerate(zip(pts, pts[1:])):
            seglen = math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(wa, wb)))
            floor = self.guard * seglen
            for k in range(N):
                a, b = wa[k], wb[k] - wa[k]
                dists = [_segment_min_affine(a, b), _segment_min_affine(a - 1, b)]
                for l in range(N):
                    if l != k:
                        dists.append(_segment_min_affine(
                            a - wa[l], b - (wb[l] - wa[l])) / math.sqrt(2))
                d = min(dists)
                if d == 0 or d < floor:
                    raise SingularityError(
                        f"segment {seg} passes within {d:.3g} of a pole hyperplane "
                        f"(guard {floor:.3g})"
                    )

    @property
    def dim(self):
        return len(self.waypoints[0])

    def is_closed(self):
        return self.waypoints[0] == self.waypoints[-1]


# Dormand-Prince 5(4) tableau
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


class TransportStats(NamedTuple):
    steps_accepted: int
    steps_rejected: int
    rhs_evaluations: int


def propagate(system: PfaffianSystem, path: ZPath, c0, rtol: float = 1e-10,
              atol: float = 1e-12, with_stats: bool = False):
    """Integrate planck * dc/dz_i = M_i(z) c along the path.

    Embedded Dormand-Prince 5(4) with PI-free elementary step control;
    deterministic for fixed inputs and tolerances.  Raises
    :class:`PropagationError` when the step size underflows (e.g. drifting
    toward a pole), reporting the segment and arclength parameter.
    """
    if path.dim != system.params.N:
        raise ParameterError("path dimension does not match N")
    c = np.asarray(c0, dtype=complex).copy()
    if c.shape != (system.dim,):
        raise ParameterError(f"c0 must have length D={system.dim}")
    kappa = complex(system.params.planck)
    n_acc = n_rej = n_rhs = 0

    for seg, (wa, wb) in enumerate(zip(path.waypoints, path.waypoints[1:])):
        dz = [b - a for a, b in zip(wa, wb)]
        if all(d == 0 for d in dz):
            continue

        def rhs(s, y):
            z = [a + s * d for a, d in zip(wa, dz)]
            out = np.zeros_like(y)
            for i in range(1, system.params.N + 1):
                if dz[i - 1] != 0:
                    out = out + dz[i - 1] * (system.matrix_float(i, z) @ y)
            return out / kappa

        s = 0.0
        h = 0.1
        k1 = rhs(s, c)
        n_rhs += 1
        while s < 1.0:
            h = min(h, 1.0 - s)
            if h < 1e-14:
                raise PropagationError(
                    f"step size underflow on segment {seg}", location=(seg, s))
            ks = [k1]
            for row, crow in zip(_DP_A[1:], _DP_C[1:]):
                y = c + h * sum(a * k for a, k in zip(row, ks))
                ks.append(rhs(s + crow * h, y))
                n_rhs += 1
            c5 = c + h * sum(b * k for b, k in zip(_DP_B5, ks))
            c4 = c + h * sum(b * k for b, k in zip(_DP_B4, ks))
            err = c5 - c4
            scale = atol + rtol * np.maximum(np.abs(c), np.abs(c5))
            enorm = math.sqrt(float(np.mean(np.abs(err / scale) ** 2)))
            if enorm <= 1.0:
                s += h
                c = c5
                k1 = ks[6]  # FSAL
                n_acc += 1
            else:
                n_rej += 1
            fac = 0.9 * (enorm ** -0.2) if enorm > 0 else 5.0
            h *= min(5.0, max(0.2, fac))
    if with_stats:
        return c, TransportStats(n_acc, n_rej, n_rhs)
    return c

