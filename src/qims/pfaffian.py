"""Finite-dimensional restrictions of the Hamiltonians and ODE transport.

A :class:`PfaffianSystem` holds the matrices M_i(z) of H_i on an invariant
subspace, with the convention (M_i)_{A,B} = coefficient of q^A in H_i q^B,
so the coefficient vector c of Psi = sum c_A q^A satisfies
``planck * d c / d z_i = M_i(z) c`` verbatim.  (Transpose bugs are the
likeliest failure mode here; every consumer relies on this one convention.)

M_i is stored in residue (dlog) form: partial fractions of
z_i H_i = W_i + V_i/(z_i - 1) + sum_j K_ij z_j/(z_i - z_j) give
M_i(z) = sum_p A_{i,p} / (z_i - point p) over the points (0, 1, z_1..z_N),
indexed p = 0..N+1, with sparse exact residues A_{i,0} = W_i - V_i - sum_j K_ij,
A_{i,1} = V_i and A_{i,j+1} = K_ij.  Each pair of points but {0, 1} is a
hyperplane H.  sum_i M_i dz_i is flat at every z iff K_ij = K_ji and Kohno's
conditions [A_H, sum_{H' ⊇ X} A_H'] = 0 hold for every codimension-2 flat X
and H through X (T. Kohno, Invent. Math. 82 (1985) 57).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PropagationError, SingularityError, SubspaceError
from .polyalg import enumerate_basis, enumerate_basis_FT
from .weylops import Parameters, check_z, flatten, hamiltonian_parts


def _columns(flat_op, basis, index_of, what):
    """An operator on the span of ``basis`` as sparse rows; error on leakage."""
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


def _lin(terms):
    """Sum of c * row over the (c, row) in ``terms``: a sparse row without zeros."""
    acc = {}
    for c, row in terms:
        for b, x in row.items():
            acc[b] = acc.get(b, 0) + c * x
    return {b: x for b, x in acc.items() if x}


def _combine(terms):
    """Sum of c * A over the (c, A) in ``terms``, for sparse-row matrices A."""
    cs, mats = zip(*terms)
    return [_lin(zip(cs, rows)) for rows in zip(*mats)]


def residue_sum(residues_i, z, i):
    """sum_p R_p / (z_i - point p) over the points (0, 1, z_1..z_N), as dense
    rows; ``residues_i`` maps p to the sparse rows of R_p, indexed as
    ``PfaffianSystem.residues[i]``."""
    points, zi = (0, 1) + tuple(z), z[i - 1]
    rows = _combine([(1 / (zi - points[p]), R) for p, R in residues_i.items()])
    zero = 0 * zi  # Fraction, float or complex, as z is
    return [[row.get(b, zero) for b in range(len(rows))] for row in rows]


def restricted_residues(params: Parameters, i: int, basis, index_of, space: str):
    """The residues {p: sparse rows} of H_i restricted to the span of ``basis``
    (``index_of`` maps each element to its position), indexed as
    ``PfaffianSystem.residues[i]``; ``space`` names the span in leakage errors."""
    if any(not isinstance(x, (int, Fraction)) for x in params.e + params.kappa + params.theta):
        raise ParameterError("restriction requires exact-rational parameters")
    parts = hamiltonian_parts(i, params)

    def restrict(op, what):
        return _columns(flatten(op, params), basis, index_of, f"H_{i} {what} part on {space}")

    W = restrict(parts["const"], "z-free")
    V = restrict(parts["pole1"], "1/(z_i-1)")
    K = {j + 1: restrict(op, f"z_{j}/(z_i-z_{j})") for j, op in parts["cross"].items()}
    A0 = _combine([(1, W), (-1, V)] + [(-1, Kj) for Kj in K.values()])
    return {0: A0, 1: V, **K}


class PfaffianSystem:
    """Restriction of all H_i to V(M) or F(T), held as exact residues."""

    def __init__(self, params: Parameters, space):
        kind, data = space
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
            self.basis = enumerate_basis_FT(L, N, T)  # checks len(T) = L - 1
            for m in range(1, L):
                if params.kappa[m] != -T[m - 1]:
                    raise ParameterError(
                        f"F(T) requires kappa_{m} = -T_{m} exactly; "
                        f"got {params.kappa[m]} != {-T[m - 1]}"
                    )
        else:
            raise ParameterError(f"unknown space kind {kind!r}; use ('V', M) or ('F', T)")
        self.index_of = {A: k for k, A in enumerate(self.basis)}
        self.dim = len(self.basis)
        # residues[i][p]: the residue of M_i where z_i meets point p
        self.residues = {i: restricted_residues(params, i, self.basis, self.index_of,
                                                f"{kind}{data}")
                         for i in range(1, N + 1)}

    def matrix_at(self, i: int, z):
        """Exact D x D matrix M_i(z) (dense rows) for exact rational z."""
        return residue_sum(self.residues[i], check_z(self.params, z), i)

    def residue_array(self, keys):
        """residues[i][p] for (i, p) in ``keys``, stacked as a complex (len(keys) * D, D) array."""
        out = np.zeros((len(keys), self.dim, self.dim), dtype=complex)
        for k, (i, p) in enumerate(keys):
            for a, row in enumerate(self.residues[i][p]):
                out[k, a, list(row)] = [complex(x) for x in row.values()]
        return out.reshape(-1, self.dim)

    def matrix_float(self, i: int, z) -> np.ndarray:
        """M_i(z) as a complex numpy array; z may be float or complex."""
        z = [complex(x) for x in z]
        points, zi = [0, 1] + z, z[i - 1]
        if any(zi == points[p] for p in self.residues[i]):
            raise SingularityError(f"z_{i} at a pole for matrix evaluation")
        return sum(self.residue_array([(i, p)]) / (zi - points[p]) for p in self.residues[i])


# --- flatness -------------------------------------------------------------------

class FlatnessResult(NamedTuple):
    commutator: object      # exact worst entry of a Kohno commutator
    derivative_rel: object  # exact worst max|K_ij - K_ji| / max(1, |K_ij|, |K_ji|)
    conditions: int         # Kohno commutators checked


def _product(A, B):
    return [_lin((x, B[k]) for k, x in row.items()) for row in A]


def _max_abs(rows):
    return max((abs(x) for row in rows for x in row.values()), default=0)


def codim2_flats(N):
    """Codimension-2 flats as lists of the hyperplanes (point pairs p < q) through
    them: three points meet, or two disjoint pairs do; 0 and 1 never meet."""
    hyperplanes = [(p, q) for q in range(2, N + 2) for p in range(q)]
    flats = [list(itertools.combinations(t, 2))
             for t in itertools.combinations(range(N + 2), 3) if t[:2] != (0, 1)]
    flats += [[h, g] for h, g in itertools.combinations(hyperplanes, 2)
              if not set(h) & set(g)]
    return flats


def flatness_residual(system: PfaffianSystem) -> FlatnessResult:
    """Exact residuals of flatness at every z, from the constant residues.

    The commutator residual is the worst entry of [A_H, sum_{H' ⊇ X} A_H']
    over every codimension-2 flat X and all but one H through X (the
    commutators at one X sum to zero).  The derivative residual is the
    symmetry defect K_ij - K_ji, which is (z_i - z_j)^2 times
    d_i M_j - d_j M_i.  Zero for both is a proof of flatness at every z.
    Both run on the residues cleared to integer rows over one denominator d,
    so a commutator entry is an integer over d^2.
    """
    d = math.lcm(*(x.denominator for r in system.residues.values() for A in r.values()
                   for row in A for x in row.values()))
    res = {i: {p: [{b: x.numerator * (d // x.denominator) for b, x in row.items()} for row in A]
               for p, A in r.items()} for i, r in system.residues.items()}
    worst, conditions = 0, 0
    for hyperplanes in codim2_flats(system.params.N):
        # points p < q meet on a hyperplane whose residue is that of z_{q-1} at p
        As = [res[q - 1][p] for p, q in hyperplanes]
        total = _combine([(1, A) for A in As])
        for A in As[:-1]:
            comm = _combine([(1, _product(A, total)), (-1, _product(total, A))])
            worst = max(worst, _max_abs(comm))
        conditions += len(As) - 1
    asym = Fraction(0)
    for i, j in itertools.combinations(range(1, system.params.N + 1), 2):
        Kij, Kji = res[i][j + 1], res[j][i + 1]
        diff = _combine([(1, Kij), (-1, Kji)])
        asym = max(asym, Fraction(_max_abs(diff), max(d, _max_abs(Kij), _max_abs(Kji))))
    return FlatnessResult(Fraction(worst, d * d), asym, conditions)


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

    The waypoints must be finite, and every point of every segment must keep
    a distance of at least ``guard`` times the segment length from each
    hyperplane z_i = 0, z_i = 1 and z_i = z_j.
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
        if not all(cmath.isfinite(x) for w in pts for x in w):
            raise ParameterError(f"waypoints must be finite, got {waypoints!r}")
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


# Dormand-Prince 5(4) tableau: stage j is rhs(s + C[j] h, c + h A[j, :j] @ K[:j])
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([r + (0.0,) * (7 - len(r)) for r in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)])
_DP_B5 = _DP_A[6]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


class TransportStats(NamedTuple):
    steps_accepted: int
    steps_rejected: int
    rhs_evaluations: int


def propagate(system: PfaffianSystem, path: ZPath, c0, rtol: float = 1e-10,
              atol: float = 1e-12, with_stats: bool = False):
    """Integrate planck * dc/dz_i = M_i(z) c along the path.

    ``c0`` is a vector (D,) or a block (D, k), such as ``np.eye(D)``, whose
    columns share the steps, chosen by the RMS error over the whole block.
    Embedded Dormand-Prince 5(4) with PI-free elementary step control;
    deterministic for fixed inputs and tolerances.  Raises
    :class:`PropagationError` when the step size underflows (e.g. drifting
    toward a pole) or the error estimate is not finite (a NaN or infinity in
    c0, the path or the tolerances), reporting the segment and arclength
    parameter.  Residue (i, p) enters the right-hand side with the weight
    dz_i / (f0 + s df).
    """
    if path.dim != system.params.N:
        raise ParameterError("path dimension does not match N")
    c = np.array(c0, dtype=complex)
    if c.ndim not in (1, 2) or len(c) != system.dim:
        raise ParameterError(f"c0 must have shape (D,) or (D, k) with D={system.dim}")
    shape, c = c.shape, c.reshape(-1)
    keys = [(i, p) for i, res in system.residues.items() for p in res]
    n, D = len(keys), system.dim
    flat = system.residue_array(keys).reshape(n, D * D)  # stacked once for every segment
    kappa = complex(system.params.planck)
    n_acc = n_rej = n_rhs = 0
    K = np.empty((7, c.size), dtype=complex)  # the stages of one step

    for seg, (wa, wb) in enumerate(zip(path.waypoints, path.waypoints[1:])):
        if wa == wb:
            continue
        pa, pb = (0, 1) + wa, (0, 1) + wb
        coef = np.array([(wb[i - 1] - wa[i - 1]) / kappa for i, _ in keys])
        f0 = np.array([wa[i - 1] - pa[p] for i, p in keys])
        df = np.array([wb[i - 1] - pb[p] for i, p in keys]) - f0

        def rhs(s, y):
            return (((coef / (f0 + s * df)) @ flat).reshape(D, D) @ y.reshape(D, -1)).ravel()

        s, h = 0.0, 0.1
        K[0] = rhs(s, c)
        n_rhs += 1
        while s < 1.0:
            h = min(h, 1.0 - s)
            if h < 1e-14:
                raise PropagationError(
                    f"step size underflow on segment {seg}", location=(seg, s))
            for j in range(1, 7):
                K[j] = rhs(s + _DP_C[j] * h, c + h * (_DP_A[j, :j] @ K[:j]))
            n_rhs += 6
            c5 = c + h * (_DP_B5 @ K)
            scale = atol + rtol * np.maximum(np.abs(c), np.abs(c5))
            enorm = math.sqrt(float(np.mean(np.abs(h * ((_DP_B5 - _DP_B4) @ K) / scale) ** 2)))
            if not math.isfinite(enorm):
                raise PropagationError(
                    f"non-finite error estimate on segment {seg}", location=(seg, s))
            if enorm <= 1.0:
                s += h
                c = c5
                K[0] = K[6]  # FSAL
                n_acc += 1
            else:
                n_rej += 1
            fac = 0.9 * (enorm ** -0.2) if enorm > 0 else 5.0
            h *= min(5.0, max(0.2, fac))
    if with_stats:
        return c.reshape(shape), TransportStats(n_acc, n_rej, n_rhs)
    return c.reshape(shape)
