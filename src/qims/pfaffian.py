"""Finite-dimensional restrictions of the Hamiltonians and their transport.

A :class:`PfaffianSystem` holds the matrices M_i(z) of H_i on an invariant
subspace, with the convention (M_i)_{A,B} = coefficient of q^A in H_i q^B,
so the coefficient vector c of Psi = sum c_A q^A satisfies
``planck * d c / d z_i = M_i(z) c`` verbatim.  (Transpose bugs are the
likeliest failure mode here; every consumer relies on this one convention.)

M_i is stored in residue (dlog) form: partial fractions of
z_i H_i = W_i + V_i/(z_i - 1) + sum_j K_ij z_j/(z_i - z_j) give
M_i(z) = sum_p A_{i,p} / (z_i - point p) over the points (0, 1, z_1..z_N),
indexed p = 0..N+1, with exact residues A_{i,0} = W_i - V_i - sum_j K_ij,
A_{i,1} = V_i and A_{i,j+1} = K_ij.  Each pair of points but {0, 1} is a
hyperplane H.  sum_i M_i dz_i is flat at every z iff K_ij = K_ji and Kohno's
conditions [A_H, sum_{H' ⊇ X} A_H'] = 0 hold for every codimension-2 flat X
and H through X (T. Kohno, Invent. Math. 82 (1985) 57).  :func:`propagate`
transports c by Taylor series, whose coefficients follow a two-term recurrence
(D. V. & G. V. Chudnovsky 1990; J. van der Hoeven, TCS 210 (1999) 199); it
rejects a segment too near a pole and an endpoint that rounding may have swamped.
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
from .polyalg import enumerate_basis, enumerate_basis_FT, lin, max_abs
from .weylops import Parameters, check_times, check_z, flatten, hamiltonian_parts


def _columns(flat_op, basis, index_of, what):
    """An operator on the span of ``basis`` as a residue ``(den, rows)``; error on leakage."""
    rows = [{} for _ in basis]
    for bcol, B in enumerate(basis):
        for A, c in flat_op.image(B).items():
            row = index_of.get(A)
            if row is None:
                c = Fraction(c, flat_op.den)
                raise SubspaceError(
                    f"{what}: image of basis element {B} has out-of-space "
                    f"coefficient {c} at {A}",
                    offending_index=A,
                    coefficient=c,
                )
            rows[row][bcol] = c
    return _lowest(flat_op.den, rows)


def _combine(terms):
    """Sum of c * A over the (c, A) in ``terms``, for sparse-row matrices A."""
    cs, mats = zip(*terms)
    return [lin(zip(cs, rows)) for rows in zip(*mats)]


def _lowest(den, rows):
    """The residue ``(den, rows)`` with the gcd of ``den`` and every entry divided out."""
    g = math.gcd(den, *(x for row in rows for x in row.values()))
    return den // g, ([{b: x // g for b, x in row.items()} for row in rows] if g > 1 else rows)


def _cleared(rows):
    """Sparse rows of exact rationals as a residue ``(den, int rows)``."""
    d = math.lcm(*(x.denominator for row in rows for x in row.values()))
    return d, [{b: x.numerator * (d // x.denominator) for b, x in row.items() if x}
               for row in rows]


def _combine_residues(terms):
    """Sum of c * R over the (c, R) in ``terms``, for int c and residues R."""
    d = math.lcm(*(den for _, (den, _) in terms))
    return _lowest(d, _combine([(c * (d // den), rows) for c, (den, rows) in terms]))


def residue_sum(residues_i, z, i):
    """sum_p R_p / (z_i - point p) over the points (0, 1, z_1..z_N), as dense
    rows of Fractions (floats or complexes for a decimal z) that share one zero
    object; ``residues_i`` maps p to R_p, indexed as ``PfaffianSystem.residues[i]``."""
    points, zi = (0, 1) + tuple(z), z[i - 1]
    zero = 0 * zi  # Fraction, float or complex, as z is
    ws = [(1 / (zi - points[p]), den, R) for p, (den, R) in residues_i.items()]
    if all(type(w) is Fraction for w, _, _ in ws):  # one int sum per entry over q
        ws = [(w / den, R) for w, den, R in ws]
        q = math.lcm(*(w.denominator for w, _ in ws))
        rows = [{b: Fraction(x, q) for b, x in row.items()}
                for row in _combine([(w.numerator * (q // w.denominator), R) for w, R in ws])]
    else:
        rows = _combine([(w, [{b: x / den for b, x in row.items()} for row in R])
                         for w, den, R in ws])
    out = [[zero] * len(rows) for _ in rows]
    for dense, row in zip(out, rows):
        for b, x in row.items():
            dense[b] = x
    return out


def require_exact(params: Parameters, z=()):
    """Reject decimal input to an exact computation, naming every decimal field
    among z, e, kappa, theta and hbar (planck never enters one)."""
    fields = {"z": z, "e": params.e, "kappa": params.kappa, "theta": params.theta,
              "hbar": (params.hbar,)}
    inexact = [k for k, xs in fields.items()
               if not all(isinstance(x, (int, Fraction)) for x in xs)]
    if inexact:
        raise ParameterError("exact arithmetic needs exact rationals ('p/q' strings or "
                             f"integers); decimal in: {', '.join(inexact)}")


def restricted_residues(params: Parameters, i: int, basis, index_of, space: str):
    """The residues {p: (den, rows)} of H_i restricted to the span of ``basis``
    (``index_of`` maps each element to its position), indexed as
    ``PfaffianSystem.residues[i]``; ``space`` names the span in leakage errors."""
    require_exact(params)
    parts = hamiltonian_parts(i, params)

    def restrict(op, what):
        return _columns(flatten(op, params), basis, index_of, f"H_{i} {what} part on {space}")

    W = restrict(parts["const"], "z-free")
    V = restrict(parts["pole1"], "1/(z_i-1)")
    K = {j + 1: restrict(op, f"z_{j}/(z_i-z_{j})") for j, op in parts["cross"].items()}
    A0 = _combine_residues([(1, W), (-1, V)] + [(-1, Kj) for Kj in K.values()])
    return {0: A0, 1: V, **K}


class PfaffianSystem:
    """Restriction of all H_i to V(M) or F(T), held as exact residues.

    ``residues[i][p]``, the residue of M_i where z_i meets point p, is a pair
    ``(den, rows)`` of sparse ``{column: int}`` rows without zeros over their
    least positive common denominator, so equal residues are equal pairs.

    Each H_i is restricted when first used and kept: :meth:`matrix_at` and
    :meth:`matrix_float` restrict only their own i, so they prove the span
    invariant under that H_i alone.  Reading ``residues`` restricts every H_i,
    in the order i = 1..N, so :func:`flatness_residual` and :func:`propagate`
    raise :class:`SubspaceError` for a leak under any of them."""

    def __init__(self, params: Parameters, space):
        kind, data = space
        self.params = params
        L, N = params.L, params.N
        if kind == "V":
            if type(data) is not int:  # bool too: no silent truncation to an int
                raise ParameterError(f"V(M) needs an integer M, got {data!r}")
            M = data
            res = params.resonance_V
            if res != M:
                raise ParameterError(
                    f"V(M) requires kappa_0 - sum(theta_1..N) = M exactly; "
                    f"got {res} != {M}"
                )
            self.basis = enumerate_basis(L, N, M)
        elif kind == "F":
            T = tuple(data) if isinstance(data, (tuple, list)) else None
            if T is None or any(type(t) is not int for t in T):
                raise ParameterError(f"F(T) needs integer caps T, got {data!r}")
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
        self._space = f"{kind}{data}"
        self._restricted = {}

    def _residues_of(self, i):
        """``residues[i]``, restricted on the first call for this i."""
        res = self._restricted.get(i)
        if res is None:
            res = self._restricted[i] = restricted_residues(
                self.params, i, self.basis, self.index_of, self._space)
        return res

    @property
    def residues(self):
        """{i: residues of M_i} for every time i, each restricted on first use."""
        return {i: self._residues_of(i) for i in range(1, self.params.N + 1)}

    def matrix_at(self, i: int, z):
        """Exact D x D matrix M_i(z) (dense rows) for exact rational z."""
        check_times(self.params.N, i)
        return residue_sum(self._residues_of(i), check_z(self.params, z), i)

    def residue_array(self, keys):
        """residues[i][p] for (i, p) in ``keys``, stacked as a complex (len(keys) * D, D) array."""
        residues = self.residues
        out = np.zeros((len(keys), self.dim, self.dim))
        for k, (i, p) in enumerate(keys):
            for a, row in enumerate(residues[i][p][1]):
                out[k, a, list(row)] = list(row.values())
        dens = np.array([residues[i][p][0] for i, p in keys], dtype=float)
        return (out / dens[:, None, None]).astype(complex).reshape(-1, self.dim)

    def matrix_float(self, i: int, z) -> np.ndarray:
        """M_i(z) as a complex numpy array for float or complex z: the rows
        :func:`residue_sum` gives at the decimal z, with the checks of
        :meth:`matrix_at`."""
        check_times(self.params.N, i)
        res = self._residues_of(i)
        return np.array(residue_sum(res, check_z(self.params, [complex(x) for x in z]), i),
                        dtype=complex)


# --- flatness -------------------------------------------------------------------

class FlatnessResult(NamedTuple):
    commutator: object      # exact worst entry of a Kohno commutator
    derivative_rel: object  # exact worst max|K_ij - K_ji| / max(1, |K_ij|, |K_ji|)
    conditions: int         # Kohno commutators checked


def _max_abs(rows):
    return max(map(max_abs, rows), default=0)


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
    Both run on the residues scaled to integer rows over the lcm d of their
    denominators, so a commutator entry is an integer over d^2.
    """
    residues = system.residues
    d = math.lcm(*(den for r in residues.values() for den, _ in r.values()))
    res = {i: {p: rows if den == d else [{b: x * (d // den) for b, x in row.items()}
                                         for row in rows]
               for p, (den, rows) in r.items()} for i, r in residues.items()}
    worst, conditions = 0, 0
    for hyperplanes in codim2_flats(system.params.N):
        # points p < q meet on a hyperplane whose residue is that of z_{q-1} at p
        As = [res[q - 1][p] for p, q in hyperplanes]
        total = _combine([(1, A) for A in As])
        for A in As[:-1]:
            # row r of [total, A] in one pass, the form of weylops._commutator
            worst = max(worst, _max_abs(
                lin([(x, A[k]) for k, x in total[r].items()]
                    + [(-x, total[k]) for k, x in A[r].items()]) for r in range(len(A))))
        conditions += len(As) - 1
    asym = Fraction(0)
    for i, j in itertools.combinations(range(1, system.params.N + 1), 2):
        Kij, Kji = res[i][j + 1], res[j][i + 1]
        diff = _combine([(1, Kij), (-1, Kji)])
        asym = max(asym, Fraction(_max_abs(diff), max(d, _max_abs(Kij), _max_abs(Kji))))
    return FlatnessResult(Fraction(worst, d * d), asym, conditions)


# --- paths and transport ----------------------------------------------------------

_POLE_GUARD = Fraction(1, 1000)  # min pole distance relative to segment length


@dataclass(frozen=True)
class ZPath:
    """Piecewise-straight path in z-space through finite waypoints of one dimension."""

    waypoints: tuple

    def __init__(self, waypoints):
        pts = tuple(tuple(complex(x) for x in w) for w in waypoints)
        if len(pts) < 1:
            raise ParameterError("a path needs at least one waypoint")
        N = len(pts[0])
        if any(len(w) != N for w in pts):
            raise ParameterError("all waypoints must have the same dimension")
        if not all(cmath.isfinite(x) for w in pts for x in w):
            raise ParameterError(f"waypoints must be finite, got {waypoints!r}")
        object.__setattr__(self, "waypoints", pts)

    @property
    def dim(self):
        return len(self.waypoints[0])


# With sum_k |h w_k| ||A_k||_inf <= 4 and |h r_k| <= 0.4, the terms are dominated by those of
# max|c| (1 - 0.4 t)^-10: these sum to < 166 max|c|, and the order-200 one is < 5e-65 max|c|.
_RATE_CAP, _MAX_ORDER = 4.0, 200


class TransportStats(NamedTuple):
    steps: int     # Taylor steps
    products: int  # residue products, one per series order


def propagate(system: PfaffianSystem, path: ZPath, c0, rtol: float = 1e-10,
              atol: float = 1e-12):
    """Integrate planck * dc/dz_i = M_i(z) c along the path by Taylor series;
    return ``(c, TransportStats)``.

    ``c0`` is a vector (D,) or a block (D, k), such as ``np.eye(D)``, whose
    columns share the steps.  On a segment, dc/ds = sum_k w_k(s) A_k c with
    w_k = coef_k / b_k, b_k = f0_k + s df_k and coef_k = dz_i / planck for the
    residue A_k = (i, p).  A segment where some |b_k| (over sqrt 2 for z_i = z_j,
    the distance to that hyperplane) comes to 0 or within ``_POLE_GUARD`` of its
    length raises :class:`SingularityError`.  With r_k = -df_k / b_k the Taylor
    coefficients at s obey (m+1) c_(m+1) = sum_k w_k A_k g_(k,m),
    g_(k,m) = c_m + r_k g_(k,m-1), one product of the residues side by side per
    order.  A step is h = min(1 - s, 0.4 min_k |b_k / df_k|) over the df_k != 0
    (the nearest pole), cut where sum_k |h w_k| ||A_k|| would pass ``_RATE_CAP``;
    its terms, scaled by h^m, are summed until two consecutive ones lie within
    atol + rtol |c| entrywise.  That assumes the terms then decay geometrically
    at ratio <= 0.4, so two small terms bound the tail; M. Mezzarobba & B.
    Salvy, arXiv:0904.2452, give a rigorous majorant.  Deterministic; raises
    :class:`PropagationError` at (segment, s) for a non-finite term (NaN or
    infinity in c0 or the tolerances) or a series unsettled at order 200.
    Rounding leaves an error of about eps |c(s)| at each step in modes that need
    not decay, so it also raises at (last segment, 1.0) when eps max|c| over the
    steps' starting points exceeds atol + rtol max|c_end| in some column: a
    necessary condition for an accurate endpoint, not a proof of one."""
    if path.dim != system.params.N:
        raise ParameterError("path dimension does not match N")
    c = np.array(c0, dtype=complex)
    if c.ndim not in (1, 2) or len(c) != system.dim:
        raise ParameterError(f"c0 must have shape (D,) or (D, k) with D={system.dim}")
    shape, c = c.shape, c.reshape(system.dim, -1)
    keys = [(i, p) for i, res in system.residues.items() for p in res]
    n, D = len(keys), system.dim
    stack = system.residue_array(keys).reshape(n, D, D).transpose(1, 0, 2).reshape(D, n * D)
    norms = np.abs(stack).reshape(D, n, D).sum(axis=2).max(axis=0)
    scale = np.array([math.sqrt(2) if p >= 2 else 1.0 for _, p in keys])
    peak = np.zeros(c.shape[1])  # max |c| at the start of any step, per column
    n_steps = n_products = 0
    for seg, (wa, wb) in enumerate(zip(path.waypoints, path.waypoints[1:])):
        pa, pb = (0, 1) + wa, (0, 1) + wb
        coef = np.array([wb[i - 1] - wa[i - 1] for i, _ in keys]) / complex(system.params.planck)
        f0 = np.array([wa[i - 1] - pa[p] for i, p in keys])
        df = np.array([wb[i - 1] - pb[p] for i, p in keys]) - f0
        # each pole's closest approach over s in [0, 1], as a distance in z-space
        sq = np.abs(df) ** 2
        near = np.clip(-(f0 * df.conj()).real / np.where(sq > 0, sq, 1.0), 0.0, 1.0)
        dist = np.abs(f0 + near * df) / scale
        floor = float(_POLE_GUARD) * math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(wa, wb)))
        fails = (dist == 0) | (dist < floor)
        if fails.any():  # named by the first failing z_i and its nearest pole
            first = keys[int(fails.argmax())][0]
            d = dist[[i == first for i, _ in keys]].min()
            raise SingularityError(f"segment {seg} passes within {d:.3g} of a pole "
                                   f"hyperplane (guard {floor:.3g})")
        poles = -f0[df != 0] / df[df != 0]
        s = 0.0 if wa != wb else 1.0  # a repeated waypoint is no step
        while s < 1.0:
            b = f0 + s * df
            w = coef / b
            h = min(1.0 - s, 0.4 * float(np.min(np.abs(s - poles))))
            rate = float(np.abs(w) @ norms)
            if rate * h > _RATE_CAP:
                h = _RATE_CAP / rate
            weighted = stack * np.repeat(h * w, D)
            rh = (-h * df / b)[:, None, None]
            size = np.abs(c)
            tol, peak = atol + rtol * size, np.maximum(peak, size.max(axis=0))
            term, g, total, quiet = c, 0, c.copy(), 0
            for m in range(1, _MAX_ORDER + 1):
                g = term + rh * g
                term = weighted @ g.reshape(n * D, -1) / m
                total += term
                excess = float((np.abs(term) - tol).max())
                if not math.isfinite(excess):
                    raise PropagationError(
                        f"non-finite Taylor term on segment {seg}", location=(seg, s))
                quiet = quiet + 1 if excess <= 0 else 0
                if quiet == 2:
                    break
            else:
                raise PropagationError(
                    f"Taylor series unsettled after {_MAX_ORDER} orders on segment {seg}",
                    location=(seg, s))
            n_steps, n_products, c = n_steps + 1, n_products + m, total
            s = s + h if h < 1.0 - s else 1.0
    rounding, allowed = np.finfo(float).eps * peak, atol + rtol * np.abs(c).max(axis=0)
    if (rounding > allowed).any():
        k = int(np.argmax(rounding - allowed))
        raise PropagationError(
            f"transport lost accuracy: eps max|c| = {rounding[k]:.3g} exceeds "
            f"atol + rtol max|c_end| = {allowed[k]:.3g}", location=(len(path.waypoints) - 2, 1.0))
    return c.reshape(shape), TransportStats(n_steps, n_products)
