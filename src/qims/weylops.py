"""Operators on polynomials: generators, Hamiltonians, and exact identity checks.

The generators ``q_m^(i)`` (multiplication) and ``p_m^(i)`` (hbar times
differentiation) act on :class:`~qims.polyalg.Polynomial`.  Boundary
generators with m = 0 or i = 0 are derived nodes; they expand to their
defining substitutions before anything is applied:

    q_0^(i) = theta_i + sum_m q_m^(i) p_m^(i)        p_0^(i) = -1
    q_m^(0) = -1                                     p_m^(0) = kappa_m + sum_i q_m^(i) p_m^(i)
    q_0^(0) = kappa_0 - sum_i theta_i - sum_{m,i} q_m^(i) p_m^(i)   p_0^(0) = -1

Products act rightmost factor first, preserving the written order; no
normal-ordering pass is ever performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, SingularityError, StructureError
from .polyalg import Polynomial, flat_pos, scalar_kind


def to_scalar(x):
    """Coerce ints to Fraction so exactness is the default; pass floats through."""
    if isinstance(x, bool):
        raise StructureError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, float, complex)):
        return x
    raise StructureError(f"unsupported scalar type {type(x).__name__}")


@dataclass(frozen=True)
class Parameters:
    """Scalar constants of the model with their linear constraints.

    ``e`` has length L (e_0..e_{L-1}) and sums to (L-1)/2; ``kappa`` has
    length L; ``theta`` has length N+1 (theta_0..theta_N) and the kappa and
    theta sums agree.  ``planck`` is the constant multiplying d/dz_i in the
    Schrodinger system and must be nonzero; ``hbar`` enters the commutation
    relation [p, q] = hbar.
    """

    L: int
    N: int
    e: tuple
    kappa: tuple
    theta: tuple
    hbar: object = Fraction(1)
    planck: object = Fraction(1)

    def __post_init__(self):
        L, N = self.L, self.N
        if L < 2 or N < 1:
            raise ParameterError(f"need L >= 2 and N >= 1, got L={L}, N={N}")
        object.__setattr__(self, "e", tuple(to_scalar(x) for x in self.e))
        object.__setattr__(self, "kappa", tuple(to_scalar(x) for x in self.kappa))
        object.__setattr__(self, "theta", tuple(to_scalar(x) for x in self.theta))
        object.__setattr__(self, "hbar", to_scalar(self.hbar))
        object.__setattr__(self, "planck", to_scalar(self.planck))
        if len(self.e) != L:
            raise ParameterError(f"e must have length L={L}")
        if len(self.kappa) != L:
            raise ParameterError(f"kappa must have length L={L}")
        if len(self.theta) != N + 1:
            raise ParameterError(f"theta must have length N+1={N + 1}")
        self._check_relation(sum(self.e), Fraction(L - 1, 2), "sum(e) = (L-1)/2")
        self._check_relation(sum(self.kappa), sum(self.theta), "sum(kappa) = sum(theta)")
        if self.planck == 0:
            raise ParameterError("planck constant must be nonzero")

    @staticmethod
    def _check_relation(lhs, rhs, name):
        diff = lhs - rhs
        exact = scalar_kind(lhs) == "exact" and scalar_kind(rhs) == "exact"
        if (diff != 0) if exact else (abs(diff) > 1e-9):
            raise ParameterError(f"parameter relation violated: {name} (off by {diff})")

    @property
    def resonance_V(self):
        """kappa_0 - sum_{i>=1} theta_i; equals M on the V(M)-invariant stratum."""
        return self.kappa[0] - sum(self.theta[1:])


def make_parameters(L, N, *, e, kappa, theta, theta0=None, hbar=1, planck=1) -> Parameters:
    """Build Parameters, deriving theta_0 from sum(kappa) = sum(theta) by default.

    ``theta`` lists theta_1..theta_N.  Passing ``theta0`` explicitly turns
    derivation into a consistency check.
    """
    e = tuple(to_scalar(x) for x in e)
    kappa = tuple(to_scalar(x) for x in kappa)
    theta = tuple(to_scalar(x) for x in theta)
    if len(theta) != N:
        raise ParameterError(f"theta must list theta_1..theta_N (length {N})")
    derived = sum(kappa) - sum(theta)
    if theta0 is not None:
        theta0 = to_scalar(theta0)
        exact = scalar_kind(theta0) == "exact" and scalar_kind(derived) == "exact"
        bad = (theta0 != derived) if exact else (abs(theta0 - derived) > 1e-9)
        if bad:
            raise ParameterError(
                f"explicit theta_0={theta0} violates sum(kappa) = sum(theta) "
                f"(constraint requires {derived})"
            )
        derived = theta0
    return Parameters(L, N, e, kappa, (derived,) + theta, hbar=hbar, planck=planck)


# --- operator expression trees -------------------------------------------------

def Sc(value):
    return ("s", to_scalar(value))


def Q(m: int, i: int):
    return ("q", m, i)


def P(m: int, i: int):
    return ("p", m, i)


def Add(*children):
    return ("+", tuple(children))


def Mul(*children):
    return ("*", tuple(children))


def _expand(node, params: Parameters):
    """Expand a tree into a list of (coefficient, generator string) terms.

    Generator strings are tuples of interior ('q'|'p', m, i) factors in the
    written (left-to-right) order.  Derived boundary nodes are substituted
    here, so downstream application only ever sees interior generators.
    """
    L, N = params.L, params.N
    tag = node[0]
    if tag == "s":
        return [(node[1], ())]
    if tag == "+":
        out = []
        for ch in node[1]:
            out.extend(_expand(ch, params))
        return out
    if tag == "*":
        terms = [(1, ())]
        for ch in node[1]:
            rhs = _expand(ch, params)
            terms = [(a * b, ga + gb) for a, ga in terms for b, gb in rhs]
        return terms
    if tag in ("q", "p"):
        m, i = node[1], node[2]
        if not (0 <= m <= L - 1 and 0 <= i <= N):
            raise StructureError(f"generator index ({m},{i}) out of range for (L,N)=({L},{N})")
        if m >= 1 and i >= 1:
            return [(1, ((tag, m, i),))]
        if tag == "p" and i >= 1:  # p_0^(i) = -1
            return [(Fraction(-1), ())]
        if tag == "q" and m >= 1:  # q_m^(0) = -1
            return [(Fraction(-1), ())]
        if tag == "p" and m == 0 and i == 0:  # p_0^(0) = -1
            return [(Fraction(-1), ())]
        if tag == "q" and m == 0 and i >= 1:
            out = [(params.theta[i], ())]
            out += [(1, (("q", mm, i), ("p", mm, i))) for mm in range(1, L)]
            return out
        if tag == "p" and m >= 1 and i == 0:
            out = [(params.kappa[m], ())]
            out += [(1, (("q", m, j), ("p", m, j))) for j in range(1, N + 1)]
            return out
        # q_0^(0)
        out = [(params.kappa[0] - sum(params.theta[1:]), ())]
        out += [
            (Fraction(-1), (("q", mm, j), ("p", mm, j)))
            for j in range(1, N + 1)
            for mm in range(1, L)
        ]
        return out
    raise StructureError(f"unknown node tag {tag!r}")


class FlatOp:
    """An operator compiled to an exact integer kernel.

    Compilation merges equal generator strings, folds ``hbar`` into each
    coefficient once per ``p`` factor and drops zero terms.  ``terms`` lists
    the surviving ``(numerator, string)`` pairs, each string pre-flattened in
    application (rightmost-first) order; the true coefficient of a term is
    ``numerator / den``.  For exact operators ``den`` is the least common
    denominator and every numerator is an ``int``; for float or complex
    operators ``den = 1`` and the numerators keep their type.

    A string acting on q^A moves the exponents by a fixed shift and
    multiplies by a product of factors ``A[k] + offset``, one per ``p``;
    that falling-factorial weight is zero exactly when some ``p`` meets a
    zero exponent.  The kernel groups terms by shift, so every output
    monomial is one sum of ``int`` products.  Each monomial's image is
    computed once per operator and kept for the operator's lifetime.
    """

    __slots__ = ("L", "N", "terms", "den", "unit", "_kernel", "_images")

    def __init__(self, L, N, hbar, terms):
        self.L = L
        self.N = N
        kinds = {scalar_kind(c) for c, _ in terms} | {scalar_kind(hbar)}
        if "float" in kinds and "exact" in kinds:
            anycomplex = any(isinstance(c, complex) for c, _ in terms)
            conv = complex if anycomplex else float
            terms = [(conv(c) if scalar_kind(c) == "exact" else c, g) for c, g in terms]
            hbar = conv(hbar) if scalar_kind(hbar) == "exact" else hbar
        merged = {}
        for c, gens in terms:
            ops = tuple((g[0] == "p", flat_pos(g[1], g[2], N)) for g in reversed(gens))
            if hbar != 1:
                c = c * hbar ** sum(p for p, _ in ops)
            merged[ops] = merged.get(ops, 0) + c
        merged = {ops: c for ops, c in merged.items() if c != 0}
        if "float" in kinds:
            self.den = 1
        else:
            self.den = math.lcm(*(Fraction(c).denominator for c in merged.values()))
            merged = {ops: int(c * self.den) for ops, c in merged.items()}
        self.unit = Fraction(1, self.den)
        self.terms = [(c, ops) for ops, c in merged.items()]

        kernel = {}
        for c, ops in self.terms:
            offset, factors = {}, []
            for is_p, k in ops:
                off = offset.get(k, 0)
                if is_p:
                    factors.append((k, off))
                offset[k] = off - 1 if is_p else off + 1
            shift = tuple(sorted((k, d) for k, d in offset.items() if d))
            group = kernel.setdefault(shift, {})
            factors = tuple(sorted(factors))
            group[factors] = group.get(factors, 0) + c
        self._kernel = [(shift, [(c, f) for f, c in group.items() if c != 0])
                        for shift, group in kernel.items()]
        self._images = {}

    def image(self, A: tuple) -> dict:
        """``den`` times the image of q^A, as {index: numerator}.

        The map is computed on the first call for ``A`` and the same object
        is returned on every later one, so no caller may mutate it."""
        img = self._images.get(A)
        if img is None:
            img = self._images[A] = self._image(A)
        return img

    def _image(self, A) -> dict:
        img = {}
        for shift, group in self._kernel:
            s = 0
            for c, factors in group:
                for k, off in factors:
                    e = A[k] + off
                    if e <= 0:
                        break
                    c *= e
                else:
                    s += c
            if s:
                B = list(A)
                for k, d in shift:
                    B[k] += d
                img[tuple(B)] = s
        return img

    def apply_scaled(self, terms: dict) -> dict:
        """``den`` times the image of sum_A c_A q^A, for any coefficients c_A."""
        out = {}
        for A, c in terms.items():
            for B, v in self.image(A).items():
                out[B] = out.get(B, 0) + c * v
        return {B: v for B, v in out.items() if v != 0}

    def apply_raw(self, terms: dict) -> dict:
        unit = self.unit
        return {B: v * unit for B, v in self.apply_scaled(terms).items()}

    def apply_index(self, A, c0=1):
        """Apply to the monomial c0*q^A; returns a raw {index: coefficient} map."""
        return self.apply_raw({tuple(A): c0})

    def __call__(self, f: Polynomial) -> Polynomial:
        if (f.L, f.N) != (self.L, self.N):
            raise StructureError("polynomial context does not match operator context")
        return Polynomial(self.L, self.N, self.apply_raw(f.terms))


def flatten(op, params: Parameters) -> FlatOp:
    return FlatOp(params.L, params.N, params.hbar, _expand(op, params))


def apply(op, f: Polynomial, params: Parameters) -> Polynomial:
    """Apply an operator expression to a polynomial (exact for exact scalars)."""
    return flatten(op, params)(f)


# --- Hamiltonians ---------------------------------------------------------------

def check_z(params: Parameters, z, i=None):
    """Reject z at a pole: any z_i in {0, 1} or a collision z_i = z_j."""
    z = tuple(to_scalar(x) for x in z)
    if len(z) != params.N:
        raise ParameterError(f"z must have length N={params.N}")
    for k, zk in enumerate(z, start=1):
        if zk == 0 or zk == 1:
            raise SingularityError(f"z_{k} = {zk} lies on a pole")
    for a in range(len(z)):
        for b in range(a + 1, len(z)):
            if z[a] == z[b]:
                raise SingularityError(f"z_{a + 1} = z_{b + 1} = {z[a]} (collision)")
    return z


def hamiltonian_parts(i: int, params: Parameters) -> dict:
    """z-free building blocks of z_i*H_i.

    Returns operator trees ``const``, ``pole1`` and ``cross[j]`` with

        z_i H_i = const + pole1/(z_i - 1) + sum_{j != i} cross[j] * z_j/(z_i - z_j).
    """
    L, N = params.L, params.N
    if not 1 <= i <= N:
        raise StructureError(f"time index i={i} out of range 1..{N}")
    e, th = params.e, params.theta

    group1 = [Mul(Sc(e[n]), Q(n, i), P(n, i)) for n in range(L)]
    group2 = [
        Mul(Q(m, i), P(m, j), Q(n, j), P(n, i))
        for j in range(N + 1)
        for m in range(L)
        for n in range(m + 1, L)
    ]
    const_scalar = th[i] * (e[0] + params.kappa[0] - sum(th[1:]))
    const = Add(*group1, *group2, Sc(const_scalar))

    pole1 = Add(*[
        Mul(Q(m, i), P(m, 0), Q(n, 0), P(n, i))
        for m in range(L)
        for n in range(L)
    ])

    cross = {}
    for j in range(1, N + 1):
        if j == i:
            continue
        cross[j] = Add(
            *[Mul(Q(m, i), P(n, i), Q(n, j), P(m, j)) for m in range(L) for n in range(L)],
            Sc(-th[i] * th[j]),
        )
    return {"const": const, "pole1": pole1, "cross": cross}


def hamiltonian(i: int, params: Parameters, z) -> tuple:
    """The Hamiltonian H_i at the point z (the displayed z_i*H_i divided by z_i)."""
    z = check_z(params, z)
    parts = hamiltonian_parts(i, params)
    zi = z[i - 1]
    pieces = [parts["const"], Mul(Sc(1 / (zi - 1)), parts["pole1"])]
    for j, op in parts["cross"].items():
        zj = z[j - 1]
        pieces.append(Mul(Sc(zj / (zi - zj)), op))
    return Mul(Sc(1 / zi), Add(*pieces))


def hamiltonian_flat(i: int, params: Parameters, z) -> FlatOp:
    return flatten(hamiltonian(i, params, z), params)


# --- exact checks ---------------------------------------------------------------
#
# The sweeps work on the scaled images of ``FlatOp.image``: integer
# numerators over the product of the operators' denominators.  A residual is
# zero exactly when its scaled form is, and each sweep turns its largest
# scaled coefficient into a true one once, at the end.

def _max_abs(terms: dict):
    return max((abs(c) for c in terms.values()), default=0)


def _subtract(out: dict, terms: dict) -> dict:
    """out - terms, computed in place on ``out``; zero coefficients are dropped.

    ``terms`` is only read and may be a cached image; ``out`` must be a dict
    the caller owns, never one returned by ``FlatOp.image``."""
    for B, c in terms.items():
        s = out.get(B, 0) - c
        if s == 0:
            out.pop(B, None)
        else:
            out[B] = s
    return out


def _difference(x: dict, x_den, y: dict, y_den) -> dict:
    """x/x_den - y/y_den over the denominator x_den*y_den, as numerators in a
    new dict; ``x`` and ``y`` are only read."""
    return _subtract({B: c * y_den for B, c in x.items()},
                     {B: c * x_den for B, c in y.items()})


def _commutator(a: FlatOp, b: FlatOp, A) -> dict:
    """(ab - ba) q^A times a.den*b.den, as a raw {index: numerator} map."""
    A = tuple(A)
    return _subtract(a.apply_scaled(b.image(A)), b.apply_scaled(a.image(A)))


def _commutator_max(a: FlatOp, b: FlatOp, probes):
    """max coefficient magnitude of (ab - ba) q^A over the probes."""
    worst = max((_max_abs(_commutator(a, b, A)) for A in probes), default=0)
    return worst * a.unit * b.unit


def commutator_residual(i: int, j: int, params: Parameters, z, probes, *, hams=None):
    """max coefficient magnitude of (H_i H_j - H_j H_i) q^A over the probes.

    ``hams`` is an optional dict of compiled Hamiltonians, filled on first
    use and keyed by (time index, params, z); passing one dict to every pair
    of a sweep builds each H_k once.
    """
    hams = {} if hams is None else hams
    keys = [(k, params, tuple(z)) for k in (i, j)]
    for key in keys:
        if key not in hams:
            hams[key] = hamiltonian_flat(key[0], params, z)
    return _commutator_max(hams[keys[0]], hams[keys[1]], probes)


def ahat_entry(m: int, n: int, i: int):
    """Entry (m, n) of the L x L matrix q_m^(i) p_n^(i)."""
    return Mul(Q(m, i), P(n, i))


def ahat_matrix(i: int, L: int):
    """The full L x L operator matrix with (m, n) entry q_m^(i) p_n^(i);
    boundary entries expand to their substitutions on application."""
    return [[ahat_entry(m, n, i) for n in range(L)] for m in range(L)]


def ahat_commutator_residual(i, j, params: Parameters, probes, entries=None):
    """Residual of the matrix-entry commutation relations on interior entries.

    Checks [A^(i)_{m,n}, A^(j)_{m',n'}]/hbar = delta_{ij}(delta_{n,m'} A^(i)_{m,n'}
    - delta_{n',m} A^(i)_{m',n}) applied to every probe.  Only interior entries
    (all indices >= 1) are swept; boundary rows and columns are exercised
    indirectly through the full Hamiltonian commutativity checks.
    """
    L = params.L
    if entries is None:
        rng = range(1, L)
        entries = [(m, n, mp, np_) for m in rng for n in rng for mp in rng for np_ in rng]
    hbar = params.hbar
    # each entry operator and each distinct right side is flattened once
    ops, rhss = {}, {}
    worst = Fraction(0)
    for (m, n, mp, np_) in entries:
        for key in ((m, n, i), (mp, np_, j)):
            if key not in ops:
                ops[key] = flatten(ahat_entry(*key), params)
        a, b = ops[(m, n, i)], ops[(mp, np_, j)]
        # the right side depends only on which delta terms survive
        plus = (m, np_) if i == j and n == mp else None
        minus = (mp, n) if i == j and np_ == m else None
        if (plus, minus) not in rhss:
            rhs_terms = [ahat_entry(*plus, i)] if plus else []
            if minus:
                rhs_terms.append(Mul(Sc(-1), ahat_entry(*minus, i)))
            rhss[(plus, minus)] = flatten(Mul(Sc(hbar), Add(*rhs_terms)), params)
        rhs = rhss[(plus, minus)]
        # residual = ([a, b] - hbar*rhs)/hbar, the scaled difference first
        scaled = max((_max_abs(_difference(_commutator(a, b, A), a.den * b.den,
                                           rhs.image(tuple(A)), rhs.den))
                      for A in probes), default=0)
        worst = max(worst, scaled * a.unit * b.unit * rhs.unit / abs(hbar))
    return worst


def omega_tree(i: int, j: int, L: int):
    """Omega_{i,j} = (1/2) tr(A^(i) A^(j)) as an operator tree."""
    return Mul(Sc(Fraction(1, 2)), Add(*[
        Mul(Q(m, i), P(n, i), Q(n, j), P(m, j))
        for m in range(L)
        for n in range(L)
    ]))


def braid_residual_disjoint(i, j, k, l, params: Parameters, probes):
    """[Omega_{i,j}, Omega_{k,l}] on probes for pairwise distinct indices."""
    if len({i, j, k, l}) != 4:
        raise StructureError("indices must be pairwise distinct")
    return _commutator_max(flatten(omega_tree(i, j, params.L), params),
                           flatten(omega_tree(k, l, params.L), params), probes)


def braid_residual_adjacent(i, j, k, params: Parameters, probes):
    """[Omega_{i,j}, Omega_{i,k} + Omega_{k,j}] on probes for distinct i, j, k."""
    if len({i, j, k}) != 3:
        raise StructureError("indices must be pairwise distinct")
    a = flatten(omega_tree(i, j, params.L), params)
    b = flatten(Add(omega_tree(i, k, params.L), omega_tree(k, j, params.L)), params)
    return _commutator_max(a, b, probes)


# --- the L = 2 explicit example -------------------------------------------------

def garnier_example_operator(i: int, params: Parameters, z) -> tuple:
    """The explicitly ordered z_i(z_i-1)H_i for L = 2, transcribed verbatim."""
    if params.L != 2:
        raise StructureError("the explicit example form exists only for L = 2")
    z = check_z(params, z)
    N = params.N
    th, kap, e, hbar = params.theta, params.kappa, params.e, params.hbar
    zi = z[i - 1]

    def q(j):
        return Q(1, j)

    def p(j):
        return P(1, j)

    sum_qp = Add(*[Mul(q(j), p(j)) for j in range(1, N + 1)])
    num_i = Add(Sc(th[i]), Mul(q(i), p(i)))  # theta_i + q_i p_i

    pieces = [
        Mul(q(i), Add(Sc(kap[1] - th[0]), sum_qp), Add(Sc(kap[1]), sum_qp)),
        Mul(Sc(zi), num_i, p(i)),
    ]
    for j in range(1, N + 1):
        if j == i:
            continue
        zj = z[j - 1]
        num_j = Add(Sc(th[j]), Mul(q(j), p(j)))
        # Both mixed-derivative terms carry a (z_i - 1) factor; without it the
        # difference from the generic Hamiltonian moves monomials between time
        # indices instead of acting as a scalar.
        pieces.append(Mul(Sc(-zj * (zi - 1) / (zi - zj)), num_j, q(i), p(j)))
        pieces.append(Mul(Sc(-zi * (zi - 1) / (zi - zj)), num_i, q(j), p(i)))
        pieces.append(Mul(Sc(-zi * (zj - 1) / (zj - zi)), num_i, q(j), p(j)))
        pieces.append(Mul(Sc(-zi * (zj - 1) / (zj - zi)), num_j, q(i), p(i)))
    pieces.append(Mul(Sc(-(zi + 1)), num_i, q(i), p(i)))
    # e_0 and e_1 enter this bracket with the opposite signs to the classical
    # form of the expression; with the classical signs the difference from the
    # generic Hamiltonian fails to be a multiple of the identity.
    pieces.append(Mul(Sc(-((e[0] - e[1]) * zi + e[1] - e[0] - hbar + kap[1] - kap[0])), q(i), p(i)))
    return Add(*pieces)


def garnier_example_residual(i: int, params: Parameters, z, probes):
    """Deviation of (generic - example) from a single scalar lambda_i(z) * identity.

    lambda_i(z) is read off the constant probe; the return value is the
    largest coefficient of (generic - example - lambda_i) q^A over all probes.
    The cached images are only read: each difference is a new dict.
    """
    z = check_z(params, z)
    zi = z[i - 1]
    generic = flatten(Mul(Sc(zi * (zi - 1)), hamiltonian(i, params, z)), params)
    example = flatten(garnier_example_operator(i, params, z), params)
    const = (0,) * ((params.L - 1) * params.N)

    def diff_on(A):
        # (generic - example) q^A times generic.den * example.den
        return _difference(generic.image(A), generic.den, example.image(A), example.den)

    lam = diff_on(const).get(const, 0)
    worst = max((_max_abs(_subtract(diff_on(A), {A: lam})) for A in map(tuple, probes)),
                default=0)
    return worst * generic.unit * example.unit
