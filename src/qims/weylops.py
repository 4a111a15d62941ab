"""Operators on polynomials: generators, Hamiltonians, and exact identity checks.

The generators ``q_m^(i)`` (multiplication) and ``p_m^(i)`` (hbar times
differentiation) act on polynomials, held as sparse {index: coefficient}
maps (see :mod:`qims.polyalg`), through :meth:`FlatOp.image`.  Boundary
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
from .polyalg import check_exact, flat_pos, lin, max_abs


def to_scalar(x):
    """Coerce ints to Fraction so exactness is the default; floats pass through
    for the numeric layers, and the exact operator algebra rejects them."""
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
        if self.hbar == 0:
            raise ParameterError("hbar must be nonzero")

    @staticmethod
    def _check_relation(lhs, rhs, name):
        diff = lhs - rhs
        if (diff != 0) if isinstance(diff, Fraction) else (abs(diff) > 1e-9):
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
    kappa = tuple(to_scalar(x) for x in kappa)
    theta = tuple(to_scalar(x) for x in theta)
    if len(theta) != N:
        raise ParameterError(f"theta must list theta_1..theta_N (length {N})")
    if theta0 is None:
        theta0 = sum(kappa) - sum(theta)
    return Parameters(L, N, tuple(e), kappa, (theta0,) + theta, hbar=hbar, planck=planck)


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


def _pair(x):
    """An exact scalar as (numerator, denominator); a decimal is a ParameterError."""
    x = check_exact(x)
    return x.numerator, x.denominator


def _expand(node, params: Parameters):
    """Expand a tree into a list of ((numerator, denominator), string) terms.

    Strings are tuples of interior ``(is_p, flat index)`` factors in
    application (rightmost-first) order; coefficients are unreduced ``int``
    pairs.  Derived boundary nodes are substituted here, so
    downstream application only ever sees interior generators.

    Equal strings merge once, in :class:`FlatOp`.  Merging them after every
    ``Add`` and ``Mul`` too made ``flatten`` 0.60-0.78x as fast on H_1, its
    parts and Omega_12 at L2-L4, N1-N3: the full expansion is at most 2.2x
    its merged size (H_1 at L2N1 expands to 20 terms for 9 merged, at L4N3
    to 385 for 283), so the per-node merges cost more than they save.
    """
    L, N = params.L, params.N
    tag = node[0]
    if tag == "s":
        return [(_pair(node[1]), ())]
    if tag == "+":
        return [t for ch in node[1] for t in _expand(ch, params)]
    if tag == "*":
        terms = [((1, 1), ())]
        for ch in node[1]:
            rhs = _expand(ch, params)
            terms = [((an * bn, ad * bd), gb + ga)
                     for (an, ad), ga in terms for (bn, bd), gb in rhs]
        return terms
    if tag in ("q", "p"):
        m, i = node[1], node[2]
        if not (0 <= m <= L - 1 and 0 <= i <= N):
            raise StructureError(f"generator index ({m},{i}) out of range for (L,N)=({L},{N})")
        if m >= 1 and i >= 1:
            return [((1, 1), ((tag == "p", flat_pos(m, i, N)),))]
        if (tag == "p") == (m == 0):  # p_0^(i), q_m^(0) and p_0^(0) are -1
            return [((-1, 1), ())]
        if tag == "q" and i >= 1:  # q_0^(i)
            const, sign, qps = params.theta[i], 1, [(mm, i) for mm in range(1, L)]
        elif tag == "p":  # p_m^(0)
            const, sign, qps = params.kappa[m], 1, [(m, j) for j in range(1, N + 1)]
        else:  # q_0^(0)
            const, sign = params.resonance_V, -1
            qps = [(mm, j) for j in range(1, N + 1) for mm in range(1, L)]
        ks = [flat_pos(mm, j, N) for mm, j in qps]  # q_mm^(j) p_mm^(j): p acts first
        return [(_pair(const), ())] + [((sign, 1), ((True, k), (False, k))) for k in ks]
    raise StructureError(f"unknown node tag {tag!r}")


class FlatOp:
    """An operator compiled to an exact integer kernel.

    Compiling the terms of ``_expand`` folds ``hbar`` into each coefficient
    once per ``p``, merges equal strings and drops zeros; ``terms`` lists the
    ``(numerator, string)`` pairs left, a term's coefficient being
    ``numerator / den``.  Terms merge in ``int``s over the lcm of the
    denominators, then divide by the gcd of it and the sums, so ``den`` is
    the least common denominator.  A decimal ``hbar`` is a ParameterError.

    A string acting on q^A moves the exponents by a fixed shift and
    multiplies by a product of factors ``A[k] + offset``, one per ``p``;
    that falling-factorial weight is zero exactly when some ``p`` meets a
    zero exponent.  The kernel groups terms by shift, so every output
    monomial is one sum of ``int`` products.  Each monomial's image is
    computed once per operator and kept for the operator's lifetime.
    """

    __slots__ = ("terms", "den", "unit", "_kernel", "_images")

    def __init__(self, hbar, terms):
        hn, hd = _pair(hbar)
        if (hn, hd) != (1, 1):
            terms = [((n * hn ** k, d * hd ** k), ops) for (n, d), ops in terms
                     for k in [sum(p for p, _ in ops)]]
        D = math.lcm(*{d for (_, d), _ in terms})
        merged = {}
        for (n, d), ops in terms:
            merged[ops] = merged.get(ops, 0) + n * (D // d)
        g = math.gcd(D, *merged.values())
        self.den = D // g
        self.terms = [(c // g, ops) for ops, c in merged.items() if c]
        self.unit = Fraction(1, self.den)

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

    def apply_index(self, A, c0=1):
        """Apply to the monomial c0*q^A; returns a new raw {index: coefficient}
        map built from the cached image, which stays unwritten."""
        if not c0:
            return {}
        unit = self.unit
        return {B: c0 * v * unit for B, v in self.image(tuple(A)).items()}


def flatten(op, params: Parameters) -> FlatOp:
    """Compile an operator tree, exactly; a decimal scalar in the tree or in
    ``params.hbar`` is a ParameterError."""
    return FlatOp(params.hbar, _expand(op, params))


# --- Hamiltonians ---------------------------------------------------------------

def check_z(params: Parameters, z):
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


def check_times(N, *indices):
    """Reject an index that is not an int in 1..N (a bool too) with a
    ParameterError, and repeated indices with a StructureError."""
    for i in indices:
        if type(i) is not int or not 1 <= i <= N:
            raise ParameterError(f"time index i={i} out of range 1..{N}")
    if len(set(indices)) != len(indices):
        raise StructureError("indices must be pairwise distinct")


def hamiltonian_parts(i: int, params: Parameters) -> dict:
    """z-free building blocks of z_i*H_i.

    Returns operator trees ``const``, ``pole1`` and ``cross[j]`` with

        z_i H_i = const + pole1/(z_i - 1) + sum_{j != i} cross[j] * z_j/(z_i - z_j).
    """
    L, N = params.L, params.N
    check_times(N, i)
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
# scaled coefficient into a true one once, at the end.  Every sum,
# difference and commutator of images is one ``polyalg.lin``, which only
# reads its inputs, so the cached images are never written.

def _commutator(a: FlatOp, b: FlatOp, A) -> dict:
    """(ab - ba) q^A times a.den*b.den, as a raw {index: numerator} map."""
    A = tuple(A)
    return lin([(c, a.image(B)) for B, c in b.image(A).items()]
               + [(-c, b.image(B)) for B, c in a.image(A).items()])


def _commutator_max(a: FlatOp, b: FlatOp, probes):
    """max coefficient magnitude of (ab - ba) q^A over the probes."""
    worst = max((max_abs(_commutator(a, b, A)) for A in probes), default=0)
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
        scaled = max((max_abs(lin([(rhs.den, _commutator(a, b, A)),
                                   (-a.den * b.den, rhs.image(tuple(A)))]))
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
    """[Omega_{i,j}, Omega_{k,l}] on probes for pairwise distinct time indices."""
    check_times(params.N, i, j, k, l)
    return _commutator_max(flatten(omega_tree(i, j, params.L), params),
                           flatten(omega_tree(k, l, params.L), params), probes)


def braid_residual_adjacent(i, j, k, params: Parameters, probes):
    """[Omega_{i,j}, Omega_{i,k} + Omega_{k,j}] on probes for distinct time indices."""
    check_times(params.N, i, j, k)
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
    check_times(N, i)
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
    """
    z = check_z(params, z)
    check_times(params.N, i)
    zi = z[i - 1]
    generic = flatten(Mul(Sc(zi * (zi - 1)), hamiltonian(i, params, z)), params)
    example = flatten(garnier_example_operator(i, params, z), params)
    const = (0,) * ((params.L - 1) * params.N)

    def diff_on(A, lam=0):
        # (generic - example - lam) q^A times generic.den * example.den
        return lin([(example.den, generic.image(A)), (-generic.den, example.image(A)),
                    (-lam, {A: 1})])

    lam = diff_on(const).get(const, 0)
    worst = max((max_abs(diff_on(A, lam)) for A in map(tuple, probes)), default=0)
    return worst * generic.unit * example.unit
