"""The written-order operator engine: the oracle for the compiled kernel.

``WrittenOrderOp`` is the application loop ``qims.weylops.FlatOp`` ran
before operators were compiled: every generator string of the expanded
tree is applied to the monomial one factor at a time, rightmost first, in
the arithmetic of its coefficients, and nothing is merged or scaled.
The tests compare the compiled ``FlatOp`` with it.

``expand`` is the tree expander the compile used before it ran on integer
pairs: ``Fraction`` products and named ``('q'|'p', m, i)`` strings in
written order.  ``fraction_compile`` is that compile's merge: ``Fraction``
sums per string, scaled back to ``int`` numerators over their least common
denominator, and the kernel grouped from them.
"""

import math
from fractions import Fraction

from qims.errors import StructureError
from qims.polyalg import flat_pos


def expand(node, params):
    """Expand a tree into a list of (coefficient, generator string) terms.

    Generator strings are tuples of interior ('q'|'p', m, i) factors in the
    written (left-to-right) order; derived boundary nodes are substituted.
    """
    L, N = params.L, params.N
    tag = node[0]
    if tag == "s":
        return [(node[1], ())]
    if tag == "+":
        out = []
        for ch in node[1]:
            out.extend(expand(ch, params))
        return out
    if tag == "*":
        terms = [(1, ())]
        for ch in node[1]:
            rhs = expand(ch, params)
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
        out = [(params.kappa[0] - sum(params.theta[1:]), ())]  # q_0^(0)
        out += [
            (Fraction(-1), (("q", mm, j), ("p", mm, j)))
            for j in range(1, N + 1)
            for mm in range(1, L)
        ]
        return out
    raise StructureError(f"unknown node tag {tag!r}")


def _flat(gens, N):
    """A named written-order string as (is_p, flat index) in application order."""
    return tuple((g[0] == "p", flat_pos(g[1], g[2], N)) for g in reversed(gens))


def fraction_compile(tree, params):
    """``(den, terms, kernel)`` of the tree, merged in ``Fraction`` arithmetic."""
    N = params.N
    hbar = params.hbar
    merged = {}
    for c, gens in expand(tree, params):
        ops = _flat(gens, N)
        if hbar != 1:
            c = c * hbar ** sum(p for p, _ in ops)
        merged[ops] = merged.get(ops, 0) + c
    merged = {ops: c for ops, c in merged.items() if c != 0}
    den = math.lcm(*(Fraction(c).denominator for c in merged.values()))
    merged = {ops: int(c * den) for ops, c in merged.items()}
    terms = [(c, ops) for ops, c in merged.items()]
    kernel = {}
    for c, ops in terms:
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
    kernel = [(shift, [(c, f) for f, c in group.items() if c != 0])
              for shift, group in kernel.items()]
    return den, terms, kernel


class WrittenOrderOp:
    """An operator normalized to a sum of scalar-weighted generator strings."""

    __slots__ = ("L", "N", "hbar", "terms")

    def __init__(self, L, N, hbar, terms):
        self.L = L
        self.N = N
        self.hbar = hbar
        # store generator strings pre-flattened in application (rightmost-first) order
        self.terms = [(c, _flat(gens, N)) for c, gens in terms]

    def apply_index(self, A, c0=1):
        """Apply to the monomial c0*q^A; returns a raw {index: coefficient} map."""
        hbar = self.hbar
        out = {}
        for coeff, ops in self.terms:
            c = coeff * c0
            B = list(A)
            dead = False
            for is_p, k in ops:
                if is_p:
                    exp = B[k]
                    if exp == 0:
                        dead = True
                        break
                    c = c * exp * hbar
                    B[k] = exp - 1
                else:
                    B[k] += 1
            if dead:
                continue
            key = tuple(B)
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return out

    def apply_raw(self, terms: dict) -> dict:
        out = {}
        for A, c in terms.items():
            for B, v in self.apply_index(A, c).items():
                s = out.get(B, 0) + v
                if s == 0:
                    out.pop(B, None)
                else:
                    out[B] = s
        return out


def written_order(tree, params):
    """The uncompiled written-order form of an operator tree."""
    return WrittenOrderOp(params.L, params.N, params.hbar, expand(tree, params))


def commutator(a, b, A):
    """(ab - ba) q^A through the written-order engine."""
    one = {tuple(A): 1}
    out = a.apply_raw(b.apply_raw(one))
    for B, c in b.apply_raw(a.apply_raw(one)).items():
        s = out.get(B, 0) - c
        if s == 0:
            out.pop(B, None)
        else:
            out[B] = s
    return out
