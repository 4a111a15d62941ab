"""The written-order operator engine: the oracle for the compiled kernel.

``WrittenOrderOp`` is the application loop ``qims.weylops.FlatOp`` ran
before operators were compiled: every generator string of the expanded
tree is applied to the monomial one factor at a time, rightmost first, in
the arithmetic of its coefficients, and nothing is merged or scaled.
The tests compare the compiled ``FlatOp`` with it.
"""

from qims.polyalg import flat_pos, scalar_kind
from qims.weylops import _expand


class WrittenOrderOp:
    """An operator normalized to a sum of scalar-weighted generator strings."""

    __slots__ = ("L", "N", "hbar", "terms")

    def __init__(self, L, N, hbar, terms):
        self.L = L
        self.N = N
        self.hbar = hbar
        kinds = {scalar_kind(c) for c, _ in terms} | {scalar_kind(hbar)}
        if "float" in kinds and "exact" in kinds:
            anycomplex = any(isinstance(c, complex) for c, _ in terms)
            conv = complex if anycomplex else float
            terms = [(conv(c) if scalar_kind(c) == "exact" else c, g) for c, g in terms]
            self.hbar = conv(hbar) if scalar_kind(hbar) == "exact" else hbar
        # store generator strings pre-flattened in application (rightmost-first) order
        self.terms = [
            (c, tuple((g[0] == "p", flat_pos(g[1], g[2], N)) for g in reversed(gens)))
            for c, gens in terms
        ]

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
    return WrittenOrderOp(params.L, params.N, params.hbar, _expand(tree, params))


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
