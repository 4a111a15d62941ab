"""The reduction lemmas in plain ``Fraction`` arithmetic: the oracle for the kernel.

``lemma_residual`` here is the evaluator ``qims.cohomology.lemma_residual``
used before it was compiled to unreduced integer ratios: every term of every
swap recomputes its copy's gaps, ``f0`` and ``f_n`` from the coordinates, and
every step reduces by a gcd.  The tests compare the kernel with it exactly.
It assumes a valid sample; argument checks live in the kernel.

``random_lemma_sample`` is the sampler before it drew integers: each
coordinate is ``Fraction(a, 61) + Fraction(b, 431)``, deduplicated as a
``Fraction``.  The tests require the same samples and ``rng`` stream.
"""

from fractions import Fraction
from itertools import product as _iproduct


def _gaps(c, L):
    """chain gaps of one copy: [t_0 - t_1, t_1 - t_2, ...] with t_0 = 1."""
    chain = (Fraction(1),) + tuple(c)
    return [chain[m - 1] - chain[m] for m in range(1, L)]


def _f0(c, L):
    out = Fraction(1)
    for g in _gaps(c, L):
        out /= g
    return out


def _fn(c, n, zz, L):
    out = Fraction(1) / (1 - zz * c[L - 2])
    for m, g in enumerate(_gaps(c, L), start=1):
        if m != n:
            out /= g
    return out


def _C(n, c1, c2, L):
    """C(n, 1, 2): copy-1 coordinates against copy-2 partners; t_0^(2) = 1 and
    no partner below the last level."""
    out = Fraction(0)
    chain2 = (Fraction(1),) + tuple(c2)
    for m in range(n, L):
        tm = c1[m - 1]
        term = -1 / (tm - chain2[m - 1]) + 2 / (tm - c2[m - 1])
        if m <= L - 2:
            term += -1 / (tm - c2[m])
        out += tm * term
    if n == 1:
        out += c1[0] / (c1[0] - 1)
    return out


def _sym2(expr, t1, t2, L):
    """Sum expr(c1, c2) over independent per-level copy swaps."""
    total = Fraction(0)
    for mask in _iproduct((0, 1), repeat=L - 1):
        c1 = tuple(t2[m] if mask[m] else t1[m] for m in range(L - 1))
        c2 = tuple(t1[m] if mask[m] else t2[m] for m in range(L - 1))
        total += expr(c1, c2)
    return total


def lemma_residual(lemma_id, *, L, t1=None, t2=None, zi=None, zj=None,
                   n=None, l=None, t=None):
    """|LHS - RHS| of one displayed identity at an exact sample point."""
    if lemma_id == "jacobi":
        lhs = t / (1 - zi * t)
        rhs = (1 - zj * t) / (zi - zj) * (1 / (1 - zi * t) - 1 / (1 - zj * t))
        return abs(lhs - rhs)
    if lemma_id == "f0":
        lhs = t1[L - 2] / (1 - zi * t1[L - 2])
        f0v = _f0(t1, L)
        rhs = (-f0v + sum(_fn(t1, nn, zi, L) for nn in range(1, L))) / ((zi - 1) * f0v)
        return abs(lhs - rhs)

    degenerate = zj == zi
    inv_last = lambda c: 1 / c[L - 2]

    def lhs_expr(fl_label):
        def expr(c1, c2):
            fl = _fn(c2, l, zj, L) if fl_label == "fl" else _f0(c2, L)
            return _C(n, c1, c2, L) * inv_last(c1) * _fn(c1, n, zi, L) * inv_last(c2) * fl
        return expr

    if lemma_id == "l_lt_n":
        lhs = _sym2(lhs_expr("fl"), t1, t2, L)
        rhs = _sym2(lambda c1, c2: inv_last(c1) * _fn(c1, n, zi, L)
                    * inv_last(c2) * _fn(c2, l, zi, L), t1, t2, L)
        if not degenerate:
            rhs += zj / (zi - zj) * _sym2(
                lambda c1, c2: inv_last(c1) * inv_last(c2)
                * (_fn(c1, n, zi, L) - _fn(c1, n, zj, L))
                * (_fn(c2, l, zi, L) - _fn(c2, l, zj, L)), t1, t2, L)
        return abs(lhs - rhs)

    if lemma_id in ("n_lt_l", "one_lt_l"):
        if lemma_id == "one_lt_l":
            n = 1
        lhs = _sym2(lhs_expr("fl"), t1, t2, L)
        rhs = Fraction(0)
        if not degenerate:
            rhs += _sym2(
                lambda c1, c2: inv_last(c1) * inv_last(c2)
                * (_fn(c1, n, zi, L) - _fn(c1, n, zj, L))
                * (zi * _fn(c2, l, zi, L) - zj * _fn(c2, l, zj, L)),
                t1, t2, L) / (zi - zj)
        if lemma_id == "one_lt_l":
            rhs += _sym2(
                lambda c1, c2: inv_last(c1) * (
                    _f0(c1, L) - _fn(c1, 1, zi, L)
                    - zi * sum(_fn(c1, m, zi, L) for m in range(2, L)))
                * inv_last(c2) * _fn(c2, l, zj, L), t1, t2, L) / (zi - 1)
        return abs(lhs - rhs)

    if lemma_id == "l_eq_n":
        lhs = _sym2(lambda c1, c2: _C(n, c1, c2, L) * inv_last(c1)
                    * _fn(c1, n, zi, L) * inv_last(c2) * _fn(c2, n, zj, L), t1, t2, L)
        rhs = _sym2(lambda c1, c2: inv_last(c1) * _fn(c1, n, zi, L)
                    * inv_last(c2) * _fn(c2, n, zi, L), t1, t2, L)
        if n != 1:
            rhs += _sym2(
                lambda c1, c2: inv_last(c1) * (
                    -_f0(c1, L)
                    + sum(_fn(c1, m, zi, L) for m in range(1, n + 1))
                    + zi * sum(_fn(c1, m, zi, L) for m in range(n + 1, L)))
                * inv_last(c2) * _fn(c2, n, zj, L), t1, t2, L) / (zi - 1)
        if not degenerate:
            rhs += zj / (zi - zj) * _sym2(
                lambda c1, c2: inv_last(c1) * inv_last(c2)
                * (_fn(c1, n, zi, L) - _fn(c1, n, zj, L))
                * (_fn(c2, n, zi, L) - _fn(c2, n, zj, L)), t1, t2, L)
        return abs(lhs - rhs)

    if lemma_id == "l_eq_0":
        lhs = _sym2(lhs_expr("f0"), t1, t2, L)
        rhs = _sym2(
            lambda c1, c2: inv_last(c1) * inv_last(c2) * _fn(c1, n, zi, L) * (
                -(2 if n == 1 else 1) * _f0(c2, L)
                + zi * sum(_fn(c2, m, zi, L) for m in range(1, L))),
            t1, t2, L) / (zi - 1)
        if n == 1:
            rhs += _sym2(
                lambda c1, c2: inv_last(c1) * inv_last(c2) * _f0(c2, L) * (
                    _f0(c1, L) - zi * sum(_fn(c1, m, zi, L) for m in range(2, L))),
                t1, t2, L) / (zi - 1)
        return abs(lhs - rhs)

    raise ValueError(f"unknown lemma id {lemma_id!r}")


def random_lemma_sample(lemma_id, L, rng):
    """Exact rational sample off every singular locus of the identities."""
    vals = set()

    def fresh():
        while True:
            x = Fraction(rng.randint(1, 60), 61) + Fraction(rng.randint(0, 6), 431)
            if x not in vals and x != 0 and x != 1:
                vals.add(x)
                return x

    sample = {"L": L}
    if lemma_id == "jacobi":
        sample.update(t=fresh(), zi=fresh(), zj=fresh())
        return sample
    sample["t1"] = tuple(fresh() for _ in range(L - 1))
    sample["zi"] = fresh()
    if lemma_id == "f0":
        return sample
    sample["t2"] = tuple(fresh() for _ in range(L - 1))
    sample["zj"] = fresh()
    if lemma_id == "l_lt_n":
        n = rng.randint(2, L - 1)
        sample.update(n=n, l=rng.randint(1, n - 1))
    elif lemma_id == "n_lt_l":
        n = rng.randint(2, L - 2)
        sample.update(n=n, l=rng.randint(n + 1, L - 1))
    elif lemma_id == "one_lt_l":
        sample.update(l=rng.randint(2, L - 1))
    elif lemma_id in ("l_eq_n", "l_eq_0"):
        sample.update(n=rng.randint(1, L - 1))
    return sample
