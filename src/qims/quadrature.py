"""Quadrature engines: Gauss-Jacobi on [0,1], tanh-sinh, and the Monte Carlo spec.

All reductions sum numpy arrays in a fixed (pairwise) order, so results are
bit-reproducible for a fixed spec; the Monte Carlo stream is seeded.
The rules need numpy and :mod:`math` only: Gauss-Jacobi is the Golub-Welsch
eigenvalue construction (G. H. Golub and J. H. Welsch, Math. Comp. 23 (1969)
221), and its weight mass is a Beta function from ``math.lgamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

SCHEMES = ("gauss_jacobi_tensor", "tanh_sinh_tensor", "monte_carlo")

# seeded Monte Carlo batches behind the batch-mean standard error, and so
# the fewest samples a spec may ask for
MC_BATCHES = 16

# the type of each field; a bool is none of them
_TYPES = {"scheme": str, "nodes_per_axis": int, "mc_samples": int, "seed": int,
          "stabilize_tol": (int, float)}


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str = "gauss_jacobi_tensor"
    nodes_per_axis: int = 32
    mc_samples: int = 100_000
    seed: int = 20240
    stabilize_tol: float = 1e-8  # tensor rules only; Monte Carlo never reads it

    def __post_init__(self):
        for k, t in _TYPES.items():
            v = getattr(self, k)
            if isinstance(v, bool) or not isinstance(v, t):
                raise ParameterError(f"quadrature {k} has the wrong type: {v!r}")
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.nodes_per_axis < 4:
            raise ParameterError("nodes_per_axis must be at least 4")
        if self.mc_samples < MC_BATCHES:
            raise ParameterError(
                f"mc_samples must be at least {MC_BATCHES}, got {self.mc_samples}")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        if not (np.isfinite(self.stabilize_tol) and self.stabilize_tol > 0):
            raise ParameterError(
                f"stabilize_tol must be finite and positive, got {self.stabilize_tol}")


def gauss_jacobi_01(n: int, a: float, b: float):
    """Nodes/weights integrating u^a (1-u)^b f(u) on [0,1] exactly for poly f.

    Requires a > -1 and b > -1; the singular endpoint weight is absorbed
    into the quadrature weights.
    """
    if not (a > -1 and b > -1):
        raise ParameterError(f"Jacobi weight exponents must exceed -1, got ({a}, {b})")
    # Jacobi matrix of the weight (1-x)^al (1+x)^be on [-1,1], with u = (x+1)/2
    al, be = b, a
    s = al + be
    k = np.arange(1.0, n)
    c = 2.0 * k + s
    diag = np.concatenate(([(be - al) / (s + 2.0)], (be - al) * (be + al) / (c * (c + 2.0))))
    off = np.empty(n - 1)
    # k = 1 with the factor (1 + s) cancelled, so s = -1 is no 0/0
    off[:1] = 2.0 / (2.0 + s) * math.sqrt((1.0 + al) * (1.0 + be) / (3.0 + s))
    k, c = k[1:], c[1:]
    off[1:] = np.sqrt(4.0 * k * (k + al) * (k + be) * (k + s) / (c * c * (c + 1.0) * (c - 1.0)))
    x, V = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))  # reads the lower triangle
    # the weights' total mass is int_0^1 u^a (1-u)^b du = B(a+1, b+1)
    return 0.5 * (x + 1.0), math.exp(log_beta(a + 1.0, b + 1.0)) * V[0] ** 2


def log_beta(x: float, y: float) -> float:
    """log B(x, y) for x, y > 0."""
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def tanh_sinh_01(n: int):
    """Tanh-sinh rule on (0,1) with n nodes on t in [-4, 4]: returns
    (x, 1-x, w) with both endpoint distances carried explicitly so integrands
    can evaluate singular factors without cancellation."""
    t = np.linspace(-4.0, 4.0, n)
    h = t[1] - t[0]
    u = 0.5 * np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * u))
    omx = 1.0 / (1.0 + np.exp(2.0 * u))
    w = h * 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    return x, omx, w
