"""Quadrature engines: Gauss-Jacobi on [0,1], tanh-sinh, and sorted-uniform MC.

All reductions sum numpy arrays in a fixed (pairwise) order, so results are
bit-reproducible for a fixed spec; the Monte Carlo stream is seeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, roots_jacobi

from .errors import ParameterError

SCHEMES = ("gauss_jacobi_tensor", "tanh_sinh_tensor", "monte_carlo")


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str = "gauss_jacobi_tensor"
    nodes_per_axis: int = 32
    mc_samples: int = 100_000
    seed: int = 20240
    stabilize_tol: float = 1e-8

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.nodes_per_axis < 4:
            raise ParameterError("nodes_per_axis must be at least 4")
        if self.mc_samples < 1:
            raise ParameterError("mc_samples must be positive")
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
    x, w = roots_jacobi(n, b, a)  # scipy weight: (1-x)^alpha (1+x)^beta on [-1,1]
    u = 0.5 * (x + 1.0)
    return u, w * 0.5 ** (a + b + 1.0)


def tanh_sinh_01(n: int, tmax: float = 4.0):
    """Tanh-sinh rule on (0,1): returns (x, 1-x, w) with both endpoint
    distances carried explicitly so integrands can evaluate singular factors
    without cancellation."""
    t = np.linspace(-tmax, tmax, n)
    h = t[1] - t[0]
    u = 0.5 * np.pi * np.sinh(t)
    x = expit(2.0 * u)
    omx = expit(-2.0 * u)
    w = h * 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    return x, omx, w

