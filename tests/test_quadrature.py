import math
import warnings

import numpy as np
import pytest

from qims.errors import ParameterError
from qims.quadrature import gauss_jacobi_01

EXPONENTS = (-0.95, -0.5, 0.0, 0.5, 1.5, 3.0)


def beta(x, y):
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


@pytest.mark.parametrize("n", [4, 5, 12, 24, 32, 64])
def test_gauss_jacobi_moments_and_nodes(n):
    from scipy.special import roots_jacobi  # the reference rule, for the tests only

    k = np.arange(2 * n)
    for a in EXPONENTS:
        for b in EXPONENTS:
            u, w = gauss_jacobi_01(n, a, b)
            # exact for every power u^k, k <= 2n - 1: int_0^1 u^(a+k) (1-u)^b du
            expect = np.array([beta(a + kk + 1, b + 1) for kk in k])
            got = (w[:, None] * u[:, None] ** k).sum(axis=0)
            assert np.abs(got / expect - 1).max() <= 1e-12, (a, b)
            x, _ = roots_jacobi(n, b, a)  # weight (1-x)^b (1+x)^a on [-1, 1]
            ref = 0.5 * (x + 1.0)
            assert np.abs(u / ref - 1).max() <= 1e-10, (a, b)


@pytest.mark.parametrize("a,b", [(-0.95, -0.95), (-0.5, -0.5), (-0.95, -0.05)])
def test_gauss_jacobi_near_the_integrability_edge_is_quiet(a, b):
    # at a + b = -1 the first off-diagonal entry would be 0/0 uncancelled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, w = gauss_jacobi_01(12, a, b)
    assert np.all((u > 0) & (u < 1)) and np.all(w > 0)
    assert w.sum() == pytest.approx(beta(a + 1, b + 1), rel=1e-13)


def test_gauss_jacobi_rejects_nonintegrable_weights():
    for a, b in ((-1.0, 0.0), (0.0, -1.5)):
        with pytest.raises(ParameterError):
            gauss_jacobi_01(8, a, b)
