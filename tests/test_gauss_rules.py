"""The written-out Gauss-Legendre rules (grids.GAUSS_NODES/GAUSS_WEIGHTS, 16
nodes; bubbles._GL48_X/_GL48_W, 48 nodes) against two routes: numpy's
leggauss, byte for byte, and mpmath's roots of P_n with the weights
2 / ((1 - x^2) P_n'(x)^2) at 40 digits.

The nodes are within 1 ulp of the roots. The weights keep leggauss's
roundoff, which the package's outputs carry: up to 63 ulp (7.0e-15
relative) at 16 nodes and 9230 ulp (1.3e-12 relative, the end weights) at
48 nodes."""

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from gjmslab.bubbles import _GL48_W, _GL48_X
from gjmslab.grids import GAUSS_NODES, GAUSS_WEIGHTS

RULES = {16: (GAUSS_NODES, GAUSS_WEIGHTS), 48: (_GL48_X, _GL48_W)}
WEIGHT_RTOL = {16: 1e-14, 48: 2e-12}


def mpmath_rule(n, start):
    """The n roots of P_n and their Gauss weights at 40 digits, by four
    Newton steps from the given start points (each step doubles the digits
    of a start within 1e-15 of its root)."""
    def derivative(x):
        return n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)

    nodes, weights = [], []
    with mp.workdps(40):
        for x0 in start:
            x = mp.mpf(float(x0))
            for _ in range(4):
                x -= mp.legendre(n, x) / derivative(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * derivative(x) ** 2))
    return nodes, weights


@pytest.mark.parametrize("n", sorted(RULES))
def test_equal_to_leggauss_bytes(n):
    nodes, weights = RULES[n]
    x, w = leggauss(n)
    assert nodes.dtype == weights.dtype == np.float64
    assert nodes.tobytes() == x.tobytes()
    assert weights.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", sorted(RULES))
def test_against_mpmath(n):
    nodes, weights = RULES[n]
    exact_nodes, exact_weights = mpmath_rule(n, nodes)
    # n distinct roots in (-1, 1), in order: all the roots of P_n
    assert all(-1 < a < b < 1 for a, b in zip(exact_nodes, exact_nodes[1:]))
    for value, exact in zip(nodes, exact_nodes):
        assert abs(value - float(exact)) <= np.spacing(abs(float(exact)))
    for value, exact in zip(weights, exact_weights):
        assert abs(value - float(exact)) <= WEIGHT_RTOL[n] * float(exact)
