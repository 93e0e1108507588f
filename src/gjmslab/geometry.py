"""Ball-model geometry: the unit-sphere area and the conformal lift, which
maps a Euclidean radial profile on the ball to a hyperbolic one; a caller
samples the lift on the grid that prices it.

Convention pinned throughout the package: phi(x) = 2/(1-|x|^2) and
dV = phi^n dx, so the geodesic radius from the origin is r = 2*artanh(|x|).
"""

import math

import numpy as np

from .errors import ParameterError
from .params import Params


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def conformal_lift(profile, support: float, p: Params):
    """The hyperbolic lift of the Euclidean radial profile w = profile,
    supported in [0, support] of the ball: the function
    r -> phi(t)^{s - n/2} w(t) with t = tanh(r/2), 0 where t > support. The
    critical norm and the intertwined energy of the lift equal their
    Euclidean counterparts for w."""
    if not support < 1.0:
        raise ParameterError(f"conformal_lift needs support inside the unit ball, got {support}")
    exponent = p.s - p.n / 2.0

    def lifted(r):
        t = np.tanh(np.asarray(r, dtype=float) / 2.0)
        phi = 2.0 / (1.0 - t * t)
        return np.where(t <= support, phi ** exponent * profile(t), 0.0)

    return lifted
