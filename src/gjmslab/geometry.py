"""Ball-model geometry: the unit-sphere area, the geodesic radius of a ball
radius, and the conformal lift carrying Euclidean trial functions onto the
hyperboloid.

Convention pinned throughout the package: phi(x) = 2/(1-|x|^2) and
dV = phi^n dx, so the geodesic radius from the origin is r = 2*artanh(|x|).
"""

import math

import numpy as np

from .errors import ParameterError
from .grids import RadialFunction, RadialGrid, Space
from .params import Params


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_to_geodesic(t):
    """Geodesic radius of a ball radius: r = log((1+t)/(1-t))."""
    return 2.0 * np.arctanh(np.asarray(t, dtype=float))


def conformal_lift(w: RadialFunction, p: Params) -> RadialFunction:
    """Lift a Euclidean radial profile on the ball to a hyperbolic one.

    u = phi^{s - n/2} w sampled on the geodesic image of w's grid; the
    pushforward grid nodes are r = 2*artanh(t) with weights rescaled by
    dr/dt = phi(t), so no interpolation ever happens. The critical norm and
    the intertwined energy of u equal their Euclidean counterparts for w.
    """
    if w.space is not Space.EUCLIDEAN:
        raise ParameterError("conformal_lift expects a Euclidean radial profile")
    if w.support_radius >= 1.0:
        raise ParameterError(
            f"conformal_lift needs support inside the unit ball, got {w.support_radius}"
        )
    t = w.grid.nodes
    if t[-1] >= 1.0:
        raise ParameterError("conformal_lift grid reaches the ball boundary")
    phi = 2.0 / (1.0 - t * t)
    r_nodes = ball_to_geodesic(t)
    r_weights = w.grid.weights * phi
    grid = RadialGrid(r_nodes, r_weights, domain_end=float(ball_to_geodesic(w.grid.r_max)))
    exponent = p.s - p.n / 2.0
    values = np.where(t <= w.support_radius, phi ** exponent * w.values, 0.0)
    support_r = float(ball_to_geodesic(min(w.support_radius, w.grid.r_max)))
    profile = None
    if w.profile is not None:
        def profile(r):
            tt = np.tanh(np.asarray(r, dtype=float) / 2.0)
            ph = 2.0 / (1.0 - tt * tt)
            return np.where(tt <= w.support_radius, ph ** exponent * w.profile(tt), 0.0)

    return RadialFunction(grid, values, support_r, Space.HYPERBOLIC, profile=profile)
