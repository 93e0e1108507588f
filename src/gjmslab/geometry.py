"""Ball-model geometry: conformal factor, Moebius maps, hyperbolic distance,
and the conformal lift carrying Euclidean trial functions onto the hyperboloid.

Convention pinned throughout the package: phi(x) = 2/(1-|x|^2) and
dV = phi^n dx, so the geodesic radius from the origin is r = 2*artanh(|x|).
"""

import math

import numpy as np

from .errors import DomainError, SupportError
from .grids import RadialFunction, RadialGrid, Space
from .params import Params


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _as_points(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise DomainError("a ball point must be a coordinate vector")
    return x


def conformal_factor(x):
    """phi(x) = 2/(1-|x|^2) >= 2 on the open unit ball (batched over leading axes)."""
    x = _as_points(x)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 >= 1.0):
        raise DomainError("conformal_factor requires |x| < 1")
    out = 2.0 / (1.0 - r2)
    return float(out) if out.ndim == 0 else out


def mobius(y, x):
    """The Moebius transformation T_y(x) of the unit ball.

    T_y(x) = (|x-y|^2 y - (1-|y|^2)(x-y)) / (1 - 2 x.y + |x|^2 |y|^2);
    it is an isometry of the ball model with T_y(y) = 0. x may carry
    leading batch axes.
    """
    y = _as_points(y)
    x = _as_points(x)
    if np.sum(y * y) >= 1.0 or np.any(np.sum(x * x, axis=-1) >= 1.0):
        raise DomainError("mobius requires both points in the open ball")
    d = x - y
    d2 = np.sum(d * d, axis=-1, keepdims=True)
    y2 = float(np.sum(y * y))
    x2 = np.sum(x * x, axis=-1, keepdims=True)
    denom = 1.0 - 2.0 * np.sum(x * y, axis=-1, keepdims=True) + x2 * y2
    return (d2 * y - (1.0 - y2) * d) / denom


def distance(x, y) -> float:
    """Hyperbolic distance d(x, y) = log((1+t)/(1-t)) with t = |T_y(x)|."""
    t = np.linalg.norm(mobius(_as_points(y), _as_points(x)), axis=-1)
    if np.any(t >= 1.0):
        raise DomainError("distance: Moebius image left the ball (invalid input)")
    out = 2.0 * np.arctanh(t)
    return float(out) if np.ndim(out) == 0 else out


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
        raise DomainError("conformal_lift expects a Euclidean radial profile")
    if w.support_radius >= 1.0:
        raise SupportError(
            f"conformal_lift needs support inside the unit ball, got {w.support_radius}"
        )
    t = w.grid.nodes
    if t[-1] >= 1.0:
        raise SupportError("conformal_lift grid reaches the ball boundary")
    phi = 2.0 / (1.0 - t * t)
    r_nodes = ball_to_geodesic(t)
    r_weights = w.grid.weights * phi
    grid = RadialGrid(r_nodes, r_weights, domain_end=float(ball_to_geodesic(w.grid.r_max)))
    exponent = p.s - p.n / 2.0
    values = np.where(t <= w.support_radius, phi ** exponent * w.values, 0.0)
    support_r = float(ball_to_geodesic(min(w.support_radius, w.grid.r_max)))
    profile = None
    if w.profile is not None:
        w_fn = w.profile
        t_sup = w.support_radius

        def profile(r, _fn=w_fn, _e=exponent, _ts=t_sup):
            r = np.asarray(r, dtype=float)
            tt = np.tanh(r / 2.0)
            ph = 2.0 / (1.0 - tt * tt)
            return np.where(tt <= _ts, ph ** _e * _fn(tt), 0.0)

    return RadialFunction(grid, values, support_r, Space.HYPERBOLIC, profile=profile)
