"""Numerical routes that the closed forms and fast paths of gjmslab are
checked against.

windowed_bubble_energy prices the untruncated bubble with the package's own
octave-banded Hankel energies, so a test comparing it with
bubble_energy_limit checks the Hankel machinery and the closed form against
each other. panelwise_regularized_kernel is the kernel's fixed composite
rule evaluated one panel at a time, the route that the batched
spherical.regularized_kernel must reproduce bit for bit.
slsqp_spline_search is the spline search as one scipy SLSQP solve, the
route that quotients._minimize_spline replaced; its quotients bound the
Newton search's from above. outer_scaled_bessel_matrix is a Hankel band's
Bessel matrix as one outer product, the route that the row blocks of
bubbles._scaled_bessel_matrix must reproduce bit for bit.
mehler_phi_matrix is a Phi matrix one spherical_function (Mehler) column at
a time, and legendre_phi one Phi value from mpmath's Legendre function: the
routes that the Jacobi and elementary columns of spherical.phi_matrix are
checked against.
"""

import functools
import math

import mpmath as mp
import numpy as np

from gjmslab.bubbles import _banded_energy, smooth_window
from gjmslab.errors import NumericalError, ParameterError
from gjmslab.geometry import sphere_area
from gjmslab.grids import GAUSS_WEIGHTS, PHASE_PER_PANEL, gauss_panels, geometric_grid
from gjmslab.multipliers import multiplier
from gjmslab.quotients import _spline_report, _spline_start_candidates
from gjmslab.special import bessel_j_scaled
from gjmslab.spherical import plancherel_density, spherical_function

WINDOW_RADII = (2000.0, 4000.0)


@functools.lru_cache(maxsize=None)
def windowed_bubble_energy(p) -> dict:
    """E(U) for U = (1+r^2)^{-(n-2s)/2} by smooth windowing at two radii and
    Richardson extrapolation in the window radius (bias ~ R^-(n-2s)).

    Returns {"energy", "tail_bound"}; tail_bound is the spread |E_R2 - E_R1|
    of the two windowed energies.
    """
    q = (p.n - 2.0 * p.s) / 2.0
    raw = {}
    for R in WINDOW_RADII:
        def prof(r, _R=R):
            r = np.asarray(r, dtype=float)
            return (1.0 + r * r) ** (-q) * smooth_window(r, 0.5 * _R, _R)

        raw[R] = _banded_energy(prof, R, None, p)
    r1, r2 = WINDOW_RADII
    ratio = (r2 / r1) ** (p.n - 2.0 * p.s)
    energy = (ratio * raw[r2] - raw[r1]) / (ratio - 1.0)
    return {"energy": energy, "tail_bound": abs(raw[r2] - raw[r1])}


def mehler_phi_matrix(n, beta, radii):
    """Phi_beta(r) on beta x radii, one spherical_function call (the Mehler
    integral) per radius."""
    return np.column_stack([spherical_function(n, beta, float(r)) for r in radii])


def legendre_phi(n, beta, r, dps=30):
    """Phi_beta(r) = 2^{-mu} Gamma(n/2) sinh(r)^mu Re P^mu_{-1/2 + i beta}(cosh r),
    mu = (2 - n)/2, from mpmath's Legendre function at dps digits."""
    mu = (2.0 - n) / 2.0
    with mp.workdps(dps):
        const = mp.mpf(2) ** -mu * mp.gamma(n / 2.0) * mp.sinh(r) ** mu
        return float(const * mp.re(mp.legenp(mp.mpc(-0.5, beta), mu, mp.cosh(r), type=3)))


def outer_scaled_bessel_matrix(n, rows, columns):
    """J_nu(x)/x^nu, nu = (n-2)/2, at x = the outer product rows x columns,
    evaluated in one call."""
    x = np.multiply.outer(rows, columns)
    return bessel_j_scaled((n - 2) / 2.0, x.ravel()).reshape(x.shape)


def quadrature_mass_limit(n: int) -> float:
    """int (1+|y|^2)^-n dy by geometric-grid quadrature on [0, 1e5] (the
    truncated tail is ~ omega 1e5^-n / n, below 2e-15 of the
    total for n >= 3)."""
    grid = geometric_grid(1e5, first_width=0.05)
    r = grid.nodes
    return sphere_area(n) * grid.integrate((1.0 + r * r) ** (-n) * r ** (n - 1))


def panelwise_regularized_kernel(kind, p, r, eps_reg, rel_tol=1e-10):
    """regularized_kernel with its integrand evaluated one 16-node panel at a
    time: one symbol, spherical_function and Plancherel-density call per
    panel and per half, and the same fixed rule (the initial panels, their
    halves, the scale, the acceptance test, fsum)."""
    r = float(r)
    if r < 0.5:
        raise ParameterError(f"regularized_kernel requires r >= 0.5, got {r}")
    if not eps_reg > 0.0:
        raise ParameterError(f"eps_reg must be > 0, got {eps_reg}")
    beta_cut = math.sqrt(16.0 * math.log(10.0) / eps_reg)

    def panel_value(a, b):
        # the one-panel rule scales the reference weights after the dot
        # product; composite weights would move the last bits of k^eps
        nodes, _ = gauss_panels((a, b))
        m = multiplier(kind, p, nodes)
        phi = spherical_function(p.n, nodes, r)
        dens = plancherel_density(p.n, nodes)
        g = m * np.exp(-eps_reg * nodes * nodes) * phi * dens
        return 0.5 * (b - a) * float(np.dot(GAUSS_WEIGHTS, g))

    width = min(1.5, PHASE_PER_PANEL / max(r, 1.0))
    n0 = max(8, int(math.ceil(beta_cut / width)))
    edges = np.linspace(0.0, beta_cut, n0 + 1)
    panels = [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
    coarse = [panel_value(a, b) for a, b in panels]
    scale = sum(abs(v) for v in coarse) + 1e-300
    fine = []
    for (a, b), value in zip(panels, coarse):
        mid = 0.5 * (a + b)
        fine.append(panel_value(a, mid) + panel_value(mid, b))
        if not abs(fine[-1] - value) <= rel_tol * scale:
            raise NumericalError(f"regularized_kernel: the halves of the panel [{a:.6g}, {b:.6g}] "
                                 "miss its value")
    return 2.0 * math.fsum(fine)


def slsqp_spline_search(p, lam, family, budget, forms):
    """SLSQP on theta^T (A - lam M) theta / crit^{2/2*} under the tail guard
    of the family's _spline_forms, from the best start candidate scaled to
    unit critical integral; returns whether it converged (at SLSQP's default
    accuracy, 1e-6 on Q). Takes the place of quotients._minimize_spline in
    gap_scan."""
    basis, measure, energy, l2, guard = forms
    shifted = energy - lam * l2

    def guard_value(theta):
        return theta @ guard @ theta

    def quotient(theta):
        # a trial outside the guard steers the search but is never returned
        return budget.price(_spline_report, family, p, lam, forms, theta,
                            admissible=bool(guard_value(theta) >= 0.0))

    def gradient(theta):
        u = basis @ theta
        crit_integral = measure @ np.abs(u) ** p.two_star
        pull = basis.T @ (measure * np.abs(u) ** (p.two_star - 2.0) * u) / crit_integral
        return (2.0 * (shifted @ theta - (theta @ shifted @ theta) * pull)
                / crit_integral ** (2.0 / p.two_star))

    from scipy.optimize import minimize

    candidates = _spline_start_candidates(family, p)
    theta0 = candidates[int(np.argmin([quotient(cand) for cand in candidates]))]
    theta0 = theta0 / (measure @ np.abs(basis @ theta0) ** p.two_star) ** (1.0 / p.two_star)
    result = minimize(quotient, theta0, jac=gradient, method="SLSQP",
                      constraints={"type": "ineq", "fun": guard_value,
                                   "jac": lambda theta: 2.0 * guard @ theta},
                      options={"maxiter": budget.cap})
    return bool(result.success)
