"""Numerical routes that the closed forms and fast paths of gjmslab are
checked against.

transform_bubble_energy prices the untruncated bubble by mpmath quadrature
of its closed-form Fourier transform, with no code of gjmslab.bubbles, so a
test comparing it with bubble_energy_limit checks the closed form against
an independent integral; dirichlet_bubble_energy prices the truncated
bubble's s = 1 energy on its own support the same way, the value that
bubble_energy takes from the one support [0, 2 ENERGY_DELTA].
panelwise_regularized_kernel is the kernel's fixed composite
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

from gjmslab.errors import NumericalError, ParameterError
from gjmslab.geometry import sphere_area
from gjmslab.grids import GAUSS_WEIGHTS, PHASE_PER_PANEL, gauss_panels, geometric_grid
from gjmslab.multipliers import multiplier
from gjmslab.quotients import _spline_report, _spline_start_candidates
from gjmslab.special import bessel_j_scaled
from gjmslab.spherical import plancherel_density, spherical_function

# the upper limit of transform_bubble_energy's integral: beyond it
# rho^{n-1} K_s(rho)^2 ~ (pi/2) rho^{n-2} e^{-2 rho} carries below 1e-37 of
# the total for n <= 12
TRANSFORM_RHO_MAX = 64


@functools.lru_cache(maxsize=None)
def transform_bubble_energy(p) -> float:
    """E(U) = omega int rho^{2s+n-1} U_hat(rho)^2 d rho for U = (1+r^2)^{-a},
    a = (n-2s)/2, from its unitary Fourier transform in closed form,
    U_hat(rho) = 2^{1-a} rho^{-s} K_s(rho) / Gamma(a) (the Bessel-potential
    pair), so E(U) = omega (2^{1-a} / Gamma(a))^2 int rho^{n-1} K_s(rho)^2 d rho:
    mpmath's tanh-sinh quadrature at 16 digits on [0, 1, 4, 16, TRANSFORM_RHO_MAX].
    """
    n = p.n
    with mp.workdps(16):
        s = mp.mpf(p.s)
        a = (n - 2 * s) / 2
        scale = mp.mpf(2) ** (1 - a) / mp.gamma(a)
        integral = mp.quad(lambda rho: rho ** (n - 1) * mp.besselk(s, rho) ** 2,
                           [0, 1, 4, 16, TRANSFORM_RHO_MAX])
        omega = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        return float(omega * scale * scale * integral)


@functools.lru_cache(maxsize=None)
def dirichlet_bubble_energy(n, eps, delta) -> float:
    """omega int (w')^2 r^{n-1} dr, the s = 1 energy of w = chi(r) U_eps(r),
    U_eps = eps^{-q} (1 + (r/eps)^2)^{-q}, q = (n-2)/2, by mpmath's tanh-sinh
    quadrature at 16 digits of w' = chi' U + chi U' in closed form: on the
    ramp t = (r - delta)/delta in (0, 1), chi = 1 - F(t)/F(1) and
    chi' = -F'(t)/(F(1) delta), F(t) = int_0^t exp(-1/(u(1-u))) du, and
    U' = -2q r U / (eps^2 + r^2)."""
    with mp.workdps(16):
        eps, delta = mp.mpf(eps), mp.mpf(delta)
        q = mp.mpf(n - 2) / 2

        def density(t):
            return mp.exp(-1 / (t * (1 - t)))

        def u(r):
            return eps ** -q * (1 + (r / eps) ** 2) ** -q

        def du(r):
            return -2 * q * r / (eps ** 2 + r * r) * u(r)

        def ramp(r):
            t = (r - delta) / delta
            dw = (1 - mp.quad(density, [0, t]) / total) * du(r) - density(t) / (total * delta) * u(r)
            return dw * dw * r ** (n - 1)

        total = mp.quad(density, [0, 0.5, 1])
        core = [k * eps for k in (1, 4, 16) if k * eps < delta]
        plateau = mp.quad(lambda r: du(r) ** 2 * r ** (n - 1), [0] + core + [delta])
        omega = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        return float(omega * (plateau + mp.quad(ramp, [delta, 1.5 * delta, 2 * delta])))


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
