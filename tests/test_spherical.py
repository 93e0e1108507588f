import math
from collections import OrderedDict

import numpy as np
import pytest

from conftest import hyperbolic_bump, windowed_gaussian
from gjmslab import spherical
from gjmslab.bubbles import fractional_energy
from gjmslab.errors import DegenerateData, DomainError, SupportError, TailError
from gjmslab.geometry import conformal_lift
from gjmslab.grids import RadialFunction, RadialGrid, Space, SpectralProfile, uniform_grid
from gjmslab.params import MultiplierKind, Params
from gjmslab.special import legendre_p
from gjmslab.spherical import (
    decay_rate_fit,
    decay_slope,
    default_beta_grid,
    inverse_spherical_transform,
    l2_mass,
    phi_matrix,
    plancherel_density,
    quadratic_form,
    regularized_kernel,
    regularized_kernel_scan,
    spherical_function,
    spherical_transform,
)

INT = MultiplierKind.INTERTWINED


def _identity_symbol(b):
    return np.ones_like(np.asarray(b, dtype=float))


class TestPlancherelDensity:
    def test_three_dim_closed_form(self):
        assert plancherel_density(3, 1.0) == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-12)
        grid = np.linspace(0.1, 20.0, 50)
        assert np.allclose(plancherel_density(3, grid), grid ** 2 / (2 * math.pi ** 2), rtol=1e-12)

    def test_vanishes_at_zero(self):
        for n in (2, 3, 4, 5):
            assert plancherel_density(n, 0.0) == 0.0
            assert plancherel_density(n, 1e-6) < 1e-10

    def test_two_dim_value(self):
        from gjmslab.special import abs_gamma_sq
        target = 0.5 / math.pi * abs_gamma_sq(0.5, 1.0) / abs_gamma_sq(0.0 + 1.0, 1.0) * 1.0
        # |Gamma(i)|^2 = |Gamma(1+i)|^2 since |i|^2 = 1
        assert plancherel_density(2, 1.0) == pytest.approx(target, rel=1e-12)


class TestSphericalFunction:
    def test_normalized_at_origin(self):
        for n in (2, 3, 4, 5):
            for beta in (0.0, 1.0, 17.0):
                assert spherical_function(n, beta, 0.0) == 1.0

    def test_three_dim_closed_form(self):
        for beta, r in ((1.0, 1.0), (3.0, 2.0), (20.0, 0.7), (60.0, 3.0)):
            target = math.sin(beta * r) / (beta * math.sinh(r))
            assert spherical_function(3, beta, r) == pytest.approx(target, abs=5e-12)

    def test_zero_frequency_limit(self):
        assert spherical_function(3, 0.0, 1.0) == pytest.approx(1.0 / math.sinh(1.0), rel=1e-10)

    def test_evenness_via_legendre_form(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            beta = float(rng.uniform(0.1, 3.0))
            r = float(rng.uniform(0.2, 3.0))
            mu = (2.0 - n) / 2.0
            const = 2.0 ** ((n - 2) / 2.0) * math.gamma(n / 2.0) * math.sinh(r) ** ((2.0 - n) / 2.0)
            plus = const * legendre_p(complex(-0.5, beta), mu, math.cosh(r)).real
            minus = const * legendre_p(complex(-0.5, -beta), mu, math.cosh(r)).real
            assert abs(plus - minus) <= 1e-10 * (1.0 + abs(plus))
            assert spherical_function(n, beta, r) == pytest.approx(plus, rel=1e-9, abs=1e-12)

    def test_taylor_seam_continuity(self):
        # Taylor side and integral side agree across the switch radius
        for n in (3, 4, 5):
            for beta in (0.5, 3.0):
                below = spherical_function(n, beta, 0.05 - 1e-12)
                above = spherical_function(n, beta, 0.05 + 1e-12)
                assert abs(below - above) < 1e-7

    def test_eigen_ode_residual(self):
        # central-difference residual of Phi'' + (n-1) coth(r) Phi' + (b^2+rho^2) Phi
        h = 1e-3
        r_grid = np.arange(0.1, 5.0 + h / 2, h)
        for n in (3, 4, 5):
            rho2 = ((n - 1) / 2.0) ** 2
            for beta in (0.5, 1.0, 3.0):
                phi = np.array([spherical_function(n, beta, float(r)) for r in r_grid])
                lap = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h ** 2
                grad = (phi[2:] - phi[:-2]) / (2 * h)
                r_mid = r_grid[1:-1]
                resid = lap + (n - 1) / np.tanh(r_mid) * grad + (beta ** 2 + rho2) * phi[1:-1]
                assert np.max(np.abs(resid)) <= 1e-4 * (1.0 + beta ** 2)

    def test_ode_integration_oracle(self):
        # independent RK integration of the radial eigen-equation
        from scipy.integrate import solve_ivp

        n, beta = 4, 1.3
        lam = beta ** 2 + ((n - 1) / 2.0) ** 2
        r0 = 1e-4

        def rhs(r, y):
            return [y[1], -(n - 1) / math.tanh(r) * y[1] - lam * y[0]]

        y0 = [1.0 - lam * r0 ** 2 / (2.0 * n), -lam * r0 / n]
        sol = solve_ivp(rhs, (r0, 2.5), y0, rtol=1e-11, atol=1e-13, dense_output=True)
        for r in (0.5, 1.0, 2.0):
            assert spherical_function(n, beta, r) == pytest.approx(
                float(sol.sol(r)[0]), rel=1e-8, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            spherical_function(3, 1.0, -0.1)
        with pytest.raises(DomainError):
            spherical_function(1, 1.0, 1.0)


class TestTransforms:
    def test_zero_transform(self):
        grid = uniform_grid(2.0)
        f = RadialFunction(grid, np.zeros_like(grid.nodes), 2.0, Space.HYPERBOLIC)
        F = spherical_transform(f, 3, default_beta_grid(2.0, 40.0))
        assert np.all(F.values == 0.0)
        back = inverse_spherical_transform(F, 3, grid)
        assert back.is_zero()

    def test_linearity(self):
        grid = uniform_grid(3.0)
        bg = default_beta_grid(3.0, 40.0)
        f = RadialFunction.from_profile(windowed_gaussian(0.5, 3.0), grid, 3.0, Space.HYPERBOLIC)
        g = RadialFunction.from_profile(windowed_gaussian(0.9, 3.0), grid, 3.0, Space.HYPERBOLIC)
        combo = RadialFunction(grid, 2.0 * f.values - 3.0 * g.values, 3.0, Space.HYPERBOLIC)
        Fc = spherical_transform(combo, 4, bg)
        Ff = spherical_transform(f, 4, bg)
        Fg = spherical_transform(g, 4, bg)
        assert np.allclose(Fc.values, 2.0 * Ff.values - 3.0 * Fg.values, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_plancherel_and_roundtrip(self, n):
        grid = uniform_grid(3.0)
        bg = default_beta_grid(3.0, 60.0)
        for width in (0.3, 0.5, 0.8, 1.2, 2.0):
            f = RadialFunction.from_profile(windowed_gaussian(width, 3.0), grid,
                                            3.0, Space.HYPERBOLIC)
            F = spherical_transform(f, n, bg)
            spectral = float(np.dot(bg.weights,
                                    F.values ** 2 * plancherel_density(n, bg.nodes)))
            assert spectral == pytest.approx(l2_mass(f, n), rel=1e-4)
            # the narrowest bump carries ~1e-4 genuine window-tail content
            back = inverse_spherical_transform(F, n, grid, tail_tol=1e-3)
            w = grid.weights * np.sinh(grid.nodes) ** (n - 1)
            err = math.sqrt(float(np.dot(w, (back.values - f.values) ** 2))
                            / float(np.dot(w, f.values ** 2)))
            assert err <= 1e-3

    def test_support_errors(self):
        grid = uniform_grid(2.0)
        f = RadialFunction(grid, np.zeros_like(grid.nodes), math.inf, Space.HYPERBOLIC)
        with pytest.raises(SupportError):
            spherical_transform(f, 3, default_beta_grid(2.0, 40.0))

    def test_inverse_tail_error(self):
        # a flat spectral profile has no decaying tail: must be rejected
        bg = default_beta_grid(1.0, 40.0)
        F = SpectralProfile(bg, np.ones_like(bg.nodes))
        with pytest.raises(TailError):
            inverse_spherical_transform(F, 3, uniform_grid(1.0))


class TestPhiCache:
    def test_bounded_by_bytes_lru(self, monkeypatch):
        monkeypatch.setattr(spherical, "_PHI_CACHE", OrderedDict())
        bg = default_beta_grid(1.0, 8.0)
        a, b, c, d = (RadialGrid.from_edges(np.linspace(0.0, top, panels + 1))
                      for top, panels in ((0.5, 1), (0.25, 1), (1.0, 2), (1.5, 3)))
        size = bg.nodes.size * 16 * 8       # bytes of a one-panel matrix
        monkeypatch.setattr(spherical, "_PHI_CACHE_MAX_BYTES", 3 * size)
        mat_a = phi_matrix(3, bg, a)
        mat_b = phi_matrix(3, bg, b)
        assert mat_a.nbytes == mat_b.nbytes == size
        assert phi_matrix(3, bg, a) is mat_a      # the hit makes b least recent
        phi_matrix(3, bg, c)                      # 4 sizes held: b goes
        held = list(spherical._PHI_CACHE.values())
        assert len(held) == 2 and not any(m is mat_b for m in held)
        assert phi_matrix(3, bg, a) is mat_a
        # a matrix larger than the cap is still kept, alone
        monkeypatch.setattr(spherical, "_PHI_CACHE_MAX_BYTES", size)
        mat_d = phi_matrix(3, bg, d)
        held = list(spherical._PHI_CACHE.values())
        assert len(held) == 1 and held[0] is mat_d
        assert phi_matrix(3, bg, d) is mat_d


class TestQuadraticForm:
    def test_identity_hook_is_l2(self):
        p = Params(3, 1.0)
        f = hyperbolic_bump(0.5, 3.0)
        assert quadratic_form(_identity_symbol, p, 0.0, f) == pytest.approx(
            l2_mass(f, 3), rel=1e-4)

    def test_nonnegative_at_bottom(self):
        from gjmslab.multipliers import spectral_bottom
        for n, s in ((3, 1.0), (5, 0.8)):
            p = Params(n, s)
            bottom = spectral_bottom(INT, p)
            for width in (0.4, 1.0, 2.5):
                f = hyperbolic_bump(width, 3.0)
                energy = quadratic_form(INT, p, bottom, f)
                scale = quadratic_form(INT, p, 0.0, f)
                assert energy >= -1e-9 * scale

    @pytest.mark.parametrize("n,s", [(3, 1.0), (4, 0.75), (5, 0.8)])
    def test_conformal_energy_identity(self, n, s):
        # intertwined energy of the lift equals the Euclidean fractional energy
        p = Params(n, s)
        grid = uniform_grid(0.6, panel_width=0.005)
        w = RadialFunction.from_profile(windowed_gaussian(0.05, 0.6), grid, 0.6,
                                        Space.EUCLIDEAN)
        u = conformal_lift(w, p)
        hyperbolic = quadratic_form(INT, p, 0.0, u)
        euclidean = fractional_energy(w, p)
        assert hyperbolic == pytest.approx(euclidean, rel=1e-3)


class TestKernel:
    def test_preconditions(self):
        p = Params(3, 0.6)
        with pytest.raises(DomainError):
            regularized_kernel(INT, p, 0.4, 0.01)
        with pytest.raises(DomainError):
            regularized_kernel(INT, p, 2.0, 0.0)

    def test_identity_hook_oracle(self):
        # closed-form regularized inverse transform at n = 3:
        # k(r) = sqrt(pi) r exp(-r^2/(4 eps)) / (4 pi^2 eps^(3/2) sinh r)
        p = Params(3, 1.0)
        eps = 0.01
        for r in (0.5, 0.6, 0.7):
            k = regularized_kernel(_identity_symbol, p, r, eps)
            oracle = (math.sqrt(math.pi) * r * math.exp(-r * r / (4 * eps))
                      / (4 * math.pi ** 2 * eps ** 1.5 * math.sinh(r)))
            assert k == pytest.approx(oracle, rel=1e-6)

    def test_monotone_decay(self):
        p = Params(3, 0.6)
        radii = [2.0, 3.0, 4.0, 5.0, 6.0]
        vals = [abs(regularized_kernel(INT, p, r, 0.01)) for r in radii]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_regularization_stability(self):
        p = Params(3, 0.6)
        k1 = regularized_kernel(INT, p, 4.0, 0.02)
        k2 = regularized_kernel(INT, p, 4.0, 0.01)
        assert abs(math.log(abs(k2)) - math.log(abs(k1))) < 0.1 * abs(math.log(abs(k1)))

    def test_refinement_cap(self):
        from gjmslab.errors import NonConvergence
        with pytest.raises(NonConvergence):
            regularized_kernel(INT, Params(3, 0.6), 2.0, 0.01, rel_tol=0.0,
                               max_panels=50)

    def test_scan_reports_ladder(self):
        p = Params(3, 0.6)
        scan = regularized_kernel_scan(INT, p, 2.0)
        assert set(scan["values"]) == {0.02, 0.01, 0.005}
        assert np.isfinite(scan["extrapolated"])


class TestDecayFit:
    def test_slopes(self):
        assert decay_rate_fit(INT, Params(3, 0.6), [2, 3, 4, 5, 6], 0.01) <= -0.8
        assert decay_rate_fit(INT, Params(5, 0.7), [2, 3, 4, 5, 6], 0.01) <= -1.6

    def test_scaling_invariance_of_slope(self):
        # doubling all kernel values shifts the log but not the slope
        p = Params(3, 0.6)
        radii = np.array([2.0, 3.0, 4.0, 5.0])
        ks = np.array([regularized_kernel(INT, p, float(r), 0.01) for r in radii])
        s1 = np.polyfit(radii, np.log(np.abs(ks)), 1)[0]
        s2 = np.polyfit(radii, np.log(np.abs(2.0 * ks)), 1)[0]
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_fit_ignores_radii_outside_window(self):
        p = Params(3, 0.6)
        assert decay_rate_fit(INT, p, [2, 3, 4, 5, 9.5], 0.01) == \
            decay_rate_fit(INT, p, [2, 3, 4, 5], 0.01)
        with pytest.raises(DegenerateData):
            decay_slope([2.0, 3.0, 4.0, 5.0, 9.5], np.ones(5))

    def test_needs_enough_radii(self):
        with pytest.raises(DegenerateData):
            decay_rate_fit(INT, Params(3, 0.6), [2.0, 3.0, 9.5], 0.01)
