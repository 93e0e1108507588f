import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import oracles
from conftest import hyperbolic_bump, windowed_gaussian
from oracles import legendre_phi, mehler_phi_matrix, panelwise_regularized_kernel
from gjmslab import special, spherical
from gjmslab.bubbles import BubbleParams, bubble_energy, truncated_bubble
from gjmslab.errors import NumericalError, ParameterError
from gjmslab.geometry import conformal_lift
from gjmslab.grids import GAUSS_NODES, RadialFunction, RadialGrid, SpectralProfile, uniform_grid
from gjmslab.multipliers import multiplier, spectral_bottom
from gjmslab.params import MultiplierKind, Params
from gjmslab.quotients import standard_hyperbolic_grid
from gjmslab.spherical import (
    decay_slope,
    default_beta_grid,
    eps_extrapolation,
    inverse_spherical_transform,
    kernel_decay,
    lp_mass,
    operator_kernel,
    phi_matrix,
    plancherel_density,
    quadratic_form,
    regularized_kernel,
    spherical_function,
    spherical_transform,
)

INT = MultiplierKind.INTERTWINED


def _identity_symbol(kind, p, b):
    return np.ones_like(np.asarray(b, dtype=float))


def _quadratic_symbol(kind, p, b):
    # the integer-order symbol b^2 + 1/4 (s = 1) as a test hook
    return 0.25 + b * b


@pytest.fixture
def symbol_hook(monkeypatch):
    """install(fn): fn(kind, p, beta) takes the place of multiplier in
    spherical and in the kernel oracle."""
    def install(fn):
        for module in (spherical, oracles):
            monkeypatch.setattr(module, "multiplier", fn)

    return install


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
        # |c(beta)|^-2 = beta tanh(pi beta) / (2 pi) in two dimensions
        for beta in (0.05, 0.5, 1.0, 3.7, 12.0):
            target = beta * math.tanh(math.pi * beta) / (2.0 * math.pi)
            assert plancherel_density(2, beta) == pytest.approx(target, rel=1e-12)

    ODD_BETAS = np.concatenate([[0.0, 1e-300, 1e-8, 0.3], np.linspace(0.01, 480.0, 997)])

    @staticmethod
    def gamma_route(n, beta):
        """The even-n route at any n: const beta^2 |Gamma(rho + i beta)|^2
        / |Gamma(1 + i beta)|^2 from two Lanczos sums."""
        const = 2.0 ** (1 - n) / (math.gamma(n / 2.0) * math.pi ** (n / 2.0))
        out = np.zeros_like(beta)
        b = beta[beta != 0.0]
        out[beta != 0.0] = const * b * b * np.exp(
            special.log_abs_gamma_sq((n - 1) / 2.0, b) - special.log_abs_gamma_sq(1.0, b))
        return out

    def test_n3_polynomial_is_the_gamma_route_bit_for_bit(self):
        # at n = 3 the two Lanczos sums are one sum, so the Gamma route is
        # const b b exp(0.0): every n = 3 output keeps its bits
        got = plancherel_density(3, self.ODD_BETAS)
        assert got.tobytes() == self.gamma_route(3, self.ODD_BETAS).tobytes()

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_odd_polynomial_against_gamma_route_and_mpmath(self, n):
        got = plancherel_density(n, self.ODD_BETAS)
        nz = self.ODD_BETAS != 0.0
        assert got[0] == 0.0
        # measured at most 6e-13: the Lanczos sums' own error
        assert np.allclose(got[nz], self.gamma_route(n, self.ODD_BETAS)[nz], rtol=2e-12, atol=0.0)
        with mp.workdps(40):
            rho = mp.mpf(n - 1) / 2
            const = mp.mpf(2) ** (1 - n) / (mp.gamma(mp.mpf(n) / 2) * mp.pi ** (mp.mpf(n) / 2))
            for beta in self.ODD_BETAS[1::50]:
                b = mp.mpf(float(beta))
                exact = const * b * b * abs(mp.gamma(rho + 1j * b) / mp.gamma(1 + 1j * b)) ** 2
                assert plancherel_density(n, beta) == pytest.approx(float(exact), rel=2e-15)

    def test_odd_n_evaluates_no_log_gamma(self, monkeypatch):
        def refuse(z):
            raise AssertionError("log Gamma evaluated")

        monkeypatch.setattr(special, "_lanczos_log_gamma", refuse)
        for n in (3, 5, 7, 9, 11):
            plancherel_density(n, self.ODD_BETAS)
            plancherel_density(n, 2.5)


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
            plus = const * float(mp.re(mp.legenp(mp.mpc(-0.5, beta), mu, math.cosh(r), type=3)))
            minus = const * float(mp.re(mp.legenp(mp.mpc(-0.5, -beta), mu, math.cosh(r), type=3)))
            assert abs(plus - minus) <= 1e-10 * (1.0 + abs(plus))
            assert spherical_function(n, beta, r) == pytest.approx(plus, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_small_radii_against_legendre_form(self, n):
        # Mehler down to r = 1e-8, at the frequencies of a b_max = 120 grid
        for r in (1e-8, 1e-3, 0.049):
            for beta in (0.5, 30.0, 120.0):
                assert abs(spherical_function(n, beta, r) - legendre_phi(n, beta, r)) <= 1e-13

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
        with pytest.raises(ParameterError, match="requires r >= 0"):
            spherical_function(3, 1.0, -0.1)
        with pytest.raises(ParameterError, match="requires n >= 2"):
            spherical_function(1, 1.0, 1.0)


class TestTransforms:
    def test_zero_transform(self):
        grid = uniform_grid(2.0)
        f = RadialFunction(grid, np.zeros_like(grid.nodes), 2.0)
        F = spherical_transform(f, 3, default_beta_grid(2.0, 40.0))
        assert np.all(F.values == 0.0)
        back = inverse_spherical_transform(F, 3, grid)
        assert not np.any(back.values)

    def test_linearity(self):
        grid = uniform_grid(3.0)
        bg = default_beta_grid(3.0, 40.0)
        f = RadialFunction.from_profile(windowed_gaussian(0.5, 3.0), grid, 3.0)
        g = RadialFunction.from_profile(windowed_gaussian(0.9, 3.0), grid, 3.0)
        combo = RadialFunction(grid, 2.0 * f.values - 3.0 * g.values, 3.0)
        Fc = spherical_transform(combo, 4, bg)
        Ff = spherical_transform(f, 4, bg)
        Fg = spherical_transform(g, 4, bg)
        assert np.allclose(Fc.values, 2.0 * Ff.values - 3.0 * Fg.values, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_plancherel_and_roundtrip(self, n):
        grid = uniform_grid(3.0)
        bg = default_beta_grid(3.0, 60.0)
        for width in (0.3, 0.5, 0.8, 1.2, 2.0):
            f = RadialFunction.from_profile(windowed_gaussian(width, 3.0), grid, 3.0)
            F = spherical_transform(f, n, bg)
            spectral = float(np.dot(bg.weights,
                                    F.values ** 2 * plancherel_density(n, bg.nodes)))
            assert spectral == pytest.approx(lp_mass(f, n, 2.0), rel=1e-4)
            # the narrowest bump carries ~1e-4 genuine window-tail content
            back = inverse_spherical_transform(F, n, grid, tail_tol=1e-3)
            w = grid.weights * np.sinh(grid.nodes) ** (n - 1)
            err = math.sqrt(float(np.dot(w, (back.values - f.values) ** 2))
                            / float(np.dot(w, f.values ** 2)))
            assert err <= 1e-3

    def test_support_errors(self):
        grid = uniform_grid(2.0)
        f = RadialFunction(grid, np.zeros_like(grid.nodes), math.inf)
        with pytest.raises(ParameterError, match="requires compactly supported data"):
            spherical_transform(f, 3, default_beta_grid(2.0, 40.0))

    def test_inverse_tail_error(self):
        # a flat spectral profile has no decaying tail: must be rejected
        bg = default_beta_grid(1.0, 40.0)
        F = SpectralProfile(bg, np.ones_like(bg.nodes))
        with pytest.raises(NumericalError, match="inverse transform tail fraction"):
            inverse_spherical_transform(F, 3, uniform_grid(1.0))


# radii on both sides of the Jacobi switch, out to where Phi is ~ e^{-rho r}
_SWITCH_RADII = np.array([0.3, 0.7, 0.99, 1.0, 1.01, 1.7, 3.0, 5.5, 12.0])


def _radii_grid(radii):
    return RadialGrid(np.asarray(radii, dtype=float), np.ones(len(radii)))


def _switch_radius(n, beta_max):
    """Where the Mehler columns of an n-dimensional Phi matrix whose largest
    frequency is beta_max end."""
    return spherical.R_MIN_ELEMENTARY.get(n, spherical._jacobi_switch_radius(beta_max))


class TestPhiMatrixJacobi:
    """The columns from the switch on: at even n, and at odd n without an
    elementary form, the Jacobi expansion from the Jacobi switch on; at
    n = 3, 5, 7 and 9 the elementary form from R_MIN_ELEMENTARY[n] on (see
    also TestPhiMatrixElementary). Mehler (spherical_function) is the
    oracle."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 11])
    @pytest.mark.parametrize("support,b_max", [(6.0, 60.0), (40.0, 8.0)])
    def test_far_columns_match_mehler(self, n, support, b_max):
        bg = default_beta_grid(support, b_max)
        radii = _SWITCH_RADII[_SWITCH_RADII >= spherical.R_MIN_JACOBI]
        mat = phi_matrix(n, bg, _radii_grid(radii))
        mehler = mehler_phi_matrix(n, bg.nodes, radii)
        assert np.max(np.abs(mat - mehler)) <= 1e-12
        # the smallest Gauss node, nearest the pole of Gamma(i beta)
        assert bg.nodes[0] < 0.011
        assert np.max(np.abs(mat[0] - mehler[0])) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_large_frequencies_raise_the_switch(self, n):
        # at b_max = 300 the r = 1 Jacobi column would lose ~6 digits to
        # cancellation; the elementary columns of odd n need no switch
        bg = default_beta_grid(6.0, 300.0)
        switch = spherical._jacobi_switch_radius(float(bg.nodes[-1]))
        assert 1.5 < switch < 1.9
        radii = np.array([0.99, 1.0, 1.5, 1.9, 3.0])
        mat = phi_matrix(n, bg, _radii_grid(radii))
        mehler = mehler_phi_matrix(n, bg.nodes, radii)
        assert np.max(np.abs(mat - mehler)) <= 1e-12

    def test_switch_radius(self):
        for b_max in (8.0, 60.0):
            beta_max = float(default_beta_grid(6.0, b_max).nodes[-1])
            assert spherical._jacobi_switch_radius(beta_max) == spherical.R_MIN_JACOBI
        for beta_max in (96.0, 300.0, 1e4):
            switch = spherical._jacobi_switch_radius(beta_max)
            assert switch > spherical.R_MIN_JACOBI
            growth = beta_max / (4.0 * math.cosh(switch) ** 2)
            assert growth == pytest.approx(spherical.JACOBI_GROWTH_MAX, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 7, 11])
    def test_tiny_frequencies_need_no_fallback(self, n):
        beta = np.array([1e-9, 1e-6, 1e-3])
        radii = np.array([1.0, 2.0, 9.0])
        mat = phi_matrix(n, _radii_grid(beta), _radii_grid(radii))
        assert np.max(np.abs(mat - mehler_phi_matrix(n, beta, radii))) <= 1e-12

    def test_three_dim_closed_form(self):
        bg = default_beta_grid(12.0, 60.0)
        mat = phi_matrix(3, bg, _radii_grid(_SWITCH_RADII))
        b, r = bg.nodes[:, None], _SWITCH_RADII[None, :]
        assert np.max(np.abs(mat - np.sin(b * r) / (b * np.sinh(r)))) <= 1e-12

    def test_three_dim_closed_form_at_high_frequency(self):
        # every column, the r < 0.05 ones included, is elementary at n = 3
        bg = default_beta_grid(3.5, 120.0)
        grid = standard_hyperbolic_grid(3.5)
        mat = phi_matrix(3, bg, grid)
        b, r = bg.nodes[:, None], grid.nodes[None, :]
        assert np.max(np.abs(mat - np.sin(b * r) / (b * np.sinh(r)))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize("b_max", [60.0, 120.0])
    def test_near_columns_match_spherical_function(self, n, b_max):
        # the columns below the Jacobi switch, which b_max = 120 raises to
        # r ~ 1.36, against the per-radius integral: the panel-factored
        # Mehler block at even n; at odd n Mehler below R_MIN_ELEMENTARY[n]
        # (none at n = 3) and the elementary form from it on
        bg = default_beta_grid(3.5, b_max)
        grid = standard_hyperbolic_grid(3.5)
        mat = phi_matrix(n, bg, grid)
        switch = spherical._jacobi_switch_radius(float(bg.nodes[-1]))
        near = np.flatnonzero(grid.nodes < switch)
        assert near.size > 0 and (switch > 1.3) == (b_max > 100.0)
        mehler = mehler_phi_matrix(n, bg.nodes, grid.nodes[near])
        assert np.max(np.abs(mat[:, near] - mehler)) <= 1e-13

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_near_columns_match_legendre(self, n):
        # the r < 1 block at a few (beta, r) of a b_max = 60 grid: Mehler at
        # even n, the elementary form at n = 3
        bg = default_beta_grid(3.0, 60.0)
        radii = np.array([0.05, 0.4, 0.97])
        mat = phi_matrix(n, bg, _radii_grid(radii))
        for j, r in enumerate(radii):
            for i in (0, 17, 200, 479):
                assert abs(mat[i, j] - legendre_phi(n, bg.nodes[i], r)) <= 1e-13

    def test_default_beta_grids_factor_into_panels(self):
        for support, b_max in ((3.5, 60.0), (40.0, 8.0), (1.25, 300.0)):
            bg = default_beta_grid(support, b_max)
            shifts, offsets = bg.panel_factors()
            assert offsets.size == 16 and shifts.size * 16 == bg.nodes.size
            assert shifts[0] == 0.0 and np.array_equal(offsets, bg.nodes[:16])
            error = np.abs((shifts[:, None] + offsets).ravel() - bg.nodes)
            assert np.max(error) <= 4.0 * np.spacing(bg.nodes[-1])

    def test_hand_made_grid_takes_one_node_panels(self):
        beta = np.array([0.004, 0.3, 1.1, 2.9, 7.4, 19.0, 33.3])
        bg = _radii_grid(beta)
        shifts, offsets = bg.panel_factors()
        assert np.array_equal(shifts, beta) and np.array_equal(offsets, [0.0])
        radii = np.array([0.02, 0.3, 0.9, 1.5, 4.0, 9.0])
        for n in (3, 4):
            mat = phi_matrix(n, bg, _radii_grid(radii))
            assert np.max(np.abs(mat - mehler_phi_matrix(n, beta, radii))) <= 1e-12

    def test_build_memory(self):
        # the column chunks keep a build's temporaries under 2 MB (0.67 MB
        # measured for the elementary n = 3 columns)
        for support, b_max in ((40.0, 8.0), (5.0, 60.0)):
            bg = default_beta_grid(support, b_max)
            grid = standard_hyperbolic_grid(support)
            tracemalloc.start()
            try:
                mat = phi_matrix(3, bg, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= mat.nbytes + 2 * 2 ** 20

    def test_rebuild_is_byte_identical(self):
        bg = default_beta_grid(5.0, 60.0)
        grid = uniform_grid(5.0)
        first = phi_matrix(5, bg, grid)
        second = phi_matrix(5, bg, grid)
        assert second is not first and second.tobytes() == first.tobytes()

    def test_blocks_cover_every_column(self, monkeypatch):
        bg = default_beta_grid(3.0, 8.0)
        grid = uniform_grid(3.0)
        whole = {n: phi_matrix(n, bg, grid) for n in (3, 4)}
        # one column per block: the elementary columns (n = 3) are
        # elementwise, so they keep their bits; the series stops per block,
        # so only the last bits of the Jacobi ones (n = 4) move
        monkeypatch.setattr(spherical, "BLOCK_CELLS", 3 * bg.nodes.size // 2)
        assert np.array_equal(phi_matrix(3, bg, grid), whole[3])
        assert np.max(np.abs(phi_matrix(4, bg, grid) - whole[4])) <= 1e-14

    def test_series_cap_reaches_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(special, "SERIES_CAP", 3)
        with pytest.raises(NumericalError, match="3 terms"):
            phi_matrix(4, default_beta_grid(3.0, 8.0), _radii_grid([1.0, 2.0]))

    def test_domain(self):
        with pytest.raises(ParameterError, match="requires n >= 2"):
            phi_matrix(1, default_beta_grid(3.0, 8.0), _radii_grid([2.0]))


class TestPhiMatrixElementary:
    """At n = 3, 5, 7 and 9 the columns from R_MIN_ELEMENTARY[n] on are
    c_k(beta) (-(1/sinh r) d/dr)^k cos(beta r), n = 2k + 1; Mehler
    (spherical_function) and mpmath's Legendre function are the oracles."""

    def test_terms(self):
        assert [len(special._elementary_terms(k)) for k in (1, 2, 3, 4)] == [1, 2, 4, 6]
        # n = 5: 3 (sin(beta r) cosh r - beta cos(beta r) sinh r) / (beta (beta^2 + 1) sinh^3 r)
        assert special._elementary_terms(2) == {(1, 1, 2): 1, (2, 0, 2): -1}
        bg, radii = default_beta_grid(3.0, 60.0), np.array([0.3, 1.0, 4.0])
        b, r = bg.nodes[:, None], radii[None, :]
        closed = 3.0 * (np.sin(b * r) * np.cosh(r) - b * np.cos(b * r) * np.sinh(r)) / (
            b * (b * b + 1.0) * np.sinh(r) ** 3)
        # the closed form cancels at r = 0.3 too: 1.2e-14 measured
        assert np.max(np.abs(phi_matrix(5, bg, _radii_grid(radii)) - closed)) <= 1e-13

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_whole_matrix_matches_the_oracles(self, n):
        # frequencies up to 480 on a default grid, radii from R_MIN_ELEMENTARY
        # on; measured at most 4.9e-14 (n = 7, r = 0.5)
        r0 = spherical.R_MIN_ELEMENTARY[n]
        bg = default_beta_grid(3.5, 480.0)
        radii = np.array([max(r0, 1e-3), r0 + 0.05, r0 + 0.3, r0 + 1.1, 4.0, 9.0])
        mat = phi_matrix(n, bg, _radii_grid(radii))
        assert np.max(np.abs(mat - mehler_phi_matrix(n, bg.nodes, radii))) <= 1e-13
        for i in (0, 1000, bg.nodes.size - 1):
            for j in (0, 2, 4):
                assert abs(mat[i, j] - legendre_phi(n, bg.nodes[i], radii[j])) <= 1e-13

    def test_no_jacobi_setup_at_odd_n(self, monkeypatch):
        # the elementary route needs neither c(beta)'s log-Gamma sums nor
        # the 2F1 series; even n still takes them
        def refuse(*args, **kwargs):
            raise AssertionError("Jacobi setup")

        monkeypatch.setattr(spherical, "_log_gamma_array", refuse)
        monkeypatch.setattr(spherical, "_GaussSeries", refuse)
        bg, grid = default_beta_grid(3.5, 60.0), standard_hyperbolic_grid(3.5)
        for n in (3, 5, 7, 9):
            phi_matrix(n, bg, grid)
        with pytest.raises(AssertionError, match="Jacobi setup"):
            phi_matrix(4, bg, grid)


def _profile_columns(grid):
    """Three Gaussian profile columns on grid."""
    r = grid.nodes
    return np.column_stack([np.exp(-r * r / w) for w in (0.3, 1.0, 4.0)])


class TestStreamedTransforms:
    """A transform contracts each Phi block as it is built and keeps nothing
    between calls; a forward transform given a caller-built Phi reads its
    column chunks in the same order, with the same bits."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("b_max", [60.0, 120.0])
    def test_streamed_matches_the_matrix_product(self, n, b_max, phi_passes):
        # the grid crosses the switch (at n = 4 the Jacobi one, raised to
        # r ~ 1.36 at b_max = 120; at n = 5 r = 0.25); at n = 3 every column is
        # elementary
        bg, grid = default_beta_grid(3.5, b_max), standard_hyperbolic_grid(3.5)
        switch = _switch_radius(n, float(bg.nodes[-1]))
        assert (n == 3 or grid.nodes[0] < switch) and switch < grid.nodes[-1]
        columns = _profile_columns(grid)
        streamed = spherical._transforms(n, bg, grid, columns)
        assert len(phi_passes) == 1
        whole = phi_matrix(n, bg, grid) @ (spherical._polar_measure(n, grid)[:, None] * columns)
        assert np.max(np.abs(streamed - whole)) <= 1e-14 * np.max(np.abs(whole))

    def test_blocks_are_the_column_chunks(self, phi_passes):
        bg, grid = default_beta_grid(3.5, 60.0), standard_hyperbolic_grid(3.5)
        chunks = spherical._column_chunks(bg.nodes.size, grid.nodes.size)
        assert chunks[0].start == 0 and chunks[-1].stop == grid.nodes.size
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        whole = phi_matrix(3, bg, grid)
        for cols, (got, block) in zip(chunks, spherical._phi_blocks(3, bg, grid)):
            assert got == cols and block.flags.c_contiguous
            assert bg.nodes.size * block.shape[1] <= spherical.BLOCK_CELLS
            assert np.array_equal(block, whole[:, cols])

    def test_single_use_forms_hold_no_matrix(self, phi_passes):
        f = hyperbolic_bump(0.8, 3.0)
        spherical._spectral_forms(MultiplierKind.GJMS, Params(4, 0.75), f.grid,
                                  f.values[:, None], f.support_radius, 60.0)
        assert len(phi_passes) == 1

    def test_caller_built_phi_gives_the_streamed_bits(self, phi_passes):
        # 33 column chunks of a 480 x 1120 Phi: read from the caller's
        # matrix, the transforms and the form make no pass of their own
        p, f = Params(5, 0.8), hyperbolic_bump(0.8, 3.5, panel_width=0.05)
        bg, grid = default_beta_grid(3.5, 60.0), f.grid
        assert len(spherical._column_chunks(bg.nodes.size, grid.nodes.size)) == 33
        columns = _profile_columns(grid)
        streamed = spherical._transforms(5, bg, grid, columns)
        energy = quadratic_form(MultiplierKind.REMAINDER, p, f)
        phi = phi_matrix(5, bg, grid)
        assert len(phi_passes) == 3
        assert spherical._transforms(5, bg, grid, columns, phi).tobytes() == streamed.tobytes()
        assert quadratic_form(MultiplierKind.REMAINDER, p, f, phi=phi).hex() == energy.hex()
        assert len(phi_passes) == 3

    def test_caller_built_phi_of_other_grids_is_refused(self):
        # a Phi for a shorter r-grid would contract only its own columns, a
        # truncated transform priced silently; one for other frequencies is
        # refused by name too
        p = Params(5, 0.8)
        f = RadialFunction.from_profile(lambda r: np.exp(-r * r), uniform_grid(1.0, 0.025), 1.0)
        bg = default_beta_grid(1.0, 60.0)
        for phi in (phi_matrix(5, bg, uniform_grid(0.5, 0.025)),
                    phi_matrix(5, default_beta_grid(1.0, 30.0), f.grid)):
            with pytest.raises(ParameterError, match="not the 480 x 640 of its beta and r grids"):
                quadratic_form(MultiplierKind.REMAINDER, p, f, phi=phi)

    def test_repeated_requests_stream_each_time(self, phi_passes):
        # nothing is kept between calls: each transform makes its own pass,
        # with the same bits
        bg, grid = default_beta_grid(3.0, 8.0), uniform_grid(2.0)
        results = [spherical._transforms(3, bg, grid, _profile_columns(grid)) for _ in range(3)]
        assert phi_passes == [(3, bg.nodes.size, grid.nodes.size)] * 3
        assert results[0].tobytes() == results[1].tobytes() == results[2].tobytes()

    def test_inverse_transform_streams(self, phi_passes):
        f = hyperbolic_bump(0.8, 3.0)
        F = spherical_transform(f, 3, default_beta_grid(3.0, 60.0))
        grid = uniform_grid(3.0, panel_width=0.1)
        first = inverse_spherical_transform(F, 3, grid, tail_tol=1e-3)
        second = inverse_spherical_transform(F, 3, grid, tail_tol=1e-3)
        assert len(phi_passes) == 3 and second.values.tobytes() == first.values.tobytes()
        bg = F.beta_grid
        whole = phi_matrix(3, bg, grid).T @ (F.values * plancherel_density(3, bg.nodes)
                                             * bg.weights)
        assert np.max(np.abs(first.values - whole)) <= 1e-14 * np.max(np.abs(whole))

    def test_single_use_spline_forms_memory(self, phi_passes):
        # the (3, 1) R = 5 spline forms at b_max 240 read a 1920 x 1600 Phi
        # (24.6 MB) once; streamed, they hold under a quarter of it
        from gjmslab.quotients import SplineFamily, _spline_forms

        family = SplineFamily(knots=12, radius=5.0)
        phi_bytes = 8 * default_beta_grid(5.0, 240.0).nodes.size * \
            standard_hyperbolic_grid(5.0).nodes.size
        assert phi_bytes == pytest.approx(24.6e6, rel=1e-3)
        tracemalloc.start()
        try:
            _spline_forms(MultiplierKind.GJMS, Params(3, 1.0), family, 240.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(phi_passes) == 1
        assert peak < phi_bytes / 4


class TestQuadraticForm:
    def test_identity_hook_is_l2(self, symbol_hook):
        p = Params(3, 1.0)
        f = hyperbolic_bump(0.5, 3.0)
        symbol_hook(_identity_symbol)
        assert quadratic_form(INT, p, f) == pytest.approx(lp_mass(f, 3, 2.0), rel=1e-4)

    def test_nonnegative_at_bottom(self, symbol_hook):
        # int (m - bottom) |f_hat|^2 |c|^{-2} >= 0: the form minus bottom
        # times the identity-symbol form of the same transform
        trials = [(Params(n, s), hyperbolic_bump(width, 3.0))
                  for n, s in ((3, 1.0), (5, 0.8)) for width in (0.4, 1.0, 2.5)]
        energies = [quadratic_form(INT, p, f) for p, f in trials]
        symbol_hook(_identity_symbol)
        for (p, f), energy in zip(trials, energies):
            shifted = energy - spectral_bottom(INT, p) * quadratic_form(INT, p, f)
            assert shifted >= -1e-9 * energy

    @pytest.mark.parametrize("n,s", [(3, 1.0), (4, 0.75), (5, 0.8)])
    def test_conformal_energy_identity(self, n, s):
        # intertwined energy of the lifted truncated bubble, sampled on a
        # geodesic grid of its support, equals its Euclidean fractional
        # energy (measured: at most 1.6e-5 apart)
        p = Params(n, s)
        bp = BubbleParams(0.1, 0.2)
        radius = 2.0 * math.atanh(0.4)
        u = RadialFunction.from_profile(conformal_lift(truncated_bubble(p, bp), 0.4, p),
                                        uniform_grid(radius, 0.025), radius)
        hyperbolic = quadratic_form(INT, p, u)
        assert hyperbolic == pytest.approx(bubble_energy(p, bp), rel=1e-4)

    def test_gjms_quotient_transforms_once(self, monkeypatch):
        # the intertwined and remainder forms of a GJMS energy (non-integer
        # s) come from one transform
        from gjmslab.quotients import sobolev_quotient

        calls = []

        def counted(*args, _fn=spherical._transforms):
            calls.append(1)
            return _fn(*args)

        monkeypatch.setattr(spherical, "_transforms", counted)
        sobolev_quotient(MultiplierKind.GJMS, Params(4, 0.75), 0.0, hyperbolic_bump(0.8, 3.0))
        assert len(calls) == 1

    def test_tail_error_prices_one_set_of_weights(self, monkeypatch):
        # the reported fraction comes from the transform and the weights the
        # guard was computed from: one frequency grid, density and symbol
        # (tail fraction 2.3e-3 at b_max 8)
        p, f = Params(3, 0.6), hyperbolic_bump(0.3, 3.0)
        weights = []

        def counted(*args, _fn=spherical._spectral_weights):
            weights.append(_fn(*args))
            return weights[-1]

        monkeypatch.setattr(spherical, "_spectral_weights", counted)
        with pytest.raises(NumericalError) as failure:
            quadratic_form(INT, p, f, b_max=8.0)
        assert len(weights) == 1
        beta_grid, dens, symbol = weights[0]
        f_hat = spherical_transform(f, 3, beta_grid).values
        tail = beta_grid.tail_fraction(np.abs(symbol) * f_hat ** 2 * dens)
        assert tail > spherical.DEFAULT_TAIL_TOL
        assert f"tail fraction {tail:.3e} exceeds" in str(failure.value)


class TestKernel:
    def test_preconditions(self):
        p = Params(3, 0.6)
        with pytest.raises(ParameterError, match="requires r >= 0.5"):
            regularized_kernel(INT, p, 0.4, 0.01)
        with pytest.raises(ParameterError, match="eps_reg must be > 0"):
            regularized_kernel(INT, p, 2.0, 0.0)

    def test_identity_hook_oracle(self, symbol_hook):
        # closed-form regularized inverse transform at n = 3:
        # k(r) = sqrt(pi) r exp(-r^2/(4 eps)) / (4 pi^2 eps^(3/2) sinh r)
        p = Params(3, 1.0)
        eps = 0.01
        symbol_hook(_identity_symbol)
        for r in (0.5, 0.6, 0.7):
            k = regularized_kernel(INT, p, r, eps)
            oracle = (math.sqrt(math.pi) * r * math.exp(-r * r / (4 * eps))
                      / (4 * math.pi ** 2 * eps ** 1.5 * math.sinh(r)))
            assert k == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("n, s", [(3, 0.6), (5, 0.7), (4, 0.5), (3, 1.3)])
    def test_closed_form_kernels(self, n, s):
        # operator_kernel is -C (2 sinh(r/2))^{-(n+2s)} for the intertwined
        # operator, C (2 cosh(r/2))^{-(n+2s)} for the remainder and their sum
        # for GJMS, C = C_{n,s} the constant of the Euclidean (-Delta)^s; the
        # eps -> 0 Richardson limit of k^eps is twice it, measured worst, for
        # the adaptive kernel and for kernel_decay's Phi product alike: 2.9e-3
        # and 4.2e-4 off the factor 2 at r = 2 and r >= 4, 2.5e-4 on the cosh
        # term
        p = Params(n, s)
        c = (2.0 ** (2.0 * s) * s * math.gamma((n + 2.0 * s) / 2.0)
             / (math.pi ** (n / 2.0) * math.gamma(1.0 - s)))
        radii = np.array([2.0, 4.0, 6.0])
        for r in (0.5, *radii):
            sinh_term = -c * (2.0 * math.sinh(r / 2.0)) ** (-(n + 2.0 * s))
            cosh_term = c * (2.0 * math.cosh(r / 2.0)) ** (-(n + 2.0 * s))
            assert operator_kernel(INT, p, r) == pytest.approx(sinh_term, rel=1e-14)
            assert operator_kernel(MultiplierKind.REMAINDER, p, r) == \
                pytest.approx(cosh_term, rel=1e-14)
            assert operator_kernel(MultiplierKind.GJMS, p, r) == \
                pytest.approx(sinh_term + cosh_term, rel=1e-14)
        routes = {"adaptive": {kind: [[regularized_kernel(kind, p, r, eps) for r in radii]
                                      for eps in (0.01, 0.005)]
                               for kind in (INT, MultiplierKind.GJMS)},
                  "product": {kind: spherical._kernel_table(kind, p, radii, [0.01, 0.005])
                              for kind in (INT, MultiplierKind.GJMS)}}
        for route, kernels in routes.items():
            for j, r in enumerate(radii):
                limit = {kind: eps_extrapolation({0.01: k[0][j], 0.005: k[1][j]})
                         for kind, k in kernels.items()}
                intertwined = limit[INT] / operator_kernel(INT, p, r)
                assert intertwined == pytest.approx(2.0, rel=5e-3 if r == 2.0 else 1e-3), route
                remainder = ((limit[MultiplierKind.GJMS] - limit[INT])
                             / (2.0 * operator_kernel(MultiplierKind.REMAINDER, p, r)))
                assert remainder == pytest.approx(1.0, rel=5e-4), route

    @pytest.mark.parametrize("kind", list(MultiplierKind))
    def test_local_operator_has_no_kernel(self, kind):
        # at integer s the operator is differential and Gamma(1 - s) has a pole
        for n, s in ((3, 1.0), (5, 2.0)):
            assert operator_kernel(kind, Params(n, s), 3.0) == 0.0

    @pytest.mark.parametrize("n, s", [(3, 0.6), (4, 0.75), (5, 0.8), (6, 1.3), (7, 2.5)])
    def test_remainder_kernel_transforms_to_its_symbol(self, n, s):
        # the remainder kernel is smooth at r = 0 and decays like
        # e^{-(n+2s) r / 2}, so sampled on [0, 60] its spherical transform is
        # the remainder symbol: measured within 6e-15 of m(0)
        p = Params(n, s)
        grid = uniform_grid(60.0, 0.05)
        kernel = [operator_kernel(MultiplierKind.REMAINDER, p, r) for r in grid.nodes]
        f = RadialFunction(grid, np.array(kernel), grid.r_max)
        beta_grid = default_beta_grid(60.0, 10.0)
        symbol = multiplier(MultiplierKind.REMAINDER, p, beta_grid.nodes)
        transform = spherical_transform(f, n, beta_grid).values
        assert np.max(np.abs(transform - symbol)) <= 1e-12 * abs(symbol[0])

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

    def test_a_miss_raises_nonconvergence(self, monkeypatch):
        # with no tolerance some panel's halves miss its value: the rule is
        # never refined, and the kernel and its oracle both refuse
        monkeypatch.setattr(spherical, "KERNEL_REL_TOL", 0.0)
        p = Params(3, 0.6)
        with pytest.raises(NumericalError, match="halves of the panel"):
            regularized_kernel(INT, p, 2.0, 0.01)
        with pytest.raises(NumericalError, match="halves of the panel"):
            panelwise_regularized_kernel(INT, p, 2.0, 0.01, rel_tol=0.0)

    @pytest.mark.parametrize("kind", [INT, MultiplierKind.GJMS, MultiplierKind.REMAINDER,
                                      _quadratic_symbol], ids=["int", "gjms", "rem", "hook"])
    @pytest.mark.parametrize("n, s", [(3, 0.6), (5, 0.7), (3, 1.0), (4, 0.75)])
    def test_bit_equal_to_panelwise_oracle(self, symbol_hook, kind, n, s):
        if callable(kind):
            symbol_hook(kind)
            kind = INT
        p = Params(n, s)
        for r in (0.5, 2.0, 3.5, 6.0, 8.0):
            for eps in (0.02, 0.01, 0.005):
                batched = regularized_kernel(kind, p, r, eps)
                assert batched.hex() == panelwise_regularized_kernel(kind, p, r, eps).hex(), (r, eps)

    def test_cancellation_raises_nonconvergence(self):
        # intertwined (6, 1.3) at r = 5, eps = 3e-4 is cancellation: the
        # halves miss their panels, where splitting them further gave values
        # that two refinement orders put 3-4% apart; kernel-decay exits 5
        p = Params(6, 1.3)
        with pytest.raises(NumericalError, match="halves of the panel"):
            regularized_kernel(INT, p, 5.0, 3e-4)
        with pytest.raises(NumericalError, match="halves of the panel"):
            panelwise_regularized_kernel(INT, p, 5.0, 3e-4)

    def test_integrand_batches(self, monkeypatch):
        # one Plancherel-density pass for the panels and their halves (two
        # when the halves took their own; panel by panel it was one per
        # panel, 123 to 174 on these cases), and one Mehler rule per u-panel
        # count (blowdown's four kernels built 166 rules for 83 distinct)
        calls, rules = [], []

        def counted(n, beta):
            calls.append(n)
            return plancherel_density(n, beta)

        def recorded(n, radii, count, _fn=spherical._mehler_rule):
            rules.append((n, radii.tobytes(), count))
            return _fn(n, radii, count)

        monkeypatch.setattr(spherical, "plancherel_density", counted)
        monkeypatch.setattr(spherical, "_mehler_rule", recorded)
        for p, r, eps in ((Params(3, 0.6), 2.0, 0.01), (Params(5, 0.7), 8.0, 0.005),
                          (Params(3, 1.0), 5.0, 0.01)):
            calls.clear()
            rules.clear()
            regularized_kernel(INT, p, r, eps)
            assert len(calls) == 1
            assert len(rules) == len(set(rules)) > 1

    def test_witness_cells_count_the_cos_table(self, monkeypatch):
        # kernel_decay's work bound counts, before any grid is built, the
        # cells of every cosine the witness kernel takes; _phi_mehler builds
        # each u-panel group's cos table in chunks of whole rows, none over
        # BLOCK_CELLS cells unless one row is larger (r = 8 at eps 3e-4:
        # 16 x 4976 cells a row)
        sizes, row_cells = [], []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def cos(self, x, *args, **kwargs):
                sizes.append((np.size(x), row_cells[-1]))
                return np.cos(x, *args, **kwargs)

        def recorded(n, radii, count, _fn=spherical._mehler_rule):
            phase, hw = _fn(n, radii, count)
            row_cells.append(GAUSS_NODES.size * phase.size)
            return phase, hw

        monkeypatch.setattr(spherical, "np", CountingNumpy())
        monkeypatch.setattr(spherical, "_mehler_rule", recorded)
        for p, r, eps in ((Params(3, 0.6), 2.0, 0.01), (Params(5, 0.7), 8.0, 0.005),
                          (Params(4, 1.3), 0.5, 0.02), (Params(3, 0.6), 8.0, 3e-4)):
            sizes.clear()
            regularized_kernel(INT, p, r, eps)
            assert sum(size for size, _ in sizes) == spherical._witness_cells(r, eps) > 0
            assert all(size <= max(spherical.BLOCK_CELLS, row) for size, row in sizes)
        assert max(row for _, row in sizes) > spherical.BLOCK_CELLS

    def test_batch_memory(self):
        # measured 1.80 MB (4.22 MB when each u-panel group took one cos table)
        tracemalloc.start()
        try:
            regularized_kernel(INT, Params(3, 0.6), 8.0, 3e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2 ** 20

    @pytest.mark.parametrize("n, s, r, eps, bits", [
        (3, 1.0, 2.0, 0.01, "0x1.44b89433986a9p-41"),
        (3, 1.0, 3.0, 0.01, "-0x1.1c2ebb5323506p-41"),
        (3, 1.0, 4.0, 0.01, "-0x1.2f1ff29d79399p-45"),
        (3, 1.0, 5.0, 0.01, "-0x1.12d71deeab5c2p-47"),
        (3, 0.6, 2.0, 0.01, "-0x1.b6d5c33f12acep-8"),
        (3, 0.6, 2.0, 1e-3, "-0x1.a853d7c894bb4p-8"),
        (5, 0.7, 2.0, 0.01, "-0x1.8f9c017b3d386p-11"),
    ])
    def test_pinned_kernel_bits(self, n, s, r, eps, bits):
        # blowdown's four (3, 1) kernels are roundoff that the benchmark's
        # references freeze, so the cos-table chunks must not move a bit of
        # them or of the decay experiment's kernels
        assert regularized_kernel(INT, Params(n, s), r, eps).hex() == bits

    def test_mehler_rows_are_independent(self):
        # a (rows x nodes) block gives each row the values of its own 1-d
        # call, also where rows share a u-quadrature
        rows = np.array([[0.5, 1.0, 2.0], [10.0, 30.0, 60.0], [0.1, 0.2, 0.3], [40.0, 45.0, 50.0]])
        for n, r in ((3, 0.7), (4, 2.5), (5, 6.0)):
            block = spherical_function(n, rows, r)
            assert block.shape == rows.shape
            for row, values in zip(rows, block):
                assert np.array_equal(values, spherical_function(n, row, r))

    def test_scan_reports_ladder(self):
        p = Params(3, 0.6)
        summary = kernel_decay(INT, p, [2.0], 0.01)[1]
        assert set(summary["kernel_scan_at_rmax"]) == {"0.02", "0.01", "0.005"}
        assert np.isfinite(summary["kernel_extrapolated_at_rmax"])

    def test_each_kernel_value_once(self, monkeypatch, phi_passes):
        # every value comes from one Phi product that reads each frequency row
        # once (344 panels of 0.25 up to beta_cut(0.005), in row blocks of
        # BLOCK_CELLS // 16 = 1024 rows), and the one regularized_kernel is
        # the witness at the smallest radius and eps_reg
        calls = []

        def counted(*args):
            calls.append(args)
            return regularized_kernel(*args)

        monkeypatch.setattr(spherical, "regularized_kernel", counted)
        p = Params(3, 0.6)
        kernel_decay(INT, p, [3, 2, 6, 4, 5], 0.01)
        assert calls == [(INT, p, 2.0, 0.01)]
        assert phi_passes == [(3, 1024, 5)] * 5 + [(3, 384, 5)]


class TestKernelProduct:
    """kernel_decay's Phi product (spherical._kernel_table) and its witness."""

    @pytest.mark.parametrize("n, s, tol", [(3, 0.6, 1e-9), (5, 0.7, 1e-7)])
    def test_converges_in_the_panel_width(self, monkeypatch, n, s, tol):
        # widths 0.5, 0.25, 0.125 against 0.0625 (measured: 8.9e-10 at
        # (3, 0.6), 3.4e-8 at (5, 0.7))
        p, radii, eps = Params(n, s), np.arange(2.0, 7.0), [0.005, 0.01, 0.02]
        tables = {}
        for width in (0.0625, 0.125, 0.25, 0.5):
            monkeypatch.setattr(spherical, "KERNEL_PANEL_WIDTH", width)
            tables[width] = spherical._kernel_table(INT, p, radii, eps)
        for width in (0.125, 0.25, 0.5):
            assert np.max(np.abs(tables[width] / tables[0.0625] - 1.0)) < tol, width

    @pytest.mark.parametrize("kind", [INT, MultiplierKind.GJMS], ids=["int", "gjms"])
    @pytest.mark.parametrize("n, s", [(3, 0.6), (5, 0.7), (4, 0.75), (3, 1.3)])
    def test_matches_the_adaptive_kernel_up_to_r4(self, kind, n, s):
        # measured within 2.7e-10 at r = 0.5, 1 and 2.8e-6 at r = 2..4 (GJMS
        # (5, 0.7), r = 4); the columns are elementary at odd n, and Mehler
        # below r = 1 and Jacobi from it at n = 4
        p, eps = Params(n, s), [0.01, 0.005]
        radii = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
        table = spherical._kernel_table(kind, p, radii, eps)
        for j, r in enumerate(radii):
            for i, e in enumerate(eps):
                assert table[i, j] == pytest.approx(regularized_kernel(kind, p, r, e),
                                                    rel=1e-9 if r < 2.0 else 5e-6), (r, e)

    def test_row_blocks_only_regroup_the_sum(self, monkeypatch):
        # each block factors its own frequencies into panels and sums its own
        # product, which moves the cancelling r = 6 value (8e-10 against 27 at
        # r = 0.5) by up to 2.6e-9
        p, radii, eps = Params(5, 0.7), np.array([0.5, 2.0, 6.0]), [0.005, 0.01]
        # (blocks of 7, 64 and 10^6 panels of 16 rows)
        tables = {}
        for panels in (7, 64, 10 ** 6):
            monkeypatch.setattr(spherical, "BLOCK_CELLS", panels * 16 * 16)
            tables[panels] = spherical._kernel_table(INT, p, radii, eps)
        for panels in (7, 64):
            assert np.max(np.abs(tables[panels] / tables[10 ** 6] - 1.0)) < 1e-7, panels

    @pytest.mark.parametrize("n, radii, eps", [
        (4, [0.5, 1.0, 2.0, 3.0, 4.0], [0.01, 0.005]),
        (4, [0.5, 2.0, 3.0, 4.0, 5.0], [0.01, 0.005, 0.02]),
        (6, [0.5, 0.8, 1.2, 3.0], [0.002, 0.001]),
        (5, [0.1, 0.2, 0.3, 2.0], [0.01]),
        (3, [2.0, 3.0, 4.0, 5.0, 6.0], [0.01, 0.005]),
    ])
    def test_product_cells_count_the_mehler_cells(self, monkeypatch, n, radii, eps):
        # kernel_decay's work bound counts, from the edges alone, the rows
        # times u-nodes of every Mehler column that _phi_blocks builds (none
        # at n = 3 from r = 0; 583680 at n = 4 with r = 0.5 and 1)
        built, rows = [], []

        def blocks(n, beta_grid, r_grid, _fn=spherical._phi_blocks):
            rows.append(beta_grid.nodes.size)
            return _fn(n, beta_grid, r_grid)

        def rule(n, radii, count, _fn=spherical._mehler_rule):
            phase, hw = _fn(n, radii, count)
            built.append(rows[-1] * phase.size)
            return phase, hw

        monkeypatch.setattr(spherical, "_phi_blocks", blocks)
        monkeypatch.setattr(spherical, "_mehler_rule", rule)
        radii = np.array(radii)
        spherical._kernel_table(INT, Params(n, 0.7), radii, eps)
        assert spherical._product_cells(n, radii, eps) == sum(built)
        assert (sum(built) > 0) == (n != 3)

    def test_row_blocks_bound_the_memory(self):
        # the benchmark's (5, 0.7) product peaks at 0.42 MB of temporaries in
        # row blocks of 1024, 1.06 MB as one block
        tracemalloc.start()
        try:
            spherical._kernel_table(INT, Params(5, 0.7), np.arange(2.0, 7.0), [0.01, 0.005, 0.02])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    @pytest.mark.parametrize("factor, fails", [(1.0 + 5e-5, False), (1.0 - 5e-5, False),
                                               (1.0 + 2e-4, True), (1.0 - 2e-4, True)])
    def test_witness_checks_the_product(self, monkeypatch, factor, fails):
        # a product more than KERNEL_WITNESS_TOL off regularized_kernel at
        # (r_min, eps_reg) is a numerical-contract failure
        def perturbed(*args, _fn=spherical._kernel_table):
            return _fn(*args) * factor

        monkeypatch.setattr(spherical, "_kernel_table", perturbed)
        p, radii = Params(3, 0.6), [2.0, 3.0, 4.0, 5.0]
        if fails:
            with pytest.raises(NumericalError, match="from regularized_kernel"):
                kernel_decay(INT, p, radii, 0.01)
        else:
            rows = kernel_decay(INT, p, radii, 0.01)[0]
            assert rows[0][1] == pytest.approx(regularized_kernel(INT, p, 2.0, 0.01), rel=1e-4)

    @pytest.mark.parametrize("factor, fails", [(1.01, False), (0.99, False), (1.03, True),
                                               (0.97, True)])
    def test_closed_form_checks_the_fit_window(self, monkeypatch, factor, fails):
        # an eps-Richardson limit more than KERNEL_CLOSED_FORM_TOL off twice
        # the closed-form kernel at a radius of [2, 8] is a numerical-contract
        # failure; radii below 2 go unchecked
        def scaled(kind, p, r, _fn=operator_kernel):
            return _fn(kind, p, r) * (factor if r >= 2.0 else 100.0)

        monkeypatch.setattr(spherical, "operator_kernel", scaled)
        p, radii = Params(3, 0.6), [1.0, 2.0, 3.0, 4.0, 5.0]
        if fails:
            with pytest.raises(NumericalError, match="closed-form intertwined kernel"):
                kernel_decay(INT, p, radii, 0.01)
        else:
            assert len(kernel_decay(INT, p, radii, 0.01)[0]) == len(radii)

    @pytest.mark.parametrize("kind", [INT, MultiplierKind.GJMS, MultiplierKind.REMAINDER],
                             ids=["int", "gjms", "rem"])
    @pytest.mark.parametrize("n, s", [(3, 0.6), (5, 0.7), (4, 0.75), (3, 1.3), (6, 1.3),
                                      (4, 0.5), (3, 0.3)])
    def test_closed_form_tolerance_from_r2_to_r8(self, kind, n, s):
        # measured at most 7.3e-3 at r = 2..6 and 1.2e-2 at r = 8, against
        # KERNEL_CLOSED_FORM_TOL = 2e-2; GJMS (6, 1.3) is cancellation at r = 8
        radii = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        if (kind, n, s) == (MultiplierKind.GJMS, 6, 1.3):
            with pytest.raises(NumericalError, match="at r = 8.0 "):
                kernel_decay(kind, Params(n, s), radii, 0.01)
        else:
            kernel_decay(kind, Params(n, s), radii, 0.01)


class TestDecayFit:
    def test_slopes(self):
        # both fitted slopes lie within 1e-2, relative, of the least-squares
        # slope of log|operator_kernel| over the same radii (measured 2.5e-3
        # and 1.2e-3 at (3, 0.6), 2.7e-3 and 1.3e-3 at (5, 0.7))
        radii = [2.0, 3.0, 4.0, 5.0, 6.0]
        for p in (Params(3, 0.6), Params(5, 0.7)):
            summary = kernel_decay(INT, p, radii, 0.01)[1]
            closed = [operator_kernel(INT, p, r) for r in radii]
            target = np.polyfit(radii, np.log(np.abs(closed)), 1)[0]
            for name in ("slope", "slope_half_eps"):
                assert summary[name] == pytest.approx(target, rel=1e-2), (p, name)

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
        assert kernel_decay(INT, p, [2, 3, 4, 5, 9.5], 0.01)[1]["slope"] == \
            kernel_decay(INT, p, [2, 3, 4, 5], 0.01)[1]["slope"]
        with pytest.raises(NumericalError, match="needs >= 4 radii"):
            decay_slope([2.0, 3.0, 4.0, 5.0, 9.5], np.ones(5))

    def test_needs_enough_radii(self):
        summary = kernel_decay(INT, Params(3, 0.6), [2.0, 3.0, 9.5], 0.01)[1]
        assert "slope" not in summary and "slope_half_eps" not in summary
        with pytest.raises(NumericalError, match="needs >= 4 radii"):
            decay_slope([2.0, 3.0], [1.0, 0.5])

    def test_repeated_radii_rejected(self):
        # a fit through one radius has no slope; polyfit would return one
        # with a RankWarning
        with pytest.raises(NumericalError, match="distinct"):
            decay_slope([2.0, 2.0, 2.0, 2.0], [1.0, 0.9, 0.8, 0.7])
        with pytest.raises(NumericalError, match="distinct"):
            decay_slope([2.0, 3.0, 3.0, 4.0], [1.0, 0.5, 0.5, 0.25])
