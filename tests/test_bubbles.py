import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from conftest import euclidean_bump, windowed_gaussian
from oracles import outer_scaled_bessel_matrix, quadrature_mass_limit, windowed_bubble_energy
from gjmslab.bubbles import (
    BAND_KERNELS_HELD,
    ENERGY_DELTA,
    BubbleParams,
    _GL48_W,
    _GL48_X,
    _band_kernel,
    _dirichlet_edges,
    _banded_energy,
    _bubble_values,
    _dirichlet_energy,
    _mollifier_mass,
    _scaled_bessel_matrix,
    bubble,
    bubble_asymptotics,
    bubble_energy,
    bubble_energy_limit,
    bubble_grid,
    bubble_mass_limit,
    crit_mass,
    cutoff,
    fit_leading_exponent,
    fit_loglog_slope,
    fractional_energy,
    hyperbolic_l2_mass,
    sampled_bubble,
    smooth_step,
    smooth_window,
)
from gjmslab.errors import NumericalError, ParameterError
from gjmslab.geometry import sphere_area
from gjmslab.grids import RadialFunction, RadialGrid, Space, geometric_grid, uniform_grid
from gjmslab.params import MultiplierKind, Params
from gjmslab.quotients import BubbleFamily, bubble_quotient, gap_scan

mp.mp.dps = 30


class TestBubble:
    def test_center_value(self):
        p = Params(5, 1.0)
        assert bubble(p, BubbleParams(0.999999999999, 0.2), 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_known_value(self):
        p = Params(5, 1.0)
        assert bubble(p, BubbleParams(0.999999999999, 0.2), 1.0) == pytest.approx(
            2.0 ** -1.5, rel=1e-10)

    def test_scaling_exact(self):
        p = Params(4, 0.75)
        eps = 0.125  # power of two: the scaling identity is float-exact
        q = (p.n - 2 * p.s) / 2.0
        for r in (0.25, 0.5, 2.0):
            lhs = bubble(p, BubbleParams(eps, 0.2), eps * r)
            rhs = eps ** (-q) * bubble(p, BubbleParams(1.0 - 1e-16, 0.2), r)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_decreasing(self):
        p = Params(3, 0.75)
        r = np.linspace(0.0, 3.0, 100)
        vals = bubble(p, BubbleParams(0.3, 0.2), r)
        assert np.all(np.diff(vals) < 0.0)

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            BubbleParams(0.0, 0.2)
        with pytest.raises(ParameterError):
            BubbleParams(0.5, 0.25)

    def test_sup_at_inner_edge(self):
        # the radial profile decreases beyond delta, so the sup sits at delta
        p = Params(5, 1.0)
        bp = BubbleParams(0.05, 0.2)
        delta = 0.25
        r = np.linspace(delta, 5.0, 2000)
        vals = bubble(p, bp, r)
        assert np.argmax(vals) == 0


class TestCutoff:
    def test_plateau_and_support(self):
        assert cutoff(0.2, 0.1) == 1.0
        assert cutoff(0.2, 0.5) == 0.0
        assert cutoff(0.2, 0.2) == pytest.approx(1.0, abs=1e-14)

    def test_exact_midpoint(self):
        assert cutoff(0.2, 0.3) == pytest.approx(0.5, abs=1e-12)
        assert 0.0 < cutoff(0.2, 0.25) < 1.0

    def test_monotone(self):
        r = np.linspace(0.0, 0.5, 400)
        vals = cutoff(0.2, r)
        assert np.all(np.diff(vals) <= 1e-13)

    def test_validation(self):
        with pytest.raises(ParameterError):
            cutoff(0.3, 0.1)

    def test_step_flat_parts_exact_and_ramp_bit_equal(self):
        # the 48-node quadrature of the mollifier mass on every node, as
        # smooth_step computed it before it skipped the flat parts, each
        # node's terms summed along its row
        u = 0.5 * (_GL48_X + 1.0)

        def full_quadrature(t):
            uu = np.multiply.outer(np.clip(t, 0.0, 1.0), u)
            g = np.zeros_like(uu)
            inside = (uu > 0.0) & (uu < 1.0)
            g[inside] = np.exp(-1.0 / (uu[inside] * (1.0 - uu[inside])))
            return 0.5 * np.clip(t, 0.0, 1.0) * (g * _GL48_W).sum(axis=-1)

        t = np.linspace(-0.5, 1.5, 2001)
        ramp = (t > 0.0) & (t < 1.0)
        step = smooth_step(t)
        assert np.all(step[t <= 0.0] == 0.0)
        assert np.all(step[t >= 1.0] == 1.0)
        expected = full_quadrature(t[ramp]) / full_quadrature(np.asarray(1.0))
        assert np.array_equal(step[ramp], expected)
        # beyond r_off the window is exactly 0, on [0, r_on] exactly 1
        r = np.linspace(0.0, 6.0, 601)
        window = smooth_window(r, 2.8, 3.5)
        assert np.all(window[r >= 3.5] == 0.0)
        assert np.all(window[r <= 2.8] == 1.0)

    def test_ramp_value_does_not_depend_on_its_batch(self):
        # a BLAS product over the (nodes x 48) terms rounded one node of a
        # 2001-node batch 8.7e-19 away from the same node alone
        t = np.linspace(0.0, 1.0, 1002)[1:-1]
        batch = _mollifier_mass(t)
        alone = np.array([_mollifier_mass(t[i:i + 1])[0] for i in range(t.size)])
        assert np.array_equal(batch, alone)
        assert np.array_equal(smooth_step(t), [smooth_step(x)[()] for x in t])


class TestCritMass:
    def test_limit_against_beta_oracle(self):
        # oracle: 1-d quadrature of omega_2 int r^2 (1+r^2)^-3 dr in high precision
        oracle = float(4 * mp.pi * mp.quad(lambda r: r ** 2 / (1 + r ** 2) ** 3, [0, mp.inf]))
        assert oracle == pytest.approx(math.pi ** 2 / 4.0, rel=1e-12)
        assert bubble_mass_limit(3) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_closed_form_matches_quadrature(self, n):
        assert bubble_mass_limit(n) == pytest.approx(quadrature_mass_limit(n), rel=1e-13)

    def test_eps_independence_without_cutoff(self):
        # int |U_eps|^{2*} is exactly eps-free
        p = Params(3, 1.0)
        masses = []
        for eps in (1.0 - 1e-15, 0.1):
            grid = geometric_grid(2e3, first_width=eps / 4.0)
            r = grid.nodes
            q = (p.n - 2 * p.s) / 2.0
            vals = eps ** (-q) * (1.0 + (r / eps) ** 2) ** (-q)
            masses.append(sphere_area(3) * grid.integrate(vals ** p.two_star * r ** 2))
        assert abs(masses[0] - masses[1]) <= 1e-8 * masses[0]

    def test_rate_fit(self):
        p = Params(3, 1.0)
        m_inf = bubble_mass_limit(3)
        ladder = [0.1, 0.05, 0.025, 0.0125]
        diffs = [m_inf - crit_mass(p, sampled_bubble(p, BubbleParams(e, 0.24))) for e in ladder]
        assert np.all(np.asarray(diffs) > 0.0)
        slope = fit_loglog_slope(ladder, diffs)
        assert slope == pytest.approx(3.0, abs=0.3)


class TestHyperbolicL2Mass:
    def test_power_regime(self):
        ladder = [0.025, 0.0125, 0.00625, 0.003125]
        p = Params(5, 1.0)
        masses = [hyperbolic_l2_mass(p, sampled_bubble(p, BubbleParams(e, 0.2)))
                  for e in ladder]
        assert fit_loglog_slope(ladder, masses) == pytest.approx(2.0, abs=0.1)

    def test_log_regime(self):
        ladder = [0.0125, 0.00625, 0.003125]
        p = Params(4, 1.0)
        ratios = [hyperbolic_l2_mass(p, sampled_bubble(p, BubbleParams(e, 0.2)))
                  / (e ** 2 * abs(math.log(e))) for e in ladder]
        assert all(r > 0 for r in ratios)
        assert abs(ratios[-1] / ratios[-2] - 1.0) <= 0.10

    def test_low_regime(self):
        ladder = [0.00625, 0.003125, 0.0015625, 0.00078125]
        p = Params(3, 1.0)
        masses = [hyperbolic_l2_mass(p, sampled_bubble(p, BubbleParams(e, 0.2)))
                  for e in ladder]
        assert fit_loglog_slope(ladder, masses) == pytest.approx(1.0, abs=0.05)


class TestLeadingExponent:
    def test_exact_two_term_ladder(self):
        # A eps^a + B eps^b with the correction a factor eps smaller, as for
        # the L2 mass at (5, 1): the raw log-log slope misses a
        ladder = np.array([0.05, 0.025, 0.0125, 0.00625])
        a, b, A, B = 2.0, 3.0, 62.5, -330.0
        values = A * ladder ** a + B * ladder ** b
        exponent, correction = fit_leading_exponent(ladder, values, b)
        assert exponent == pytest.approx(a, abs=1e-6)
        assert correction == pytest.approx(B * ladder[-1] ** b / values[-1], rel=1e-5)
        assert abs(fit_loglog_slope(ladder, values) - a) > 0.05

    @pytest.mark.parametrize("n,s", [(5, 1.0), (3, 1.0), (3, 0.6), (5, 0.8)])
    def test_matches_bounded_brent(self, n, s):
        # the README ladder's L2 masses, fitted as _l2_verdict fits them;
        # scipy's bounded Brent search on the same residual is the oracle
        from scipy.optimize import minimize_scalar

        ladder = np.array([0.05, 0.025, 0.0125, 0.00625])
        p = Params(n, s)
        masses = np.array([hyperbolic_l2_mass(p, sampled_bubble(p, BubbleParams(e, 0.2)))
                           for e in ladder])
        b = max(2.0 * s, n - 2.0 * s)

        def residual(a):
            columns = np.column_stack([ladder ** a, ladder ** b]) / masses[:, None]
            coeffs = np.linalg.lstsq(columns, np.ones_like(masses), rcond=None)[0]
            return float(np.sum((columns @ coeffs - 1.0) ** 2))

        brent = minimize_scalar(residual, bounds=(0.0, b), method="bounded",
                                options={"xatol": 1e-10}).x
        assert fit_leading_exponent(ladder, masses, b)[0] == pytest.approx(brent, abs=1e-7)

    def test_needs_three_positive_points(self):
        with pytest.raises(NumericalError, match="exponent fit needs >= 3 points"):
            fit_leading_exponent([0.05, 0.025], [1.0, 0.5], 3.0)
        with pytest.raises(NumericalError, match="exponent fit needs >= 3 points"):
            fit_leading_exponent([0.05, 0.025, 0.0125], [1.0, 0.0, 0.5], 3.0)


class TestRadialFourier:
    def test_gaussian_self_transform(self):
        # the octave-band kernels are the unitary radial Fourier transform,
        # under which exp(-r^2/2) is its own transform in every dimension
        for n in (3, 4, 5):
            lo = 1e-3
            while lo < 10.0:
                band = _band_kernel(n, 12.0, None, lo, 2.0 * lo)
                what = band.kernel @ np.exp(-band.r ** 2 / 2.0)
                assert np.max(np.abs(what - np.exp(-band.rho ** 2 / 2.0))) <= 1e-13
                lo *= 2.0


class TestFractionalEnergy:
    def test_zero(self):
        grid = uniform_grid(1.0, panel_width=0.05)
        w = RadialFunction(grid, np.zeros_like(grid.nodes), 1.0, Space.EUCLIDEAN)
        assert fractional_energy(w, Params(3, 0.75)) == 0.0

    def test_nonzero_samples_without_profile_rejected(self):
        # the Hankel bands evaluate the trial's formula, never its samples
        w = euclidean_bump()
        bare = RadialFunction(w.grid, w.values, w.support_radius, Space.EUCLIDEAN)
        assert fractional_energy(w, Params(3, 0.75)) > 0.0
        with pytest.raises(ParameterError, match="from_profile"):
            fractional_energy(bare, Params(3, 0.75))

    def test_scale_invariance(self):
        p = Params(3, 0.75)
        q = (p.n - 2 * p.s) / 2.0
        fn = windowed_gaussian(0.3, 2.0)
        w = RadialFunction.from_profile(fn, bubble_grid(0.3, 2.0), 2.0, Space.EUCLIDEAN)
        eps = 0.5

        def scaled(r):
            return eps ** (-q) * fn(np.asarray(r) / eps)

        ws = RadialFunction.from_profile(scaled, bubble_grid(0.15, 1.0), 1.0, Space.EUCLIDEAN)
        assert fractional_energy(ws, p) == pytest.approx(fractional_energy(w, p), rel=1e-6)

    def test_dirichlet_oracle_s1(self):
        # at s = 1 the energy is the gradient integral
        p = Params(3, 1.0)
        for width, support in ((0.3, 2.0), (0.6, 2.5), (1.0, 3.0)):
            fn = windowed_gaussian(width, support)
            w = RadialFunction.from_profile(fn, bubble_grid(0.2, support), support,
                                            Space.EUCLIDEAN)
            energy = fractional_energy(w, p)
            rr = np.linspace(1e-7, support, 400001)
            h = 1e-7
            du = (fn(rr + h) - fn(rr - h)) / (2 * h)
            oracle = 4.0 * math.pi * np.trapezoid(du ** 2 * rr ** 2, rr)
            assert energy == pytest.approx(oracle, rel=1e-5)

    def test_bubble_baseline_dirichlet_value(self):
        # the windowed Hankel route reproduces the Dirichlet energy of U
        base = windowed_bubble_energy(Params(3, 1.0))
        assert base["energy"] == pytest.approx(3.0 * math.pi ** 2 / 4.0, rel=1e-4)
        assert base["tail_bound"] < 0.05
        assert bubble_energy_limit(Params(3, 1.0)) == pytest.approx(
            3.0 * math.pi ** 2 / 4.0, rel=1e-15)

    @pytest.mark.parametrize("n,s", [(5, 1.0), (5, 0.8), (3, 1.0), (3, 0.6), (7, 2.3),
                                     (4, 0.75), (11, 0.8), (12, 2.5)])
    def test_energy_limit_matches_windowed_oracle(self, n, s):
        p = Params(n, s)
        assert bubble_energy_limit(p) == pytest.approx(
            windowed_bubble_energy(p)["energy"], rel=5e-9)


def count_calls(monkeypatch, module, name):
    """A list that grows by one at every call of module.name."""
    calls = []

    def counted(*args, _fn=getattr(module, name)):
        calls.append(1)
        return _fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestDirichletRoute:
    """At s = 1 bubble_energy is the Dirichlet integral of the truncated
    bubble, with the Hankel route as its oracle."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_hankel_route(self, n):
        # worst measured: 1.4e-9, near the Hankel route's 1e-9 tail stop
        p = Params(n, 1.0)
        for t in (0.06, 0.12, 0.25, 0.5, 0.8, 1.22):
            bp = BubbleParams(t * 0.2, 0.2)
            w = sampled_bubble(p, bp)
            assert bubble_energy(p, bp) == pytest.approx(fractional_energy(w, p), rel=1e-8)

    @pytest.mark.parametrize("n", [3, 5])
    def test_hankel_floor_at_the_energy_support(self, n):
        # bubble_energy's Hankel route (s != 1) against the Dirichlet
        # integral, both of cutoff(ENERGY_DELTA, r) U_eps(r), over the bubble
        # box (t up to eps_hi/delta_lo = 6) and below it; measured at n = 3,
        # 5: -6.2e-6, +1.0e-5 at t = 0.005, at most 6.2e-7 at 0.01, 5.4e-8 at
        # 0.02 and 1.3e-8 from 0.04 on
        p = Params(n, 1.0)
        for t, tol in ((0.005, 1.5e-5), (0.01, 1e-6), (0.02, 1e-7), (0.04, 2e-8),
                       (0.16, 2e-8), (1.0, 2e-8), (6.0, 2e-8)):
            eps = t * ENERGY_DELTA
            dirichlet = _dirichlet_energy(p, eps, RadialGrid.from_edges(_dirichlet_edges(eps)))
            hankel = _banded_energy(lambda r, _e=eps: _bubble_values(p, _e, r),
                                    2.0 * ENERGY_DELTA, (ENERGY_DELTA, 2.0 * ENERGY_DELTA), p)
            assert hankel == pytest.approx(dirichlet, rel=tol)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_stable_under_panel_splitting(self, n):
        # measured: at most 3e-15
        p = Params(n, 1.0)
        for t in (0.03, 0.1, 0.4, 0.8, 1.22):
            bp = BubbleParams(t * 0.2, 0.2)
            eps = bp.eps / bp.delta * ENERGY_DELTA
            edges = _dirichlet_edges(eps)
            energy = _dirichlet_energy(p, eps, RadialGrid.from_edges(edges))
            assert energy == bubble_energy(p, bp)
            for k in (2, 4):
                split = np.concatenate([edges[:1], (edges[:-1, None] + np.diff(edges)[:, None]
                                                    * np.arange(1, k + 1) / k).ravel()])
                refined = _dirichlet_energy(p, eps, RadialGrid.from_edges(split))
                assert refined == pytest.approx(energy, rel=1e-13, abs=0.0)

    def test_builds_no_band(self, monkeypatch):
        # the README bubble-asymptotics built 27 Bessel matrices at s = 1
        import gjmslab.bubbles as bubbles

        calls = count_calls(monkeypatch, bubbles, "_scaled_bessel_matrix")
        _band_kernel.cache_clear()
        bubble_asymptotics(Params(5, 1.0), 0.2, [0.05, 0.025, 0.0125, 0.00625])
        bubble_quotient(MultiplierKind.GJMS, Params(4, 1.0), 0.1, BubbleParams(0.05, 0.2))
        assert calls == []
        assert _band_kernel.cache_info().currsize == 0

    def test_other_s_keeps_hankel_route(self):
        # the trial of the same t at delta = ENERGY_DELTA, priced by the
        # general route with its cut-off in the profile, not in the kernels
        p = Params(5, 0.8)
        bp = BubbleParams(0.05, 0.2)
        same_t = BubbleParams(bp.eps / bp.delta * ENERGY_DELTA, ENERGY_DELTA)
        assert bubble_energy(p, bp) == pytest.approx(
            fractional_energy(sampled_bubble(p, same_t), p), rel=1e-13, abs=0.0)


class TestRatioInvariance:
    """eta(r/delta) U_eps(r) is a rescaling of eta(r) U_{eps/delta}(r): its
    Euclidean energy and critical mass depend on t = eps/delta alone, while
    its hyperbolic L2 mass grows with delta at fixed t. The bubble search
    rests on these three facts."""

    DELTAS = (0.1, 0.15, 0.2, 0.245)

    @pytest.mark.parametrize("t", [0.1, 0.2])
    def test_energy_and_crit_mass_depend_on_t_alone(self, t):
        p = Params(5, 0.8)
        bps = [BubbleParams(t * delta, delta) for delta in self.DELTAS]
        energies = [fractional_energy(sampled_bubble(p, bp), p) for bp in bps]
        masses = [crit_mass(p, sampled_bubble(p, bp)) for bp in bps]
        assert max(energies) - min(energies) <= 1e-9 * min(energies)
        assert max(masses) - min(masses) <= 1e-12 * min(masses)

    @pytest.mark.parametrize("s", [0.8, 1.0])
    @pytest.mark.parametrize("t", [0.0625, 0.125, 0.25, 0.03 / 0.245])
    def test_bubble_energy_bit_equal_at_equal_t(self, s, t):
        # every bubble energy is priced at (t ENERGY_DELTA, ENERGY_DELTA);
        # each trial's own support left 9.0e-7 between delta = 0.125 and
        # 0.0625 at t = 1/16 and (5, 0.8)
        p = Params(5, s)
        bps = [BubbleParams(t * delta, delta) for delta in (0.0625, 0.125, 0.245)]
        assert all(bp.eps / bp.delta == t for bp in bps)
        energies = {bubble_energy(p, bp) for bp in bps}
        assert len(energies) == 1

    @pytest.mark.parametrize("t", [0.1, 0.2])
    def test_l2_mass_grows_with_delta(self, t):
        p = Params(5, 0.8)
        l2 = [hyperbolic_l2_mass(p, sampled_bubble(p, BubbleParams(t * delta, delta)))
              for delta in self.DELTAS]
        assert all(a < b for a, b in zip(l2, l2[1:]))


class TestBandKernels:
    """Each octave band's Hankel kernel is built once per (n, support,
    window, band), in row blocks, and held in a bounded LRU of one
    support's bands."""

    # the largest band of a bubble energy at t = 1/32: 48 x 5856 cells, 2.2 MB
    SUPPORT = 2.0 * ENERGY_DELTA
    WINDOW = (ENERGY_DELTA, 2.0 * ENERGY_DELTA)
    BAND = (1e-4 * 2.0 ** 26, 1e-4 * 2.0 ** 27)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_blocked_bessel_matrix_bit_equal(self, n, monkeypatch):
        # row blocks of the default budget, and of one row each, give the
        # one-shot outer product bit for bit (n = 4 takes scipy's jv)
        import gjmslab.bubbles as bubbles

        band = _band_kernel(n, self.SUPPORT, self.WINDOW, *self.BAND)
        whole = outer_scaled_bessel_matrix(n, band.rho, band.r)
        assert whole.size > 2 * bubbles.BLOCK_CELLS
        assert _scaled_bessel_matrix(n, band.rho, band.r).tobytes() == whole.tobytes()
        monkeypatch.setattr(bubbles, "BLOCK_CELLS", 3 * band.r.size // 2)
        assert _scaled_bessel_matrix(n, band.rho, band.r).tobytes() == whole.tobytes()

    def test_build_memory(self):
        # a build holds the kernel and a few block budgets of temporaries
        # (6.3 budgets measured; the one-shot product held 5.2 kernels more)
        import gjmslab.bubbles as bubbles

        _band_kernel.cache_clear()
        tracemalloc.start()
        try:
            band = _band_kernel(5, self.SUPPORT, self.WINDOW, *self.BAND)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert band.kernel.shape == (48, 5856)
        assert peak <= band.kernel.nbytes + 8 * 8 * bubbles.BLOCK_CELLS

    def test_cold_and_warm_energy_bit_equal(self):
        p = Params(5, 0.8)
        w = sampled_bubble(p, BubbleParams(0.03, 0.2))
        _band_kernel.cache_clear()
        cold = fractional_energy(w, p)
        assert fractional_energy(w, p) == cold
        _band_kernel.cache_clear()
        cold = bubble_energy(p, BubbleParams(0.03, 0.2))
        assert bubble_energy(p, BubbleParams(0.03, 0.2)) == cold

    def test_windowed_route_bit_equal(self, monkeypatch):
        # on support 400, bands above rho = 10 cut r at r_cut < support
        import gjmslab.bubbles as bubbles

        bands = []

        def recorded(*args, _fn=_band_kernel):
            bands.append(_fn(*args))
            return bands[-1]

        p = Params(3, 0.75)
        support = 400.0
        w = RadialFunction.from_profile(windowed_gaussian(1.0, support),
                                        geometric_grid(support, 0.02), support, Space.EUCLIDEAN)
        _band_kernel.cache_clear()
        monkeypatch.setattr(bubbles, "_band_kernel", recorded)
        cold = fractional_energy(w, p)
        assert min(band.r[-1] for band in bands) <= 200.0
        assert fractional_energy(w, p) == cold

    def test_kernels_read_only(self):
        band = _band_kernel(5, self.SUPPORT, self.WINDOW, 1e-4, 2e-4)
        for array in (band.rho, band.weights, band.r, band.kernel):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            band.kernel[0, 0] = 0.0

    def test_store_holds_one_support(self):
        # a bubble energy at t = 0.005 reads 29 bands, all of which stay held;
        # energies on other supports evict the oldest, never growing the store
        p = Params(5, 0.8)
        _band_kernel.cache_clear()
        bubble_energy(p, BubbleParams(0.005 * ENERGY_DELTA, ENERGY_DELTA))
        info = _band_kernel.cache_info()
        assert info.misses == info.currsize == 29 <= BAND_KERNELS_HELD
        for delta in (0.1, 0.2):
            fractional_energy(sampled_bubble(p, BubbleParams(0.05, delta)), p)
        assert _band_kernel.cache_info().currsize == BAND_KERNELS_HELD

    def test_benchmark_scan_reuses_kernels(self, monkeypatch):
        # the benchmark's 2-lambda bubble scan builds 2142 Bessel matrices when
        # every band is built afresh; all its trials share the one energy
        # support, so it builds each of its 25 bands once
        import gjmslab.bubbles as bubbles

        calls = count_calls(monkeypatch, bubbles, "_scaled_bessel_matrix")
        _band_kernel.cache_clear()
        gap_scan(MultiplierKind.INTERTWINED, Params(5, 0.8), [0.0, 0.25], BubbleFamily())
        assert len(calls) == _band_kernel.cache_info().currsize <= 25

    def test_negative_lambda_scan_builds_each_band_once(self, monkeypatch):
        # below lambda = 0 the search prices each t at its own delta: with a
        # support per delta the scan over lambda = -1..0.25 built 801 Bessel
        # matrices; on the one energy support it builds the same 25
        import gjmslab.bubbles as bubbles

        calls = count_calls(monkeypatch, bubbles, "_scaled_bessel_matrix")
        _band_kernel.cache_clear()
        gap_scan(MultiplierKind.INTERTWINED, Params(5, 0.8), np.linspace(-1.0, 0.25, 6),
                 BubbleFamily())
        assert len(calls) == _band_kernel.cache_info().currsize <= 25

    def test_energy_support_is_the_box_edge(self, monkeypatch):
        # lambda >= 0 scans price their smallest ratios at the box's largest
        # delta, the support every bubble energy takes
        import gjmslab.quotients as quotients

        deltas = []

        def recorded(kind, p, lam, bp, *args, _fn=quotients.bubble_quotient, **kwargs):
            deltas.append(bp.delta)
            return _fn(kind, p, lam, bp, *args, **kwargs)

        monkeypatch.setattr(quotients, "bubble_quotient", recorded)
        gap_scan(MultiplierKind.INTERTWINED, Params(5, 0.8), [0.0], BubbleFamily())
        assert max(deltas) == ENERGY_DELTA


class TestEnergyAsymptotics:
    @pytest.mark.parametrize("n,s,tol_rel", [(5, 1.0, 0.10), (3, 0.75, 0.15), (4, 1.0, 0.10)])
    def test_rate(self, n, s, tol_rel):
        p = Params(n, s)
        slope = bubble_asymptotics(p, 0.2, [0.05, 0.025, 0.0125, 0.00625])[1]["energy"]["slope"]
        target = n - 2.0 * s
        assert abs(slope - target) <= tol_rel * target

    def test_cross_term_matches_criticality(self):
        # <U_eps, (eta-1) U_eps>_s against the Euler-Lagrange closed form
        p = Params(3, 0.75)
        delta = 0.2
        kappa = bubble_energy_limit(p) / bubble_mass_limit(p.n)
        q = (p.n - 2 * p.s) / 2.0
        for eps in (0.3, 0.2):
            bp = BubbleParams(eps, delta)

            def u_full(r, _e=eps):
                r = np.asarray(r, dtype=float)
                return _e ** (-q) * (1.0 + (r / _e) ** 2) ** (-q) * smooth_window(
                    r, 1000.0, 2000.0)

            def z_part(r, _e=eps):
                r = np.asarray(r, dtype=float)
                return (cutoff(delta, r) - 1.0) * _e ** (-q) * (1.0 + (r / _e) ** 2) ** (-q) \
                    * smooth_window(r, 1000.0, 2000.0)

            wU = RadialFunction.from_profile(u_full, bubble_grid(eps, 2000.0), 2000.0,
                                             Space.EUCLIDEAN)
            wz = RadialFunction.from_profile(z_part, bubble_grid(eps, 2000.0), 2000.0,
                                             Space.EUCLIDEAN)
            w_sum = RadialFunction.from_profile(lambda r, _u=u_full, _z=z_part: _u(r) + _z(r),
                                                bubble_grid(eps, 2000.0), 2000.0,
                                                Space.EUCLIDEAN)
            # <U, z>_s by polarization
            cross = 0.5 * (fractional_energy(w_sum, p) - fractional_energy(wU, p)
                           - fractional_energy(wz, p))
            grid = geometric_grid(3e3, first_width=eps / 3.0)
            r = grid.nodes
            integrand = ((cutoff(delta, r) - 1.0) * bubble(p, bp, r) ** p.two_star
                         * r ** (p.n - 1))
            el_value = kappa * sphere_area(p.n) * grid.integrate(integrand)
            assert cross == pytest.approx(el_value, rel=1e-3)

    def test_cross_term_decay(self):
        # |E(eta U_eps) - E(U) - E((eta-1) U_eps)| = 2|<U_eps, z_eps>| decays
        # at least like eps^{min(n, n-2s)}
        p = Params(3, 0.75)
        ladder = [0.2, 0.1, 0.05]
        values = []
        for eps in ladder:
            w = sampled_bubble(p, BubbleParams(eps, 0.2))
            e_w = fractional_energy(w, p)
            q = (p.n - 2 * p.s) / 2.0

            def z_part(r, _e=eps):
                r = np.asarray(r, dtype=float)
                return (cutoff(0.2, r) - 1.0) * _e ** (-q) * (1.0 + (r / _e) ** 2) ** (-q) \
                    * smooth_window(r, 1000.0, 2000.0)

            wz = RadialFunction.from_profile(z_part, bubble_grid(eps, 2000.0), 2000.0,
                                             Space.EUCLIDEAN)
            e_z = fractional_energy(wz, p)
            e_u = bubble_energy_limit(p)
            values.append(abs(e_w - e_u - e_z))
        slope = fit_loglog_slope(ladder, values)
        assert slope >= 0.8 * min(p.n, p.n - 2.0 * p.s)
