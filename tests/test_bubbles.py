import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    dirichlet_bubble_energy,
    outer_scaled_bessel_matrix,
    quadrature_mass_limit,
    transform_bubble_energy,
)
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
    bubble_asymptotics,
    bubble_energy,
    bubble_energy_limit,
    bubble_mass_limit,
    bubble_masses,
    fit_leading_exponent,
    fit_loglog_slope,
    smooth_step,
    smooth_window,
)
from gjmslab.errors import NumericalError, ParameterError
from gjmslab.geometry import sphere_area
from gjmslab.grids import PHASE_PER_PANEL, RadialGrid, geometric_grid
from gjmslab.params import MultiplierKind, Params
from gjmslab.quotients import BubbleFamily, bubble_quotient, gap_scan

mp.mp.dps = 30


class TestBubble:
    def test_center_value(self):
        p = Params(5, 1.0)
        assert _bubble_values(p, 1.0, 0.0) == 1.0

    def test_known_value(self):
        p = Params(5, 1.0)
        assert _bubble_values(p, 1.0, 1.0) == pytest.approx(2.0 ** -1.5, rel=1e-15)

    def test_scaling_exact(self):
        p = Params(4, 0.75)
        eps = 0.125  # power of two: the scaling identity is float-exact
        q = (p.n - 2 * p.s) / 2.0
        for r in (0.25, 0.5, 2.0):
            lhs = _bubble_values(p, eps, eps * r)
            rhs = eps ** (-q) * _bubble_values(p, 1.0, r)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_decreasing(self):
        p = Params(3, 0.75)
        r = np.linspace(0.0, 3.0, 100)
        vals = _bubble_values(p, 0.3, r)
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
        vals = _bubble_values(p, bp.eps, r)
        assert np.argmax(vals) == 0


class TestCutoff:
    """The truncated bubble's cut-off smooth_window(r, delta, 2 delta)."""

    def test_plateau_and_support(self):
        assert smooth_window(0.1, 0.2, 0.4) == 1.0
        assert smooth_window(0.5, 0.2, 0.4) == 0.0
        assert smooth_window(0.2, 0.2, 0.4) == pytest.approx(1.0, abs=1e-14)

    def test_exact_midpoint(self):
        assert smooth_window(0.3, 0.2, 0.4) == pytest.approx(0.5, abs=1e-12)
        assert 0.0 < smooth_window(0.25, 0.2, 0.4) < 1.0

    def test_monotone(self):
        r = np.linspace(0.0, 0.5, 400)
        vals = smooth_window(r, 0.2, 0.4)
        assert np.all(np.diff(vals) <= 1e-13)

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
        diffs = [m_inf - bubble_masses(p, BubbleParams(e, 0.24))[0] for e in ladder]
        assert np.all(np.asarray(diffs) > 0.0)
        slope = fit_loglog_slope(ladder, diffs)
        assert slope == pytest.approx(3.0, abs=0.3)


class TestHyperbolicL2Mass:
    def test_power_regime(self):
        ladder = [0.025, 0.0125, 0.00625, 0.003125]
        p = Params(5, 1.0)
        masses = [bubble_masses(p, BubbleParams(e, 0.2))[1]
                  for e in ladder]
        assert fit_loglog_slope(ladder, masses) == pytest.approx(2.0, abs=0.1)

    def test_log_regime(self):
        ladder = [0.0125, 0.00625, 0.003125]
        p = Params(4, 1.0)
        ratios = [bubble_masses(p, BubbleParams(e, 0.2))[1]
                  / (e ** 2 * abs(math.log(e))) for e in ladder]
        assert all(r > 0 for r in ratios)
        assert abs(ratios[-1] / ratios[-2] - 1.0) <= 0.10

    def test_low_regime(self):
        ladder = [0.00625, 0.003125, 0.0015625, 0.00078125]
        p = Params(3, 1.0)
        masses = [bubble_masses(p, BubbleParams(e, 0.2))[1]
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
        masses = np.array([bubble_masses(p, BubbleParams(e, 0.2))[1]
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


class TestFractionalEnergy:
    def test_dirichlet_oracle_s1(self):
        # at s = 1 the energy is the gradient integral, priced by mpmath; the
        # Hankel bands measured at most 5.0e-9 off it, the closed-form
        # Dirichlet route 9.7e-15
        p = Params(3, 1.0)
        for t in (0.06, 0.25, 1.22):
            eps = t * ENERGY_DELTA
            oracle = dirichlet_bubble_energy(3, eps, ENERGY_DELTA)
            assert _banded_energy(p, eps) == pytest.approx(oracle, rel=1e-8)
            assert bubble_energy(p, BubbleParams(eps, ENERGY_DELTA)) == pytest.approx(
                oracle, rel=1e-13)

    def test_bubble_baseline_dirichlet_value(self):
        # the transform oracle reproduces the Dirichlet energy of U
        assert transform_bubble_energy(Params(3, 1.0)) == pytest.approx(
            3.0 * math.pi ** 2 / 4.0, rel=1e-13)
        assert bubble_energy_limit(Params(3, 1.0)) == pytest.approx(
            3.0 * math.pi ** 2 / 4.0, rel=1e-15)

    @pytest.mark.parametrize("n,s", [(5, 1.0), (5, 0.8), (3, 1.0), (3, 0.6), (7, 2.3),
                                     (4, 0.75), (11, 0.8), (12, 2.5)])
    def test_energy_limit_matches_windowed_oracle(self, n, s):
        # measured: at most 8.9e-16
        p = Params(n, s)
        assert bubble_energy_limit(p) == pytest.approx(transform_bubble_energy(p), rel=1e-13)


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
    bubble, with the Hankel bands as its oracle."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_hankel_route(self, n):
        # worst measured: 5.0e-9, near the Hankel route's 1e-9 tail stop
        p = Params(n, 1.0)
        for t in (0.06, 0.12, 0.25, 0.5, 0.8, 1.22):
            bp = BubbleParams(t * 0.2, 0.2)
            eps = bp.eps / bp.delta * ENERGY_DELTA
            assert bubble_energy(p, bp) == pytest.approx(_banded_energy(p, eps), rel=1e-8)

    @pytest.mark.parametrize("n", [3, 5])
    def test_hankel_floor_at_the_energy_support(self, n):
        # bubble_energy's Hankel route (s != 1) against the Dirichlet
        # integral, both of the truncated bubble at ENERGY_DELTA, over the bubble
        # box (t up to eps_hi/delta_lo = 6) and below it; measured at n = 3,
        # 5: -6.2e-6, +1.0e-5 at t = 0.005, at most 6.2e-7 at 0.01, 5.4e-8 at
        # 0.02 and 1.3e-8 from 0.04 on
        p = Params(n, 1.0)
        for t, tol in ((0.005, 1.5e-5), (0.01, 1e-6), (0.02, 1e-7), (0.04, 2e-8),
                       (0.16, 2e-8), (1.0, 2e-8), (6.0, 2e-8)):
            eps = t * ENERGY_DELTA
            dirichlet = _dirichlet_energy(p, eps, RadialGrid.from_edges(_dirichlet_edges(eps)))
            assert _banded_energy(p, eps) == pytest.approx(dirichlet, rel=tol)

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
        # away from s = 1 the energy is the Hankel bands' at the same t
        p = Params(5, 0.8)
        bp = BubbleParams(0.05, 0.2)
        _band_kernel.cache_clear()
        assert bubble_energy(p, bp) == _banded_energy(p, bp.eps / bp.delta * ENERGY_DELTA)
        assert _band_kernel.cache_info().currsize > 0


class TestRatioInvariance:
    """eta(r/delta) U_eps(r) is a rescaling of eta(r) U_{eps/delta}(r): its
    Euclidean energy and critical mass depend on t = eps/delta alone, while
    its hyperbolic L2 mass grows with delta at fixed t. The bubble search
    rests on these three facts, and bubble_energy prices every trial at
    (t ENERGY_DELTA, ENERGY_DELTA) by the first."""

    DELTAS = (0.1, 0.15, 0.2, 0.245)

    @pytest.mark.parametrize("t", [0.1, 0.2])
    def test_energy_and_crit_mass_depend_on_t_alone(self, t):
        # the energy at s = 1, the trial's own Dirichlet integral on its own
        # support (mpmath) at the smallest and the largest delta
        p = Params(5, 0.8)
        bps = [BubbleParams(t * delta, delta) for delta in self.DELTAS]
        for bp in (bps[0], bps[-1]):
            assert bubble_energy(Params(5, 1.0), bp) == pytest.approx(
                dirichlet_bubble_energy(5, bp.eps, bp.delta), rel=1e-13)
        masses = [bubble_masses(p, bp)[0] for bp in bps]
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
        l2 = [bubble_masses(p, BubbleParams(t * delta, delta))[1] for delta in self.DELTAS]
        assert all(a < b for a, b in zip(l2, l2[1:]))


class TestBandKernels:
    """Each octave band's Hankel kernel on the energy support is built once
    per (n, band), in row blocks, and held in a bounded LRU."""

    # the largest band of a bubble energy at t = 1/32: 48 x 5856 cells, 2.2 MB
    BAND = (1e-4 * 2.0 ** 26, 1e-4 * 2.0 ** 27)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_blocked_bessel_matrix_bit_equal(self, n, monkeypatch):
        # row blocks of the default budget, and of one row each, give the
        # one-shot outer product bit for bit (n = 4 takes scipy's jv)
        import gjmslab.bubbles as bubbles

        band = _band_kernel(n, *self.BAND)
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
            band = _band_kernel(5, *self.BAND)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert band.kernel.shape == (48, 5856)
        assert peak <= band.kernel.nbytes + 8 * 8 * bubbles.BLOCK_CELLS

    def test_cold_and_warm_energy_bit_equal(self):
        p = Params(5, 0.8)
        _band_kernel.cache_clear()
        cold = bubble_energy(p, BubbleParams(0.03, 0.2))
        assert bubble_energy(p, BubbleParams(0.03, 0.2)) == cold

    def test_windowed_route_bit_equal(self):
        # each band's r-grid ends inside the energy support, and its kernel is
        # the Bessel matrix times r^{n-1}, the r weights and the trial's own
        # cut-off, smooth_window(r, ENERGY_DELTA, 2 ENERGY_DELTA), bit for bit
        for n in (3, 5):
            band = _band_kernel(n, *self.BAND)
            grid = geometric_grid(2.0 * ENERGY_DELTA, 0.02,
                                  max_width=max(PHASE_PER_PANEL / float(band.rho[-1]), 1e-4))
            assert grid.nodes.tobytes() == band.r.tobytes() and band.r[-1] < 2.0 * ENERGY_DELTA
            density = (band.r ** (n - 1) * grid.weights
                       * smooth_window(band.r, ENERGY_DELTA, 2.0 * ENERGY_DELTA))
            expected = _scaled_bessel_matrix(n, band.rho, band.r) * density
            assert expected.tobytes() == band.kernel.tobytes()

    def test_kernels_read_only(self):
        band = _band_kernel(5, 1e-4, 2e-4)
        for array in (band.rho, band.weights, band.r, band.kernel):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            band.kernel[0, 0] = 0.0

    def test_store_holds_one_support(self):
        # a bubble energy at t = 0.005 reads 29 bands, all of which stay held;
        # energies at other n evict the oldest, never growing the store
        p = Params(5, 0.8)
        _band_kernel.cache_clear()
        bubble_energy(p, BubbleParams(0.005 * ENERGY_DELTA, ENERGY_DELTA))
        info = _band_kernel.cache_info()
        assert info.misses == info.currsize == 29 <= BAND_KERNELS_HELD
        for n in (3, 7):
            bubble_energy(Params(n, 0.8), BubbleParams(0.05, 0.2))
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


class TestEnergyBits:
    """float.hex of bubble_energy on a grid of (n, s) x (eps, delta): a
    change to the Hankel bands that moves one bit of an energy fails here.
    The bits are those of one numpy/scipy/OpenBLAS build; the band products
    are BLAS matrix-vector products, whose last bit another BLAS kernel may
    move."""

    TRIALS = ((0.02, 0.245), (0.3, 0.245), (0.05, 0.05), (0.1, 0.2), (0.0123, 0.1))
    BITS = {
        (5, 0.8): ("0x1.15a6515ce5f73p+3", "0x1.115a360434d58p+3",
                   "0x1.27e5c3176f2e9p+3", "0x1.24262d262597ep+3",
                   "0x1.15d573b41f3ecp+3"),
        (3, 0.6): ("0x1.672854b2ec960p+2", "0x1.820ab87166ae9p+2",
                   "0x1.9b3c2f4603f14p+2", "0x1.9bda8a40890b9p+2",
                   "0x1.6b188da2b4f9ep+2"),
        (4, 0.75): ("0x1.08c2643251b13p+3", "0x1.1f6143d9c8492p+3",
                    "0x1.31c3818a6762dp+3", "0x1.2650ddeb21d92p+3",
                    "0x1.09be32db55587p+3"),
        (5, 1.3): ("0x1.e3f33e7353d18p+4", "0x1.f38736fe1cc71p+5",
                   "0x1.e63aef02399d7p+5", "0x1.54aa813cf07adp+5",
                   "0x1.e992fb7ce8764p+4"),
        (7, 2.5): ("0x1.256aee2e54438p+10", "0x1.218596adcfcd2p+14",
                   "0x1.00349195400dfp+14", "0x1.c4849c3786506p+12",
                   "0x1.64141c2f5f120p+10"),
        (3, 0.9): ("0x1.ff35f9bbddfd8p+2", "0x1.effd16d54ebebp+3",
                   "0x1.f268a563fc735p+3", "0x1.a1c4c1a11fb7ep+3",
                   "0x1.0feef2108565cp+3"),
        (6, 1.5): ("0x1.b2e39fb3ab4f7p+5", "0x1.c7a47f57ed260p+6",
                   "0x1.b2d5fe189225bp+6", "0x1.1c511503af1a8p+6",
                   "0x1.b4cd3311c6882p+5"),
        (47, 0.8): ("0x1.03afc40c42651p-72", "0x1.a5f774c343eb8p-73",
                    "0x1.fdc0c2f0e5753p-73", "0x1.03afc409715c5p-72",
                    "0x1.03afc40c4261cp-72"),
    }

    @pytest.mark.parametrize("n,s", list(BITS))
    def test_energy_bits_pinned(self, n, s):
        p = Params(n, s)
        got = tuple(bubble_energy(p, BubbleParams(eps, delta)).hex() for eps, delta in self.TRIALS)
        assert got == self.BITS[(n, s)]


class TestGjmsEnergyBits:
    """float.hex of bubble_quotient(GJMS, p, 0, bp).energy, the Hankel energy
    plus the remainder form of the lifted trial sampled on the one remainder
    grid, and of that remainder form itself: it is at most 2.6e-3 of the
    energy here, so only its own bits show a change of one ulp in the
    conformal lift or its sampling (same BLAS caveat as TestEnergyBits)."""

    TRIALS = ((0.02, 0.245), (0.3, 0.245), (0.05, 0.05), (0.1, 0.2))
    BITS = {
        (5, 0.8): ("0x1.15a65446743cfp+3", "0x1.115f5ae14662fp+3",
                   "0x1.27e5c3205147ep+3", "0x1.2426b31298fd2p+3"),
        (3, 0.6): ("0x1.673764dc6398dp+2", "0x1.8309e34b678d8p+2",
                   "0x1.9b3c82b8be241p+2", "0x1.9c2a4ae556dd0p+2"),
        (4, 0.75): ("0x1.08c2bf4cec7e2p+3", "0x1.1f7be0b218792p+3",
                    "0x1.31c3829bbca61p+3", "0x1.2655a501e4a08p+3"),
        (6, 1.3): ("0x1.e8c73e3f25a35p+4", "0x1.6e048889f3c90p+5",
                   "0x1.6c47f06f8f12ep+5", "0x1.18320c071b4e4p+5"),
        (7, 2.5): ("0x1.256aef5f136b1p+10", "0x1.21859b4dacc9cp+14",
                   "0x1.00349195400e5p+14", "0x1.c4849ceaf7402p+12"),
    }
    REMAINDER_BITS = {
        (5, 0.8): ("0x1.74c722dd393e5p-20", "0x1.493744635d956p-11",
                   "0x1.1c432ac00ac4bp-26", "0x1.0bd8e6ca8897dp-14"),
        (3, 0.6): ("0x1.e2052ee05aa73p-11", "0x1.fe55b401bde26p-7",
                   "0x1.4dcae8cb3e60dp-16", "0x1.3f02933745b26p-8"),
        (4, 0.75): ("0x1.6c6a6b33c320ep-15", "0x1.a9cd85030013ap-9",
                    "0x1.11554344347c7p-21", "0x1.31c5b0b1d9125p-11"),
        (6, 1.3): ("-0x1.754797618cfa2p-21", "-0x1.05008752a88cep-11",
                   "-0x1.1d157e5594812p-31", "-0x1.cfe1219dfb924p-16"),
        (7, 2.5): ("0x1.30bf279490a08p-14", "0x1.27f73f2728805p-8",
                   "0x1.6617e40eca413p-36", "0x1.66e1df87bb164p-13"),
    }

    @pytest.mark.parametrize("n,s", list(BITS))
    def test_gjms_energy_bits_pinned(self, n, s, monkeypatch):
        import gjmslab.quotients as quotients

        forms = []

        def recorded(*args, _fn=quotients.quadratic_form, **kwargs):
            forms.append(_fn(*args, **kwargs))
            return forms[-1]

        monkeypatch.setattr(quotients, "quadratic_form", recorded)
        p = Params(n, s)
        got = tuple(bubble_quotient(MultiplierKind.GJMS, p, 0.0, BubbleParams(eps, delta))
                    .energy.hex() for eps, delta in self.TRIALS)
        assert got == self.BITS[(n, s)]
        assert tuple(form.hex() for form in forms) == self.REMAINDER_BITS[(n, s)]


class TestMassBits:
    """float.hex of the (critical integral, hyperbolic L2 mass) pair of
    bubble_masses on the trials of TestGjmsEnergyBits: the values the
    sampled Euclidean trial and its two mass functions gave before
    bubble_masses replaced them (same BLAS caveat as TestEnergyBits)."""

    TRIALS = TestGjmsEnergyBits.TRIALS
    BITS = {
        (5, 0.8): (
            ("0x1.f0192eaf1b05ap-1", "0x1.282d269181411p-5"),
            ("0x1.29154e248d97cp-1", "0x1.621abf71bbd57p-1"),
            ("0x1.73863876d93ddp-1", "0x1.a8fe65a394d77p-5"),
            ("0x1.e4c4cd4335608p-1", "0x1.6709df6979c4ap-2"),
        ),
        (3, 0.6): (
            ("0x1.3bb63a3a4f624p+1", "0x1.3492edaac1721p-2"),
            ("0x1.67fdcf39cfdbfp+0", "0x1.7a3a1ce99febcp+0"),
            ("0x1.b35d1be3713a0p+0", "0x1.bf045ba57715cp-3"),
            ("0x1.26a523d3a7b9cp+1", "0x1.147208aa83008p+0"),
        ),
        (4, 0.75): (
            ("0x1.a51639ab9afb2p+0", "0x1.9011bfc7c0a87p-4"),
            ("0x1.ebbbfafb5d618p-1", "0x1.16fa1bdff0439p+0"),
            ("0x1.2f77dce056635p+0", "0x1.8c591900d501cp-4"),
            ("0x1.94b05a9dff3c1p+0", "0x1.46ec984d6a0a6p-1"),
        ),
        (6, 1.3): (
            ("0x1.0896362d2edafp-1", "0x1.2ecfac8984d8cp-8"),
            ("0x1.3cb3dc9bdc9dap-2", "0x1.dbf2d3b302577p-2"),
            ("0x1.936fa2d3e48f1p-2", "0x1.92a8ff64fef93p-8"),
            ("0x1.04bb8c1fa0dbep-1", "0x1.12447daca1ed7p-3"),
        ),
        (7, 2.5): (
            ("0x1.03c1ef4c1c8bep-2", "0x1.2971d625bbf52p-7"),
            ("0x1.27b93d6a77a87p-3", "0x1.d811ca47ee9b7p-2"),
            ("0x1.86e654f4591bdp-3", "0x1.956c8969e26b2p-14"),
            ("0x1.00ea8d272dcccp-2", "0x1.25a28a479e37cp-4"),
        ),
    }

    @pytest.mark.parametrize("n,s", list(BITS))
    def test_mass_bits_pinned(self, n, s):
        p = Params(n, s)
        got = tuple(tuple(mass.hex() for mass in bubble_masses(p, BubbleParams(eps, delta)))
                    for eps, delta in self.TRIALS)
        assert got == self.BITS[(n, s)]
