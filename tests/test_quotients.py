import math

import numpy as np
import pytest

from conftest import hyperbolic_bump
from oracles import quadrature_mass_limit, slsqp_spline_search, transform_bubble_energy
from gjmslab.bubbles import BubbleParams, smooth_window
from gjmslab.errors import BudgetExceeded, NumericalError, ParameterError
from gjmslab.grids import RadialFunction, uniform_grid
from gjmslab.multipliers import b_constant, spectral_bottom
from gjmslab.params import MultiplierKind, Params
from gjmslab.quotients import (
    BUBBLE_DELTA,
    BUBBLE_EPS,
    FLOOR_REL_TOL,
    BubbleFamily,
    SplineFamily,
    _clamped_slopes,
    _windowed_spline,
    bubble_quotient,
    gap_scan,
    level_floor,
    multibump_blowdown,
    sharp_constant_estimate,
    sobolev_quotient,
    spline_knots,
    standard_hyperbolic_grid,
)
from gjmslab.spherical import DEFAULT_B_MAX, _beta_edges, _phi_cells, default_beta_grid, \
    quadratic_form

GJMS = MultiplierKind.GJMS
INT = MultiplierKind.INTERTWINED
REMAINDER = MultiplierKind.REMAINDER

BENCHMARK_SPLINE_SCAN = (GJMS, 3, 1.0, 0.0, SplineFamily(knots=12, radius=3.5), DEFAULT_B_MAX)
SPLINE_SEARCHES = [
    BENCHMARK_SPLINE_SCAN,
    # the strict-gap searches of the acceptance suite
    (INT, 5, 0.8, 0.5 * spectral_bottom(INT, Params(5, 0.8)),
     SplineFamily(knots=16, radius=3.5), 96.0),
    (GJMS, 5, 0.8, 1.2 * b_constant(0.8), SplineFamily(knots=16, radius=3.5), 96.0),
]
SPLINE_SEARCH_IDS = ["benchmark-scan", "strict-gap-intertwined", "strict-gap-gjms"]


def priced_spline_trials(monkeypatch):
    """(theta, report) of every SplineFamily._report the search prices, in order."""
    priced = []

    def recorded(*args, _fn=SplineFamily._report):
        rep = _fn(*args)
        priced.append((np.array(args[-1]), rep))
        return rep

    monkeypatch.setattr(SplineFamily, "_report", recorded)
    return priced


class TestSobolevQuotient:
    def test_report_invariant(self):
        p = Params(3, 1.0)
        u = hyperbolic_bump(0.5, 3.0)
        rep = sobolev_quotient(INT, p, 0.1, u)
        assert rep.quotient == pytest.approx(
            (rep.energy - 0.1 * rep.l2_mass) / rep.crit_norm, rel=1e-14)
        assert rep.crit_norm > 0.0

    def test_zero_trial(self):
        p = Params(3, 1.0)
        u = hyperbolic_bump(0.5, 3.0)
        zero = RadialFunction(u.grid, np.zeros_like(u.values), 3.0)
        with pytest.raises(ParameterError, match="needs a nonzero trial"):
            sobolev_quotient(INT, p, 0.0, zero)

    def test_amplitude_invariance(self):
        p = Params(4, 0.75)
        u = hyperbolic_bump(0.6, 3.0)
        scaled = RadialFunction(u.grid, 7.0 * u.values, u.support_radius)
        q1 = sobolev_quotient(INT, p, 0.2, u).quotient
        q2 = sobolev_quotient(INT, p, 0.2, scaled).quotient
        assert q2 == pytest.approx(q1, rel=1e-12)

    def test_lambda_affine(self):
        p = Params(3, 1.0)
        u = hyperbolic_bump(0.5, 3.0)
        r0 = sobolev_quotient(INT, p, 0.0, u)
        r1 = sobolev_quotient(INT, p, 0.2, u)
        slope = (r1.quotient - r0.quotient) / 0.2
        assert slope == pytest.approx(-r0.l2_mass / r0.crit_norm, rel=1e-10)
        assert r0.at_lambda(0.2).quotient == pytest.approx(r1.quotient, rel=1e-12)

    def test_gjms_decomposition_consistency(self):
        # the GJMS energy (the Gamma-ratio symbol) against the sum of the
        # intertwined and remainder forms, P_s = P~_s + B_s
        p = Params(5, 0.8)
        u = hyperbolic_bump(0.8, 3.0)
        rep = sobolev_quotient(GJMS, p, 0.0, u)
        split = quadratic_form(INT, p, u) + quadratic_form(REMAINDER, p, u)
        assert rep.energy == pytest.approx(split, rel=1e-8)

    def test_floor_above_sharp_constant(self):
        for n, s in ((3, 1.0), (5, 0.8)):
            p = Params(n, s)
            s_est = sharp_constant_estimate(p)
            for width in (0.5, 1.0, 2.0):
                rep = sobolev_quotient(INT, p, 0.0, hyperbolic_bump(width, 3.0))
                assert rep.quotient >= s_est * (1.0 - 1e-3)


class TestBubbleQuotient:
    def test_integer_order_collapse(self):
        p = Params(3, 1.0)
        bp = BubbleParams(0.1, 0.2)
        qg = bubble_quotient(GJMS, p, 0.3, bp).quotient
        qi = bubble_quotient(INT, p, 0.3, bp).quotient
        assert qg == pytest.approx(qi, rel=1e-8)

    def test_lambda_lowers_quotient(self):
        p = Params(5, 0.8)
        bp = BubbleParams(0.08, 0.2)
        q0 = bubble_quotient(INT, p, 0.0, bp).quotient
        q1 = bubble_quotient(INT, p, 0.1, bp).quotient
        assert q1 < q0

    def test_eps_trend_to_sharp_constant(self):
        p = Params(5, 0.8)
        s_est = sharp_constant_estimate(p)
        ladder = [0.1, 0.05, 0.025, 0.0125]
        gaps = [bubble_quotient(INT, p, 0.0, BubbleParams(e, 0.2)).quotient - s_est
                for e in ladder]
        assert all(g > 0 for g in gaps)
        from gjmslab.bubbles import fit_loglog_slope
        slope = fit_loglog_slope(ladder, gaps)
        target = p.n - 2.0 * p.s
        assert abs(slope - target) <= 0.15 * target

    @pytest.mark.parametrize("n, s", [(5, 0.8), (3, 0.6), (4, 0.75), (6, 1.3), (7, 2.5)])
    def test_short_remainder_grid(self, n, s, monkeypatch):
        # sin(pi s) / cosh(pi beta), the remainder symbol over the intertwined
        # one, is below 2^-53 beyond beta = 12: cutting the remainder form at
        # REMAINDER_B_MAX leaves it within 1e-14 of the b_max 60 form on the
        # box edge delta = 0.245, and the GJMS energy within 1e-14 of itself
        # on the box corners, where a tiny remainder form moves more
        import gjmslab.quotients as quotients
        from gjmslab.bubbles import truncated_bubble
        from gjmslab.geometry import conformal_lift

        assert 12.0 <= quotients.REMAINDER_B_MAX <= 16.0
        assert math.sin(math.pi * s) / math.cosh(12.0 * math.pi) < 2.0 ** -53
        p = Params(n, s)
        for eps in (0.02, 0.1, 0.3):
            bp = BubbleParams(eps, 0.245)
            radius = quotients.LIFTED_BUBBLE_RADIUS
            u = RadialFunction.from_profile(conformal_lift(truncated_bubble(p, bp), 0.49, p),
                                            quotients.standard_hyperbolic_grid(radius), radius)
            short, full = (quadratic_form(MultiplierKind.REMAINDER, p, u, b_max=b_max)
                           for b_max in (quotients.REMAINDER_B_MAX, DEFAULT_B_MAX))
            assert abs(short - full) <= 1e-14 * abs(full)
        corners = [BubbleParams(eps, delta) for eps in (0.02, 0.3) for delta in (0.05, 0.245)]
        short = [bubble_quotient(GJMS, p, 0.0, bp).energy for bp in corners]
        monkeypatch.setattr(quotients, "REMAINDER_B_MAX", DEFAULT_B_MAX)
        for bp, energy in zip(corners, short):
            full = bubble_quotient(GJMS, p, 0.0, bp).energy
            assert abs(energy - full) <= 1e-14 * abs(full)


class TestStandardGrid:
    @pytest.mark.parametrize("radius", [0.5, math.log(3.0), 3.5, 8.0, 40.0])
    def test_covers_exactly_the_support(self, radius):
        assert standard_hyperbolic_grid(radius).r_max == radius

    def test_support_beyond_the_largest_radius_rejected(self):
        with pytest.raises(ParameterError):
            standard_hyperbolic_grid(41.0)

    @pytest.mark.parametrize("radius", [0.5, 2.0, 3.5, 16.5, 40.0])
    @pytest.mark.parametrize("b_max", [1.0, 1234.5])
    def test_spline_phi_cells_count_the_grids(self, radius, b_max):
        # at n = 3 every Phi column is elementary, so the one count of a Phi
        # pass (spherical._phi_cells, from the frequency edges alone) is the
        # product of the two grids' node counts
        radii = standard_hyperbolic_grid(radius).nodes
        built = default_beta_grid(radius, b_max).nodes.size * radii.size
        assert _phi_cells(3, _beta_edges(radius, b_max), radii) == built

    @pytest.mark.parametrize("n, s", [(3, 1.0), (4, 0.75), (5, 0.8)])
    @pytest.mark.parametrize("b_max", [60.0, 120.0])
    def test_phi_cells_count_what_the_spline_forms_build(self, n, s, b_max, phi_cells_built):
        # gap_scan's work bound is the cells of the spline forms' one Phi
        # pass: rows times u-nodes of every Mehler column below the switch
        # (none at n = 3; at n = 4 the Jacobi switch rises with b_max) and
        # rows times every far column
        SplineFamily(radius=3.5)._forms(INT, Params(n, s), b_max)
        radii = standard_hyperbolic_grid(3.5).nodes
        assert _phi_cells(n, _beta_edges(3.5, b_max), radii) == sum(phi_cells_built)

    @pytest.mark.parametrize("kind, n, s", [(GJMS, 5, 0.8), (INT, 3, 1.0)])
    def test_spline_forms_match_a_wider_grid(self, kind, n, s, monkeypatch):
        # on a grid past the R = 3.5 support, uniform to r = 5, the basis
        # rows beyond R are exact zeros and every matrix has the same bits
        import gjmslab.quotients as quotients

        family, p = SplineFamily(knots=12, radius=3.5), Params(n, s)
        exact = family._forms(kind, p, DEFAULT_B_MAX)
        monkeypatch.setattr(quotients, "standard_hyperbolic_grid",
                            lambda r_max: uniform_grid(5.0, 0.05))
        wide = family._forms(kind, p, DEFAULT_B_MAX)
        rows = exact[0].shape[0]
        assert rows < wide[0].shape[0] and not np.any(wide[0][rows:])
        assert exact[0].tobytes() == wide[0][:rows].tobytes()
        assert exact[1].tobytes() == wide[1][:rows].tobytes()
        for got, want in zip(exact[2:], wide[2:]):
            assert got.tobytes() == want.tobytes()


class TestSplineTrial:
    def test_knot_count_validation(self):
        fam = SplineFamily(knots=8, radius=3.0)
        with pytest.raises(ParameterError):
            fam.trial(np.ones(8))

    def test_grading_validation(self):
        for grading in (-1.0, float("nan")):
            with pytest.raises(ParameterError):
                SplineFamily(grading=grading)

    def test_zero_knots_give_zero_trial(self):
        fam = SplineFamily(knots=8, radius=3.0)
        u = fam.trial(np.zeros(7))
        assert not np.any(u.values)

    def test_support_truncates_at_trailing_zeros(self):
        fam = SplineFamily(knots=8, radius=3.0, grading=0.0)
        theta = np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        u = fam.trial(theta)
        knots = spline_knots(fam)
        assert u.support_radius == pytest.approx(knots[2])


    @pytest.mark.parametrize("n, s", [(4, 0.75), (5, 0.8), (6, 1.3), (5, 1.5)])
    def test_gjms_form_is_the_split_sum(self, n, s):
        # one GJMS symbol prices what the split P_s = P~_s + B_s prices as
        # two forms, at s with sin(pi s) > 0, < 0 and the exceptional order
        # s = 3/2; trials: the wide bump and the (0.15, 0.45) bubble profile,
        # which pass all three tail guards (quadratic_form raises otherwise)
        p, family = Params(n, s), SplineFamily(knots=12, radius=3.5)
        candidates = family._start_candidates(p)
        for theta in (candidates[0], candidates[2]):
            u = family.trial(theta)
            split = quadratic_form(INT, p, u) + quadratic_form(REMAINDER, p, u)
            assert quadratic_form(GJMS, p, u) == pytest.approx(split, rel=1e-13)

    @pytest.mark.parametrize("grading", [3.3, 0.0])
    def test_start_candidates_at_radius_40_warn_nothing(self, grading):
        # from knot radii of 38 on tanh(r/2) rounds to 1, so the conformal
        # factor 2 / (1 - t^2) is inf there and its power s - n/2 exactly 0;
        # pyproject makes the RuntimeWarning of its division an error
        family = SplineFamily(knots=12, radius=40.0, grading=grading)
        candidates = family._start_candidates(Params(3, 0.6))
        assert len(candidates) == 5
        for theta in candidates:
            assert theta.shape == (11,) and np.all(np.isfinite(theta))


class TestWindowedSpline:
    @pytest.mark.parametrize("family", [SplineFamily(knots=51, radius=40.0, grading=0.0),
                                        SplineFamily(knots=12, radius=3.5)],
                             ids=["uniform", "graded"])
    @pytest.mark.parametrize("columns", [None, 5])
    def test_matches_scipy_clamped_cubic_spline(self, rng, family, columns):
        from scipy.interpolate import CubicSpline

        shape = (family.knots,) if columns is None else (family.knots, columns)
        values = rng.uniform(-1.0, 1.0, shape)
        knots = spline_knots(family)
        r = np.concatenate([np.linspace(0.0, family.radius, 2001), knots])
        clamped = (1, np.zeros(shape[1:]))
        spline = CubicSpline(knots, values, bc_type=(clamped, clamped))
        expected = (spline(r).T * smooth_window(r, 0.8 * family.radius, family.radius)).T
        got = _windowed_spline(family, values)(r)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13


def _dense_clamped_slopes(x, y):
    """The clamped spline's knot slopes from the k x k system solved densely
    by LAPACK: identity rows for the zero end slopes, the three diagonals
    of the continuity conditions at the inner knots."""
    h = np.diff(x)
    secant = np.diff(y, axis=0) / h[:, None]
    inner = np.arange(1, x.size - 1)
    system = np.eye(x.size)
    system[inner, inner - 1] = h[1:]
    system[inner, inner] = 2.0 * (h[:-1] + h[1:])
    system[inner, inner + 1] = h[:-1]
    rhs = np.zeros_like(y)
    rhs[1:-1] = 3.0 * (h[1:, None] * secant[:-1] + h[:-1, None] * secant[1:])
    return np.linalg.solve(system, rhs)


class TestClampedSlopes:
    # blowdown's arch, the default family, the benchmark's, a graded one,
    # the smallest system and the spline-knots refusal's 700 knots
    @pytest.mark.parametrize("family", [SplineFamily(51, 40.0, 0.0), SplineFamily(12, 8.0, 3.3),
                                        SplineFamily(12, 3.5, 3.3), SplineFamily(24, 3.5, 5.0),
                                        SplineFamily(4, 1.0, 0.0), SplineFamily(700, 3.5, 3.3)],
                             ids=["arch", "default", "benchmark", "graded", "smallest", "knots-700"])
    @pytest.mark.parametrize("rhs", ["column", "basis"])
    def test_sweep_matches_the_dense_solve(self, rng, family, rhs):
        # measured at most 3.2e-16 of the largest slope
        x = spline_knots(family)
        if rhs == "column":
            y = rng.uniform(-1.0, 1.0, (family.knots, 1))
        else:
            y = np.eye(family.knots, family.knots - 1)
        got = _clamped_slopes(x, y)
        expected = _dense_clamped_slopes(x, y)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
        assert np.all(got[0] == 0.0) and np.all(got[-1] == 0.0)


class TestGuardedNewtonStep:
    """_guarded_newton_step on a random positive definite model in R^4."""

    @pytest.fixture
    def model(self, rng):
        vecs = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        vals = np.array([0.5, 1.0, 2.0, 4.0])
        grad, jac = rng.standard_normal(4), rng.standard_normal(4)
        newton = -((vecs / vals) @ vecs.T) @ grad
        return grad, vals, vecs, jac, newton

    def test_free_step_keeps_half_the_margin(self, model):
        from gjmslab.quotients import _guarded_newton_step

        grad, vals, vecs, jac, newton = model
        margin = 1e-3
        value = 0.5 * margin - jac @ newton + 1e-6
        y, mu = _guarded_newton_step(grad, vals, vecs, jac, value, margin)
        assert mu == 0.0
        assert np.array_equal(y, newton)

    def test_active_step_lands_on_the_margin(self, model):
        from gjmslab.quotients import _guarded_newton_step

        grad, vals, vecs, jac, newton = model
        margin = 1e-3
        value = -1.0 - jac @ newton
        y, mu = _guarded_newton_step(grad, vals, vecs, jac, value, margin)
        assert mu >= 0.0
        assert value + jac @ y == pytest.approx(margin, rel=1e-9)
        # stationarity: H y + grad = mu jac
        hessian = (vecs * vals) @ vecs.T
        assert np.allclose(hessian @ y + grad, mu * jac, rtol=0.0, atol=1e-12)

    def test_zero_row_or_negative_multiplier(self, model):
        from gjmslab.quotients import _guarded_newton_step

        grad, vals, vecs, jac, newton = model
        assert _guarded_newton_step(grad, vals, vecs, np.zeros(4), 0.0, 1e-3) is None
        # a negative margin the free step misses by less than half of it:
        # landing on it takes a negative multiplier
        margin = -2.0
        value = -1.5 - jac @ newton
        assert _guarded_newton_step(grad, vals, vecs, jac, value, margin) is None


class TestMinimize:
    def test_determinism(self):
        p = Params(5, 0.8)
        for kind, fam in ((INT, BubbleFamily()), (GJMS, SplineFamily(knots=8, radius=3.0))):
            r1 = gap_scan(kind, p, [0.05], fam)[0]
            r2 = gap_scan(kind, p, [0.05], fam)[0]
            assert r1 == r2

    def test_budget_exceeded(self, monkeypatch):
        import gjmslab.quotients as quotients

        monkeypatch.setattr(quotients, "DEFAULT_EVAL_CAP", 5)
        p = Params(5, 0.8)
        with pytest.raises(BudgetExceeded):
            gap_scan(INT, p, [0.05], BubbleFamily())

    def test_cap_prices_exactly_cap_trials(self, monkeypatch):
        import gjmslab.quotients as quotients

        monkeypatch.setattr(quotients, "DEFAULT_EVAL_CAP", 7)
        calls = []
        for owner, name in ((quotients, "bubble_quotient"), (SplineFamily, "_report")):
            def counted(*args, _fn=getattr(owner, name), **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        p = Params(5, 0.8)
        for family in (BubbleFamily(), SplineFamily(knots=6, radius=3.0)):
            calls.clear()
            with pytest.raises(BudgetExceeded, match="used 7 of 7"):
                gap_scan(INT, p, [0.05], family)
            assert len(calls) == 7

    @pytest.mark.parametrize("kind, n, s, lam, family, b_max", SPLINE_SEARCHES,
                             ids=SPLINE_SEARCH_IDS)
    def test_spline_search_matches_sobolev_quotient(self, monkeypatch, kind, n, s, lam,
                                                    family, b_max):
        # the search prices knot values through the family's matrices; the
        # trial it returns, rebuilt by SplineFamily.trial and priced through one
        # spherical transform, gives the same report and passes the tail
        # guard (sobolev_quotient raises NumericalError otherwise)
        priced = priced_spline_trials(monkeypatch)
        p = Params(n, s)
        rep = gap_scan(kind, p, [lam], family, b_max=b_max)[0]
        theta = next(theta for theta, r in priced if r is rep)
        direct = sobolev_quotient(kind, p, lam, family.trial(theta), b_max=b_max)
        for field in ("energy", "l2_mass", "crit_norm", "quotient"):
            assert getattr(rep, field) == pytest.approx(getattr(direct, field), rel=1e-10)

    @pytest.mark.parametrize("kind, n, s, lambdas, family, b_max", [
        (kind, n, s, [lam], family, b_max) for kind, n, s, lam, family, b_max in SPLINE_SEARCHES
    ] + [
        # the spectral-bottom search of the acceptance suite
        (INT, 3, 1.0, [spectral_bottom(INT, Params(3, 1.0))], SplineFamily(knots=12, radius=3.0),
         DEFAULT_B_MAX),
        (INT, 5, 0.8, [-1.0, 0.0, 0.125, 0.25], SplineFamily(knots=12, radius=3.5),
         DEFAULT_B_MAX),
        # an active guard with a large |theta|^T |G| |theta|: the inner margin
        # the search keeps from the guard must cost less than 1e-9 in Q
        (INT, 3, 1.0, [spectral_bottom(INT, Params(3, 1.0))], SplineFamily(knots=16, radius=3.5),
         DEFAULT_B_MAX),
    ], ids=SPLINE_SEARCH_IDS + ["spectral-bottom", "intertwined-scan", "guard-margin"])
    def test_newton_search_not_worse_than_slsqp(self, monkeypatch, kind, n, s, lambdas,
                                                family, b_max):
        import gjmslab.quotients as quotients

        p = Params(n, s)
        newton = gap_scan(kind, p, lambdas, family, b_max=b_max)
        monkeypatch.setattr(quotients, "_minimize_linear", slsqp_spline_search)
        oracle = gap_scan(kind, p, lambdas, family, b_max=b_max)
        for new, old in zip(newton, oracle):
            assert new.quotient <= old.quotient * (1.0 + 1e-9)

    def test_kkt_at_benchmark_winner(self, monkeypatch):
        # first-order optimality of the returned knot values: the guard
        # holds and is active, and on the tangent space theta^T d = 0 (Q is
        # 0-homogeneous) the gradient of Q is a nonnegative multiple of the
        # guard's gradient; gradients by central differences of Q
        kind, n, s, lam, family, b_max = BENCHMARK_SPLINE_SCAN
        p = Params(n, s)
        priced = priced_spline_trials(monkeypatch)
        rep = gap_scan(kind, p, [lam], family, b_max=b_max)[0]
        theta = next(theta for theta, r in priced if r is rep)
        forms = family._forms(kind, p, b_max)
        guard = forms[-1]
        value = theta @ guard @ theta
        scale = np.abs(theta) @ np.abs(guard) @ np.abs(theta)
        assert 0.0 <= value <= 1e-8 * scale

        def q(x):
            return family._report(p, lam, forms, x).quotient

        h = 1e-6 * np.linalg.norm(theta)
        gradient = np.array([(q(theta + h * e) - q(theta - h * e)) / (2.0 * h)
                             for e in np.eye(theta.size)])
        tangent = np.eye(theta.size) - np.outer(theta, theta) / (theta @ theta)
        guard_gradient = (2.0 * guard @ theta) @ tangent
        mu = (guard_gradient @ (tangent @ gradient)) / (guard_gradient @ guard_gradient)
        assert mu >= 0.0
        residual = tangent @ gradient - mu * guard_gradient
        assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(gradient)

    @pytest.mark.parametrize("search, cap", [
        # 10 trials, five of them start candidates; SLSQP priced 46
        (BENCHMARK_SPLINE_SCAN, 20),
        # the CLI's default family: sinh^4 weights out to R = 8 spread the
        # Hessian's eigenvalues over 12 decades; 93 trials
        ((INT, 5, 0.8, 0.0, SplineFamily(), DEFAULT_B_MAX), 150),
    ], ids=["benchmark-scan", "default-family"])
    def test_search_cost(self, monkeypatch, search, cap):
        kind, n, s, lam, family, b_max = search
        priced = priced_spline_trials(monkeypatch)
        gap_scan(kind, Params(n, s), [lam], family, b_max=b_max)
        assert len(priced) <= cap

    def test_floor_at_nonpositive_lambda(self):
        p = Params(5, 0.8)
        s_est = sharp_constant_estimate(p)
        for lam in (-1.0, 0.0):
            rep = gap_scan(INT, p, [lam], BubbleFamily())[0]
            assert rep.quotient >= s_est * (1.0 - 2e-3)


class TestGapScan:
    def test_monotone_and_floor(self):
        p = Params(5, 0.8)
        lam0 = spectral_bottom(INT, p)
        s_est = sharp_constant_estimate(p)
        lambdas = [-1.0, 0.0, 0.1 * lam0, 0.5 * lam0]
        reports = gap_scan(INT, p, lambdas, BubbleFamily())
        quotients = [r.quotient for r in reports]
        assert all(a >= b - 1e-6 for a, b in zip(quotients, quotients[1:]))
        assert quotients[0] >= s_est * (1.0 - 2e-3)
        assert quotients[1] >= s_est * (1.0 - 2e-3)
        assert len(reports) == len(lambdas)

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            gap_scan(INT, Params(3, 1.0), [], BubbleFamily())

    @pytest.mark.parametrize("kind, family", [(INT, BubbleFamily()), (GJMS, BubbleFamily()),
                                              (GJMS, SplineFamily(knots=6, radius=3.0))],
                             ids=["intertwined-bubble", "gjms-bubble", "spline"])
    def test_nonpositive_b_max_is_bad_input(self, monkeypatch, kind, family):
        # rejected before any work, also by the intertwined bubble search,
        # which never reads b_max
        import gjmslab.quotients as quotients

        def no_work(*args, **kwargs):
            raise AssertionError("work before validation")

        for name in ("_Budget", "bubble_energy", "phi_matrix", "_spectral_forms"):
            monkeypatch.setattr(quotients, name, no_work)
        for b_max in (0.0, -5.0):
            with pytest.raises(ParameterError, match="b_max must be > 0"):
                gap_scan(kind, Params(5, 0.8), [0.0], family, b_max=b_max)

    def test_spline_family_from_s_7_2_is_bad_input(self, monkeypatch):
        # a C^2 cubic lies in H^s only for s < 7/2: rejected before any work
        monkeypatch.setattr(SplineFamily, "_forms", None)   # a build would raise TypeError
        for s in (3.5, 4.0):
            with pytest.raises(ParameterError, match="no trial of finite energy"):
                gap_scan(INT, Params(9, s), [0.0], SplineFamily(knots=6, radius=3.0))

    @pytest.mark.parametrize("family", [None, "spline", BubbleParams(0.1, 0.2)],
                             ids=["none", "name", "bubble-params"])
    def test_object_without_a_search_is_not_a_family(self, monkeypatch, family):
        # a trial family is whatever has gap_scan's entry point, _search;
        # anything else is refused before any work
        import gjmslab.quotients as quotients

        monkeypatch.setattr(quotients, "_Budget", None)   # a search would raise TypeError
        with pytest.raises(ParameterError, match="unknown trial family"):
            gap_scan(INT, Params(5, 0.8), [0.0], family)

    @pytest.mark.parametrize("family", [BubbleFamily(), SplineFamily(knots=6, radius=3.0)],
                             ids=["bubble", "spline"])
    def test_lambda_above_bottom_rejected(self, monkeypatch, family):
        # above the bottom the level is -infinity: no search runs
        import gjmslab.quotients as quotients

        monkeypatch.setattr(quotients, "_Budget", None)   # a search would raise TypeError
        for kind in (INT, GJMS):
            bottom = spectral_bottom(kind, Params(5, 0.8))
            with pytest.raises(ParameterError, match="above the spectral bottom"):
                gap_scan(kind, Params(5, 0.8), [0.0, bottom * (1.0 + 1e-9)], family)

    def test_bottom_up_to_roundoff_runs(self):
        # the computed intertwined bottom at s = 1 is 0.24999999999999994
        p = Params(3, 1.0)
        assert spectral_bottom(INT, p) < 0.25
        rep = gap_scan(INT, p, [0.25], SplineFamily(knots=6, radius=3.0))[0]
        assert rep.lam == 0.25 and math.isfinite(rep.quotient)

    def test_spline_level_does_not_rise_with_b_max(self):
        # a finer frequency grid resolves the same trials better; the level
        # it finds must not rise (it rose 8% when the r < 0.05 columns of
        # phi_matrix lost accuracy at large beta)
        p, family = Params(3, 0.6), SplineFamily(knots=12, radius=3.5)
        coarse = gap_scan(INT, p, [0.0], family, b_max=60.0)[0].quotient
        fine = gap_scan(INT, p, [0.0], family, b_max=120.0)[0].quotient
        assert fine <= coarse * (1.0 + 1e-3)

    def test_scan_prices_each_bubble_once(self, monkeypatch):
        # energy and masses do not depend on lambda: the scan reads trials
        # priced at an earlier lambda back instead of recomputing them, and
        # returns the reports of independent per-lambda searches bit for bit
        import gjmslab.quotients as quotients

        calls = []

        def counted(*args, _fn=quotients.bubble_quotient, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(quotients, "bubble_quotient", counted)
        p = Params(5, 0.8)
        lambdas = [0.0, 0.25]
        independent = []
        for lam in lambdas:
            rep = gap_scan(INT, p, [lam], BubbleFamily())[0]
            for earlier in independent:
                if earlier.at_lambda(lam).quotient < rep.quotient:
                    rep = earlier.at_lambda(lam)
            independent.append(rep)
        assert len(calls) == 64
        calls.clear()
        assert gap_scan(INT, p, lambdas, BubbleFamily()) == independent
        assert len(calls) == 58

    @pytest.mark.parametrize("n, s, lambdas", [(5, 0.8, (-1.0, 0.0, 0.25)),
                                               (3, 1.0, "bottom")])
    def test_no_box_grid_point_beats_the_search(self, n, s, lambdas):
        p = Params(n, s)
        if lambdas == "bottom":
            lambdas = (spectral_bottom(INT, p),)
        grid = [bubble_quotient(INT, p, 0.0, BubbleParams(eps, delta))
                for eps in np.geomspace(*BUBBLE_EPS, 5)
                for delta in np.linspace(*BUBBLE_DELTA, 5)]
        for lam, rep in zip(lambdas, gap_scan(INT, p, lambdas, BubbleFamily())):
            best = min(trial.at_lambda(lam).quotient for trial in grid)
            assert rep.quotient <= (1.0 + 1e-6) * best

    def test_gjms_at_integer_s_is_the_intertwined_scan(self, phi_passes):
        # at integer s the remainder symbol is exactly 0: the GJMS bubble
        # scan lifts and transforms no trial, and both families return the
        # intertwined scan's reports bit for bit
        p, lambdas = Params(3, 1.0), [0.0, 0.2]
        intertwined = gap_scan(INT, p, lambdas, BubbleFamily())
        assert gap_scan(GJMS, p, lambdas, BubbleFamily()) == intertwined
        assert phi_passes == []
        family = SplineFamily(knots=6, radius=3.0)
        assert gap_scan(GJMS, p, lambdas, family) == gap_scan(INT, p, lambdas, family)

    def test_gjms_bubble_scan_holds_one_short_matrix(self, phi_passes):
        # the scan builds the one Phi of every trial's remainder form, the
        # 128 frequencies of the short remainder grid by the lifted-bubble
        # grid, in one pass; a second scan builds its own and returns the
        # same reports
        import gjmslab.quotients as quotients

        p, lambdas = Params(5, 0.8), [0.0, 0.25]
        columns = standard_hyperbolic_grid(quotients.LIFTED_BUBBLE_RADIUS).nodes.size
        first = gap_scan(GJMS, p, lambdas, BubbleFamily())
        assert phi_passes == [(5, 128, columns)]
        assert gap_scan(GJMS, p, lambdas, BubbleFamily()) == first
        assert phi_passes == [(5, 128, columns)] * 2

    def test_one_phi_across_many_deltas(self, phi_passes, monkeypatch):
        # the lambda < 0 searches price each ratio at its smallest delta, so
        # the trials' supports differ; their remainder forms share one
        # domain, so one Phi pass serves the whole scan
        import gjmslab.quotients as quotients

        deltas = set()

        def recorded(kind, p, lam, bp, *args, _fn=quotients.bubble_quotient, **kwargs):
            deltas.add(bp.delta)
            return _fn(kind, p, lam, bp, *args, **kwargs)

        monkeypatch.setattr(quotients, "bubble_quotient", recorded)
        gap_scan(GJMS, Params(5, 0.8), np.linspace(-1.0, 0.25, 6), BubbleFamily())
        assert len(deltas) > 20
        columns = standard_hyperbolic_grid(quotients.LIFTED_BUBBLE_RADIUS).nodes.size
        assert phi_passes == [(5, 128, columns)]

    def test_lone_bubble_quotient_matches_the_search(self, monkeypatch):
        # a trial priced on its own streams its remainder Phi; inside the
        # search it reads the scan's matrix, and the reports are byte-equal
        import gjmslab.quotients as quotients

        original, priced = quotients.bubble_quotient, []

        def recorded(*args, **kwargs):
            priced.append((args, original(*args, **kwargs)))
            return priced[-1][1]

        monkeypatch.setattr(quotients, "bubble_quotient", recorded)
        gap_scan(GJMS, Params(5, 0.8), [-0.5, 0.25], BubbleFamily())
        assert len(priced) > 40
        for args, inside in priced[::8]:
            assert repr(original(*args)) == repr(inside)

    def test_spline_scan_builds_the_forms_once(self, monkeypatch):
        # one build of the family's matrices serves every lambda; a search
        # that rebuilds them at each lambda returns the same reports
        import gjmslab.quotients as quotients

        p, family, lambdas = Params(5, 0.8), SplineFamily(knots=12, radius=3.5), [-1.0, 0.0, 0.25]
        built = []

        def counted(*args, _fn=SplineFamily._forms):
            built.append(1)
            return _fn(*args)

        def rebuilding(p, lam, family, budget, forms, _fn=quotients._minimize_linear):
            return _fn(p, lam, family, budget, family._forms(INT, p, DEFAULT_B_MAX))

        monkeypatch.setattr(SplineFamily, "_forms", counted)
        shared = gap_scan(INT, p, lambdas, family)
        assert len(built) == 1
        monkeypatch.setattr(quotients, "_minimize_linear", rebuilding)
        assert gap_scan(INT, p, lambdas, family) == shared
        assert len(built) == 1 + 1 + len(lambdas)

    def test_scan_memo_hits_count_against_the_cap(self):
        from gjmslab.quotients import _Budget, _minimize_bubble

        p = Params(5, 0.8)
        memo = {}
        first = _Budget(7)
        with pytest.raises(BudgetExceeded):
            _minimize_bubble(INT, p, 0.0, first, memo, None)
        assert len(memo) == 7
        # the second search reads trials of the first back from the memo;
        # each read-back still counts against its cap
        second = _Budget(7)
        with pytest.raises(BudgetExceeded):
            _minimize_bubble(INT, p, 0.25, second, memo, None)
        assert second.used == 7
        assert len(memo) < 14


class TestLevelFloor:
    def test_closed_form(self):
        p = Params(5, 0.8)
        s_est = sharp_constant_estimate(p)
        for kind in (INT, GJMS):
            bottom = spectral_bottom(kind, p)
            assert level_floor(kind, p, -1.0) == s_est
            assert level_floor(kind, p, 0.0) == s_est
            assert level_floor(kind, p, 0.5 * bottom) == pytest.approx(0.5 * s_est, rel=1e-14)
            assert level_floor(kind, p, bottom) == pytest.approx(0.0, abs=1e-14)
        # the 24-knot grading-5 spline row at lambda 0.25 (4.8906) clears it
        assert level_floor(GJMS, p, 0.25) == pytest.approx(3.42, abs=5e-3)

    def test_no_floor_where_the_remainder_is_negative(self):
        # B_s < 0 when sin(pi s) < 0, so the conformal reduction bounds only
        # the intertwined operator there
        for s in (1.3, 1.5, 1.7):
            p = Params(5, s)
            assert level_floor(GJMS, p, 0.0) is None
            assert level_floor(INT, p, 0.0) == sharp_constant_estimate(p)
        assert level_floor(GJMS, Params(7, 2.5), 0.0) == sharp_constant_estimate(Params(7, 2.5))

    def test_scan_beyond_n_10_has_a_floor(self):
        # the closed forms behind sharp_constant_estimate hold at every n, so
        # every (n, s) has a floor; the n = 11 bubble row lies 1.3e-10 above it
        p = Params(11, 0.8)
        floor = level_floor(INT, p, 0.0)
        assert floor == sharp_constant_estimate(p)
        assert gap_scan(INT, p, [0.0], BubbleFamily())[0].quotient == pytest.approx(
            floor, rel=1e-8)

    @pytest.mark.parametrize("factor, fails", [(1.005, False), (1.02, True)])
    def test_scan_row_below_its_floor_raises(self, monkeypatch, factor, fails):
        # the lambda = 0 bubble row lies 2.3e-4 above S; against a floor
        # raised by factor it is 0.5% or 2% below: only a row more than
        # FLOOR_REL_TOL below its floor is a numerical-contract failure
        import gjmslab.quotients as quotients

        p = Params(5, 0.8)
        s_est = sharp_constant_estimate(p)
        monkeypatch.setattr(quotients, "sharp_constant_estimate", lambda p: factor * s_est)
        if fails:
            with pytest.raises(NumericalError, match=r"lambda 0\.0 found the quotient 8\.86"):
                gap_scan(INT, p, [0.0], BubbleFamily())
        else:
            assert gap_scan(INT, p, [0.0], BubbleFamily())[0].quotient > s_est

    def test_recorded_spline_trial_below_the_floor_raises(self, monkeypatch):
        # the winner of the 12-knot, grading-6 GJMS (5, 0.8) spline search at
        # lambda = 0 and b_max 60, to 6 digits: it passes the tail guard, yet
        # its quotient (4.8e-6) lies far below the floor (8.86), because its
        # energy lies beyond b_max. Priced here, not searched for, so the
        # check does not rest on where a search lands
        import gjmslab.quotients as quotients

        p, family = Params(5, 0.8), SplineFamily(knots=12, radius=3.5, grading=6)
        theta = np.array([2845.25, 836.963, -35.1199, 0.751592, -0.0103337, -0.00142615,
                          0.000220099, 0.000125982, -4.89077e-05, 1.68605e-05, -4.88351e-07])
        forms = family._forms(GJMS, p, DEFAULT_B_MAX)
        assert theta @ forms[4] @ theta >= 0.0
        floor = level_floor(GJMS, p, 0.0)
        assert family._report(p, 0.0, forms, theta).quotient < floor * (1.0 - FLOOR_REL_TOL)

        def recorded(p, lam, family, budget, forms):
            budget.price(family._report, p, lam, forms, theta)
            return True

        monkeypatch.setattr(quotients, "_minimize_linear", recorded)
        with pytest.raises(NumericalError, match="closed-form floor"):
            gap_scan(GJMS, p, [0.0], family)


class TestBlowdown:
    def test_side_condition_bound(self):
        # with R0 chosen so 2C e^{-alpha R0} <= q/4, the N = 1 bound is <= -q/2
        p = Params(3, 1.0)
        q, C, alpha = 2.0, 5.0, 0.8
        r0 = math.log(8.0 * C / q) / alpha
        rows = multibump_blowdown(p, q, C, alpha, r0, [1], 1.0)
        assert rows[0]["bound"] <= -q / 2.0

    def test_scaled_rate(self):
        for n, s in ((3, 1.0), (5, 0.8)):
            p = Params(n, s)
            q, C, alpha = 1.0, 1.0, 0.8 * p.rho
            r0 = math.log(8.0 * C / q) / alpha + 1.0
            rows = multibump_blowdown(p, q, C, alpha, r0, [4, 16, 64, 256], 1.0)
            ns = np.array([row["N"] for row in rows], dtype=float)
            scaled = np.array([-row["scaled_bound"] for row in rows])
            assert np.all(scaled > 0.0)
            slope = float(np.polyfit(np.log(ns), np.log(scaled), 1)[0])
            target = 2.0 * s / n
            assert abs(slope - target) <= 0.1 * target

    def test_q_linearity(self):
        p = Params(3, 1.0)
        rows1 = multibump_blowdown(p, 1.0, 2.0, 0.8, 10.0, [2, 8], 1.0)
        rows2 = multibump_blowdown(p, 2.0, 2.0, 0.8, 10.0, [2, 8], 1.0)
        for r1, r2 in zip(rows1, rows2):
            assert r2["bound"] - r1["bound"] == pytest.approx(-r1["N"] * 1.0, rel=1e-12)

    def test_parameter_errors(self):
        p = Params(3, 1.0)
        with pytest.raises(ParameterError):
            multibump_blowdown(p, -1.0, 1.0, 0.8, 5.0, [4], 1.0)
        with pytest.raises(ParameterError):
            multibump_blowdown(p, 1.0, 1.0, 0.8, 5.0, [0], 1.0)
        with pytest.raises(ParameterError):
            multibump_blowdown(p, 1.0, 1.0, 0.8, 5.0, [2.5], 1.0)


class TestSharpConstant:
    def test_three_one_closed_form(self):
        # S_{3,1} = 3 (pi/2)^{4/3}
        assert sharp_constant_estimate(Params(3, 1.0)) == pytest.approx(
            3.0 * (math.pi / 2.0) ** (4.0 / 3.0), rel=1e-12)

    def test_range_validation(self):
        # no bound beyond Params' own: at n = 11 and 12 the estimate is the
        # transform oracle's energy of U over the quadrature critical mass
        for n, s in ((11, 0.8), (12, 2.5)):
            p = Params(n, s)
            oracle = (transform_bubble_energy(p)
                      / quadrature_mass_limit(n) ** (2.0 / p.two_star))
            assert sharp_constant_estimate(p) == pytest.approx(oracle, rel=1e-12)
        with pytest.raises(ParameterError):
            sharp_constant_estimate(Params(1, 0.25))
        # the closed-form mass needs Gamma(n), a double up to n = 171
        assert sharp_constant_estimate(Params(171, 1.0)) == pytest.approx(724.54, abs=5e-3)
        with pytest.raises(ParameterError, match="n = 172 .* up to n = 171"):
            sharp_constant_estimate(Params(172, 1.0))
        # 2^{2s} Gamma((n+2s)/2) of the closed-form energy overflows at large s
        with pytest.raises(ParameterError, match="n = 171, s = 80.0 .* overflows a double"):
            sharp_constant_estimate(Params(171, 80.0))


class TestSobolevInequalityProperty:
    def test_floor_on_varied_bumps(self):
        # S_est (crit norm) <= energy (1 + 1e-3) for every test bump
        p = Params(4, 0.75)
        s_est = sharp_constant_estimate(p)
        for width in (0.4, 0.8, 1.5, 2.5):
            u = hyperbolic_bump(width, 3.0)
            rep = sobolev_quotient(INT, p, 0.0, u)
            assert s_est * rep.crit_norm <= rep.energy * (1.0 + 1e-3)
