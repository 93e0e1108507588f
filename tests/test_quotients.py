import math

import numpy as np
import pytest

from conftest import hyperbolic_bump
from oracles import slsqp_spline_search, windowed_bubble_energy
from gjmslab.bubbles import BubbleParams, bubble_energy_limit, smooth_window
from gjmslab.errors import BudgetExceeded, ParameterError, ZeroTrial
from gjmslab.grids import RadialFunction, Space
from gjmslab.multipliers import b_constant, spectral_bottom
from gjmslab.params import MultiplierKind, Params
from gjmslab.quotients import (
    BubbleFamily,
    SplineFamily,
    _windowed_spline,
    bubble_quotient,
    gap_scan,
    multibump_blowdown,
    sharp_constant_estimate,
    sobolev_quotient,
    spline_knots,
    spline_trial,
)
from gjmslab.spherical import DEFAULT_B_MAX, quadratic_form

GJMS = MultiplierKind.GJMS
INT = MultiplierKind.INTERTWINED

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
    """(theta, report) of every _spline_report the search prices, in order."""
    import gjmslab.quotients as quotients

    priced = []

    def recorded(*args, _fn=quotients._spline_report):
        rep = _fn(*args)
        priced.append((np.array(args[-1]), rep))
        return rep

    monkeypatch.setattr(quotients, "_spline_report", recorded)
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
        zero = RadialFunction(u.grid, np.zeros_like(u.values), 3.0, Space.HYPERBOLIC)
        with pytest.raises(ZeroTrial):
            sobolev_quotient(INT, p, 0.0, zero)

    def test_amplitude_invariance(self):
        p = Params(4, 0.75)
        u = hyperbolic_bump(0.6, 3.0)
        scaled = RadialFunction(u.grid, 7.0 * u.values, u.support_radius, Space.HYPERBOLIC)
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
        # assembled GJMS energy against the direct Gamma-ratio symbol route
        p = Params(5, 0.8)
        u = hyperbolic_bump(0.8, 3.0)
        rep = sobolev_quotient(GJMS, p, 0.0, u)
        direct = quadratic_form(GJMS, p, u)
        assert rep.energy == pytest.approx(direct, rel=1e-8)

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


class TestSplineTrial:
    def test_knot_count_validation(self):
        fam = SplineFamily(knots=8, radius=3.0)
        with pytest.raises(ParameterError):
            spline_trial(fam, np.ones(8), Params(3, 1.0))

    def test_grading_validation(self):
        for grading in (-1.0, float("nan")):
            with pytest.raises(ParameterError):
                SplineFamily(grading=grading)

    def test_zero_knots_give_zero_trial(self):
        fam = SplineFamily(knots=8, radius=3.0)
        u = spline_trial(fam, np.zeros(7), Params(3, 1.0))
        assert u.is_zero()

    def test_support_truncates_at_trailing_zeros(self):
        fam = SplineFamily(knots=8, radius=3.0, grading=0.0)
        theta = np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        u = spline_trial(fam, theta, Params(3, 1.0))
        knots = spline_knots(fam)
        assert u.support_radius == pytest.approx(knots[2])


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


class TestMinimize:
    def test_determinism(self):
        p = Params(5, 0.8)
        for kind, fam in ((INT, BubbleFamily(eps_lo=0.05, eps_hi=0.2, delta_lo=0.1,
                                             delta_hi=0.24)),
                          (GJMS, SplineFamily(knots=8, radius=3.0))):
            r1 = gap_scan(kind, p, [0.05], fam, eval_cap=200)[0]
            r2 = gap_scan(kind, p, [0.05], fam, eval_cap=200)[0]
            assert r1 == r2

    def test_budget_exceeded(self):
        p = Params(5, 0.8)
        with pytest.raises(BudgetExceeded):
            gap_scan(INT, p, [0.05], BubbleFamily(), eval_cap=5)

    def test_cap_prices_exactly_cap_trials(self, monkeypatch):
        import gjmslab.quotients as quotients

        calls = []
        for name in ("bubble_quotient", "_spline_report"):
            def counted(*args, _fn=getattr(quotients, name), **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(quotients, name, counted)
        p = Params(5, 0.8)
        for family in (BubbleFamily(), SplineFamily(knots=6, radius=3.0)):
            calls.clear()
            with pytest.raises(BudgetExceeded, match="used 7 of 7"):
                gap_scan(INT, p, [0.05], family, eval_cap=7)
            assert len(calls) == 7

    @pytest.mark.parametrize("kind, n, s, lam, family, b_max", SPLINE_SEARCHES,
                             ids=SPLINE_SEARCH_IDS)
    def test_spline_search_matches_sobolev_quotient(self, monkeypatch, kind, n, s, lam,
                                                    family, b_max):
        # the search prices knot values through the family's matrices; the
        # trial it returns, rebuilt by spline_trial and priced through one
        # spherical transform, gives the same report and passes the tail
        # guard (sobolev_quotient raises TailError otherwise)
        priced = priced_spline_trials(monkeypatch)
        p = Params(n, s)
        rep = gap_scan(kind, p, [lam], family, b_max=b_max)[0]
        theta = next(theta for theta, r in priced if r is rep)
        direct = sobolev_quotient(kind, p, lam, spline_trial(family, theta, p), b_max=b_max)
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
        monkeypatch.setattr(quotients, "_minimize_spline", slsqp_spline_search)
        oracle = gap_scan(kind, p, lambdas, family, b_max=b_max)
        for new, old in zip(newton, oracle):
            assert new.quotient <= old.quotient * (1.0 + 1e-9)

    def test_kkt_at_benchmark_winner(self, monkeypatch):
        # first-order optimality of the returned knot values: the guards
        # hold, and on the tangent space theta^T d = 0 (Q is 0-homogeneous)
        # the gradient of Q is a nonnegative combination of the gradients of
        # the active guards; gradients by central differences of Q
        from gjmslab.quotients import _spline_forms, _spline_report

        kind, n, s, lam, family, b_max = BENCHMARK_SPLINE_SCAN
        p = Params(n, s)
        priced = priced_spline_trials(monkeypatch)
        rep = gap_scan(kind, p, [lam], family, b_max=b_max)[0]
        theta = next(theta for theta, r in priced if r is rep)
        forms = _spline_forms(kind, p, family, b_max)
        guards = forms[-1]
        values = np.einsum("i,kij,j->k", theta, guards, theta)
        scales = np.einsum("i,kij,j->k", np.abs(theta), np.abs(guards), np.abs(theta))
        assert np.all(values >= 0.0)
        active = values <= 1e-8 * scales
        assert np.any(active)

        def q(x):
            return _spline_report(family, p, lam, forms, x).quotient

        h = 1e-6 * np.linalg.norm(theta)
        gradient = np.array([(q(theta + h * e) - q(theta - h * e)) / (2.0 * h)
                             for e in np.eye(theta.size)])
        tangent = np.eye(theta.size) - np.outer(theta, theta) / (theta @ theta)
        guard_gradients = (2.0 * guards[active] @ theta) @ tangent
        mu = np.linalg.lstsq(guard_gradients.T, tangent @ gradient, rcond=None)[0]
        assert np.all(mu >= 0.0)
        residual = tangent @ gradient - guard_gradients.T @ mu
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
            rep = gap_scan(INT, p, [lam], BubbleFamily(), eval_cap=300)[0]
            assert rep.quotient >= s_est * (1.0 - 2e-3)


class TestGapScan:
    def test_monotone_and_floor(self):
        p = Params(5, 0.8)
        lam0 = spectral_bottom(INT, p)
        s_est = sharp_constant_estimate(p)
        lambdas = [-1.0, 0.0, 0.1 * lam0, 0.5 * lam0]
        reports = gap_scan(INT, p, lambdas, BubbleFamily(), eval_cap=150)
        quotients = [r.quotient for r in reports]
        assert all(a >= b - 1e-6 for a, b in zip(quotients, quotients[1:]))
        assert quotients[0] >= s_est * (1.0 - 2e-3)
        assert quotients[1] >= s_est * (1.0 - 2e-3)
        assert len(reports) == len(lambdas)

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            gap_scan(INT, Params(3, 1.0), [], BubbleFamily())

    @pytest.mark.parametrize("family", [BubbleFamily(), SplineFamily(knots=6, radius=3.0)],
                             ids=["bubble", "spline"])
    def test_cap_below_one_is_bad_input(self, monkeypatch, family):
        # a cap that admits no trial is bad input, not a numerical-contract failure
        import gjmslab.quotients as quotients

        monkeypatch.setattr(quotients, "_Budget", None)   # a search would raise TypeError
        for cap in (0, -3):
            with pytest.raises(ParameterError, match="eval_cap must be >= 1"):
                gap_scan(INT, Params(5, 0.8), [0.05], family, eval_cap=cap)

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
        # the computed intertwined bottom at s = 1 is 0.2499999999999997
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
        family = BubbleFamily()
        grid = [bubble_quotient(INT, p, 0.0, BubbleParams(eps, delta))
                for eps in np.geomspace(family.eps_lo, family.eps_hi, 5)
                for delta in np.linspace(family.delta_lo, family.delta_hi, 5)]
        for lam, rep in zip(lambdas, gap_scan(INT, p, lambdas, family)):
            best = min(trial.at_lambda(lam).quotient for trial in grid)
            assert rep.quotient <= (1.0 + 1e-6) * best

    def test_gjms_at_integer_s_is_the_intertwined_scan(self, monkeypatch):
        # at integer s the remainder symbol is exactly 0: the GJMS bubble
        # scan lifts and transforms no trial, and both families return the
        # intertwined scan's reports bit for bit
        import gjmslab.spherical as spherical

        p, lambdas = Params(3, 1.0), [0.0, 0.2]
        intertwined = gap_scan(INT, p, lambdas, BubbleFamily())
        calls = []

        def counted(*args, _fn=spherical.phi_matrix):
            calls.append(1)
            return _fn(*args)

        monkeypatch.setattr(spherical, "phi_matrix", counted)
        assert gap_scan(GJMS, p, lambdas, BubbleFamily()) == intertwined
        assert calls == []
        family = SplineFamily(knots=6, radius=3.0)
        assert gap_scan(GJMS, p, lambdas, family) == gap_scan(INT, p, lambdas, family)

    def test_spline_scan_builds_the_forms_once(self, monkeypatch):
        # one build of the family's matrices serves every lambda; a search
        # that rebuilds them at each lambda returns the same reports
        import gjmslab.quotients as quotients

        p, family, lambdas = Params(5, 0.8), SplineFamily(knots=12, radius=3.5), [-1.0, 0.0, 0.25]
        built = []

        def counted(*args, _fn=quotients._spline_forms):
            built.append(1)
            return _fn(*args)

        def rebuilding(p, lam, family, budget, forms, _fn=quotients._minimize_spline):
            return _fn(p, lam, family, budget, quotients._spline_forms(INT, p, family,
                                                                      DEFAULT_B_MAX))

        monkeypatch.setattr(quotients, "_spline_forms", counted)
        shared = gap_scan(INT, p, lambdas, family)
        assert len(built) == 1
        monkeypatch.setattr(quotients, "_minimize_spline", rebuilding)
        assert gap_scan(INT, p, lambdas, family) == shared
        assert len(built) == 1 + 1 + len(lambdas)

    def test_scan_memo_hits_count_against_the_cap(self):
        from gjmslab.quotients import _Budget, _minimize_bubble

        p = Params(5, 0.8)
        memo = {}
        first = _Budget(7)
        with pytest.raises(BudgetExceeded):
            _minimize_bubble(INT, p, 0.0, BubbleFamily(), first, DEFAULT_B_MAX, memo)
        assert len(memo) == 7
        # the second search reads trials of the first back from the memo;
        # each read-back still counts against its cap
        second = _Budget(7)
        with pytest.raises(BudgetExceeded):
            _minimize_bubble(INT, p, 0.25, BubbleFamily(), second, DEFAULT_B_MAX, memo)
        assert second.used == 7
        assert len(memo) < 14


class TestBlowdown:
    def test_side_condition_bound(self):
        # with R0 chosen so 2C e^{-alpha R0} <= q/4, the N = 1 bound is <= -q/2
        p = Params(3, 1.0)
        q, C, alpha = 2.0, 5.0, 0.8
        r0 = math.log(8.0 * C / q) / alpha
        rows = multibump_blowdown(p, q, C, alpha, r0, [1])
        assert rows[0]["bound"] <= -q / 2.0

    def test_scaled_rate(self):
        for n, s in ((3, 1.0), (5, 0.8)):
            p = Params(n, s)
            q, C, alpha = 1.0, 1.0, 0.8 * p.rho
            r0 = math.log(8.0 * C / q) / alpha + 1.0
            rows = multibump_blowdown(p, q, C, alpha, r0, [4, 16, 64, 256])
            ns = np.array([row["N"] for row in rows], dtype=float)
            scaled = np.array([-row["scaled_bound"] for row in rows])
            assert np.all(scaled > 0.0)
            slope = float(np.polyfit(np.log(ns), np.log(scaled), 1)[0])
            target = 2.0 * s / n
            assert abs(slope - target) <= 0.1 * target

    def test_q_linearity(self):
        p = Params(3, 1.0)
        rows1 = multibump_blowdown(p, 1.0, 2.0, 0.8, 10.0, [2, 8])
        rows2 = multibump_blowdown(p, 2.0, 2.0, 0.8, 10.0, [2, 8])
        for r1, r2 in zip(rows1, rows2):
            assert r2["bound"] - r1["bound"] == pytest.approx(-r1["N"] * 1.0, rel=1e-12)

    def test_parameter_errors(self):
        p = Params(3, 1.0)
        with pytest.raises(ParameterError):
            multibump_blowdown(p, -1.0, 1.0, 0.8, 5.0, [4])
        with pytest.raises(ParameterError):
            multibump_blowdown(p, 1.0, 1.0, 0.8, 5.0, [0])
        with pytest.raises(ParameterError):
            multibump_blowdown(p, 1.0, 1.0, 0.8, 5.0, [2.5])


class TestSharpConstant:
    def test_three_one_closed_form(self):
        # S_{3,1} = 3 (pi/2)^{4/3}
        assert sharp_constant_estimate(Params(3, 1.0)) == pytest.approx(
            3.0 * (math.pi / 2.0) ** (4.0 / 3.0), rel=1e-12)

    def test_window_stability(self):
        # the two window radii of the Hankel oracle bracket a (n-2s)-power
        # tail model of the energy the estimate is built on
        p = Params(3, 0.75)
        raw = windowed_bubble_energy(p)["tail_bound"]
        assert raw <= 2e-3 * bubble_energy_limit(p)

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            sharp_constant_estimate(Params(12, 1.0))


class TestSobolevInequalityProperty:
    def test_floor_on_varied_bumps(self):
        # S_est (crit norm) <= energy (1 + 1e-3) for every test bump
        p = Params(4, 0.75)
        s_est = sharp_constant_estimate(p)
        for width in (0.4, 0.8, 1.5, 2.5):
            u = hyperbolic_bump(width, 3.0)
            rep = sobolev_quotient(INT, p, 0.0, u)
            assert s_est * rep.crit_norm <= rep.energy * (1.0 + 1e-3)
