"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured figure so `pytest -s tests/test_acceptance.py` doubles as a
verification report."""

import math

import mpmath as mp
import numpy as np

from conftest import windowed_gaussian
from oracles import inverse_spherical_transform, spherical_transform, transform_bubble_energy
from gjmslab.bubbles import (
    BubbleParams,
    bubble_asymptotics,
    bubble_mass_limit,
    bubble_masses,
    fit_leading_exponent,
    fit_loglog_slope,
)
from gjmslab.cli import main as cli_main
from gjmslab.grids import RadialFunction, uniform_grid
from gjmslab.multipliers import (
    b_constant,
    gap_constant,
    multiplier,
    spectral_bottom,
)
from gjmslab.params import MultiplierKind, Params
from gjmslab.quotients import (
    BubbleFamily,
    SplineFamily,
    _wide_negative_trial,
    blowdown,
    bubble_quotient,
    gap_scan,
    sharp_constant_estimate,
    sobolev_quotient,
)
from gjmslab.spherical import (
    default_beta_grid,
    kernel_decay,
    lp_mass,
    operator_kernel,
    plancherel_density,
    spherical_function,
)

GJMS = MultiplierKind.GJMS
INT = MultiplierKind.INTERTWINED
REM = MultiplierKind.REMAINDER


def report(index, text):
    print(f"ACCEPTANCE {index:02d}: PASS - {text}")


def test_01_decomposition_identity():
    grid = np.linspace(0.0, 50.0, 500)
    worst = 0.0
    for n, s in ((3, 0.5), (4, 0.75), (5, 1.5), (5, 2.3)):
        p = Params(n, s)
        m = multiplier(GJMS, p, grid)
        residual = m - multiplier(INT, p, grid) - multiplier(REM, p, grid)
        err = float(np.max(np.abs(residual) / (1.0 + m)))
        worst = max(worst, err)
        assert err <= 1e-10, (n, s, err)
    report(1, f"decomposition identity, max normalized error {worst:.2e} <= 1e-10")


def test_02_integer_collapse():
    grid = np.linspace(0.0, 50.0, 501)
    worst = 0.0
    for k in (1, 2, 3):
        product = np.prod([grid * grid + (j - 0.5) ** 2 for j in range(1, k + 1)], axis=0)
        gamma_route = multiplier(INT, Params(9, float(k)), grid)
        err = float(np.max(np.abs(product - gamma_route) / product))
        worst = max(worst, err)
        assert err <= 1e-12, (k, err)
    report(2, f"integer product vs Gamma route, max rel error {worst:.2e} <= 1e-12")


def test_03_closed_form_constants(rng):
    assert abs(spectral_bottom(INT, Params(3, 1.0)) - 0.25) <= 1e-12
    count = 0
    worst = 0.0
    while count < 100:
        s = float(rng.uniform(0.02, 4.0))
        gap = gap_constant(s)
        assembled = spectral_bottom(GJMS, Params(9, s)) - b_constant(s)
        worst = max(worst, abs(gap - assembled))
        assert abs(gap - assembled) <= 1e-12
        count += 1
    report(3, f"lambda0_tilde(1) = 1/4 and gap identity on 100 draws, worst {worst:.2e}")


def test_04_plancherel_roundtrip():
    worst_norm, worst_rt = 0.0, 0.0
    grid = uniform_grid(3.0)
    bg = default_beta_grid(3.0, 60.0)
    for n in (3, 4, 5):
        for width in (0.5, 1.0):
            f = RadialFunction.from_profile(windowed_gaussian(width, 3.0), grid, 3.0)
            F = spherical_transform(f, n, bg)
            spectral = float(np.dot(bg.weights, F.values ** 2
                                    * plancherel_density(n, bg.nodes)))
            norm_err = abs(spectral - lp_mass(f, n, 2.0)) / lp_mass(f, n, 2.0)
            # the mollifier window carries ~1e-4 of genuine spectral tail
            back = inverse_spherical_transform(F, n, grid, tail_tol=1e-3)
            w = grid.weights * np.sinh(grid.nodes) ** (n - 1)
            rt_err = math.sqrt(float(np.dot(w, (back.values - f.values) ** 2))
                               / float(np.dot(w, f.values ** 2)))
            worst_norm = max(worst_norm, norm_err)
            worst_rt = max(worst_rt, rt_err)
            assert norm_err <= 1e-4, (n, width, norm_err)
            assert rt_err <= 1e-3, (n, width, rt_err)
    report(4, f"Plancherel rel err {worst_norm:.2e} <= 1e-4, "
              f"round-trip L2 err {worst_rt:.2e} <= 1e-3 (n = 3,4,5)")


def test_05_eigen_ode_residual():
    h = 1e-3
    r_grid = np.arange(0.1, 5.0 + h / 2, h)
    worst = 0.0
    for n in (3, 4, 5):
        rho2 = ((n - 1) / 2.0) ** 2
        for beta in (0.5, 1.0, 3.0):
            phi = np.array([spherical_function(n, beta, float(r)) for r in r_grid])
            lap = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h ** 2
            grad = (phi[2:] - phi[:-2]) / (2 * h)
            resid = np.max(np.abs(
                lap + (n - 1) / np.tanh(r_grid[1:-1]) * grad
                + (beta ** 2 + rho2) * phi[1:-1]))
            worst = max(worst, resid / (1.0 + beta ** 2))
            assert resid <= 1e-4 * (1.0 + beta ** 2), (n, beta, resid)
    closed_err = 0.0
    for beta in (0.5, 1.0, 3.0):
        r = np.linspace(0.1, 5.0, 200)
        ours = np.array([spherical_function(3, beta, float(x)) for x in r])
        closed = np.sin(beta * r) / (beta * np.sinh(r))
        closed_err = max(closed_err, float(np.max(np.abs(ours - closed))))
    assert closed_err <= 1e-8
    report(5, f"eigen-equation residual {worst:.2e} <= 1e-4 (x (1+b^2)); "
              f"n=3 closed form {closed_err:.2e} <= 1e-8")


def test_06_cutoff_critical_mass():
    mp.mp.dps = 30
    oracle = float(4 * mp.pi * mp.quad(lambda r: r ** 2 / (1 + r ** 2) ** 3, [0, mp.inf]))
    m_inf = bubble_mass_limit(3)
    assert abs(m_inf - oracle) <= 1e-6 * oracle
    p = Params(3, 1.0)
    ladder = [0.1, 0.05, 0.025, 0.0125]
    diffs = [m_inf - bubble_masses(p, BubbleParams(e, 0.24))[0] for e in ladder]
    slope = fit_loglog_slope(ladder, diffs)
    assert abs(slope - 3.0) <= 0.3
    report(6, f"critical-mass limit within {abs(m_inf - oracle) / oracle:.2e} of the "
              f"quadrature oracle; cut-off deficit slope {slope:.3f} = 3 +- 0.3")


def test_07_l2_three_regimes():
    def l2(n, s, eps):
        p = Params(n, s)
        return bubble_masses(p, BubbleParams(eps, 0.2))[1]

    ladder = [0.025, 0.0125, 0.00625, 0.003125]
    m51 = [l2(5, 1.0, e) for e in ladder]
    s51 = fit_leading_exponent(ladder, m51, 3.0)[0]
    assert abs(s51 - 2.0) <= 0.1

    lad4 = [0.0125, 0.00625, 0.003125]
    ratios = [l2(4, 1.0, e) / (e ** 2 * abs(math.log(e))) for e in lad4]
    drift = abs(ratios[-1] / ratios[-2] - 1.0)
    assert all(r > 0 for r in ratios) and drift <= 0.10

    lad3 = [0.00625, 0.003125, 0.0015625, 0.00078125]
    m31 = [l2(3, 1.0, e) for e in lad3]
    s31 = fit_leading_exponent(lad3, m31, 2.0)[0]
    assert abs(s31 - 1.0) <= 0.05
    report(7, f"L2 regimes: (5,1) leading exponent {s51:.4f} = 2 +- 0.1; (4,1) log-ratio "
              f"drift {drift:.3f} <= 0.10; (3,1) leading exponent {s31:.4f} = 1 +- 0.05")


def test_08_energy_expansion():
    base = transform_bubble_energy(Params(3, 1.0))
    target = 3.0 * math.pi ** 2 / 4.0
    dirichlet_err = abs(base - target) / target
    assert dirichlet_err <= 1e-4
    ladder = [0.05, 0.025, 0.0125, 0.00625]
    slopes = {}
    for n, s, tol in ((5, 1.0, 0.10), (3, 0.75, 0.15), (4, 1.0, 0.10)):
        slope = bubble_asymptotics(Params(n, s), 0.2, ladder)[1]["energy"]["slope"]
        slopes[(n, s)] = slope
        assert abs(slope - (n - 2 * s)) <= tol * (n - 2 * s), (n, s, slope)
    report(8, f"E(U) at (3,1) within {dirichlet_err:.2e} of 3 pi^2/4; energy slopes "
              + ", ".join(f"({n},{s}): {v:.3f}" for (n, s), v in slopes.items()))


def test_09_sharp_inequality_floor():
    worst = math.inf
    for n, s in ((3, 1.0), (5, 0.8), (4, 0.75)):
        p = Params(n, s)
        s_est = sharp_constant_estimate(p)
        margins = []
        # 12 lifted truncated bubbles through the exact conformal reduction
        for eps in (0.3, 0.15, 0.08, 0.04):
            for delta in (0.1, 0.18, 0.24):
                rep = bubble_quotient(INT, p, 0.0, BubbleParams(eps, delta))
                margins.append(rep.quotient / s_est - 1.0)
        # 8 direct hyperbolic trials through the spectral energy
        grid = uniform_grid(3.0)
        for width in (0.4, 0.7, 1.0, 1.4, 1.9, 2.4, 3.0, 3.6):
            u = RadialFunction.from_profile(windowed_gaussian(width, 3.0), grid, 3.0)
            rep = sobolev_quotient(INT, p, 0.0, u)
            margins.append(rep.quotient / s_est - 1.0)
        assert len(margins) >= 20
        low = min(margins)
        worst = min(worst, low)
        assert low >= -2e-3, (n, s, low)
    report(9, f"sharp-inequality floor over 60 varied trials, worst margin "
              f"{worst:+.2e} >= -2e-3")


def test_10_strict_gap():
    p = Params(5, 0.8)
    s_est = sharp_constant_estimate(p)
    lam0 = spectral_bottom(INT, p)
    fam = SplineFamily(knots=16, radius=3.5)
    rep_int = gap_scan(INT, p, [0.5 * lam0], fam, b_max=96.0)[0]
    margin_int = rep_int.quotient / s_est - 1.0
    assert margin_int <= -1e-3, margin_int
    rep_gjms = gap_scan(GJMS, p, [1.2 * b_constant(p.s)], fam, b_max=96.0)[0]
    margin_gjms = rep_gjms.quotient / s_est - 1.0
    assert margin_gjms <= -1e-3, margin_gjms
    floor = gap_scan(INT, p, [-1.0], BubbleFamily())[0]
    assert floor.quotient >= s_est * (1.0 - 2e-3)
    report(10, f"strict gap: intertwined margin {margin_int:+.2e}, conformal-operator "
               f"margin {margin_gjms:+.2e} (both <= -1e-3); floor holds at lambda <= 0")


def test_11_spectral_bottom_boundary():
    p = Params(3, 1.0)
    bottom = spectral_bottom(INT, p)
    rep_b = gap_scan(INT, p, [bottom], BubbleFamily())[0]
    num_b = rep_b.energy - bottom * rep_b.l2_mass
    assert num_b >= -1e-6 * (1.0 + rep_b.energy)
    rep_s = gap_scan(INT, p, [bottom], SplineFamily(knots=12, radius=3.0))[0]
    num_s = rep_s.energy - bottom * rep_s.l2_mass
    assert num_s >= -1e-6 * (1.0 + rep_s.energy)

    # blowdown's wide spline arch goes negative just above the bottom
    rep_w = _wide_negative_trial(p, 1.05 * bottom)[0]
    num_w = rep_w.energy - 1.05 * bottom * rep_w.l2_mass
    assert num_w < 0.0
    report(11, f"numerators at the bottom {num_b:+.2e} / {num_s:+.2e} >= -1e-6 scale; "
               f"wide trial at 1.05 x bottom reaches {num_w:+.3e} < 0")


def test_12_kernel_decay():
    radii = [2.0, 3.0, 4.0, 5.0, 6.0]
    results = {}
    for n, s in ((3, 0.6), (5, 0.7)):
        p = Params(n, s)
        summary = kernel_decay(INT, p, radii, 0.01)[1]
        slope, slope_half = summary["slope"], summary["slope_half_eps"]
        # the least-squares slope of the closed-form kernel over the same radii
        closed = [operator_kernel(INT, p, r) for r in radii]
        target = float(np.polyfit(radii, np.log(np.abs(closed)), 1)[0])
        for fitted in (slope, slope_half):
            assert abs(fitted - target) <= 1e-2 * abs(target), (n, s, fitted, target)
        assert abs(slope_half - slope) <= 0.1 * abs(slope)
        results[(n, s)] = (slope, slope_half)
    report(12, "kernel decay slopes " + ", ".join(
        f"({n},{s}): {v[0]:.2f} (eps/2: {v[1]:.2f})" for (n, s), v in results.items()))


def test_13_blowdown_rate():
    p = Params(3, 1.0)
    slope = blowdown(p, 0.3, [4, 16, 64, 256])[1]["slope"]
    target = 2.0 * p.s / p.n
    assert abs(slope - target) <= 0.1 * target, slope
    report(13, f"blow-down scaled-bound slope at (3, 1), lambda 0.3: {slope:.3f} "
               f"vs {target:.3f}")


def test_14_cli_determinism(tmp_path):
    checked = []

    def rerun(name, args, outputs):
        paths = []
        for tag in ("one", "two"):
            out = str(tmp_path / f"{name}-{tag}.csv")
            code = cli_main(args + ["--out", out])
            assert code == 0, (name, code)
            paths.append(out)
        for suffix in outputs:
            a = open(paths[0] + suffix, "rb").read()
            b = open(paths[1] + suffix, "rb").read()
            assert a == b, (name, suffix)
        checked.append(name)

    rerun("multiplier",
          ["multiplier", "--kind", "gjms", "--n", "4", "--s", "0.75",
           "--beta-max", "30", "--count", "100"], [""])
    rerun("bubble-asymptotics",
          ["bubble-asymptotics", "--n", "5", "--s", "1", "--delta", "0.2",
           "--eps-ladder", "0.05,0.025,0.0125,0.00625"], ["", ".summary.json"])
    rerun("kernel-decay",
          ["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
           "--r-spec", "2,3,4,5", "--eps-reg", "0.01"], ["", ".summary.json"])
    rerun("gap-scan",
          ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
           "--lambda-spec=0,0.128", "--family", "bubble"], [""])
    rerun("blowdown",
          ["blowdown", "--n", "3", "--s", "1", "--lambda", "0.3",
           "--n-spec", "4,16,64,256"], ["", ".summary.json"])
    report(14, f"byte-identical reruns for {', '.join(checked)} (+ constants via stdout)")
