"""The standard bubble family, smooth cut-offs, and the Euclidean fractional
energy through radial Fourier (Hankel) analysis, plus the cut-off asymptotics
experiments built on them.

The energy of wide profiles is computed with octave-banded quadrature: each
frequency band integrates r only out to where its own oscillation budget
allows, behind a smooth sub-window, which keeps every Bessel oscillation
resolved without ever building an r-grid of millions of nodes. A band's
kernel (Bessel matrix, r^{n-1}, r weights and sub-window in one read-only
matrix) depends only on (n, support, band), so it is built once and reused
by every energy of that support; only the most recent (n, support) is held,
and an energy evaluates its profile once per distinct r-grid.

The untruncated bubble U = (1+r^2)^{-(n-2s)/2} solves (-Delta)^s U = c U^{2*-1}
(Lieb 1983; Cotsiolis-Tavoularis 2004), so its energy and critical mass are
closed forms (bubble_energy_limit, bubble_mass_limit).
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegenerateData, ParameterError, SupportError, TailError
from .geometry import sphere_area
from .grids import (
    PHASE_PER_PANEL,
    RadialFunction,
    RadialGrid,
    Space,
    gauss_panels,
    geometric_edges,
    geometric_grid,
)
from .params import Params

OSC_BUDGET = 4000.0          # max r*rho phase per frequency band (with sub-window)

_GL48_X, _GL48_W = leggauss(48)


@dataclass(frozen=True)
class BubbleParams:
    """Bubble scale eps in (0,1) and cut-off radius delta in (0, 1/4)."""

    eps: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ParameterError(f"eps must lie in (0, 1), got {self.eps}")
        if not (0.0 < self.delta < 0.25):
            raise ParameterError(f"delta must lie in (0, 1/4), got {self.delta}")


def bubble(p: Params, bp: BubbleParams, r):
    """U_eps(r) = eps^-(n-2s)/2 (1 + (r/eps)^2)^-(n-2s)/2; decreasing, U(0)=1."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ParameterError("bubble requires r >= 0")
    q = (p.n - 2.0 * p.s) / 2.0
    out = bp.eps ** (-q) * (1.0 + (r / bp.eps) ** 2) ** (-q)
    return float(out) if out.ndim == 0 else out


def _mollifier_mass(t):
    """int_0^t exp(-1/(u(1-u))) du for t in (0, 1], vectorized (48-node GL)."""
    t = np.asarray(t, dtype=float)
    uu = np.multiply.outer(t, 0.5 * (_GL48_X + 1.0))    # nodes scaled to (0, t)
    return 0.5 * t * (np.exp(-1.0 / (uu * (1.0 - uu))) @ _GL48_W)


_MOLLIFIER_TOTAL = float(_mollifier_mass(np.asarray(1.0)))


def smooth_step(t):
    """C-infinity step: exactly 0 for t <= 0 and 1 for t >= 1, value 1/2 at
    t = 1/2; the quadrature runs on the ramp 0 < t < 1 (and NaN) only."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    ramp = ~((t <= 0.0) | (t >= 1.0))
    out[ramp] = _mollifier_mass(t[ramp]) / _MOLLIFIER_TOTAL
    return out


def smooth_window(r, r_on: float, r_off: float):
    """1 on [0, r_on], 0 beyond r_off, C-infinity in between."""
    return 1.0 - smooth_step((np.asarray(r, dtype=float) - r_on) / (r_off - r_on))


def cutoff(delta: float, r):
    """The flat mollifier cut-off: 1 on [0, delta], 0 beyond 2*delta.

    Built from the normalized integral of exp(-1/(t(1-t))), so it is genuinely
    C-infinity and takes the exact value 1/2 at the midpoint 3*delta/2.
    """
    if not (0.0 < delta < 0.25):
        raise ParameterError(f"cutoff requires delta in (0, 1/4), got {delta}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ParameterError("cutoff requires r >= 0")
    out = smooth_window(r, delta, 2.0 * delta)
    return float(out) if out.ndim == 0 else out


def truncated_bubble_profile(p: Params, bp: BubbleParams):
    """r -> cutoff(delta, r) * U_eps(r), the standard compactly supported trial."""

    def fn(r):
        return cutoff(bp.delta, r) * bubble(p, bp, r)

    return fn


def bubble_grid(eps: float, r_max: float) -> RadialGrid:
    """Graded grid resolving the bubble core scale eps on [0, r_max]: uniform
    eps/2 panels out to 6 eps, then panels growing by 1.25 from eps."""
    core = min(6.0 * eps, r_max)
    core_edges = np.linspace(0.0, core, max(2, int(np.ceil(core / (eps / 2.0))) + 1))
    tail_edges = geometric_edges(r_max, eps, growth=1.25, start=core)
    return RadialGrid.from_edges(np.concatenate([core_edges[:-1], tail_edges]))


def sampled_bubble(p: Params, bp: BubbleParams) -> RadialFunction:
    grid = bubble_grid(bp.eps, 2.0 * bp.delta)
    return RadialFunction.from_profile(
        truncated_bubble_profile(p, bp), grid, 2.0 * bp.delta, Space.EUCLIDEAN
    )


def crit_mass(p: Params, bp: BubbleParams) -> float:
    """int |eta U_eps|^{2*_s} dx by radial quadrature; -> M_inf as eps -> 0."""
    return _crit_mass(p, sampled_bubble(p, bp))


def _crit_mass(p: Params, w: RadialFunction) -> float:
    """crit_mass of the sampled truncated bubble w."""
    r = w.grid.nodes
    return sphere_area(p.n) * w.grid.integrate(np.abs(w.values) ** p.two_star * r ** (p.n - 1))


def bubble_mass_limit(n: int) -> float:
    """M_inf = int (1+|y|^2)^-n dy = pi^{n/2} Gamma(n/2) / Gamma(n), the eps -> 0 limit."""
    return math.pi ** (n / 2.0) * math.gamma(n / 2.0) / math.gamma(n)


def bubble_energy_limit(p: Params) -> float:
    """E(U) of U = (1+r^2)^{-(n-2s)/2}: its Euler-Lagrange constant
    2^{2s} Gamma((n+2s)/2) / Gamma((n-2s)/2) times bubble_mass_limit(n)."""
    c = (2.0 ** (2.0 * p.s) * math.gamma((p.n + 2.0 * p.s) / 2.0)
         / math.gamma((p.n - 2.0 * p.s) / 2.0))
    return c * bubble_mass_limit(p.n)


def hyperbolic_l2_mass(p: Params, bp: BubbleParams) -> float:
    """int |w_eps|^2 phi^{2s} dx over the ball = int |u_eps|^2 dV for the lift.

    phi = 2/(1-|x|^2); the exponent +2s is what the lift identity requires
    under this convention.
    """
    return _hyperbolic_l2_mass(p, sampled_bubble(p, bp))


def _hyperbolic_l2_mass(p: Params, w: RadialFunction) -> float:
    """hyperbolic_l2_mass of the sampled truncated bubble w."""
    r = w.grid.nodes
    weight = (2.0 / (1.0 - r * r)) ** (2.0 * p.s)
    return sphere_area(p.n) * w.grid.integrate(w.values ** 2 * weight * r ** (p.n - 1))


# ---------------------------------------------------------------------------
# Radial Fourier (Hankel) analysis
# ---------------------------------------------------------------------------

def _scaled_bessel_matrix(n, rows, columns):
    """J_nu(x)/x^nu, nu = (n-2)/2, at x = the outer product rows x columns."""
    from .special import bessel_j_scaled

    nu = (n - 2) / 2.0
    x = np.multiply.outer(rows, columns)
    return bessel_j_scaled(nu, x.ravel()).reshape(x.shape)


class _BandKernel(NamedTuple):
    """One octave band's Hankel kernel: w_hat(rho) = kernel @ profile(r)."""

    rho: np.ndarray          # the band's Gauss nodes (three panels)
    weights: np.ndarray      # their Gauss weights
    r: np.ndarray            # the band's r nodes
    grid_key: bytes          # r.tobytes(), equal for bands on one r-grid
    kernel: np.ndarray       # (rho x r), read-only


@functools.lru_cache(maxsize=1)
def _band_kernels(n, support):
    """{(lo, hi): _BandKernel} of one (n, support), filled by _band_kernel;
    only the most recent (n, support) is held."""
    return {}


def _band_kernel(n, support, lo, hi):
    """The kernel of the band [lo, hi] for profiles on [0, support], built
    once per (n, support, band). r is truncated at r_cut, under a smooth
    sub-window when r_cut < support, so that r*rho stays within the
    oscillation budget; the Bessel matrix, r^{n-1}, the r weights and the
    sub-window are folded into one read-only matrix."""
    table = _band_kernels(n, support)
    band = table.get((lo, hi))
    if band is not None:
        return band
    rho, weights = gauss_panels(np.linspace(lo, hi, 4))
    r_cut = min(support, max(200.0, OSC_BUDGET / max(float(rho[0]), 1e-300)))
    grid = geometric_grid(r_cut, 0.02, max_width=max(PHASE_PER_PANEL / float(rho[-1]), 1e-4))
    r = grid.nodes
    density = r ** (n - 1) * grid.weights
    if r_cut < support:
        density *= smooth_window(r, 0.5 * r_cut, r_cut)
    kernel = _scaled_bessel_matrix(n, rho, r)
    kernel *= density
    for array in (rho, weights, r, kernel):
        array.flags.writeable = False
    band = table[(lo, hi)] = _BandKernel(rho, weights, r, r.tobytes(), kernel)
    return band


def _banded_energy(profile, support, p: Params, rho_min, rho_max):
    """omega int rho^{2s+n-1} w_hat^2 d rho over octave bands, extending
    rho_max until the running tail undershoots 1e-9 of the accumulated total.

    The profile is evaluated once per distinct r-grid of its bands."""
    n, s = p.n, p.s
    values = {}
    contributions = []
    lo = rho_min
    cap = max(rho_max, 1.0) * 4096.0
    while True:
        hi = min(2.0 * lo, cap)
        band = _band_kernel(n, support, lo, hi)
        if band.grid_key not in values:
            values[band.grid_key] = profile(band.r)
        what = band.kernel @ values[band.grid_key]
        contributions.append(float(np.dot(band.weights, band.rho ** (2.0 * s + n - 1.0) * what * what)))
        total = math.fsum(contributions)
        band_abs = abs(contributions[-1]) + abs(contributions[-2]) if len(contributions) > 1 else abs(contributions[-1])
        if hi >= rho_max and band_abs <= 1e-9 * max(abs(total), 1e-300):
            break
        if hi >= cap:
            raise TailError("fractional energy tail did not close before the frequency cap")
        lo = hi
    return sphere_area(n) * total


def fractional_energy(w: RadialFunction, p: Params) -> float:
    """The 2s-weighted Plancherel integral omega int rho^{2s} |w_hat|^2 rho^{n-1} d rho.

    For s = 1 this is the Dirichlet integral. The frequency range extends
    adaptively until the spectral tail closes.
    """
    if w.space is not Space.EUCLIDEAN:
        raise SupportError("fractional_energy expects a Euclidean profile")
    w.require_compact_support()
    if w.is_zero():
        return 0.0
    profile = w.profile
    if profile is None:
        samples = (w.grid, w.values)

        def profile(r, _g=samples):
            return np.interp(r, _g[0].nodes, _g[1], left=_g[1][0], right=0.0)

    support = min(w.support_radius, w.grid.r_max)
    return _banded_energy(profile, support, p, min(1e-4, 0.05 / support), 64.0)


def fit_loglog_slope(x, y) -> float:
    """OLS slope of log y against log x; the largest-x point is dropped when
    its residual exceeds twice the residual spread (leading-constant
    contamination at the coarse end of an eps ladder)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3 or np.any(y <= 0.0):
        raise DegenerateData("slope fit needs >= 3 points with positive values")
    lx, ly = np.log(x), np.log(y)
    coeffs = np.polyfit(lx, ly, 1)
    if x.size >= 4:
        resid = ly - np.polyval(coeffs, lx)
        sigma = float(np.std(resid))
        largest = int(np.argmax(x))
        if sigma > 0.0 and abs(resid[largest]) > 2.0 * sigma:
            keep = np.arange(x.size) != largest
            coeffs = np.polyfit(lx[keep], ly[keep], 1)
    return float(coeffs[0])


def _golden_section(f, lo, hi, *, steps):
    """Deterministic bounded golden-section minimization; returns argmin x."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return c if fc <= fd else d


def fit_leading_exponent(x, y, correction_exponent: float):
    """Leading exponent a of y ~ A x^a + B x^b with the correction exponent b
    known, by variable projection: a golden-section search over a in (0, b)
    (60 steps shrink the bracket by 0.618^60 < 3e-13), with A and B from a
    linear least-squares solve in relative residuals at each a.

    Returns a and the correction's relative size B x^b / y at the smallest x.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3 or np.any(y <= 0.0):
        raise DegenerateData("exponent fit needs >= 3 points with positive values")

    def solve(a):
        columns = np.column_stack([x ** a, x ** correction_exponent]) / y[:, None]
        coeffs = np.linalg.lstsq(columns, np.ones_like(y), rcond=None)[0]
        resid = columns @ coeffs - 1.0
        return float(resid @ resid), coeffs

    a = float(_golden_section(lambda a: solve(a)[0], 0.0, correction_exponent, steps=60))
    smallest = int(np.argmin(x))
    correction = solve(a)[1][1] * x[smallest] ** correction_exponent / y[smallest]
    return a, float(correction)


def _l2_verdict(p: Params, eps, l2):
    """The L2-mass rate: eps^{2s}|log eps| for n = 4s (ratio drift between
    the two smallest eps), else eps^a with a the smaller of {2s, n-2s},
    fitted against the larger as the correction exponent."""
    if p.n == 4 * p.s:
        ratios = l2 / (eps ** (2.0 * p.s) * np.abs(np.log(eps)))
        drift = float(abs(ratios[-1] / ratios[-2] - 1.0))
        return {"regime": "log", "target": 2.0 * p.s, "ratio_drift": drift, "tol": 0.10,
                "passed": bool(drift <= 0.10 and np.all(ratios > 0))}
    target, correction_exponent = sorted((2.0 * p.s, p.n - 2.0 * p.s))
    exponent, correction = fit_leading_exponent(eps, l2, correction_exponent)
    tol = 0.1 if p.n > 4 * p.s else 0.05
    return {"regime": "power" if p.n > 4 * p.s else "low", "exponent": exponent,
            "target": target, "tol": tol, "passed": bool(abs(exponent - target) <= tol),
            "raw_slope": fit_loglog_slope(eps, l2),
            "correction_exponent": correction_exponent, "correction_size": correction}


def bubble_asymptotics(p: Params, delta: float, eps_ladder):
    """The cut-off bubble asymptotics over an eps ladder.

    rows holds (eps, critical mass, hyperbolic L2 mass, fractional energy) of
    the truncated bubble at each eps. summary holds one verdict block each,
    with its target, tolerance and "passed": crit, the log-log slope of
    M_inf minus the critical mass (target n); energy, the log-log slope of
    |E - E(U)| (target n - 2s, within 15%); l2, see _l2_verdict.
    """
    if len(eps_ladder) < 3:   # every rate is fitted over at least three points
        raise ParameterError("eps ladder must have >= 3 entries")
    trials = [BubbleParams(eps, delta) for eps in eps_ladder]
    rows = []
    for bp in trials:
        w = sampled_bubble(p, bp)
        rows.append((bp.eps, _crit_mass(p, w), _hyperbolic_l2_mass(p, w), fractional_energy(w, p)))
    eps, crit, l2, energy = (np.array(column) for column in zip(*rows))
    crit_slope = fit_loglog_slope(eps, np.abs(bubble_mass_limit(p.n) - crit))
    energy_slope = fit_loglog_slope(eps, np.abs(energy - bubble_energy_limit(p)))
    e_target = p.n - 2.0 * p.s
    summary = {
        "crit": {"slope": crit_slope, "target": float(p.n), "tol": 0.3,
                 "passed": bool(abs(crit_slope - p.n) <= 0.3)},
        "l2": _l2_verdict(p, eps, l2),
        "energy": {"slope": energy_slope, "target": e_target, "tol_rel": 0.15,
                   "passed": bool(abs(energy_slope - e_target) <= 0.15 * e_target)},
    }
    return rows, summary

