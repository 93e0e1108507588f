"""The standard bubble family, smooth cut-offs, the truncated bubble with
its two Euclidean masses (bubble_masses, its one sampling) and its Euclidean
fractional energy, and the cut-off asymptotics experiments built on them.

The truncated bubble's energy (bubble_energy) depends on t = eps/delta
alone, so every one is priced on the one support [0, 2 ENERGY_DELTA]: at
s = 1 as the Dirichlet integral of (chi U_eps)' in closed form on a
graded plateau and a panelled cut-off ramp, with no band built; at every
other s by radial Fourier (Hankel) quadrature over octave frequency bands.
A band's kernel (Bessel matrix, r^{n-1}, r weights and cut-off in one
read-only matrix, filled in row blocks of at most grids.BLOCK_CELLS cells)
is held in the module's one memo, an LRU of BAND_KERNELS_HELD bands.

The untruncated bubble U = (1+r^2)^{-(n-2s)/2} solves (-Delta)^s U = c U^{2*-1}
(Lieb 1983; Cotsiolis-Tavoularis 2004), so its energy and critical mass are
closed forms (bubble_energy_limit, bubble_mass_limit).
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ParameterError
from .geometry import sphere_area
from .grids import (
    BLOCK_CELLS,
    PHASE_PER_PANEL,
    RadialGrid,
    _mirrored_rule,
    gauss_panels,
    geometric_edges,
    geometric_grid,
)
from .params import Params

# the cut-off radius of every bubble energy (bubble_energy), and the largest
# delta of the bubble family's box (quotients.BUBBLE_DELTA)
ENERGY_DELTA = 0.245
BAND_KERNELS_HELD = 32       # one n's bands: a bubble energy at t = 0.005 spans 29

# the 48-node Gauss-Legendre rule on [-1, 1] of _mollifier_mass: the positive
# half of numpy.polynomial.legendre.leggauss(48), mirrored (grids.GAUSS_NODES
# says why it is written out); tests/test_gauss_rules.py pins it
_GL48_X, _GL48_W = _mirrored_rule(
    [0.03238017096286937, 0.0970046992094627, 0.1612223560688917, 0.22476379039468905,
     0.28736248735545555, 0.3487558862921607, 0.4086864819907167, 0.4669029047509584,
     0.523160974722233, 0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
     0.7240341309238146, 0.7671590325157404, 0.8070662040294426, 0.8435882616243935,
     0.8765720202742479, 0.9058791367155696, 0.9313866907065543, 0.9529877031604308,
     0.9705915925462473, 0.9841245837228269, 0.9935301722663508, 0.9987710072524261],
    [0.06473769681268365, 0.06446616443594982, 0.06392423858464787, 0.06311419228625373,
     0.06203942315989242, 0.0607044391658936, 0.059114839698395344, 0.057277292100402916,
     0.05519950369998403, 0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
     0.04467456085669423, 0.04154508294346455, 0.0382413510658305, 0.034777222564770394,
     0.031167227832798097, 0.027426509708357034, 0.023570760839324047, 0.019616160457356056,
     0.015579315722943226, 0.011477234579234614, 0.007327553901276135, 0.0031533460523098414],
)


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


def _bubble_values(p: Params, eps: float, r):
    """eps^-(n-2s)/2 (1 + (r/eps)^2)^-(n-2s)/2 at the array r, for any eps > 0."""
    q = (p.n - 2.0 * p.s) / 2.0
    return eps ** (-q) * (1.0 + (r / eps) ** 2) ** (-q)


def _mollifier_density(t):
    """exp(-1/(t(1-t))) on (0, 1): the cut-off's ramp is its normalized integral."""
    return np.exp(-1.0 / (t * (1.0 - t)))


def _mollifier_mass(t):
    """int_0^t exp(-1/(u(1-u))) du for t in (0, 1] (48-node GL), BLOCK_CELLS // 48
    nodes at a time; a row-wise sum, so a node's value does not depend on its batch."""
    t = np.asarray(t, dtype=float)
    flat, out = t.reshape(-1), np.empty(t.size)
    step = BLOCK_CELLS // 48
    for i in range(0, flat.size, step):
        uu = np.multiply.outer(flat[i:i + step], 0.5 * (_GL48_X + 1.0))    # nodes scaled to (0, t)
        out[i:i + step] = 0.5 * flat[i:i + step] * (_mollifier_density(uu) * _GL48_W).sum(axis=-1)
    return out.reshape(t.shape)


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


def _bubble_edges(eps: float, r_max: float):
    """Graded panel edges resolving the bubble core scale eps on [0, r_max]:
    uniform eps/2 panels out to 6 eps, then panels growing by 1.25 from eps."""
    core = min(6.0 * eps, r_max)
    core_edges = np.linspace(0.0, core, max(2, int(np.ceil(core / (eps / 2.0))) + 1))
    tail_edges = geometric_edges(r_max, eps, growth=1.25, start=core)
    return np.concatenate([core_edges[:-1], tail_edges])


def truncated_bubble(p: Params, bp: BubbleParams):
    """The standard trial's profile r -> chi(r) U_eps(r), U_eps(r) =
    eps^-(n-2s)/2 (1 + (r/eps)^2)^-(n-2s)/2, cut off by chi = smooth_window(r,
    delta, 2 delta), the normalized integral of exp(-1/(t(1-t))): C-infinity,
    1 on [0, delta], 0 beyond 2 delta, exactly 1/2 at the midpoint 3 delta/2."""
    return lambda r: smooth_window(r, bp.delta, 2.0 * bp.delta) * _bubble_values(p, bp.eps, r)


def bubble_masses(p: Params, bp: BubbleParams):
    """(int |w|^{2*_s} dx -> M_inf, int |w|^2 phi^{2s} dx = int |u|^2 dV) of
    w = truncated_bubble(p, bp) sampled on _bubble_edges(eps, 2 delta), u its
    lift; phi = 2/(1-|x|^2), the exponent +2s that of the lift identity."""
    grid = RadialGrid.from_edges(_bubble_edges(bp.eps, 2.0 * bp.delta))
    r, w = grid.nodes, truncated_bubble(p, bp)(grid.nodes)
    crit = sphere_area(p.n) * grid.integrate(np.abs(w) ** p.two_star * r ** (p.n - 1))
    weight = (2.0 / (1.0 - r * r)) ** (2.0 * p.s)
    return crit, sphere_area(p.n) * grid.integrate(w ** 2 * weight * r ** (p.n - 1))


# the largest n of bubble_mass_limit: math.gamma(n) overflows a double from n = 172
MAX_N = 171


def bubble_mass_limit(n: int) -> float:
    """M_inf = int (1+|y|^2)^-n dy = pi^{n/2} Gamma(n/2) / Gamma(n), the eps -> 0 limit;
    ParameterError for n > MAX_N."""
    if n > MAX_N:
        raise ParameterError(f"n = {n} is too large: the closed-form bubble mass needs "
                             f"Gamma(n), a double only up to n = {MAX_N}")
    return math.pi ** (n / 2.0) * math.gamma(n / 2.0) / math.gamma(n)


def bubble_energy_limit(p: Params) -> float:
    """E(U) of U = (1+r^2)^{-(n-2s)/2}: its Euler-Lagrange constant
    2^{2s} Gamma((n+2s)/2) / Gamma((n-2s)/2) times bubble_mass_limit(n);
    ParameterError where that product is not a finite double (large n + 2s)."""
    c = (2.0 ** (2.0 * p.s) * math.gamma((p.n + 2.0 * p.s) / 2.0)
         / math.gamma((p.n - 2.0 * p.s) / 2.0))
    energy = c * bubble_mass_limit(p.n)
    if not math.isfinite(energy):
        raise ParameterError(f"n = {p.n}, s = {p.s!r} is too large: the closed-form bubble "
                             "energy 2^{2s} Gamma((n+2s)/2) / Gamma((n-2s)/2) M_inf "
                             "overflows a double")
    return energy


# ---------------------------------------------------------------------------
# Radial Fourier (Hankel) analysis
# ---------------------------------------------------------------------------

def _scaled_bessel_matrix(n, rows, columns):
    """J_nu(x)/x^nu, nu = (n-2)/2, at x = the outer product rows x columns,
    filled in row blocks of at most BLOCK_CELLS cells; bessel_j_scaled is
    elementwise, so the matrix is the one-shot outer product's bit for bit."""
    from .special import bessel_j_scaled

    nu = (n - 2) / 2.0
    out = np.empty((rows.size, columns.size))
    step = max(1, BLOCK_CELLS // columns.size)
    for i in range(0, rows.size, step):
        x = np.multiply.outer(rows[i:i + step], columns)
        out[i:i + step] = bessel_j_scaled(nu, x.ravel()).reshape(x.shape)
    return out


class _BandKernel(NamedTuple):
    """One octave band's Hankel kernel: w_hat(rho) = kernel @ profile(r)."""

    rho: np.ndarray          # the band's Gauss nodes (three panels)
    weights: np.ndarray      # their Gauss weights
    r: np.ndarray            # the band's r nodes
    grid_key: bytes          # r.tobytes(), equal for bands on one r-grid
    kernel: np.ndarray       # (rho x r), read-only


@functools.lru_cache(maxsize=BAND_KERNELS_HELD)
def _band_kernel(n, lo, hi):
    """The kernel of the band [lo, hi] on the energy support [0, 2 ENERGY_DELTA],
    held while among the BAND_KERNELS_HELD most recent: the Bessel matrix,
    r^{n-1}, the r weights and the cut-off smooth_window(r, ENERGY_DELTA,
    2 ENERGY_DELTA) folded into one read-only matrix."""
    rho, weights = gauss_panels(np.linspace(lo, hi, 4))
    support = 2.0 * ENERGY_DELTA
    grid = geometric_grid(support, 0.02, max_width=max(PHASE_PER_PANEL / float(rho[-1]), 1e-4))
    r = grid.nodes
    kernel = _scaled_bessel_matrix(n, rho, r)
    kernel *= r ** (n - 1) * grid.weights * smooth_window(r, ENERGY_DELTA, support)
    for array in (rho, weights, r, kernel):
        array.flags.writeable = False
    return _BandKernel(rho, weights, r, r.tobytes(), kernel)


def _banded_energy(p: Params, eps: float) -> float:
    """omega int rho^{2s+n-1} w_hat^2 d rho of w = truncated_bubble at (eps,
    ENERGY_DELTA), over octave bands from rho = 1e-4, extending past rho = 64
    until the running tail undershoots 1e-9 of the accumulated total.

    U_eps is evaluated once per distinct r-grid of the bands."""
    n, s = p.n, p.s
    values, contributions = {}, []
    lo, rho_max, cap = 1e-4, 64.0, 64.0 * 4096.0
    while True:
        hi = min(2.0 * lo, cap)
        band = _band_kernel(n, lo, hi)
        if band.grid_key not in values:
            values[band.grid_key] = _bubble_values(p, eps, band.r)
        # rho^{s+(n-1)/2} w_hat, squared: rho^{2s+n-1} alone overflows at large n + 2s
        what = band.rho ** (s + 0.5 * (n - 1.0)) * (band.kernel @ values[band.grid_key])
        contributions.append(float(np.dot(band.weights, what * what)))
        total = math.fsum(contributions)
        band_abs = sum(map(abs, contributions[-2:]))   # the last two bands
        if hi >= rho_max and band_abs <= 1e-9 * max(abs(total), 1e-300):
            break
        if hi >= cap:
            raise NumericalError("fractional energy tail did not close before the frequency cap")
        lo = hi
    return sphere_area(n) * total


# panels of the cut-off ramp [delta, 2 delta] in the s = 1 energy: 8 move it
# by at most 3e-15 when each is split in 2 or 4, where the trial's own
# _bubble_edges panels, which straddle delta, leave it 2.4e-8 off at t = 0.8
RAMP_PANELS = 8


def _dirichlet_edges(eps: float):
    """Panel edges for the s = 1 energy of truncated_bubble at (eps,
    ENERGY_DELTA): the _bubble_edges panels of the plateau [0, ENERGY_DELTA],
    where the cut-off is 1, then RAMP_PANELS equal panels on the ramp."""
    return np.concatenate([_bubble_edges(eps, ENERGY_DELTA)[:-1],
                           np.linspace(ENERGY_DELTA, 2.0 * ENERGY_DELTA, RAMP_PANELS + 1)])


def _dirichlet_energy(p: Params, eps: float, grid: RadialGrid) -> float:
    """omega int (w')^2 r^{n-1} dr of w = chi U = truncated_bubble at (eps,
    delta = ENERGY_DELTA) on grid, with w' = chi' U + chi U' in closed form:
    chi' is minus _mollifier_density(t) / (_MOLLIFIER_TOTAL delta),
    t = (r - delta)/delta, and U' = -(n-2s) r U / (eps^2 + r^2)."""
    delta, r = ENERGY_DELTA, grid.nodes
    u = _bubble_values(p, eps, r)
    t = (r - delta) / delta
    ramp = (t > 0.0) & (t < 1.0)
    d_chi = np.zeros_like(r)
    d_chi[ramp] = -_mollifier_density(t[ramp]) / (_MOLLIFIER_TOTAL * delta)
    d_u = -(p.n - 2.0 * p.s) * r / (eps ** 2 + r * r) * u
    d_w = d_chi * u + smooth_window(r, delta, 2.0 * delta) * d_u
    return sphere_area(p.n) * grid.integrate(d_w * d_w * r ** (p.n - 1))


def bubble_energy(p: Params, bp: BubbleParams) -> float:
    """E(w) of the truncated bubble w = truncated_bubble(p, bp). By Euclidean
    scaling it depends on t = eps/delta alone, so it is priced at
    (t ENERGY_DELTA, ENERGY_DELTA), and equal float t give equal bits: at
    s = 1 the Dirichlet integral on the _dirichlet_edges panels, no Hankel
    band built; at every other s the Hankel bands (the s = 1 route's
    oracle), the cut-off folded into their kernels."""
    eps = bp.eps / bp.delta * ENERGY_DELTA
    if p.s == 1.0:
        return _dirichlet_energy(p, eps, RadialGrid.from_edges(_dirichlet_edges(eps)))
    return _banded_energy(p, eps)


def fit_loglog_slope(x, y) -> float:
    """OLS slope of log y against log x; the largest-x point is dropped when
    its residual exceeds twice the residual spread (leading-constant
    contamination at the coarse end of an eps ladder)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3 or np.any(y <= 0.0):
        raise NumericalError("slope fit needs >= 3 points with positive values")
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
        raise NumericalError("exponent fit needs >= 3 points with positive values")

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
    the truncated bubble at each eps, the masses from bubble_masses. summary
    holds one verdict block each, with its target, tolerance and "passed":
    crit, the log-log slope of M_inf minus the critical mass (target n);
    energy, the log-log slope of |E - E(U)| (target n - 2s, within 15%); l2,
    see _l2_verdict. A ladder of fewer than three or of repeated eps, or an
    n beyond MAX_N, raises
    ParameterError before any work.
    """
    if len(eps_ladder) < 3:   # every rate is fitted over at least three points
        raise ParameterError("eps ladder must have >= 3 entries")
    if len(set(eps_ladder)) != len(eps_ladder):
        raise ParameterError("eps ladder entries must be distinct")
    mass_limit, energy_limit = bubble_mass_limit(p.n), bubble_energy_limit(p)
    trials = [BubbleParams(eps, delta) for eps in eps_ladder]
    rows = [(bp.eps, *bubble_masses(p, bp), bubble_energy(p, bp)) for bp in trials]
    eps, crit, l2, energy = (np.array(column) for column in zip(*rows))
    crit_slope = fit_loglog_slope(eps, np.abs(mass_limit - crit))
    energy_slope = fit_loglog_slope(eps, np.abs(energy - energy_limit))
    e_target = p.n - 2.0 * p.s
    summary = {
        "crit": {"slope": crit_slope, "target": float(p.n), "tol": 0.3,
                 "passed": bool(abs(crit_slope - p.n) <= 0.3)},
        "l2": _l2_verdict(p, eps, l2),
        "energy": {"slope": energy_slope, "target": e_target, "tol_rel": 0.15,
                   "passed": bool(abs(energy_slope - e_target) <= 0.15 * e_target)},
    }
    return rows, summary

