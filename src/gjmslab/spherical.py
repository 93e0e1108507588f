"""Radial spherical-transform calculus on hyperbolic space.

Plancherel density, spherical functions, forward/inverse transforms,
spectral quadratic forms, and the regularized radial kernel with its decay
experiment (kernel_decay). The spherical function Phi_beta(r) is the
Legendre function of degree -1/2 + i*beta. Pointwise (spherical_function)
it is evaluated through the Mehler-Dirichlet integral

    Phi_beta(r) = C_n (sinh r)^{2-n} int_0^sqrt(r) cos(beta (r - u^2)) h_r(u) du,
    h_r(u) = 2 u (2 sinh(r - u^2/2) sinh(u^2/2))^{(n-3)/2},

which is uniformly stable in (beta, r) where the raw hypergeometric series
loses ~ 2 beta arctan(1/sinh(r/2)) digits to cancellation. Below r_min the
even Taylor expansion generated by the radial eigen-equation takes over.

phi_matrix builds its columns with r >= R_MIN_JACOBI in one vectorized
block from the Harish-Chandra expansion of the Jacobi function with
(alpha, beta) = ((n-2)/2, -1/2) (Koornwinder 1984):

    Phi_beta(r) = 2 Re[c(beta) Psi_beta(r)],
    Psi_beta(r) = (2 cosh r)^{i beta - rho}
                  2F1((rho - i beta)/2, (n + 1 - 2 i beta)/4; 1 - i beta; cosh^-2 r),
    c(beta) = 2^{rho - i beta} Gamma(n/2) Gamma(i beta)
              / (Gamma((i beta + rho)/2) Gamma((i beta + (n+1)/2)/2)),

whose series converges geometrically there (cosh^-2 r <= 0.42). The pole
of Gamma(i beta) is taken out exactly, Gamma(i beta) = Gamma(1 + i beta)/(i beta),
so the smallest frequencies keep full accuracy. At large beta the series
cancels: its terms turn by ~90 degrees per step and grow to about
e^{g} times the sum, g = beta cosh^-2(r) / 4, so the expansion is used only
where g <= JACOBI_GROWTH_MAX for the largest beta of the grid; that moves
the switch above R_MIN_JACOBI once beta_max > 4 JACOBI_GROWTH_MAX cosh^2(1)
(~67). Columns below the switch stay on Taylor/Mehler. spherical_function, and with it
regularized_kernel, stays on Mehler everywhere: at (n, s) = (3, 1) the
kernel values that quotients.blowdown reduces to its constants are
quadrature roundoff, so any route change would move them. Both share one
Mehler routine, _phi_mehler, which also takes a 2-d block of frequency rows;
regularized_kernel passes spherical_function a batch of its adaptive panels
at a time.
"""

import functools
import math
from collections import OrderedDict

import numpy as np

from .errors import DegenerateData, DomainError, NonConvergence, SupportError, TailError
from .geometry import sphere_area
from .grids import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    PHASE_PER_PANEL,
    RadialFunction,
    RadialGrid,
    Space,
    SpectralProfile,
    gauss_panels,
)
from .multipliers import multiplier
from .params import MultiplierKind, Params
from .special import _hyp2f1_series, _log_gamma_array, log_abs_gamma_sq

R_MIN_TAYLOR = 0.05        # below this radius, use the eigen-equation Taylor series
TAYLOR_TERMS = 6
R_MIN_JACOBI = 1.0         # phi_matrix columns from this radius on: Jacobi expansion
# bound on g = beta cosh^-2(r) / 4 for a Jacobi cell; against Mehler at r = 1,
# n = 3 the error is 6e-15 at g = 6.3, 8e-13 at g = 15.8, 2e-6 at g = 31.5
JACOBI_GROWTH_MAX = 7.0
DEFAULT_B_MAX = 60.0
DEFAULT_TAIL_TOL = 1e-4    # runtime guard on inverse/quadratic-form truncation

_JACOBI_BLOCK_CELLS = 1 << 14   # cells per Jacobi block: 256 KB per complex temporary

# coth r = 1/r + sum_j COTH_COEFFS[j] r^(2j+1)
_COTH_COEFFS = (1.0 / 3.0, -1.0 / 45.0, 2.0 / 945.0, -1.0 / 4725.0, 2.0 / 93555.0)


def plancherel_density(n: int, beta):
    """|c(beta)|^{-2} with the beta -> 0 limit taken continuously.

    Computed as 2^{1-n}/(Gamma(n/2) pi^{n/2}) * beta^2
    * |Gamma(rho + i beta)|^2 / |Gamma(1 + i beta)|^2, using
    Gamma(i beta) = Gamma(1 + i beta)/(i beta) to remove the pole.
    """
    if n < 2:
        raise DomainError(f"plancherel_density requires n >= 2, got {n}")
    beta_arr = np.asarray(beta, dtype=float)
    scalar = beta_arr.ndim == 0
    beta_arr = np.atleast_1d(beta_arr)
    rho = (n - 1) / 2.0
    const = 2.0 ** (1 - n) / (math.gamma(n / 2.0) * math.pi ** (n / 2.0))
    out = np.zeros_like(beta_arr)
    nz = beta_arr != 0.0
    if np.any(nz):
        b = beta_arr[nz]
        out[nz] = const * b * b * np.exp(
            log_abs_gamma_sq(rho, b) - log_abs_gamma_sq(1.0, b)
        )
    return float(out[0]) if scalar else out


def _taylor_coeffs(n: int, lam):
    """Even Taylor coefficients a_k of Phi about r = 0 (vectorized in lam).

    From Phi'' + (n-1) coth(r) Phi' + lam Phi = 0:
    2k(2k-2+n) a_k = -lam a_{k-1} - (n-1) sum_j c_j 2(k-j) a_{k-j}.
    """
    lam = np.asarray(lam, dtype=float)
    coeffs = [np.ones_like(lam)]
    for k in range(1, TAYLOR_TERMS):
        acc = -lam * coeffs[k - 1]
        for j in range(1, k):
            acc = acc - (n - 1) * _COTH_COEFFS[j - 1] * 2.0 * (k - j) * coeffs[k - j]
        coeffs.append(acc / (2.0 * k * (2.0 * k - 2.0 + n)))
    return coeffs


def _phi_taylor(n, beta_arr, r):
    rho2 = ((n - 1) / 2.0) ** 2
    lam = beta_arr * beta_arr + rho2
    coeffs = _taylor_coeffs(n, lam)
    out = np.zeros_like(beta_arr)
    for a in reversed(coeffs):
        out = out * (r * r) + a
    return out


def _mehler_u_panels(r, beta_max):
    """Number of u-panels on [0, sqrt(r)] resolving cos(beta (r - u^2)) for
    |beta| <= beta_max."""
    umax = math.sqrt(r)
    return max(
        4,
        int(math.ceil(2.0 * beta_max * umax * umax / PHASE_PER_PANEL)),
        int(math.ceil(umax / 0.5)),
    )


def _mehler_constant(n):
    return 2.0 ** ((n - 1) / 2.0) * math.gamma(n / 2.0) / (
        math.sqrt(math.pi) * math.gamma((n - 1) / 2.0)
    )


def _phi_mehler(n, beta, r):
    """Phi_beta(r) by the Mehler-Dirichlet integral, for a 1-d beta (one row)
    or a 2-d block of rows. Each row takes the u-quadrature that its own
    max |beta| selects, and rows with the same u-panel count share one cos
    block; every row's integral is one matrix-vector product of its own, so
    a row's values do not depend on the rows beside it."""
    rows = np.atleast_2d(beta)
    groups = {}   # u-panel count -> indices of its rows
    for i, b_max in enumerate(np.max(np.abs(rows), axis=1, initial=0.0)):
        groups.setdefault(_mehler_u_panels(r, b_max), []).append(i)
    integral = np.empty(rows.shape)
    umax = math.sqrt(r)
    for count, same in groups.items():
        u, w = gauss_panels(np.linspace(0.0, umax, count + 1))
        uu = u * u
        h = 2.0 * u * (2.0 * np.sinh(r - 0.5 * uu) * np.sinh(0.5 * uu)) ** ((n - 3) / 2.0)
        kernel = rows[same][:, :, None] * (r - uu)
        np.cos(kernel, out=kernel)
        integral[same] = kernel @ (h * w)
    return _mehler_constant(n) * math.sinh(r) ** (2 - n) * integral.reshape(np.shape(beta))


def _phi_jacobi(n, beta, radii, out):
    """Write Phi_beta(r) on the (beta, r) block, r >= R_MIN_JACOBI, beta > 0,
    beta cosh^-2(r) / 4 <= JACOBI_GROWTH_MAX, into out by the Harish-Chandra
    expansion of the module docstring, in column blocks of at most
    _JACOBI_BLOCK_CELLS cells."""
    rho = (n - 1) / 2.0
    b = beta[:, None]
    ib = 1j * b
    # c(beta) * (i beta): Gamma(i beta) = Gamma(1 + i beta) / (i beta), and
    # 2 Re[z / (i beta)] = 2 Im[z] / beta below
    log_c = ((rho - ib) * math.log(2.0) + math.lgamma(n / 2.0)
             + _log_gamma_array(1.0 + ib)
             - _log_gamma_array(0.5 * (ib + rho))
             - _log_gamma_array(0.5 * (ib + 0.5 * (n + 1))))
    a1, a2, c1 = 0.5 * (rho - ib), 0.25 * (n + 1) - 0.5 * ib, 1.0 - ib
    step = max(1, _JACOBI_BLOCK_CELLS // beta.size)
    for j in range(0, radii.size, step):
        r = radii[j:j + step]
        log_2cosh = np.logaddexp(r, -r)
        series = _hyp2f1_series(a1, a2, c1, np.exp(2.0 * (math.log(2.0) - log_2cosh)))
        series *= np.exp(log_c + (ib - rho) * log_2cosh)
        np.multiply(2.0 / b, series.imag, out=out[:, j:j + step])


def _jacobi_switch_radius(beta_max):
    """Smallest radius whose column takes the Jacobi expansion for
    frequencies up to beta_max: R_MIN_JACOBI, or higher where
    beta_max cosh^-2(r) / 4 would exceed JACOBI_GROWTH_MAX."""
    cosh_sq = beta_max / (4.0 * JACOBI_GROWTH_MAX)
    return max(R_MIN_JACOBI, math.acosh(math.sqrt(max(cosh_sq, 1.0))))


def spherical_function(n: int, beta, r: float):
    """Phi_beta(r): the radial eigenfunction normalized to Phi_beta(0) = 1.

    beta may be a scalar, a 1-d array or a 2-d block of rows, each row on
    the Mehler u-quadrature its own max |beta| selects (_phi_mehler); r is
    a scalar radius >= 0.
    """
    if n < 2:
        raise DomainError(f"spherical_function requires n >= 2, got {n}")
    r = float(r)
    if r < 0.0:
        raise DomainError(f"spherical_function requires r >= 0, got {r}")
    beta_arr = np.asarray(beta, dtype=float)
    scalar = beta_arr.ndim == 0
    beta_arr = np.atleast_1d(beta_arr).astype(float)
    if r == 0.0:
        out = np.ones_like(beta_arr)
    elif r < R_MIN_TAYLOR:
        out = _phi_taylor(n, beta_arr, r)
    else:
        out = _phi_mehler(n, beta_arr, r)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Phi matrices (beta grid x radial grid), cached: transforms reuse them and
# the optimizers then cost one matrix-vector product per trial evaluation.
# ---------------------------------------------------------------------------

_PHI_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_PHI_CACHE_MAX_BYTES = 256 * 2 ** 20


def phi_matrix(n: int, beta_grid: RadialGrid, r_grid: RadialGrid) -> np.ndarray:
    """Phi_beta(r) on beta_grid x r_grid, cached by (n, exact nodes).

    Columns below the Jacobi switch (R_MIN_JACOBI, raised for large
    frequencies by _jacobi_switch_radius) come from spherical_function one
    radius at a time; the rest from the vectorized Jacobi expansion
    (_phi_jacobi).
    """
    if n < 2:
        raise DomainError(f"phi_matrix requires n >= 2, got {n}")
    key = (n, beta_grid.fingerprint(), r_grid.fingerprint())
    hit = _PHI_CACHE.get(key)
    if hit is not None:
        _PHI_CACHE.move_to_end(key)
        return hit
    beta, radii = beta_grid.nodes, r_grid.nodes
    mat = np.empty((beta.size, radii.size))
    switch = _jacobi_switch_radius(float(np.max(np.abs(beta))))
    near = int(np.searchsorted(radii, switch))   # nodes increase
    for j in range(near):
        mat[:, j] = spherical_function(n, beta, float(radii[j]))
    _phi_jacobi(n, beta, radii[near:], mat[:, near:])
    _PHI_CACHE[key] = mat
    # least recently used first; the matrix just built always stays
    held = sum(m.nbytes for m in _PHI_CACHE.values())
    while held > _PHI_CACHE_MAX_BYTES and len(_PHI_CACHE) > 1:
        held -= _PHI_CACHE.popitem(last=False)[1].nbytes
    return mat


def default_beta_grid(support_radius: float, b_max: float = DEFAULT_B_MAX) -> RadialGrid:
    """Frequency grid on [0, b_max] resolving the transform of a profile
    supported in [0, support_radius] (whose transform oscillates at that scale)."""
    width = min(2.0, PHASE_PER_PANEL / max(support_radius, 1.0))
    n_panels = max(8, int(math.ceil(b_max / width)))
    return RadialGrid.from_edges(np.linspace(0.0, b_max, n_panels + 1))


def spherical_transform(f: RadialFunction, n: int, beta_grid: RadialGrid) -> SpectralProfile:
    """f_hat(beta) = omega_{n-1} int_0^inf f(r) Phi_beta(r) sinh^{n-1}(r) dr."""
    if f.space is not Space.HYPERBOLIC:
        raise DomainError("spherical_transform expects a hyperbolic radial profile")
    f.require_compact_support()
    if f.support_radius > f.grid.r_max * (1.0 + 1e-12):
        raise SupportError("radial grid does not cover the support of f")
    r = f.grid.nodes
    density = f.values * np.sinh(r) ** (n - 1) * f.grid.weights
    mat = phi_matrix(n, beta_grid, f.grid)
    values = sphere_area(n) * (mat @ density)
    return SpectralProfile(beta_grid, values)


def inverse_spherical_transform(F: SpectralProfile, n: int, r_grid: RadialGrid,
                                tail_tol: float = DEFAULT_TAIL_TOL) -> RadialFunction:
    """f(r) = int_0^{b_max} F(beta) Phi_beta(r) |c(beta)|^{-2} d beta.

    Radial Plancherel/inversion live on the half-line with this density
    (checked against the raw transform definition by 3-d quadrature); the
    full-line form double counts the +-beta symmetry.
    """
    dens = plancherel_density(n, F.beta_grid.nodes)
    tail = F.beta_grid.tail_fraction(F.values * dens)
    if tail > tail_tol:
        raise TailError(
            f"inverse transform tail fraction {tail:.3e} exceeds tolerance {tail_tol:.1e}"
        )
    mat = phi_matrix(n, F.beta_grid, r_grid)
    values = mat.T @ (F.values * dens * F.beta_grid.weights)
    return RadialFunction(values=values, grid=r_grid, support_radius=r_grid.r_max,
                          space=Space.HYPERBOLIC)


def l2_mass(f: RadialFunction, n: int) -> float:
    """int |f|^2 dV by geodesic-polar quadrature."""
    r = f.grid.nodes
    return sphere_area(n) * f.grid.integrate(f.values ** 2 * np.sinh(r) ** (n - 1))


def lp_mass(f: RadialFunction, n: int, p_exp: float) -> float:
    """int |f|^p dV by geodesic-polar quadrature."""
    r = f.grid.nodes
    return sphere_area(n) * f.grid.integrate(np.abs(f.values) ** p_exp * np.sinh(r) ** (n - 1))


def _symbol_values(kind, p: Params, beta):
    """Multiplier values for a MultiplierKind or a raw callable test hook."""
    if isinstance(kind, MultiplierKind):
        return multiplier(kind, p, beta)
    return np.asarray(kind(beta), dtype=float)


@functools.lru_cache(maxsize=32)
def _spectral_weights(kinds, p: Params, support_radius: float, b_max: float):
    """default_beta_grid(support_radius, b_max), |c|^{-2} and each kind's symbol
    on its nodes, read-only; test-hook kinds skip the cache via __wrapped__."""
    beta_grid = default_beta_grid(support_radius, b_max)
    dens = plancherel_density(p.n, beta_grid.nodes)
    symbols = tuple(_symbol_values(kind, p, beta_grid.nodes) for kind in kinds)
    for array in (beta_grid.nodes, beta_grid.weights, dens, *symbols):
        array.flags.writeable = False
    return beta_grid, dens, symbols


def quadratic_form(kind, p: Params, lam: float, f: RadialFunction,
                   b_max: float = DEFAULT_B_MAX) -> float:
    """int_0^{b_max} (m(beta) - lam) |f_hat|^2 |c|^{-2} d beta.

    kind may be a MultiplierKind or a callable beta -> m(beta) (test hook);
    at kind = INTERTWINED, lam = 0 this is the intertwined-operator energy.
    Half-line normalization, matching the radial Plancherel identity.
    """
    return _quadratic_forms((kind,), p, lam, f, b_max)[0]


def _quadratic_forms(kinds, p: Params, lam: float, f: RadialFunction, b_max: float):
    """quadratic_form of each kind from one transform and one |f_hat|^2 |c|^{-2}."""
    hooks = not all(isinstance(kind, MultiplierKind) for kind in kinds)
    weights = _spectral_weights.__wrapped__ if hooks else _spectral_weights
    beta_grid, dens, symbols = weights(kinds, p, f.support_radius, b_max)
    weight = spherical_transform(f, p.n, beta_grid).values ** 2 * dens
    forms = []
    for m in symbols:
        tail = beta_grid.tail_fraction((np.abs(m) + abs(lam)) * weight)
        if tail > DEFAULT_TAIL_TOL:
            raise TailError(
                f"quadratic form tail fraction {tail:.3e} exceeds tolerance {DEFAULT_TAIL_TOL:.1e}"
            )
        forms.append(float(np.dot(beta_grid.weights, (m - lam) * weight)))
    return forms


# ---------------------------------------------------------------------------
# Regularized radial kernel and its off-diagonal decay rate
# ---------------------------------------------------------------------------

def regularized_kernel(kind, p: Params, r: float, eps_reg: float,
                       rel_tol: float = 1e-10, max_panels: int = 4096) -> float:
    """k^eps(r) = 2 int_0^inf m(beta) e^{-eps beta^2} Phi_beta(r) |c|^{-2} d beta.

    Adaptive panel-splitting Gauss-Legendre quadrature; the Gaussian factor
    caps the integration at the point where it falls below 1e-16. A LIFO
    stack of panels is split until each panel's halves agree with it within
    rel_tol of the running scale. The integrand is evaluated in batches:
    first on every initial panel, then, whenever the panel popped has no
    halves yet, on the halves of every queued panel that lacks them (each
    queued panel is popped and split in turn, so nothing is evaluated
    speculatively). A batch is one symbol, Plancherel-density and Gaussian
    pass on its flattened nodes and one spherical_function call on its
    (panels x 16) block, and each panel's value is the same one-panel rule
    as panel by panel, so the kernel values are bit-identical to it.
    """
    r = float(r)
    if r < 0.5:
        raise DomainError(f"regularized_kernel requires r >= 0.5, got {r}")
    if not eps_reg > 0.0:
        raise DomainError(f"eps_reg must be > 0, got {eps_reg}")
    beta_cut = math.sqrt(16.0 * math.log(10.0) / eps_reg)

    def panel_values(panels):
        """{(a, b): the one-panel rule on [a, b]} for a list of panels."""
        a, b = np.array(panels).T
        # gauss_panels((a, b)) for each panel, as one (panels x 16) block
        nodes = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * GAUSS_NODES[None, :]
        flat = nodes.ravel()
        m = _symbol_values(kind, p, flat)
        phi = spherical_function(p.n, nodes, r).ravel()
        dens = plancherel_density(p.n, flat)
        g = (m * np.exp(-eps_reg * flat * flat) * phi * dens).reshape(nodes.shape)
        # the one-panel rule scales the reference weights after the dot
        # product; composite weights would move the last bits of k^eps
        return {panel: 0.5 * (panel[1] - panel[0]) * float(np.dot(GAUSS_WEIGHTS, row))
                for panel, row in zip(panels, g)}

    width = min(1.5, PHASE_PER_PANEL / max(r, 1.0))
    n0 = max(8, int(math.ceil(beta_cut / width)))
    edges = np.linspace(0.0, beta_cut, n0 + 1)
    panels = [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
    queue = [(a, b, v) for (a, b), v in panel_values(panels).items()]
    values = {}   # the halves of queued panels, once their batch has run
    scale = sum(abs(v) for _, _, v in queue) + 1e-300
    total_panels = len(queue)
    result = []
    while queue:
        a, b, coarse = queue.pop()
        mid = 0.5 * (a + b)
        if (a, mid) not in values:
            halves = []
            for qa, qb, _ in queue + [(a, b, coarse)]:
                qmid = 0.5 * (qa + qb)
                if (qa, qmid) not in values:
                    halves += [(qa, qmid), (qmid, qb)]
            values.update(panel_values(halves))
        left = values.pop((a, mid))
        right = values.pop((mid, b))
        if abs(left + right - coarse) <= rel_tol * scale:
            result.append(left + right)
            continue
        total_panels += 2
        if total_panels > max_panels:
            raise NonConvergence(
                f"regularized_kernel exceeded the {max_panels}-panel refinement cap"
            )
        queue.append((a, mid, left))
        queue.append((mid, b, right))
        scale = max(scale, sum(abs(v) for _, _, v in queue) + sum(map(abs, result)))
    return 2.0 * math.fsum(result)


KERNEL_SCAN_EPS = (0.02, 0.01, 0.005)   # regularization ladder


def eps_extrapolation(values: dict) -> float:
    """Linear-in-eps Richardson extrapolation of the two smallest-eps entries
    of {eps: k^eps(r)}."""
    e0, e1 = sorted(values)[:2]
    return (e1 * values[e0] - e0 * values[e1]) / (e1 - e0)


def decay_fit_radii(r_values) -> np.ndarray:
    """The radii of r_values inside the decay-fit window [2, 8]."""
    r_values = np.asarray(r_values, dtype=float)
    return r_values[(r_values >= 2.0) & (r_values <= 8.0)]


def decay_slope(radii, values) -> float:
    """Least-squares slope of log|values| against radii, over at least four
    radii of the window [2, 8] (see decay_fit_radii)."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.size < 4 or decay_fit_radii(radii).size != radii.size:
        raise DegenerateData("decay fit needs >= 4 radii, all in [2, 8]")
    if np.any(values == 0.0) or not np.all(np.isfinite(values)):
        raise DegenerateData("kernel values underflowed; cannot fit a decay rate")
    return float(np.polyfit(radii, np.log(np.abs(values)), 1)[0])


def kernel_decay(kind, p: Params, radii, eps_reg: float):
    """The off-diagonal decay of k^eps (expected slope -(n-1)/2).

    rows holds (r, k^eps(r), log|k^eps(r)|) at each radius. summary holds the
    target slope, eps_reg, and with at least four radii in the fit window
    [2, 8] the decay slopes at eps_reg ("slope") and eps_reg / 2
    ("slope_half_eps"); also k^eps at the largest radius over
    KERNEL_SCAN_EPS and its eps_extrapolation. Each (r, eps) kernel value is
    computed once.
    """
    if any(r < 0.5 for r in radii) or not eps_reg > 0.0:
        raise DomainError("kernel_decay needs radii r >= 0.5 and eps_reg > 0")
    kernel = functools.cache(lambda r, eps: regularized_kernel(kind, p, r, eps))
    values = [kernel(r, eps_reg) for r in radii]
    rows = [(float(r), float(v), float(np.log(abs(v)))) for r, v in zip(radii, values)]
    fit_radii = decay_fit_radii(radii)
    summary = {"target_slope": -p.rho, "eps_reg": eps_reg}
    if len(fit_radii) >= 4:
        for name, eps in (("slope", eps_reg), ("slope_half_eps", eps_reg / 2.0)):
            summary[name] = decay_slope(fit_radii, [kernel(r, eps) for r in fit_radii])
    scan = {eps: kernel(max(radii), eps) for eps in KERNEL_SCAN_EPS}
    summary["kernel_scan_at_rmax"] = {repr(k): v for k, v in scan.items()}
    summary["kernel_extrapolated_at_rmax"] = eps_extrapolation(scan)
    return rows, summary
