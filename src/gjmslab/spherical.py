"""Radial spherical-transform calculus on hyperbolic space.

Plancherel density, spherical functions, forward/inverse transforms,
spectral quadratic forms (each energy and its one tail guard from _spectral_forms),
the closed-form operator kernels (operator_kernel), and the regularized
radial kernel with its decay experiment (kernel_decay), checked against them.
The spherical function Phi_beta(r) is the Legendre function of degree
-1/2 + i*beta. Pointwise (spherical_function) it is evaluated through the
Mehler-Dirichlet integral

    Phi_beta(r) = C_n (sinh r)^{2-n} int_0^sqrt(r) cos(beta (r - u^2)) h_r(u) du,
    h_r(u) = 2 u (2 sinh(r - u^2/2) sinh(u^2/2))^{(n-3)/2},

which is uniformly stable in (beta, r) where the raw hypergeometric series
loses ~ 2 beta arctan(1/sinh(r/2)) digits to cancellation. It serves every
r > 0; Phi_beta(0) = 1 exactly.

The Phi matrix on a (beta grid, radial grid) pair takes one route per
column, by n and r:

    n = 3, 5, 7, 9   r >= R_MIN_ELEMENTARY[n] = 0, 0.25, 0.5, 1: elementary
    other n          r >= the Jacobi switch: Jacobi expansion
    every n          below either switch: Mehler integral

At odd n = 2k + 1 the Jacobi shift operator makes Phi elementary
(Koornwinder 1984), Phi_beta(r) = c_k(beta) (-(1/sinh r) d/dr)^k cos(beta r)
with c_k(beta) = prod_{j<k} (2j + 1) / (beta^2 + j^2)
(special._elementary_columns). Its terms cancel as r -> 0, hence
R_MIN_ELEMENTARY, measured against the Mehler integral for beta up to 480.
Odd n above 9 takes the Jacobi route.

At other n the columns with r >= R_MIN_JACOBI come from the
Harish-Chandra expansion of the Jacobi function with
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
(~67).

grids.BLOCK_CELLS is the module's one memory budget: it sets the column
blocks of Phi, the row chunks of a pointwise Mehler cos table and the
frequency-row blocks of the kernel product. One generator, _phi_blocks,
computes Phi on a frequency grid and an array of radii (a radial grid's
nodes; a Phi pass reads no radial weight) and yields it in column blocks of
at most BLOCK_CELLS cells, after doing its per-row work once. phi_matrix
fills a new matrix from the blocks. A transform
(_transforms, inverse_spherical_transform) multiplies each block into its
result as it arrives, so a Phi it reads once is never held whole. The
module keeps no Phi between calls: a forward transform reads a matrix only
when its caller built it (phi_matrix) and passed it in, and then reads its
column blocks in the streamed order, with the streamed bits. The one caller
that does is the GJMS bubble scan at non-integer s (quotients.gap_scan): it
builds the Phi of the lifted-bubble domain and the short grid
quotients.REMAINDER_B_MAX once per scan, for every trial's remainder form.
Every frequency grid of the package (default_beta_grid) is made of 16-node
Gauss panels of one width, so each node is beta = m + o, one of K panel
shifts plus one of 16 in-panel offsets (RadialGrid.panel_factors; the first
panel's nodes are the offsets themselves, so the smallest frequencies are
exact). Below the switch, cos(beta phi) = cos(m phi) cos(o phi)
- sin(m phi) sin(o phi) with phi = r - u^2 turns each column's Mehler
u-sum into two (K x N_u)(N_u x 16) products: 2 (K + 16) sines and cosines
per (column, u-node) instead of 16 K cosines. An elementary column takes
sin(beta r) and cos(beta r) from the same factors. A Jacobi column sums the
2F1 terms t_k(beta) y^k, y = cosh^-2 r, with t_k computed once per
frequency row by the term-ratio recurrence (special._GaussSeries), per
chunk as T @ Y with Y[k, j] = y_j^k, and the phase e^{i beta log 2 cosh r}
comes from the same panel factors. A grid not made of such panels gets
one-node panels (shifts = nodes, offsets = [0]) and runs the same code.

Two routes price the regularized kernel
k^eps(r) = 2 int m(beta) e^{-eps beta^2} Phi_beta(r) |c(beta)|^{-2} d beta.
kernel_decay reads every value it reports from one Phi product
(_kernel_table): one fixed composite Gauss rule in beta, all its radii as
the columns and one (beta x eps) weight matrix for all its eps, one
_phi_blocks call per row block. The row blocks are written once, as the
edge slices of _kernel_blocks (BLOCK_CELLS // 16**2 whole panels each):
_kernel_table builds each slice's grid, and _product_cells reads each
slice's rows and top node. Before it builds any grid, kernel_decay counts
the Mehler cells of its witness and of its product together
(_witness_cells, _product_cells) and refuses an eps_reg that asks for more
than MAX_TABLE_CELLS. regularized_kernel is one
fixed composite Gauss rule on the pointwise spherical_function, which stays
on the per-radius Mehler integral at every r > 0, checked against its
halves: it prices its panels and their halves in one batch, and raises
NumericalError when halves miss their panel, never refining.
quotients.blowdown calls it: at (n, s) = (3, 1) the kernel values it
reduces to its constants are quadrature roundoff, so any change of route or
summation order would move them. kernel_decay calls it once, as a runtime
witness of its product. spherical_function and the Mehler columns of
_phi_blocks take their u-nodes, weights and h_r from one rule,
_mehler_rule, built at each use, once per u-panel count of a 2-d block of
frequency rows (_phi_mehler, whose cos table is built in chunks of whole
rows of at most BLOCK_CELLS cells); regularized_kernel passes
spherical_function its one batch as one block.
"""

import math

import numpy as np

from .errors import NumericalError, ParameterError
from .geometry import sphere_area
from .grids import (
    BLOCK_CELLS,
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    PHASE_PER_PANEL,
    RadialFunction,
    RadialGrid,
    SpectralProfile,
    _least_squares,
    gauss_panels,
)
from .multipliers import BETA_MAX, multiplier, sin_pi
from .params import MultiplierKind, Params
from .special import _GaussSeries, _elementary_columns, _log_gamma_array, log_abs_gamma_sq

R_MIN_JACOBI = 1.0         # Phi columns from this radius on: Jacobi expansion
# bound on g = beta cosh^-2(r) / 4 for a Jacobi cell; against Mehler at r = 1,
# n = 3 the error is 6e-15 at g = 6.3, 8e-13 at g = 15.8, 2e-6 at g = 31.5
JACOBI_GROWTH_MAX = 7.0
# odd n: Phi columns from this radius on are elementary; against Mehler for
# beta in (0, 480] the error is at most 2.8e-15 at n = 3 (r >= 0.05),
# 8.0e-15 at n = 5, 4.9e-14 at n = 7 and 1.1e-14 at n = 9 (3.9e-13,
# 5.4e-13 and 5.0e-13 one step of the table nearer 0)
R_MIN_ELEMENTARY = {3: 0.0, 5: 0.25, 7: 0.5, 9: 1.0}
DEFAULT_B_MAX = 60.0
DEFAULT_TAIL_TOL = 1e-4    # runtime guard on inverse/quadratic-form truncation
KERNEL_REL_TOL = 1e-10     # regularized_kernel: halves against their panel, relative to its scale
KERNEL_PANEL_WIDTH = 0.25  # kernel_decay: frequency panel width (at most PHASE_PER_PANEL / r_max)
KERNEL_WITNESS_TOL = 1e-4  # kernel_decay: product against regularized_kernel, relative
# kernel_decay: eps-Richardson limit against twice operator_kernel, relative,
# at each radius of the fit window; measured at most 7.3e-3 at r = 2..6 and
# 1.2e-2 at r = 8 (GJMS (3, 1.3), intertwined (6, 1.3): a kernel near roundoff)
KERNEL_CLOSED_FORM_TOL = 2e-2
# the package's one work bound, counted before any grid is built and read at
# the call: the Mehler cells of kernel_decay's witness (_witness_cells) and
# Phi product (_product_cells) together; the cells of a spline gap_scan's Phi
# (quotients._spline_phi_cells) and knot system; the samples of a CLI
# multiplier table and the lambda count of a gap-scan spec
MAX_TABLE_CELLS = 10 ** 8


def plancherel_density(n: int, beta):
    """|c(beta)|^{-2} = 2^{1-n}/(Gamma(n/2) pi^{n/2})
    * |Gamma(rho + i beta)|^2 / |Gamma(i beta)|^2.

    At even n the Gamma ratio is taken as it stands: Gamma(i beta) has its
    pole at beta = 0, a log|Gamma|^2 of +inf, so the density there is 0.0.
    At odd n = 2k + 1 it is beta^2 prod_{j=1}^{k-1} (beta^2 + j^2), so no
    Gamma function is evaluated (at n = 3 the product is empty).
    """
    if n < 2:
        raise ParameterError(f"plancherel_density requires n >= 2, got {n}")
    beta_arr = np.asarray(beta, dtype=float)
    scalar = beta_arr.ndim == 0
    beta_arr = np.atleast_1d(beta_arr)
    const = 2.0 ** (1 - n) / (math.gamma(n / 2.0) * math.pi ** (n / 2.0))
    if n % 2:
        out = const * beta_arr * beta_arr
        for j in range(1, (n - 1) // 2):
            out *= beta_arr * beta_arr + j * j
    else:
        rho = (n - 1) / 2.0
        out = const * np.exp(log_abs_gamma_sq(rho, beta_arr) - log_abs_gamma_sq(0.0, beta_arr))
    return float(out[0]) if scalar else out


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


def _mehler_rule(n, radii, count):
    """The Mehler u-quadrature of count panels on [0, sqrt(r)] for each radius
    of the 1-d radii: the phases r - u^2 and the weights h_r(u) du, each
    radii.size x (16 count)."""
    r = radii[:, None]
    u, w = gauss_panels(np.linspace(0.0, np.sqrt(radii), count + 1, axis=-1))
    uu = u * u
    h = 2.0 * u * (2.0 * np.sinh(r - 0.5 * uu) * np.sinh(0.5 * uu)) ** ((n - 3) / 2.0)
    return r - uu, h * w


def _phi_mehler(n, beta, r):
    """Phi_beta(r) by the Mehler-Dirichlet integral, for a 1-d beta (one row)
    or a 2-d block of rows. Each row takes the u-quadrature that its own
    max |beta| selects, and rows with the same u-panel count share one rule;
    their cos table is built in chunks of whole rows of at most BLOCK_CELLS
    cells (one row when a row is larger). Every row's integral is one
    matrix-vector product of its own, so a row's values do not depend on
    the rows beside it or on the chunk."""
    rows = np.atleast_2d(beta)
    groups = {}   # u-panel count -> indices of its rows
    for i, b_max in enumerate(np.max(np.abs(rows), axis=1, initial=0.0)):
        groups.setdefault(_mehler_u_panels(r, b_max), []).append(i)
    integral = np.empty(rows.shape)
    for count, same in groups.items():
        phase, hw = _mehler_rule(n, np.array([r]), count)
        step = max(1, BLOCK_CELLS // max(1, rows.shape[1] * phase.size))
        for start in range(0, len(same), step):
            chunk = same[start:start + step]
            kernel = rows[chunk][:, :, None] * phase[0]
            np.cos(kernel, out=kernel)
            integral[chunk] = kernel @ hw[0]
    return _mehler_constant(n) * math.sinh(r) ** (2 - n) * integral.reshape(np.shape(beta))


def _column_chunks(rows, columns):
    """The column slices, in order, in which a rows x columns Phi matrix is
    built (_phi_blocks) and a caller-built one is read (_transforms):
    BLOCK_CELLS // rows columns each (at least one), the last one narrower."""
    step = max(1, BLOCK_CELLS // rows)
    return [slice(j, min(j + step, columns)) for j in range(0, columns, step)]


def _mehler_counts(n, radii, beta_max):
    """The u-panel count of each Mehler column of a Phi pass on the
    increasing radii whose largest |beta| is beta_max: one per radius below
    the switch, R_MIN_ELEMENTARY[n] at n = 3, 5, 7, 9 and
    _jacobi_switch_radius(beta_max) at other n."""
    switch = R_MIN_ELEMENTARY[n] if n in R_MIN_ELEMENTARY else _jacobi_switch_radius(beta_max)
    near = int(np.searchsorted(radii, switch))
    return [_mehler_u_panels(r, beta_max) for r in radii[:near]]


def _phi_blocks(n, beta_grid, radii):
    """Phi_beta(r) on beta_grid x radii, radii a 1-d array of increasing,
    positive radii (a radial grid's nodes: a Phi pass reads no weight), as
    (column slice, C-ordered block) pairs over _column_chunks, each block
    built when it is asked for.

    Columns from the switch on: at n = 3, 5, 7, 9 from
    R_MIN_ELEMENTARY[n] = 0, 0.25, 0.5, 1 on, the elementary form
    (special._elementary_columns); at other n from R_MIN_JACOBI on, raised
    for large frequencies by _jacobi_switch_radius, the Jacobi expansion
    (_jacobi_columns). Columns below the switch: the Mehler integral.

    The per-row work is done once, before the first block: the panel
    factors beta = shifts[k] + offsets[i] (RadialGrid.panel_factors), the
    u-panel count of each Mehler column (_mehler_counts: the one
    spherical_function takes at the grid's largest |beta|) and the
    frequency factors of the far route.
    With cos(beta phi) = cos(m phi) cos(o phi) - sin(m phi) sin(o phi),
    m a shift, o an offset and phi = r - u^2, a Mehler column's u-sum is
    two (K x N_u)(N_u x 16) products, batched over columns of one u-panel
    count whose K x N_u arrays stay under BLOCK_CELLS cells.
    """
    if n < 2:
        raise ParameterError(f"phi_matrix requires n >= 2, got {n}")
    beta = beta_grid.nodes
    shifts, offsets = beta_grid.panel_factors()
    counts = np.array(_mehler_counts(n, radii, float(np.max(np.abs(beta)))), dtype=int)
    near = counts.size
    scale = _mehler_constant(n) * np.sinh(radii[:near]) ** (2 - n)
    if near < radii.size:
        far_columns = _elementary_columns if n in R_MIN_ELEMENTARY else _jacobi_columns
        far = far_columns(n, beta, radii, shifts, offsets)

    def mehler(cols, count):
        phase, hw = _mehler_rule(n, radii[cols], count)
        arg = shifts[:, None] * phase[:, None, :]              # cols x K x N_u
        cos_m = np.cos(arg)
        cos_m *= hw[:, None, :]
        sin_m = np.sin(arg, out=arg)
        sin_m *= hw[:, None, :]
        arg = phase[:, :, None] * offsets                      # cols x N_u x 16
        integral = cos_m @ np.cos(arg) - sin_m @ np.sin(arg)   # cols x K x 16
        return (scale[cols, None] * integral.reshape(phase.shape[0], -1)).T

    for cols in _column_chunks(beta.size, radii.size):
        j, split = cols.start, min(max(cols.start, near), cols.stop)
        if split == cols.start:     # no Mehler column: the far route's own block
            yield cols, far(cols)
            continue
        block = np.empty((beta.size, cols.stop - cols.start))
        while j < split:
            count = counts[j]
            limit = min(split, j + max(1, BLOCK_CELLS // (shifts.size * 16 * count)))
            other = np.flatnonzero(counts[j:limit] != count)
            stop = j + int(other[0]) if other.size else limit
            block[:, j - cols.start:stop - cols.start] = mehler(slice(j, stop), int(count))
            j = stop
        if split < cols.stop:
            block[:, split - cols.start:] = far(slice(split, cols.stop))
        yield cols, block


def _jacobi_columns(n, beta, radii, shifts, offsets):
    """cols -> the Phi columns radii[cols] from the Jacobi expansion: the 2F1
    coefficients times (2 / beta) c(beta) i beta, summed against the powers
    of cosh^-2 r, times (2 cosh r)^{i beta - rho} from the panel factors."""
    rho = (n - 1) / 2.0
    ib = 1j * beta
    # c(beta) * (i beta): Gamma(i beta) = Gamma(1 + i beta) / (i beta), and
    # 2 Re[z / (i beta)] = 2 Im[z] / beta below
    log_c = ((rho - ib) * math.log(2.0) + math.lgamma(n / 2.0)
             + _log_gamma_array(1.0 + ib)
             - _log_gamma_array(0.5 * (ib + rho))
             - _log_gamma_array(0.5 * (ib + 0.5 * (n + 1))))
    log_2cosh = np.logaddexp(radii, -radii)
    y = np.exp(2.0 * (math.log(2.0) - log_2cosh))
    series = _GaussSeries(0.5 * (rho - ib), 0.25 * (n + 1) - 0.5 * ib, 1.0 - ib,
                          scale=2.0 / beta * np.exp(log_c))

    def columns(cols):
        re, im = series(y[cols])
        # Im[(2 cosh r)^{i beta - rho} sum] with e^{i beta L} = e^{i m L} e^{i o L},
        # L = log 2 cosh r: (K x 1 x cols) factors times (16 x cols) ones
        arg = shifts[:, None, None] * log_2cosh[cols]
        cos_m, sin_m = np.cos(arg), np.sin(arg, out=arg)
        arg = offsets[:, None] * log_2cosh[cols]
        amplitude = np.exp(-rho * log_2cosh[cols])
        cos_o, sin_o = np.cos(arg) * amplitude, np.sin(arg) * amplitude
        shape = (shifts.size, offsets.size, -1)
        re, im = re.reshape(shape), im.reshape(shape)
        first = cos_o * im
        first += sin_o * re
        first *= cos_m
        re *= cos_o
        im *= sin_o
        re -= im
        re *= sin_m
        first += re
        return first.reshape(beta.size, -1)

    return columns


def _jacobi_switch_radius(beta_max):
    """Smallest radius whose column takes the Jacobi expansion for
    frequencies up to beta_max: R_MIN_JACOBI, or higher where
    beta_max cosh^-2(r) / 4 would exceed JACOBI_GROWTH_MAX."""
    cosh_sq = beta_max / (4.0 * JACOBI_GROWTH_MAX)
    return max(R_MIN_JACOBI, math.acosh(math.sqrt(max(cosh_sq, 1.0))))


def spherical_function(n: int, beta, r: float):
    """Phi_beta(r): the radial eigenfunction normalized to Phi_beta(0) = 1.

    beta may be a scalar, a 1-d array or a 2-d block of rows; r is a scalar
    radius >= 0. Phi is exactly 1 at r = 0 and the Mehler-Dirichlet integral
    at every r > 0, each row on the u-quadrature its own max |beta| selects
    (_phi_mehler).
    """
    if n < 2:
        raise ParameterError(f"spherical_function requires n >= 2, got {n}")
    r = float(r)
    if r < 0.0:
        raise ParameterError(f"spherical_function requires r >= 0, got {r}")
    beta_arr = np.asarray(beta, dtype=float)
    scalar = beta_arr.ndim == 0
    beta_arr = np.atleast_1d(beta_arr).astype(float)
    if r == 0.0:
        out = np.ones_like(beta_arr)
    else:
        out = _phi_mehler(n, beta_arr, r)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Phi matrices (beta grid x radial grid). A transform contracts each block of
# _phi_blocks as it is built, so a matrix it reads once (the spline scan's,
# blowdown's) is never held whole, and nothing is kept between calls. A
# caller that reads one Phi many times builds it with phi_matrix and passes
# it to quadratic_form: the GJMS bubble scan at non-integer s, whose trials'
# remainder forms all take one lifted-bubble domain and the short remainder
# grid (quotients.REMAINDER_B_MAX). Passed or streamed, _transforms
# multiplies the same blocks in the same order, and its bits do not depend
# on which (the BLAS product of a block does not depend on its row stride).
# ---------------------------------------------------------------------------

def phi_matrix(n: int, beta_grid: RadialGrid, r_grid: RadialGrid) -> np.ndarray:
    """Phi_beta(r) on beta_grid x r_grid, a new matrix filled from the blocks
    of _phi_blocks; built for a caller that reads it more than once
    (quadratic_form's phi), and cached nowhere.

    Columns from R_MIN_ELEMENTARY[n] on (n = 3, 5, 7, 9) come from the
    elementary odd-n form; at other n columns from the Jacobi switch
    (R_MIN_JACOBI, raised for large frequencies by _jacobi_switch_radius) on
    come from the Jacobi expansion; the columns below either switch come
    from the panel-factored Mehler integral; all in column chunks (module
    docstring). Agrees with spherical_function column by column to ~1e-14
    (5e-14 at n = 7, r = 0.5).
    """
    mat = np.empty((beta_grid.nodes.size, r_grid.nodes.size))
    for cols, block in _phi_blocks(n, beta_grid, r_grid.nodes):
        mat[:, cols] = block
    return mat


def default_beta_grid(support_radius: float, b_max: float = DEFAULT_B_MAX) -> RadialGrid:
    """Frequency grid on [0, b_max] resolving the transform of a profile
    supported in [0, support_radius] (whose transform oscillates at that scale)."""
    return RadialGrid.from_edges(np.linspace(0.0, b_max, _beta_panels(support_radius, b_max) + 1))


def _beta_panels(support_radius: float, b_max: float) -> int:
    """The panel count of default_beta_grid(support_radius, b_max)."""
    width = min(2.0, PHASE_PER_PANEL / max(support_radius, 1.0))
    return max(8, int(math.ceil(b_max / width)))


def spherical_transform(f: RadialFunction, n: int, beta_grid: RadialGrid) -> SpectralProfile:
    """f_hat(beta) = omega_{n-1} int_0^inf f(r) Phi_beta(r) sinh^{n-1}(r) dr."""
    return SpectralProfile(beta_grid, _transforms(n, beta_grid, f.grid, _profile_column(f))[:, 0])


def _profile_column(f: RadialFunction):
    """f's values as one profile column, once f is known to have a transform:
    ParameterError unless its support is compact and inside its grid."""
    if not np.isfinite(f.support_radius):
        raise ParameterError("operation requires compactly supported data")
    if f.support_radius > f.grid.r_max * (1.0 + 1e-12):
        raise ParameterError("radial grid does not cover the support of f")
    return f.values[:, None]


def _polar_measure(n, grid):
    """omega_{n-1} sinh^{n-1}(r) dr on the nodes of grid (hyperbolic volume)."""
    return sphere_area(n) * np.sinh(grid.nodes) ** (n - 1) * grid.weights


def _transforms(n, beta_grid, grid, columns, phi=None):
    """Spherical transforms on beta_grid of the profile columns on grid: the
    sum, in column order, of each Phi block times its rows of the
    measure-weighted columns. The blocks are those of _phi_blocks, each
    dropped once it is multiplied, so the transform holds one block, not the
    matrix; or, when the caller passes phi = phi_matrix(n, beta_grid, grid),
    the same column chunks of phi, with the same bits. A phi of any other
    shape than beta nodes x grid nodes raises ParameterError."""
    weighted = _polar_measure(n, grid)[:, None] * columns
    out = np.zeros((beta_grid.nodes.size, columns.shape[1]))
    if phi is None:
        blocks = _phi_blocks(n, beta_grid, grid.nodes)
    elif phi.shape != (beta_grid.nodes.size, grid.nodes.size):
        raise ParameterError(f"phi is {phi.shape[0]} x {phi.shape[1]}, not the "
                             f"{beta_grid.nodes.size} x {grid.nodes.size} of its beta and r grids")
    else:
        blocks = ((cols, phi[:, cols]) for cols in _column_chunks(*phi.shape))
    for cols, block in blocks:
        out += block @ weighted[cols]
        del block   # not held while the next block is built
    return out


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
        raise NumericalError(
            f"inverse transform tail fraction {tail:.3e} exceeds tolerance {tail_tol:.1e}"
        )
    weighted = F.values * dens * F.beta_grid.weights
    values = np.empty(r_grid.nodes.size)
    for cols, block in _phi_blocks(n, F.beta_grid, r_grid.nodes):
        values[cols] = block.T @ weighted
    return RadialFunction(values=values, grid=r_grid, support_radius=r_grid.r_max)


def lp_mass(f: RadialFunction, n: int, p_exp: float) -> float:
    """int |f|^p dV by geodesic-polar quadrature."""
    r = f.grid.nodes
    return sphere_area(n) * f.grid.integrate(np.abs(f.values) ** p_exp * np.sinh(r) ** (n - 1))


def _spectral_weights(kind, p: Params, support_radius: float, b_max: float):
    """default_beta_grid(support_radius, b_max), |c|^{-2} and the multiplier
    of kind on its nodes."""
    beta = default_beta_grid(support_radius, b_max)
    return beta, plancherel_density(p.n, beta.nodes), multiplier(kind, p, beta.nodes)


def _spectral_forms(kind, p, grid, columns, support_radius, b_max, phi=None):
    """(energy, guard, tails) of the profile columns on grid, supported in
    [0, support_radius]. With f_hat_i = column i's transform on
    default_beta_grid(support_radius, b_max) (through phi when the caller
    built it, _transforms), energy[i, j] is
    int f_hat_i f_hat_j m |c|^{-2} d beta, m the multiplier of kind,
    tails[i] is the fraction of int |m| |f_hat_i|^2 |c|^{-2} d beta carried
    by the last decade of that grid (tail_fraction), and columns @ theta
    passes the tail guard, theta^T guard theta >= 0, iff that fraction of
    its transform is at most DEFAULT_TAIL_TOL."""
    beta_grid, dens, symbol = _spectral_weights(kind, p, support_radius, b_max)
    transforms = _transforms(p.n, beta_grid, grid, columns, phi)
    weighted = transforms.T * (beta_grid.weights * dens)
    # tol * total - tail of |m| |f_hat|^2 |c|^{-2}, the tail as in tail_fraction
    guard = (weighted * (DEFAULT_TAIL_TOL - beta_grid.tail_mask) * np.abs(symbol)) @ transforms
    energy = (weighted * symbol) @ transforms
    tails = [beta_grid.tail_fraction(row) for row in np.abs(symbol) * transforms.T ** 2 * dens]
    return energy, guard, tails


def quadratic_form(kind: MultiplierKind, p: Params, f: RadialFunction,
                   b_max: float = DEFAULT_B_MAX, phi=None) -> float:
    """int_0^{b_max} m(beta) |f_hat|^2 |c|^{-2} d beta, m the multiplier of
    kind (half-line normalization, as in the radial Plancherel identity).

    The one-column case of _spectral_forms: raises NumericalError when f fails
    its tail guard, with the tail fraction of the same transform. A caller
    that prices many profiles on one grid may pass
    phi = phi_matrix(p.n, default_beta_grid(f.support_radius, b_max), f.grid),
    which gives the bits of the streamed transform.
    """
    energy, guard, tails = _spectral_forms(kind, p, f.grid, _profile_column(f),
                                           f.support_radius, b_max, phi)
    if guard[0, 0] < 0.0:
        raise NumericalError(
            f"quadratic form tail fraction {tails[0]:.3e} exceeds tolerance {DEFAULT_TAIL_TOL:.1e}"
        )
    return float(energy[0, 0])


# ---------------------------------------------------------------------------
# Regularized radial kernel and its off-diagonal decay rate
# ---------------------------------------------------------------------------

def _kernel_beta_cut(eps_reg):
    """Where the Gaussian factor e^{-eps_reg beta^2} falls to 1e-16: both
    kernel routes integrate up to this frequency."""
    return math.sqrt(16.0 * math.log(10.0) / eps_reg)


def _kernel_rows(r, eps_reg):
    """The (lower, upper) edges of regularized_kernel's batch: its panels, then their halves."""
    beta_cut = _kernel_beta_cut(eps_reg)
    width = min(1.5, PHASE_PER_PANEL / max(r, 1.0))
    edges = np.linspace(0.0, beta_cut, max(8, int(math.ceil(beta_cut / width))) + 1)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    return (np.concatenate((a, np.column_stack((a, mid)).ravel())),
            np.concatenate((b, np.column_stack((mid, b)).ravel())))


def _witness_cells(r, eps_reg) -> int:
    """The cells of regularized_kernel's Mehler cos table (_phi_mehler), over
    all its chunks: 16 nodes per batch row times 16 u-nodes per u-panel at
    the row's largest node, taken from gauss_panels of its edges in blocks
    of BLOCK_CELLS // 16 rows. kernel_decay's work bound adds _product_cells
    to it."""
    edges = np.stack(_kernel_rows(r, eps_reg), axis=-1)
    step = BLOCK_CELLS // GAUSS_NODES.size
    u_panels = 0
    for start in range(0, edges.shape[0], step):
        top = gauss_panels(edges[start:start + step])[0][:, -1]
        u_panels += sum(_mehler_u_panels(r, b) for b in top.tolist())
    return GAUSS_NODES.size ** 2 * u_panels


def operator_kernel(kind: MultiplierKind, p: Params, r: float) -> float:
    """The radial kernel of the operator of kind at geodesic distance r > 0,
    with C_{n,s} = 2^{2s} s Gamma((n+2s)/2) / (pi^{n/2} Gamma(1-s)), the
    constant of the Euclidean (-Delta)^s (Di Nezza-Palatucci-Valdinoci 2012):

        intertwined  -C_{n,s} (2 sinh(r/2))^{-(n+2s)},
        remainder     C_{n,s} (2 cosh(r/2))^{-(n+2s)},
        GJMS          their sum.

    At integer s it is 0.0: the operator is a differential one, local, and
    Gamma(1 - s) has a pole there. regularized_kernel tends to twice this
    value as eps -> 0."""
    if sin_pi(p.s) == 0.0:
        return 0.0
    exponent = -(p.n + 2.0 * p.s)
    c = (2.0 ** (2.0 * p.s) * p.s * math.gamma((p.n + 2.0 * p.s) / 2.0)
         / (math.pi ** (p.n / 2.0) * math.gamma(1.0 - p.s)))
    intertwined = -c * (2.0 * math.sinh(r / 2.0)) ** exponent
    remainder = c * (2.0 * math.cosh(r / 2.0)) ** exponent
    return {MultiplierKind.INTERTWINED: intertwined, MultiplierKind.REMAINDER: remainder,
            MultiplierKind.GJMS: intertwined + remainder}[kind]


def regularized_kernel(kind: MultiplierKind, p: Params, r: float, eps_reg: float) -> float:
    """k^eps(r) = 2 int_0^inf m(beta) e^{-eps beta^2} Phi_beta(r) |c|^{-2} d beta.

    This is twice the half-line inversion integral of
    inverse_spherical_transform (of the profile m(beta) e^{-eps beta^2}), so
    its eps -> 0 limit is twice the operator's radial kernel. With C_{n,s}
    the constant of the Euclidean (-Delta)^s, the linear-in-eps Richardson
    limit (eps_extrapolation) over eps = 0.01, 0.005 at (n, s) in
    {(3, 0.6), (5, 0.7), (4, 0.5), (3, 1.3)} and r = 2, 4, 6 measured 1.9942
    to 1.9999 times -C_{n,s} (2 sinh(r/2))^{-(n+2s)} for the intertwined
    kind (at least 1.9991 at r >= 4), and GJMS minus intertwined within
    2.5e-4 of 2 C_{n,s} (2 cosh(r/2))^{-(n+2s)}.

    One fixed composite 16-node Gauss-Legendre rule up to the point where
    the Gaussian factor falls below 1e-16, checked against its halves: the
    kernel is 2 fsum of each panel's two halves, and when the halves of a
    panel miss its one-panel value by more than KERNEL_REL_TOL times the
    scale (the sum of |panel value|), it raises NumericalError naming the
    worst miss. It never refines: where a survey of (kind, n, s, r, eps)
    saw halves miss, the integral was cancellation, no refined value agreed
    with kernel_decay's Phi product within 1e-4, and two refinement orders
    that met the same tolerance disagreed by 3-4%. The integrand is
    evaluated in one batch, the panels and then their halves: one symbol,
    Plancherel-density and Gaussian pass on its flattened nodes and one
    spherical_function call on its (panels x 16) block. Each panel's value
    is the one-panel rule, so the kernel values are bit-identical to
    panel-by-panel evaluation.
    """
    r = float(r)
    if r < 0.5:
        raise ParameterError(f"regularized_kernel requires r >= 0.5, got {r}")
    if not eps_reg > 0.0:
        raise ParameterError(f"eps_reg must be > 0, got {eps_reg}")

    def panel_values(a, b):
        """The one-panel rule on each panel [a[i], b[i]], as one batch."""
        nodes, _ = gauss_panels(np.stack([a, b], axis=-1))
        flat = nodes.ravel()
        m = multiplier(kind, p, flat)
        phi = spherical_function(p.n, nodes, r).ravel()
        dens = plancherel_density(p.n, flat)
        g = (m * np.exp(-eps_reg * flat * flat) * phi * dens).reshape(nodes.shape)
        # the one-panel rule scales the reference weights after the dot
        # product; composite weights would move the last bits of k^eps
        return np.array([0.5 * (hi - lo) * float(np.dot(GAUSS_WEIGHTS, row))
                         for lo, hi, row in zip(a, b, g)])

    a, b = _kernel_rows(r, eps_reg)
    coarse, halves = np.split(panel_values(a, b), [a.size // 3])
    fine = halves[0::2] + halves[1::2]
    scale = sum(map(abs, coarse.tolist())) + 1e-300
    miss = np.abs(fine - coarse)
    if not np.all(miss <= KERNEL_REL_TOL * scale):
        worst = int(np.argmax(miss))   # the first NaN, if any
        raise NumericalError(
            f"regularized_kernel: the halves of the panel [{a[worst]:.6g}, {b[worst]:.6g}] "
            f"miss its value by {miss[worst]:.3e}, more than {KERNEL_REL_TOL:.0e} of the "
            f"scale {scale:.3e}"
        )
    return 2.0 * math.fsum(fine.tolist())


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
    """Least-squares slope of log|values| against radii (grids._least_squares,
    columns 1 and radii), over at least four distinct radii of the window
    [2, 8] (see decay_fit_radii)."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.size < 4 or decay_fit_radii(radii).size != radii.size:
        raise NumericalError("decay fit needs >= 4 radii, all in [2, 8]")
    # a set, not np.unique, which would load numpy.ma
    if len(set(radii.tolist())) != radii.size:
        raise NumericalError("decay fit needs distinct radii")
    if np.any(values == 0.0) or not np.all(np.isfinite(values)):
        raise NumericalError("kernel values underflowed; cannot fit a decay rate")
    return _least_squares(np.ones_like(radii), radii, np.log(np.abs(values)))[1]


def _kernel_blocks(radii, eps_values):
    """The edge slices, in order, of _kernel_table's frequency row blocks:
    the rule's panels on [0, beta_cut] (_kernel_beta_cut of the smallest
    eps), KERNEL_PANEL_WIDTH wide or, for a larger r_max, PHASE_PER_PANEL /
    r_max, taken BLOCK_CELLS // 16**2 whole panels (BLOCK_CELLS // 16 rows)
    at a time, the last slice shorter; each slice starts at its
    predecessor's last edge."""
    beta_cut = _kernel_beta_cut(float(np.min(eps_values)))
    width = min(KERNEL_PANEL_WIDTH, PHASE_PER_PANEL / radii[-1])
    edges = np.linspace(0.0, beta_cut, int(math.ceil(beta_cut / width)) + 1)
    panels = BLOCK_CELLS // GAUSS_NODES.size ** 2
    return [edges[j:j + panels + 1] for j in range(0, edges.size - 1, panels)]


def _kernel_table(kind, p, radii, eps_values):
    """k^eps(r), the integral of regularized_kernel, for each eps of
    eps_values (rows) at each radius of the increasing 1-d radii (columns),
    from one pass over the frequency rows.

    One fixed composite 16-node rule, walked in the row blocks of
    _kernel_blocks, the one block budget of the module: each edge slice is
    a grid of its own (RadialGrid.from_edges, whose nodes and weights are
    the whole rule's, bit for bit) and one _phi_blocks pass on the radii. The
    table is W^T Phi with W[beta, eps] = 2 w m(beta) e^{-eps beta^2}
    |c(beta)|^{-2}, summed over the blocks, so the frequency factors (at
    n = 3, 5, 7, 9 elementary, with no c(beta) log-Gamma and no 2F1
    coefficients) and the Phi block of one row block are held at a time."""
    eps = np.asarray(eps_values, dtype=float)
    table = np.zeros((eps.size, radii.size))
    for edges in _kernel_blocks(radii, eps):
        block = RadialGrid.from_edges(edges)
        b = block.nodes
        w = 2.0 * block.weights * multiplier(kind, p, b) * plancherel_density(p.n, b)
        weights = w[:, None] * np.exp(-np.multiply.outer(b * b, eps))
        for cols, phi in _phi_blocks(p.n, block, radii):
            table[:, cols] += weights.T @ phi
    return table


def _product_cells(n, radii, eps_values) -> int:
    """The Mehler cells of _kernel_table's Phi product, counted from the
    edge slices of _kernel_blocks before any node grid is built: for each
    slice, its (edges.size - 1) * 16 rows times the u-nodes of every column
    below its switch (_mehler_counts at its largest node, the top node of
    its last panel, as _phi_blocks takes it)."""
    size = GAUSS_NODES.size
    cells = 0
    for edges in _kernel_blocks(radii, eps_values):
        top = float(gauss_panels(edges[-2:])[0][-1])
        cells += (edges.size - 1) * size * size * sum(_mehler_counts(n, radii, top))
    return cells


def kernel_decay(kind: MultiplierKind, p: Params, radii, eps_reg: float):
    """The off-diagonal decay of k^eps (regularized_kernel of kind).

    summary's target_slope is -rho = -(n-1)/2, the decay rate of Phi_beta(r)
    at fixed beta, not the kernel's: the closed-form kernels decay like
    e^{-(n+2s) r / 2} (intertwined) and e^{-((n+2s)/2 + 1) r} (GJMS), and no
    verdict compares the fitted slopes with target_slope (at (3, 0.6) the
    slope is -2.24 against -1.0).

    rows holds (r, k^eps(r), log|k^eps(r)|) at each radius. summary holds the
    target slope, eps_reg, and with at least four radii in the fit window
    [2, 8] the decay slopes at eps_reg ("slope") and eps_reg / 2
    ("slope_half_eps"); also k^eps at the largest radius over
    KERNEL_SCAN_EPS and its eps_extrapolation. A repeated radius raises
    ParameterError before any kernel is computed, and so does an eps_reg
    whose kernels run beyond multipliers.BETA_MAX (_kernel_beta_cut) or
    whose witness and Phi product together build more than MAX_TABLE_CELLS
    Mehler cells (_witness_cells plus _product_cells, counted before any
    grid is built; the product's count walks the edge slices of
    _kernel_blocks that the product builds on, each slice's rows times the
    u-nodes of its columns below the switch, which at n = 3 from r = 0 is
    none).

    Every reported value comes from one Phi product (_kernel_table) over
    all radii and every eps of eps_reg, eps_reg / 2 and KERNEL_SCAN_EPS.
    One regularized_kernel is its runtime witness, at the smallest radius
    and eps_reg, where the kernel is largest. When the product's value there
    is more than KERNEL_WITNESS_TOL off it, relative, kernel_decay raises
    NumericalError: then one route or both are at roundoff (the intertwined
    kernel at integer s, whose symbol is a polynomial, is analytically about
    e^{-r^2 / (4 eps)}). So does the witness itself, when its halves miss
    their panels (intertwined (6, 1.3) at r = 5, eps = 3e-4).

    At non-integer s every radius of the fit window [2, 8] is also checked
    against the closed form: the eps_extrapolation of the product's eps_reg
    and eps_reg / 2 values must lie within KERNEL_CLOSED_FORM_TOL, relative,
    of 2 operator_kernel(kind, p, r), else NumericalError (at large n + 2s
    the product is cancellation there: intertwined (7, 2.5) is 1.9 off at
    r = 4). Below r = 2 the eps = 0.01 kernel is still far from its limit,
    so those radii go unchecked.
    """
    if any(r < 0.5 for r in radii) or not eps_reg > 0.0:
        raise ParameterError("kernel_decay needs radii r >= 0.5 and eps_reg > 0")
    if len(set(radii)) != len(radii):
        raise ParameterError("kernel_decay radii must be distinct")
    eps_values = list(dict.fromkeys((eps_reg, eps_reg / 2.0) + KERNEL_SCAN_EPS))
    beta_cut = _kernel_beta_cut(min(eps_values))
    if beta_cut > BETA_MAX:
        raise ParameterError(f"eps_reg {eps_reg!r} is too small: the kernels at eps_reg / 2 run "
                             f"to |beta| = {beta_cut:.6g}, beyond the symbols' bound {BETA_MAX:g}")
    increasing = sorted(map(float, radii))
    r_min = increasing[0]
    columns = np.array(increasing)
    product = _product_cells(p.n, columns, eps_values)
    cells = _witness_cells(r_min, eps_reg) + product
    if cells > MAX_TABLE_CELLS:
        builds = "the witness kernel and the Phi product build" if product else \
            "the witness kernel builds"
        raise ParameterError(f"eps_reg {eps_reg!r} asks for too much work: {builds} "
                             f"{cells:.3g} cells, more than {MAX_TABLE_CELLS:.0e}")
    table = dict(zip(eps_values, _kernel_table(kind, p, columns, eps_values)))

    def kernel(r, eps):
        return float(table[eps][increasing.index(r)])

    witness = regularized_kernel(kind, p, r_min, eps_reg)
    product = kernel(r_min, eps_reg)
    if not abs(product - witness) <= KERNEL_WITNESS_TOL * abs(witness):
        raise NumericalError(
            f"kernel_decay: the Phi product gives k^{eps_reg!r}({r_min!r}) = {product:.6e} "
            f"against {witness:.6e} from regularized_kernel, more than "
            f"{KERNEL_WITNESS_TOL:.0e} apart (relative)"
        )
    fit_radii = decay_fit_radii(radii)
    if sin_pi(p.s) != 0.0:
        for r in fit_radii.tolist():
            limit = eps_extrapolation({eps: kernel(r, eps) for eps in (eps_reg, eps_reg / 2.0)})
            closed = 2.0 * operator_kernel(kind, p, r)
            if not abs(limit - closed) <= KERNEL_CLOSED_FORM_TOL * abs(closed):
                raise NumericalError(
                    f"kernel_decay: the eps-Richardson limit at r = {r!r} is {limit:.6e} "
                    f"against {closed:.6e}, twice the closed-form {kind.value} kernel, "
                    f"more than {KERNEL_CLOSED_FORM_TOL:.0e} apart (relative)"
                )
    values = [kernel(r, eps_reg) for r in radii]
    rows = [(float(r), float(v), float(np.log(abs(v)))) for r, v in zip(radii, values)]
    summary = {"target_slope": -p.rho, "eps_reg": eps_reg}
    if len(fit_radii) >= 4:
        for name, eps in (("slope", eps_reg), ("slope_half_eps", eps_reg / 2.0)):
            summary[name] = decay_slope(fit_radii, [kernel(r, eps) for r in fit_radii])
    scan = {eps: kernel(max(radii), eps) for eps in KERNEL_SCAN_EPS}
    summary["kernel_scan_at_rmax"] = {repr(k): v for k, v in scan.items()}
    summary["kernel_extrapolated_at_rmax"] = eps_extrapolation(scan)
    return rows, summary
