"""Quadrature grids and sampled radial/spectral profiles.

Every quadrature in the package but one is built here from one rule:
16-node Gauss-Legendre on each panel of a list of edges (gauss_panels), with
uniform edges for transform-grade resolution and geometric edges for the
wide-range bubble integrals. The exception is bubbles._mollifier_mass, the
integral of the mollifier density exp(-1/(u(1-u))) on (0, t), which takes
one 48-node rule: at t = 1 three 16-node panels miss by 4.3e-10, relative,
and the 48-node rule by 6e-15. A RadialGrid holds the nodes and plain
dr-weights of the rule on a list of edges and r_max, the last edge
(RadialGrid.from_edges, its one constructor); measure factors (sinh^{n-1},
ball weights, Plancherel densities) are applied by callers. The package's
one least-squares fit, _least_squares, lives here too: the lowest module
that every fitting module imports.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError

PHASE_PER_PANEL = 18.0     # radians of oscillation a 16-node panel resolves cleanly
# cells in the largest array of one block of a blocked matrix build (a
# Phi column block (spherical._phi_blocks), a Hankel band kernel's row block):
# 128 KB per temporary
BLOCK_CELLS = 1 << 14


def _mirrored_rule(nodes, weights):
    """A Gauss-Legendre rule on [-1, 1] from its positive nodes (ascending)
    and their weights: the nodes mirrored to -x, each weight to its mirror."""
    nodes = np.array(nodes)
    weights = np.array(weights)
    return np.concatenate([-nodes[::-1], nodes]), np.concatenate([weights[::-1], weights])


# the 16-node Gauss-Legendre rule on [-1, 1]: the literals are the positive
# half of numpy.polynomial.legendre.leggauss(16), whose nodes and weights are
# exactly symmetric, so the mirrored rule has its bytes (written out to keep
# numpy.polynomial and a LAPACK eigensolve off the package import);
# tests/test_gauss_rules.py pins them to leggauss and to mpmath's Legendre
# roots and weights
GAUSS_NODES, GAUSS_WEIGHTS = _mirrored_rule(
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
    [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176],
)


def gauss_panels(edges):
    """Composite 16-node Gauss-Legendre nodes and weights, panel by panel,
    on the panels [edges[..., i], edges[..., i+1]] (plain arrays, no
    validation); leading axes of edges are separate edge lists."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    shape = edges.shape[:-1] + (-1,)
    nodes = (mid[..., None] + half[..., None] * GAUSS_NODES).reshape(shape)
    weights = (half[..., None] * GAUSS_WEIGHTS).reshape(shape)
    return nodes, weights


def _least_squares(c1, c2, y):
    """The coefficients (b1, b2) minimizing |b1 c1 + b2 c2 - y|, by a
    two-column Gram-Schmidt QR: c2 less its projection on c1, y less its
    projections on both, then back-substitution. Every least-squares fit of
    the package is this routine: numpy only, no LAPACK call (numpy's line
    and least-squares fits enter LAPACK's SVD driver, whose first call
    raises a cold command's peak memory by about 1 MB). Raises
    NumericalError when the columns are dependent to roundoff, where no fit
    is determined."""
    c1, c2, y = (np.asarray(v, dtype=float) for v in (c1, c2, y))
    r11 = float(np.sqrt(c1 @ c1))
    if not r11 > 0.0:
        raise NumericalError("least-squares fit of dependent columns")
    q1 = c1 / r11
    r12 = float(q1 @ c2)
    v = c2 - r12 * q1
    r22 = float(np.sqrt(v @ v))
    if not r22 > c1.size * np.finfo(float).eps * max(r11, float(np.sqrt(c2 @ c2))):
        raise NumericalError("least-squares fit of dependent columns")
    q2 = v / r22
    z1 = float(q1 @ y)
    z2 = float(q2 @ (y - z1 * q1))
    b2 = z2 / r22
    return (z1 - r12 * b2) / r11, b2


def geometric_edges(r_max: float, first_width: float, growth: float = 1.2,
                    max_width: float = np.inf, start: float = 0.0):
    """Panel edges from start to r_max, widths growing geometrically from
    first_width and capped at max_width."""
    edges = [start]
    width = min(first_width, max_width)
    while edges[-1] < r_max:
        edges.append(min(edges[-1] + width, r_max))
        width = min(width * growth, max_width)
    return np.asarray(edges)


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature nodes and plain dr-weights on an interval whose right edge
    is r_max, from which the tail guard's last decade is measured; built by
    from_edges, the package's one constructor."""

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float   # right edge of the covered interval

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ParameterError("grid nodes/weights must be matching 1-d arrays")
        if not np.all(np.diff(nodes) > 0.0) or not np.all(nodes > 0.0):
            raise ParameterError("grid nodes must be strictly increasing and positive")
        if not np.all(weights > 0.0):
            raise ParameterError("grid weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_edges(cls, edges) -> "RadialGrid":
        """The gauss_panels grid on the given edges, covering [edges[0], edges[-1]]."""
        nodes, weights = gauss_panels(edges)
        return cls(nodes, weights, r_max=float(edges[-1]))

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))

    @property
    def tail_mask(self) -> np.ndarray:
        """The last decade of the grid: True at the nodes in [0.9 * r_max, r_max]."""
        return self.nodes >= 0.9 * self.r_max

    def tail_fraction(self, values) -> float:
        """Fraction of the integral of |values| carried by the tail_mask nodes;
        0 when that integral is 0."""
        magnitude = np.abs(values)
        total = float(np.dot(self.weights, magnitude))
        if total <= 0.0:
            return 0.0
        tail = self.tail_mask
        return float(np.dot(self.weights[tail], magnitude[tail])) / total

    def panel_factors(self):
        """(shifts, offsets) with nodes[16 k + i] = shifts[k] + offsets[i] to
        within 4 ulp of the largest node: for the 16-node panels of one width
        that from_edges builds on equally spaced edges, offsets are the first
        panel's nodes and shifts[0] = 0, so the first panel's nodes are exact.
        Any other grid gets one-node panels, (nodes, [0.0])."""
        size = GAUSS_NODES.size
        if self.nodes.size % size == 0:
            panels = self.nodes.reshape(-1, size)
            offsets = panels[0]
            shifts = np.mean(panels - offsets, axis=1)
            error = np.max(np.abs(shifts[:, None] + offsets - panels))
            if error <= 4.0 * np.spacing(self.nodes[-1]):
                return shifts, offsets
        return self.nodes, np.zeros(1)


def uniform_grid(r_max: float, panel_width: float = 0.05) -> RadialGrid:
    """Composite Gauss-Legendre grid with (near-)uniform panels on [0, r_max]."""
    if not r_max > 0.0:
        raise ParameterError(f"r_max must be > 0, got {r_max}")
    return RadialGrid.from_edges(np.linspace(0.0, r_max, _uniform_panels(r_max, panel_width) + 1))


def _uniform_panels(r_max: float, panel_width: float) -> int:
    """The panel count of uniform_grid(r_max, panel_width)."""
    return max(1, int(np.ceil(r_max / panel_width)))


def geometric_grid(r_max: float, first_width: float, growth: float = 1.2,
                   max_width: float = np.inf) -> RadialGrid:
    """Panels growing geometrically from first_width, none wider than
    max_width; for wide-range integrands."""
    if not (r_max > 0.0 and first_width > 0.0 and growth > 1.0 and max_width > 0.0):
        raise ParameterError(
            "geometric_grid needs r_max, first_width, max_width > 0 and growth > 1"
        )
    return RadialGrid.from_edges(geometric_edges(r_max, first_width, growth, max_width))


@dataclass(frozen=True)
class RadialFunction:
    """A hyperbolic radial profile sampled on a geodesic grid: samples only,
    zero at nodes beyond support_radius. A Euclidean profile is lifted as a
    function (geometry.conformal_lift) and sampled once, on the grid that
    prices it; the truncated bubble's Euclidean samples stay in bubbles."""

    grid: RadialGrid
    values: np.ndarray
    support_radius: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ParameterError("values must match the grid nodes")
        if not np.all(np.isfinite(values)):
            raise ParameterError("values must be finite")
        outside = self.grid.nodes > self.support_radius
        if np.any(values[outside] != 0.0):
            raise ParameterError("values must vanish beyond support_radius")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_profile(cls, fn, grid: RadialGrid, support_radius: float):
        """fn sampled on grid, zero at the nodes beyond support_radius."""
        values = np.where(grid.nodes <= support_radius, fn(grid.nodes), 0.0)
        return cls(grid, values, float(support_radius))


@dataclass(frozen=True)
class SpectralProfile:
    """Samples of a spherical/Fourier transform on a frequency grid."""

    beta_grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.beta_grid.nodes.shape:
            raise ParameterError("values must match the frequency grid")
        if not np.all(np.isfinite(values)):
            raise ParameterError("spectral values must be finite")
        object.__setattr__(self, "values", values)
