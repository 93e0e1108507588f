"""Numerical routes that the closed forms of gjmslab are checked against.

windowed_bubble_energy prices the untruncated bubble with the package's own
octave-banded Hankel energies, so a test comparing it with
bubble_energy_limit checks the Hankel machinery and the closed form against
each other.
"""

import functools

import numpy as np

from gjmslab.bubbles import _banded_energy, smooth_window
from gjmslab.geometry import sphere_area
from gjmslab.grids import geometric_grid

WINDOW_RADII = (2000.0, 4000.0)


@functools.lru_cache(maxsize=None)
def windowed_bubble_energy(p) -> dict:
    """E(U) for U = (1+r^2)^{-(n-2s)/2} by smooth windowing at two radii and
    Richardson extrapolation in the window radius (bias ~ R^-(n-2s)).

    Returns {"energy", "tail_bound"}; tail_bound is the spread |E_R2 - E_R1|
    of the two windowed energies.
    """
    q = (p.n - 2.0 * p.s) / 2.0
    raw = {}
    for R in WINDOW_RADII:
        def prof(r, _R=R):
            r = np.asarray(r, dtype=float)
            return (1.0 + r * r) ** (-q) * smooth_window(r, 0.5 * _R, _R)

        raw[R] = _banded_energy(prof, R, p, min(1e-4, 0.05 / R), 64.0)
    r1, r2 = WINDOW_RADII
    ratio = (r2 / r1) ** (p.n - 2.0 * p.s)
    energy = (ratio * raw[r2] - raw[r1]) / (ratio - 1.0)
    return {"energy": energy, "tail_bound": abs(raw[r2] - raw[r1])}


def quadrature_mass_limit(n: int) -> float:
    """int (1+|y|^2)^-n dy by geometric-grid quadrature on [0, 1e5] (the
    truncated tail is ~ omega 1e5^-n / n, below 2e-15 of the
    total for n >= 3)."""
    grid = geometric_grid(1e5, first_width=0.05)
    r = grid.nodes
    return sphere_area(n) * grid.integrate((1.0 + r * r) ** (-n) * r ** (n - 1))
