import numpy as np
import pytest

from gjmslab import spherical
from gjmslab.bubbles import smooth_window
from gjmslab.grids import RadialFunction, Space, uniform_grid


def windowed_gaussian(width: float, support: float):
    """A genuinely C_c-infinity radial bump: Gaussian times a smooth window."""

    def profile(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r * r / width) * smooth_window(r, 0.6 * support, support)

    return profile


def hyperbolic_bump(width=0.5, support=3.0, panel_width=0.05):
    grid = uniform_grid(support, panel_width=panel_width)
    return RadialFunction.from_profile(windowed_gaussian(width, support), grid,
                                       support, Space.HYPERBOLIC)


def euclidean_bump(width=0.1, support=0.8, panel_width=0.01):
    grid = uniform_grid(support, panel_width=panel_width)
    return RadialFunction.from_profile(windowed_gaussian(width, support), grid,
                                       support, Space.EUCLIDEAN)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def phi_passes(monkeypatch):
    """The (n, rows, columns) of every Phi pass (spherical._phi_blocks call)
    of the test, which starts with no matrix held and no transform request
    remembered."""
    monkeypatch.setattr(spherical, "_PHI_HELD", (None, None))
    monkeypatch.setattr(spherical, "_PHI_LAST", None)
    passes = []

    def counted(n, beta_grid, r_grid, _fn=spherical._phi_blocks):
        passes.append((n, beta_grid.nodes.size, r_grid.nodes.size))
        return _fn(n, beta_grid, r_grid)

    monkeypatch.setattr(spherical, "_phi_blocks", counted)
    return passes
