import numpy as np
import pytest

from gjmslab import spherical
from gjmslab.bubbles import smooth_window
from gjmslab.grids import RadialFunction, uniform_grid


def windowed_gaussian(width: float, support: float):
    """A genuinely C_c-infinity radial bump: Gaussian times a smooth window."""

    def profile(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r * r / width) * smooth_window(r, 0.6 * support, support)

    return profile


def hyperbolic_bump(width=0.5, support=3.0, panel_width=0.05):
    grid = uniform_grid(support, panel_width=panel_width)
    return RadialFunction.from_profile(windowed_gaussian(width, support), grid, support)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def phi_passes(monkeypatch):
    """The (n, rows, columns) of every Phi pass (spherical._phi_blocks call)
    of the test."""
    passes = []

    def counted(n, beta_grid, radii, _fn=spherical._phi_blocks):
        passes.append((n, beta_grid.nodes.size, radii.size))
        return _fn(n, beta_grid, radii)

    monkeypatch.setattr(spherical, "_phi_blocks", counted)
    return passes


@pytest.fixture
def phi_cells_built(monkeypatch):
    """The cells that the Phi passes (spherical._phi_blocks calls) of the
    test build, one entry per piece: rows times u-nodes of each Mehler rule,
    rows times columns of each far block (elementary or Jacobi)."""
    built, rows = [], []

    def blocks(n, beta_grid, radii, _fn=spherical._phi_blocks):
        rows.append(beta_grid.nodes.size)
        return _fn(n, beta_grid, radii)

    def rule(n, radii, count, _fn=spherical._mehler_rule):
        phase, hw = _fn(n, radii, count)
        built.append(rows[-1] * phase.size)
        return phase, hw

    def counted(factory):
        def far_columns(*args):
            columns = factory(*args)

            def block(cols):
                out = columns(cols)
                built.append(out.size)
                return out

            return block

        return far_columns

    monkeypatch.setattr(spherical, "_phi_blocks", blocks)
    monkeypatch.setattr(spherical, "_mehler_rule", rule)
    for name in ("_elementary_columns", "_jacobi_columns"):
        monkeypatch.setattr(spherical, name, counted(getattr(spherical, name)))
    return built
