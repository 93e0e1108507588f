import numpy as np
import pytest

from conftest import windowed_gaussian
from gjmslab.errors import ParameterError
from gjmslab.geometry import conformal_lift, sphere_area
from gjmslab.grids import RadialFunction, gauss_panels, geometric_grid, uniform_grid
from gjmslab.params import Params


class TestGrids:
    def test_dr_normalization(self):
        for r_max in (0.7, 3.0):
            g = uniform_grid(r_max)
            assert float(np.sum(g.weights)) == pytest.approx(r_max, rel=1e-12)
        g = geometric_grid(100.0, first_width=0.05)
        assert float(np.sum(g.weights)) == pytest.approx(100.0, rel=1e-12)

    def test_monotone_nodes(self):
        g = uniform_grid(2.0)
        assert np.all(np.diff(g.nodes) > 0.0)
        assert np.all(g.weights > 0.0)

    def test_gauss_panels_exact_to_degree_31(self):
        edges = np.array([0.0, 0.1, 0.35, 0.4, 1.3, 2.0])
        nodes, weights = gauss_panels(edges)
        assert nodes.shape == weights.shape == (16 * 5,)
        for k in range(32):
            exact = 2.0 ** (k + 1) / (k + 1)
            assert float(np.dot(weights, nodes ** k)) == pytest.approx(exact, rel=1e-13)

    def test_geometric_grid_width_cap(self):
        def panel_widths(grid):
            return grid.weights.reshape(-1, 16).sum(axis=1)

        capped = geometric_grid(50.0, first_width=0.02, max_width=0.7)
        assert float(np.sum(capped.weights)) == pytest.approx(50.0, rel=1e-12)
        assert np.max(panel_widths(capped)) <= 0.7 * (1.0 + 1e-12)
        assert np.max(panel_widths(geometric_grid(50.0, first_width=0.02))) > 0.7

    def test_tail_fraction_of_signed_input(self):
        g = uniform_grid(10.0, panel_width=0.5)
        signed = np.cos(g.nodes)
        fraction = g.tail_fraction(signed)
        assert fraction == g.tail_fraction(np.abs(signed))
        assert 0.0 < fraction < 1.0


class TestConformalLift:
    def test_zero_maps_to_zero(self):
        lifted = conformal_lift(np.zeros_like, 0.8, Params(3, 1.0))
        assert not np.any(lifted(uniform_grid(2.0 * np.arctanh(0.8)).nodes))

    def test_support_error(self):
        for support in (1.0, 1.2, float("nan")):
            with pytest.raises(ParameterError, match="support inside the unit ball"):
                conformal_lift(windowed_gaussian(0.1, 0.4), support, Params(3, 1.0))
        # the lift vanishes beyond the geodesic radius 2 artanh(support)
        lifted = conformal_lift(lambda t: np.ones_like(t), 0.4, Params(4, 0.75))
        edge = 2.0 * np.arctanh(0.4)
        assert np.all(lifted(np.array([0.5, 0.99 * edge])) > 0.0)
        assert not np.any(lifted(np.array([1.01 * edge, 3.0])))

    @pytest.mark.parametrize("n,s", [(3, 1.0), (4, 0.75), (5, 0.8)])
    def test_critical_norm_identity(self, n, s, rng):
        # the lift preserves the critical norm exactly (up to quadrature)
        p = Params(n, s)
        for _ in range(4):
            width = float(rng.uniform(0.02, 0.12))
            support = float(rng.uniform(0.3, 0.6))
            profile = windowed_gaussian(width, support)
            grid = uniform_grid(support, panel_width=0.005)
            w = profile(grid.nodes)
            radius = 2.0 * np.arctanh(support)
            u = RadialFunction.from_profile(conformal_lift(profile, support, p),
                                            uniform_grid(radius, panel_width=0.025), radius)
            two_star = p.two_star
            eucl = sphere_area(n) * grid.integrate(
                np.abs(w) ** two_star * grid.nodes ** (n - 1))
            r = u.grid.nodes
            hyp = sphere_area(n) * u.grid.integrate(
                np.abs(u.values) ** two_star * np.sinh(r) ** (n - 1))
            assert hyp == pytest.approx(eucl, rel=1e-6)
