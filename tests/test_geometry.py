import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conftest import windowed_gaussian
from gjmslab.errors import DomainError, SupportError
from gjmslab.geometry import (
    ball_to_geodesic,
    conformal_factor,
    conformal_lift,
    distance,
    mobius,
    sphere_area,
)
from gjmslab.grids import RadialFunction, Space, gauss_panels, geometric_grid, uniform_grid
from gjmslab.params import Params


def _rand_ball(rng, n, rmax=0.85):
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, rmax)


class TestConformalFactor:
    def test_origin(self):
        assert conformal_factor(np.zeros(3)) == 2.0

    def test_half_radius(self):
        x = np.array([0.5, 0.0, 0.0])
        assert conformal_factor(x) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_boundary_blowup(self):
        assert conformal_factor(np.array([0.999, 0.0, 0.0])) > 1000.0

    def test_outside_rejected(self):
        with pytest.raises(DomainError):
            conformal_factor(np.array([1.0, 0.0]))


class TestMobius:
    def test_maps_center_to_origin(self, rng):
        for _ in range(20):
            y = _rand_ball(rng, 3)
            assert np.linalg.norm(mobius(y, y)) < 1e-14

    def test_origin_is_negation(self, rng):
        x = _rand_ball(rng, 4)
        assert np.allclose(mobius(np.zeros(4), x), -x, atol=1e-15)

    def test_norm_identity(self, rng):
        for _ in range(50):
            y = _rand_ball(rng, 3)
            x = _rand_ball(rng, 3)
            t = mobius(y, x)
            lhs = float(np.sum(t * t))
            d2 = float(np.sum((x - y) ** 2))
            rhs = d2 / (1.0 - 2.0 * float(np.dot(x, y)) + float(np.sum(x * x) * np.sum(y * y)))
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_stays_in_ball(self, rng):
        for _ in range(50):
            assert np.linalg.norm(mobius(_rand_ball(rng, 2, 0.95), _rand_ball(rng, 2, 0.95))) < 1.0


class TestDistance:
    def test_known_value(self):
        x = np.zeros(3)
        y = np.array([0.5, 0.0, 0.0])
        assert distance(x, y) == pytest.approx(math.log(3.0), rel=1e-14)

    def test_metric_axioms(self, rng):
        for _ in range(100):
            x, y, z = (_rand_ball(rng, 3) for _ in range(3))
            assert distance(x, x) == 0.0
            dxy = distance(x, y)
            assert dxy == pytest.approx(distance(y, x), rel=1e-13, abs=1e-15)
            assert dxy <= distance(x, z) + distance(z, y) + 1e-13

    def test_cosh_form_agrees(self, rng):
        for _ in range(50):
            x, y = _rand_ball(rng, 3), _rand_ball(rng, 3)
            d = distance(x, y)
            cosh_d = 1.0 + 2.0 * float(np.sum((x - y) ** 2)) / (
                (1.0 - float(np.sum(x * x))) * (1.0 - float(np.sum(y * y))))
            assert math.cosh(d) == pytest.approx(cosh_d, rel=1e-12)

    def test_isometry_invariance(self, rng):
        for _ in range(100):
            x, y, z = (_rand_ball(rng, 3) for _ in range(3))
            d0 = distance(x, y)
            d1 = distance(mobius(z, x), mobius(z, y))
            assert abs(d0 - d1) <= 1e-12 * (1.0 + d0)


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


def _ball_integral(fn, n, z=None):
    """Tensor quadrature of int fn(|T_z(x)|) dV(x) over the ball."""
    nodes, weights = leggauss(220 if n == 2 else 130)
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    w = weights
    for _ in range(n - 1):
        w = np.multiply.outer(w, weights)
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    r2 = np.sum(pts * pts, axis=-1)
    mask = r2 < 0.9799
    pts = pts[mask]
    phi_n = (2.0 / (1.0 - np.sum(pts * pts, axis=-1))) ** n   # measure at x
    args = mobius(z, pts) if z is not None else pts
    vals = fn(np.linalg.norm(args, axis=-1))
    return float(np.sum(w.ravel()[mask] * vals * phi_n))


class TestMeasureInvariance:
    @pytest.mark.parametrize("n", [2, 3])
    def test_integral_invariance(self, n, rng):
        fn = windowed_gaussian(0.05, 0.55)
        base = _ball_integral(fn, n)
        for _ in range(3):
            z = _rand_ball(rng, n, 0.3)
            moved = _ball_integral(fn, n, z=z)
            assert moved == pytest.approx(base, rel=1e-6)


class TestConformalLift:
    def test_zero_maps_to_zero(self):
        grid = uniform_grid(0.8, panel_width=0.02)
        w = RadialFunction(grid, np.zeros_like(grid.nodes), 0.8, Space.EUCLIDEAN)
        u = conformal_lift(w, Params(3, 1.0))
        assert u.is_zero()
        assert u.space is Space.HYPERBOLIC

    def test_support_error(self):
        grid = uniform_grid(1.2, panel_width=0.02)
        w = RadialFunction(grid, np.zeros_like(grid.nodes), 1.2, Space.EUCLIDEAN)
        with pytest.raises(SupportError):
            conformal_lift(w, Params(3, 1.0))

    def test_geodesic_mapping(self):
        grid = uniform_grid(0.4, panel_width=0.01)
        w = RadialFunction.from_profile(windowed_gaussian(0.1, 0.4), grid, 0.4,
                                        Space.EUCLIDEAN)
        u = conformal_lift(w, Params(4, 0.75))
        assert np.allclose(u.grid.nodes, 2.0 * np.arctanh(grid.nodes))
        assert u.support_radius == pytest.approx(float(ball_to_geodesic(0.4)))

    @pytest.mark.parametrize("n,s", [(3, 1.0), (4, 0.75), (5, 0.8)])
    def test_critical_norm_identity(self, n, s, rng):
        # the lift preserves the critical norm exactly (up to quadrature)
        p = Params(n, s)
        for _ in range(4):
            width = float(rng.uniform(0.02, 0.12))
            support = float(rng.uniform(0.3, 0.6))
            grid = uniform_grid(support, panel_width=0.005)
            w = RadialFunction.from_profile(windowed_gaussian(width, support), grid,
                                            support, Space.EUCLIDEAN)
            u = conformal_lift(w, p)
            two_star = p.two_star
            eucl = sphere_area(n) * grid.integrate(
                np.abs(w.values) ** two_star * grid.nodes ** (n - 1))
            r = u.grid.nodes
            hyp = sphere_area(n) * u.grid.integrate(
                np.abs(u.values) ** two_star * np.sinh(r) ** (n - 1))
            assert hyp == pytest.approx(eucl, rel=1e-6)
