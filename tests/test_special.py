import math

import mpmath as mp
import numpy as np
import pytest

from gjmslab.errors import NumericalError, ParameterError
from gjmslab.special import (
    bessel_j_scaled,
    log_abs_gamma_sq,
    _GaussSeries,
    _half_odd_switch,
    _log_gamma_array,
)

mp.mp.dps = 50


def _bessel_j(nu, x):
    """J_nu(x) through the one Bessel entry point: bessel_j_scaled(nu, x) x^nu."""
    return bessel_j_scaled(nu, x) * np.asarray(x, dtype=float) ** nu


def _gamma_modulus_sq(a, b):
    """|Gamma(a + i b)|^2 through the package's log form."""
    return np.exp(log_abs_gamma_sq(a, b))


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(_log_gamma_array(1.0)) < 1e-14

    def test_gamma_half(self):
        val = _log_gamma_array(0.5)
        assert val.real == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)
        assert abs(val.imag) < 1e-14

    def test_reflection_point(self):
        # doubled real part of log Gamma(1/2 + i) equals log(pi / cosh(pi))
        val = _log_gamma_array(0.5 + 1.0j)
        assert 2 * val.real == pytest.approx(math.log(math.pi / math.cosh(math.pi)), abs=1e-12)

    def test_against_mpmath_grid(self, rng):
        # Re z < 1/2 takes the shift recurrence (as the Jacobi columns of _phi_blocks do at n = 2
        # and _gjms for s > 1/2), up to 46 shifts at Re z = -45: the range the
        # GJMS symbols reach at s <= 85.5 and beta <= 480
        z = rng.uniform(-45.0, 6.0, 60) + 1j * rng.uniform(-240.0, 240.0, 60)
        z = np.concatenate([z, rng.uniform(-45.0, 0.5, 60) + 1j * rng.uniform(-240.0, 240.0, 60),
                            [-42.5 + 240.0j, -44.9 - 0.3j, -3.3 + 22.0j, -0.7 - 24.5j,
                             0.25 + 21.0j, 0.25 - 0.5j]])
        z = z[(np.abs(z.imag) >= 1e-3) | (z.real > 0.5)]
        ours = _log_gamma_array(z)
        ref = np.array([complex(mp.loggamma(mp.mpc(v.real, v.imag))) for v in z])
        assert np.all(np.abs(ours.real - ref.real) <= 1e-11 * (1.0 + np.abs(ref.real)))
        # the imaginary part may take another branch below the axis cut;
        # exp(.) is the invariant statement
        turn = np.remainder(ours.imag - ref.imag + math.pi, 2.0 * math.pi) - math.pi
        assert np.all(np.abs(turn) <= 1e-11 * (1.0 + np.abs(ref)))


class TestAbsGammaSq:
    # |Gamma(a + i b)|^2 through log_abs_gamma_sq
    def test_half_axis(self):
        assert _gamma_modulus_sq(0.5, 0.0) == pytest.approx(math.pi, rel=1e-13)

    def test_reflection_values(self):
        assert _gamma_modulus_sq(0.5, 1.0) == pytest.approx(math.pi / math.cosh(math.pi), rel=1e-12)
        assert _gamma_modulus_sq(1.0, 1.0) == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-12)

    def test_reflection_identity_sweep(self, rng):
        b = rng.uniform(0.0, 20.0, size=200)
        target = math.pi / np.cosh(math.pi * b)
        assert np.max(np.abs(_gamma_modulus_sq(0.5, b) - target) / target) <= 1e-9

    def test_recurrence(self, rng):
        # |Gamma(z+1)| = |z| |Gamma(z)|
        a = rng.uniform(0.1, 5.0, size=100)
        b = rng.uniform(-20.0, 20.0, size=100)
        lhs = _gamma_modulus_sq(a + 1.0, b)
        rhs = (a * a + b * b) * _gamma_modulus_sq(a, b)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=0.0)

    def test_monotone_modulus(self):
        grid = np.linspace(0.0, 20.0, 500)
        for a in (0.6, 1.3, 2.7):
            assert np.all(np.diff(_gamma_modulus_sq(a, grid)) <= 1e-15)


def _gauss(a, b, c, y):
    """2F1(a, b; c; y) for each row of the 1-d parameter rows a, b, c at each
    y of the 1-d y (rows x y.size), by one _GaussSeries."""
    re, im = _GaussSeries(a, b, c, scale=1.0)(y)
    return re + 1j * im


class TestHyp2f1:
    # the Gauss series that the Jacobi block of phi_matrix sums, on y in [0, 0.8]
    def test_at_zero(self):
        assert _gauss([0.3], [1.7], [2.2], [0.0])[0, 0] == 1.0

    def test_log_closed_form(self):
        # 2F1(1, 1; 2; y) = -log(1 - y) / y
        y = np.linspace(0.05, 0.8, 16)
        ours = _gauss([1.0], [1.0], [2.0], y)[0]
        assert np.allclose(ours, -np.log1p(-y) / y, rtol=1e-12, atol=0.0)

    def test_series_oracle(self):
        # real and complex parameter rows summed by one series
        y = np.linspace(0.0, 0.8, 41)
        a, b, c = np.array([(0.5, 1.5, 2.0), (-1.2, 0.7, 2.9), (0.3 + 1j, 0.8 - 2j, 1.0 - 2j)]).T
        ours = _gauss(a, b, c, y)
        for row, params in zip(ours, zip(a, b, c)):
            ref = np.array([complex(mp.hyp2f1(*map(complex, params), v)) for v in y])
            assert np.max(np.abs(row - ref) / np.abs(ref)) <= 1e-12

    def test_nonconvergence_cap(self):
        # at y = 1 - 1e-8 the terms decay like k^-2, so the cap runs out long
        # before the series tolerance is met
        with pytest.raises(NumericalError, match="did not converge"):
            _gauss([0.5], [0.5], [2.0], [1.0 - 1e-8])

    def test_contiguity(self, rng):
        # c F(a,b;c;y) - c F(a-1,b;c;y) - b y F(a,b+1;c+1;y) = 0, one
        # parameter row per sample, each at its own y
        a = rng.uniform(-1.5, 2.5, 50)
        b = rng.uniform(0.1, 2.5, 50)
        c = rng.uniform(0.4, 3.5, 50)
        y = rng.uniform(0.05, 0.8, 50)
        lhs = c * np.diag(_gauss(a, b, c, y)) - c * np.diag(_gauss(a - 1.0, b, c, y))
        rhs = b * y * np.diag(_gauss(a, b + 1.0, c + 1.0, y))
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-6)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-8


class TestBesselJ:
    def test_half_order_closed_form(self):
        x = 1.0
        assert _bessel_j(0.5, x) == pytest.approx(math.sqrt(2.0 / (math.pi * x)) * math.sin(x),
                                                  rel=1e-12)

    def test_at_origin(self):
        assert _bessel_j(0.0, 0.0) == 1.0
        assert _bessel_j(1.0, 0.0) == 0.0
        assert _bessel_j(2.5, 0.0) == 0.0

    def test_unsupported_order(self):
        for order in (0.3, -0.5, 1.01):
            with pytest.raises(ParameterError, match="half-integer lattice"):
                _bessel_j(order, 1.0)

    def test_negative_x(self):
        with pytest.raises(ParameterError, match="finite x >= 0"):
            _bessel_j(1.0, -0.5)

    def test_mpmath_sweep(self):
        xs = np.array([1e-8, 0.2, 0.49, 0.51, 0.9, 1.1, 3.0, 7.0, 11.9, 12.1, 25.0, 120.0,
                       1e3, 1e4])
        for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5):
            ours = _bessel_j(nu, xs)
            ref = np.array([float(mp.besselj(nu, x)) for x in xs])
            # relative where the value is not near a zero, absolute otherwise
            err = np.abs(ours - ref) / np.maximum(np.abs(ref), 1e-2)
            assert np.max(err) <= 1e-13

    @pytest.mark.parametrize("nu", [25.5, 30.5, 40.5])
    def test_high_half_odd_orders_mpmath(self, nu):
        # above m = 20 neither numpy route holds 1e-13 just below the switch
        xs = np.array([1e-8, 0.2, 0.49, 0.51, 0.9, 3.0, 12.0, 18.0, 20.0, 22.0, 24.0, 26.0,
                       28.0, 30.0, 32.0, 34.0, 36.0, 40.0, 45.0, 60.0, 120.0, 1e3, 1e4])
        ref = np.array([float(mp.besselj(nu, x)) for x in xs])
        err = np.abs(_bessel_j(nu, xs) - ref) / np.maximum(np.abs(ref), 1e-2)
        assert np.max(err) <= 1e-13
        # J/x^nu: relative below x = nu, where J has no zero; above, relative
        # where |J| >= 1e-2 and absolute (in J) below
        ref_scaled = np.array([float(mp.besselj(nu, x) / mp.mpf(x) ** nu) for x in xs])
        floor = np.array([float(mp.mpf("1e-2") / mp.mpf(x) ** nu) for x in xs])
        scale = np.where(xs < nu, np.abs(ref_scaled), np.maximum(np.abs(ref_scaled), floor))
        assert np.max(np.abs(bessel_j_scaled(nu, xs) - ref_scaled) / scale) <= 1e-13

    def test_scipy_half_odd_orders_to_2e5(self):
        # every half-odd order above the numpy route, 21.5 to 60.5, takes
        # scipy.special.jv: J/x^nu relative below x = nu, where J has no zero,
        # and above it against the amplitude envelope sqrt(2/(pi x)) / x^nu,
        # up to x = 2e5 or where x^nu leaves the double range
        worst_below = worst_above = 0.0
        for nu in np.arange(21.5, 61.0, 1.0):
            xs = np.concatenate([np.geomspace(1e-3, 2e5, 80), np.linspace(nu, 3.0 * nu, 12)])
            xs = xs[nu * np.log10(xs) < 300.0]
            ours = bessel_j_scaled(nu, xs)
            for x, got in zip(xs, ours):
                ref = mp.besselj(nu, x) / mp.mpf(x) ** nu
                if x < nu:
                    worst_below = max(worst_below, float(abs((got - ref) / ref)))
                else:
                    envelope = mp.sqrt(2 / (mp.pi * x)) / mp.mpf(x) ** nu
                    worst_above = max(worst_above, float(abs(got - ref) / envelope))
        assert worst_below <= 1e-13
        assert worst_above <= 2e-12

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5, 4.5])
    def test_half_odd_against_spherical_jn(self, nu):
        # numpy series below the switch, upward recurrence above: both sides
        # against J_{m+1/2}(x) = sqrt(2x/pi) j_m(x) from scipy
        from scipy.special import spherical_jn

        m = round(nu - 0.5)
        switch = _half_odd_switch(nu)
        xs = np.concatenate([np.linspace(0.05, switch, 40, endpoint=False),
                             switch * (1.0 + np.array([-1e-12, 0.0, 1e-12])),
                             np.linspace(switch, 60.0, 200)])
        ref = np.sqrt(2.0 * xs / np.pi) * spherical_jn(m, xs)
        err = np.abs(_bessel_j(nu, xs) - ref) / np.maximum(np.abs(ref), 1e-2)
        assert np.max(err) <= 1e-13
        scaled = bessel_j_scaled(nu, xs)
        assert np.allclose(scaled, ref / xs ** nu, rtol=1e-13, atol=1e-13 * np.max(np.abs(scaled)))

    def test_product_series_oracle(self, rng):
        # J_nu(x) J_{nu+1}(x) cross-checked at 20 points
        for _ in range(20):
            nu = float(rng.integers(0, 6)) / 2.0
            x = float(rng.uniform(0.05, 15.0))
            ours = _bessel_j(nu, x) * _bessel_j(nu + 1.0, x)
            ref = float(mp.besselj(nu, x) * mp.besselj(nu + 1, x))
            assert abs(ours - ref) <= 1e-8 * (1.0 + abs(ref))

    def test_scaled_limit(self):
        for nu in (0.0, 0.5, 1.5, 3.0):
            lim = 2.0 ** (-nu) / math.gamma(nu + 1.0)
            assert bessel_j_scaled(nu, 0.0) == pytest.approx(lim, rel=1e-13)
            assert bessel_j_scaled(nu, 1e-6) == pytest.approx(lim, rel=1e-9)
