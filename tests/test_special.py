import math

import mpmath as mp
import numpy as np
import pytest

from gjmslab.errors import DomainError, NonConvergence, ParameterPole, PoleError, UnsupportedOrder
from gjmslab.special import (
    abs_gamma_sq,
    bessel_j,
    bessel_j_scaled,
    hyp2f1,
    legendre_p,
    log_gamma,
    _half_odd_switch,
    _hyp2f1_series,
)

mp.mp.dps = 50


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        assert log_gamma(0.5).real == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)
        assert abs(log_gamma(0.5).imag) < 1e-14

    def test_reflection_point(self):
        # doubled real part of log Gamma(1/2 + i) equals log(pi / cosh(pi))
        val = log_gamma(0.5 + 1.0j)
        assert 2 * val.real == pytest.approx(math.log(math.pi / math.cosh(math.pi)), abs=1e-12)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -2.0, -7.0):
            with pytest.raises(PoleError):
                log_gamma(z)
        with pytest.raises(PoleError):
            log_gamma(-3.0 + 1e-14j)
        # just off the pole is fine
        log_gamma(-3.0 + 1e-6j)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            log_gamma(complex(math.inf, 0.0))

    def test_against_mpmath_grid(self, rng):
        for _ in range(60):
            z = complex(rng.uniform(-4.7, 6.0), rng.uniform(-25.0, 25.0))
            if abs(z.imag) < 1e-3 and z.real <= 0.5:
                continue
            ours = log_gamma(z)
            ref = complex(mp.loggamma(z))
            # branch of the imaginary part may differ below the axis cut;
            # exp(.) is the invariant statement
            assert abs(ours.real - ref.real) <= 1e-11 * (1.0 + abs(ref.real))


class TestAbsGammaSq:
    def test_half_axis(self):
        assert abs_gamma_sq(0.5, 0.0) == pytest.approx(math.pi, rel=1e-13)

    def test_reflection_values(self):
        assert abs_gamma_sq(0.5, 1.0) == pytest.approx(math.pi / math.cosh(math.pi), rel=1e-12)
        assert abs_gamma_sq(1.0, 1.0) == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-12)

    def test_reflection_identity_sweep(self, rng):
        b = rng.uniform(0.0, 20.0, size=200)
        for bi in b:
            target = math.pi / math.cosh(math.pi * bi)
            assert abs(abs_gamma_sq(0.5, bi) - target) / target <= 1e-9

    def test_recurrence(self, rng):
        # |Gamma(z+1)| = |z| |Gamma(z)|
        for _ in range(100):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-20.0, 20.0)
            lhs = abs_gamma_sq(a + 1.0, b)
            rhs = (a * a + b * b) * abs_gamma_sq(a, b)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_monotone_modulus(self):
        grid = np.linspace(0.0, 20.0, 500)
        for a in (0.6, 1.3, 2.7):
            vals = np.array([abs_gamma_sq(a, b) for b in grid])
            assert np.all(np.diff(vals) <= 1e-15)


def _raw_series_oracle(a, b, c, x, terms=500):
    """The 2F1 value by Pfaff plus a raw extended-precision series."""
    y = mp.mpf(x) / (mp.mpf(x) - 1)
    aa, bb, cc = mp.mpf(a), mp.mpf(c) - mp.mpf(b), mp.mpf(c)
    term = mp.mpf(1)
    total = mp.mpf(1)
    for k in range(terms):
        term *= (aa + k) * (bb + k) / ((cc + k) * (k + 1)) * y
        total += term
    return float((1 - mp.mpf(x)) ** (-mp.mpf(a)) * total)


class TestHyp2f1:
    def test_at_zero(self):
        assert hyp2f1(0.3, 1.7, 2.2, 0.0) == 1.0

    def test_log_closed_form(self):
        assert hyp2f1(1.0, 1.0, 2.0, -0.5) == pytest.approx(math.log(1.5) / 0.5, rel=1e-12)

    def test_series_oracle(self):
        ours = hyp2f1(0.5, 1.5, 2.0, -1.0)
        assert ours == pytest.approx(_raw_series_oracle(0.5, 1.5, 2.0, -1.0), rel=1e-12)

    def test_parameter_pole(self):
        for c in (0.0, -1.0, -3.0):
            with pytest.raises(ParameterPole):
                hyp2f1(0.5, 0.5, c, -0.5)

    def test_positive_argument_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 1.5, 0.25)

    def test_nonconvergence_cap(self):
        # after the Pfaff map y = 1 - 1e-8 and the terms decay like k^-2, so
        # the default cap runs out long before the series tolerance is met
        with pytest.raises(NonConvergence):
            hyp2f1(0.5, 1.5, 2.0, -1e8)

    def test_series_broadcasts_complex_parameters(self):
        # complex a, b, c on one axis and y on the other, as the Jacobi block uses them
        beta = np.array([0.01, 1.0, 7.5])[:, None]
        y = np.array([0.0, 0.1, 0.42])
        a, b, c = 0.5 * (1.0 - 1j * beta), 1.0 - 0.5j * beta, 1.0 - 1j * beta
        ours = _hyp2f1_series(a, b, c, y)
        assert ours.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                ref = complex(mp.hyp2f1(complex(a[i, 0]), complex(b[i, 0]), complex(c[i, 0]), y[j]))
                assert abs(ours[i, j] - ref) <= 1e-13 * abs(ref)

    def test_contiguity(self, rng):
        # c F(a,b;c;x) - c F(a-1,b;c;x) - b x F(a,b+1;c+1;x) = 0
        checked = 0
        while checked < 50:
            a = rng.uniform(-1.5, 2.5)
            b = rng.uniform(0.1, 2.5)
            c = rng.uniform(0.4, 3.5)
            x = -rng.uniform(0.05, 4.0)
            lhs = c * hyp2f1(a, b, c, x) - c * hyp2f1(a - 1.0, b, c, x)
            rhs = b * x * hyp2f1(a, b + 1.0, c + 1.0, x)
            scale = max(abs(lhs), abs(rhs), 1e-6)
            assert abs(lhs - rhs) / scale <= 1e-8
            checked += 1


class TestLegendreP:
    def test_degree_zero(self):
        assert legendre_p(0.0, 0.0, 2.0).real == pytest.approx(1.0, rel=1e-12)

    def test_degree_one(self):
        assert legendre_p(1.0, 0.0, 2.0).real == pytest.approx(2.0, rel=1e-12)

    def test_conical_closed_form(self):
        # the 3-d spherical function routed through the Legendre form:
        # sin(beta r)/(beta sinh r) at beta = 1, r = 1
        beta, r = 1.0, 1.0
        val = legendre_p(complex(-0.5, beta), -0.5, math.cosh(r))
        phi = math.sqrt(2.0) * math.gamma(1.5) * math.sinh(r) ** (-0.5) * val.real
        assert phi == pytest.approx(math.sin(beta * r) / (beta * math.sinh(r)), rel=1e-10)
        assert abs(val.imag) < 1e-12

    def test_against_mpmath(self):
        for beta, mu, z in ((0.7, -0.5, math.cosh(0.5)), (2.0, -1.0, math.cosh(2.0)),
                            (5.0, -1.5, math.cosh(1.0))):
            ours = legendre_p(complex(-0.5, beta), mu, z)
            ref = complex(mp.legenp(mp.mpc(-0.5, beta), mu, z, type=3))
            assert abs(ours - ref) <= 1e-10 * (1.0 + abs(ref))

    def test_domain_and_pole(self):
        with pytest.raises(DomainError):
            legendre_p(0.5, -0.5, 1.0)
        with pytest.raises(ParameterPole):
            legendre_p(0.5, 1.0, 2.0)  # 1 - mu = 0


class TestBesselJ:
    def test_half_order_closed_form(self):
        x = 1.0
        assert bessel_j(0.5, x) == pytest.approx(math.sqrt(2.0 / (math.pi * x)) * math.sin(x),
                                                 rel=1e-12)

    def test_at_origin(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0
        assert bessel_j(2.5, 0.0) == 0.0

    def test_unsupported_order(self):
        for order in (0.3, -0.5, 1.01):
            with pytest.raises(UnsupportedOrder):
                bessel_j(order, 1.0)

    def test_negative_x(self):
        with pytest.raises(DomainError):
            bessel_j(1.0, -0.5)

    def test_mpmath_sweep(self):
        xs = np.array([1e-8, 0.2, 0.49, 0.51, 0.9, 1.1, 3.0, 7.0, 11.9, 12.1, 25.0, 120.0,
                       1e3, 1e4])
        for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5):
            ours = bessel_j(nu, xs)
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
        err = np.abs(bessel_j(nu, xs) - ref) / np.maximum(np.abs(ref), 1e-2)
        assert np.max(err) <= 1e-13
        # J/x^nu: relative below x = nu, where J has no zero; above, relative
        # where |J| >= 1e-2 and absolute (in J) below
        ref_scaled = np.array([float(mp.besselj(nu, x) / mp.mpf(x) ** nu) for x in xs])
        floor = np.array([float(mp.mpf("1e-2") / mp.mpf(x) ** nu) for x in xs])
        scale = np.where(xs < nu, np.abs(ref_scaled), np.maximum(np.abs(ref_scaled), floor))
        assert np.max(np.abs(bessel_j_scaled(nu, xs) - ref_scaled) / scale) <= 1e-13

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
        err = np.abs(bessel_j(nu, xs) - ref) / np.maximum(np.abs(ref), 1e-2)
        assert np.max(err) <= 1e-13
        scaled = bessel_j_scaled(nu, xs)
        assert np.allclose(scaled, ref / xs ** nu, rtol=1e-13, atol=1e-13 * np.max(np.abs(scaled)))

    def test_product_series_oracle(self, rng):
        # J_nu(x) J_{nu+1}(x) cross-checked at 20 points
        for _ in range(20):
            nu = float(rng.integers(0, 6)) / 2.0
            x = float(rng.uniform(0.05, 15.0))
            ours = bessel_j(nu, x) * bessel_j(nu + 1.0, x)
            ref = float(mp.besselj(nu, x) * mp.besselj(nu + 1, x))
            assert abs(ours - ref) <= 1e-8 * (1.0 + abs(ref))

    def test_scaled_limit(self):
        for nu in (0.0, 0.5, 1.5, 3.0):
            lim = 2.0 ** (-nu) / math.gamma(nu + 1.0)
            assert bessel_j_scaled(nu, 0.0) == pytest.approx(lim, rel=1e-13)
            assert bessel_j_scaled(nu, 1e-6) == pytest.approx(lim, rel=1e-9)

    def test_scaled_consistency(self):
        x = np.array([0.3, 0.7, 2.0, 15.0])
        for nu in (0.5, 1.0, 2.5):
            assert np.allclose(bessel_j_scaled(nu, x), bessel_j(nu, x) / x ** nu,
                               rtol=1e-12, atol=0.0)
