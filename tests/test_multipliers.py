import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from gjmslab.errors import ParameterError
from gjmslab.multipliers import (
    BETA_MAX,
    b_constant,
    gap_constant,
    multiplier,
    sin_pi,
    spectral_bottom,
)
from gjmslab.params import MultiplierKind, Params
from gjmslab.special import log_abs_gamma_sq
from gjmslab.spherical import plancherel_density

GJMS = MultiplierKind.GJMS
INT = MultiplierKind.INTERTWINED
REM = MultiplierKind.REMAINDER


def integer_product(k, beta):
    """The integer-order symbol in product form: prod_{j=1..k} (beta^2 + (j-1/2)^2)."""
    b2 = np.asarray(beta, dtype=float) ** 2
    return np.prod([b2 + (j - 0.5) ** 2 for j in range(1, k + 1)], axis=0)


def decomposition_error(p, beta_max, count):
    """max |m - m~ - B| / (1 + m) over count uniform frequencies in [0, beta_max]."""
    grid = np.linspace(0.0, beta_max, count)
    m = multiplier(GJMS, p, grid)
    return float(np.max(np.abs(m - multiplier(INT, p, grid) - multiplier(REM, p, grid)) / (1.0 + m)))


class TestMultiplier:
    def test_integer_order_value(self):
        # the k = 1 symbol is beta^2 + 1/4
        assert multiplier(INT, Params(3, 1.0), 2.0) == pytest.approx(4.25, abs=1e-12)

    def test_half_order_at_zero(self):
        assert multiplier(INT, Params(3, 0.5), 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_remainder_integer_vanishes(self):
        assert multiplier(REM, Params(5, 2.0), 7.3) == 0.0

    def test_symmetry_exact(self, rng):
        p = Params(4, 0.75)
        for kind in (GJMS, INT, REM):
            for b in rng.uniform(0.0, 30.0, size=10):
                assert multiplier(kind, p, b) == multiplier(kind, p, -b)

    def test_nonnegative_kinds(self, rng):
        p = Params(5, 1.7)
        betas = rng.uniform(0.0, 40.0, size=50)
        assert np.all(multiplier(GJMS, p, betas) >= 0.0)
        assert np.all(multiplier(INT, p, betas) >= 0.0)

    def test_bottom_at_zero_property(self, rng):
        # the intertwined symbol dominates its value at beta = 0
        count = 0
        while count < 300:
            s = float(rng.uniform(0.05, 2.4))
            n = int(rng.integers(2, 8))
            if s >= n / 2.0:
                continue
            p = Params(n, s)
            b = float(rng.uniform(0.0, 50.0))
            assert multiplier(INT, p, b) >= spectral_bottom(INT, p) * (1.0 - 1e-12)
            count += 1

    def test_remainder_sup_at_zero(self, rng):
        for s in (0.5, 0.8, 1.3, 2.3):
            p = Params(5, s)
            peak = abs(multiplier(REM, p, 0.0))
            grid = np.linspace(0.0, 60.0, 400)
            assert np.all(np.abs(multiplier(REM, p, grid)) <= peak * (1.0 + 1e-12))

    def test_growth_envelope(self):
        # m~_s(beta) / (1+beta^2)^s pinched between constants, settling at the top
        for s in (0.5, 1.0, 1.7):
            p = Params(5, s)
            grid = np.geomspace(1e-2, 1e3, 300)
            ratio = multiplier(INT, p, grid) / (1.0 + grid * grid) ** s
            assert np.max(ratio) / np.min(ratio) < 100.0
            r3 = multiplier(INT, p, 1e3) / (1.0 + 1e6) ** s
            r2 = multiplier(INT, p, 1e2) / (1.0 + 1e4) ** s
            assert 0.9 <= r3 / r2 <= 1.1

    def test_beta_beyond_the_bound_rejected(self):
        # each symbol is exp of a difference of log|Gamma|^2 values of size
        # ~ pi beta: the k = 1 symbol beta^2 + 1/4 is 5.3e-12 off at BETA_MAX,
        # and the GJMS one read 1.0 at beta = 1e300
        p = Params(3, 1.0)
        assert multiplier(INT, p, BETA_MAX) == pytest.approx(BETA_MAX ** 2 + 0.25, rel=1e-11)
        for beta in (np.nextafter(BETA_MAX, math.inf), -1e6, np.array([0.0, 1e300])):
            with pytest.raises(ParameterError, match=r"finite \|beta\| <= 100000"):
                multiplier(GJMS, p, beta)

    def test_exceptional_order_low_frequency(self):
        # s = 3/2: the symbol vanishes quadratically at beta = 0
        p = Params(5, 1.5)
        assert multiplier(GJMS, p, 0.0) == pytest.approx(0.0, abs=1e-14)
        small = multiplier(GJMS, p, np.array([1e-3, 2e-3]))
        assert small[1] / small[0] == pytest.approx(4.0, rel=1e-3)

    @pytest.mark.parametrize("s", [1.5, 3.5, 5.5])
    def test_exceptional_order_near_pole_against_mpmath(self, s):
        # below |beta| = 1e-8 the symbol is O(beta^2): the direct Gamma ratio
        # keeps its relative accuracy there, where m~ + B is a difference of
        # O(1) terms (beta = 0 itself: test_exceptional_bottom_is_zero)
        values = multiplier(GJMS, Params(12, s), np.array([1e-11, 1e-9, 5e-9]))
        with mp.workdps(40):
            for beta, value in zip((1e-11, 1e-9, 5e-9), values):
                half = 1j * mp.mpf(beta) / 2
                exact = (mp.mpf(4) ** mp.mpf(s) * abs(mp.gamma((3 + 2 * mp.mpf(s)) / 4 + half)) ** 2
                         / abs(mp.gamma((3 - 2 * mp.mpf(s)) / 4 + half)) ** 2)
                assert value == pytest.approx(float(exact), rel=1e-9, abs=0.0)


class TestBottoms:
    def test_integer_bottom(self):
        assert spectral_bottom(INT, Params(3, 1.0)) == pytest.approx(0.25, abs=1e-12)

    def test_half_gjms_bottom(self):
        assert spectral_bottom(GJMS, Params(3, 0.5)) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_product_bottom(self):
        assert spectral_bottom(INT, Params(5, 2.0)) == pytest.approx(9.0 / 16.0, rel=1e-12)

    def test_exceptional_bottom_is_zero(self):
        # 1/Gamma((3 - 2s)/4) vanishes at s = 3/2 + 2k: the symbol at beta = 0
        # is 0.0 itself, not the roundoff of m~ + B
        for s in (1.5, 3.5, 5.5):
            p = Params(12, s)
            assert multiplier(GJMS, p, np.zeros(3)).tolist() == [0.0] * 3
            assert spectral_bottom(GJMS, p) == 0.0
            assert multiplier(GJMS, p, 1e-9) > 0.0

    def test_gamma_poles_need_no_special_case(self):
        # log|Gamma|^2 is +inf at the poles z = 0, -1, ..., -42 (a shift of
        # up to 43 terms), so the GJMS symbol at beta = 0, s = 3/2 + 2k, and
        # the even-n Plancherel density at beta = 0 are 0.0 from the one
        # Gamma ratio, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(43):
                assert log_abs_gamma_sq(float(-k), 0.0) == math.inf
            for n, s in ((12, 1.5), (12, 3.5), (12, 5.5), (172, 85.5)):
                assert multiplier(GJMS, Params(n, s), 0.0) == 0.0
            for n in (2, 4, 6):
                assert plancherel_density(n, 0.0) == 0.0

    def test_bottom_matches_symbol_at_zero(self):
        for n in (2, 3, 4, 5, 8, 13):
            for s in np.linspace(0.05, n / 2.0 - 0.05, 37):
                p = Params(n, float(s))
                for kind in (GJMS, INT):
                    bottom = spectral_bottom(kind, p)
                    assert type(bottom) is float
                    assert bottom.hex() == multiplier(kind, p, 0.0).hex()

    def test_remainder_has_no_bottom(self):
        with pytest.raises(ParameterError):
            spectral_bottom(REM, Params(3, 1.0))


class TestConstants:
    def test_b_values(self):
        assert b_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert b_constant(1.5) == 0.0
        assert b_constant(3.0) == 0.0

    def test_b_is_the_closed_form_bit_for_bit(self):
        # max{0, sin(pi s)/pi} Gamma(s+1/2)^2 in its closed-form evaluation order
        for s in np.concatenate([np.linspace(0.01, 12.0, 1200), np.arange(1, 13) / 2.0]):
            s = float(s)
            sp = sin_pi(s)
            closed = sp / math.pi * float(np.exp(log_abs_gamma_sq(s + 0.5, 0.0))) if sp > 0.0 else 0.0
            assert type(b_constant(s)) is float
            assert b_constant(s).hex() == closed.hex()

    def test_sin_pi_exact_zeros(self):
        for k in range(1, 8):
            assert sin_pi(float(k)) == 0.0

    def test_gap_values(self):
        assert gap_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert gap_constant(1.5) == pytest.approx(0.0, abs=1e-15)
        assert gap_constant(1.0) == pytest.approx(0.25, rel=1e-12)

    def test_gap_equals_bottom_minus_b(self, rng):
        count = 0
        while count < 100:
            s = float(rng.uniform(0.02, 4.0))
            direct = gap_constant(s)
            assembled = spectral_bottom(GJMS, Params(9, s)) - b_constant(s)
            assert abs(direct - assembled) <= 1e-12 * max(1.0, abs(direct))
            count += 1


class TestIntegerMultiplier:
    def test_values(self):
        assert multiplier(INT, Params(3, 1.0), 0.0) == pytest.approx(0.25, rel=1e-15)
        assert multiplier(INT, Params(5, 2.0), 1.0) == pytest.approx(4.0625, rel=1e-14)
        assert multiplier(INT, Params(7, 3.0), 0.0) == pytest.approx(225.0 / 64.0, rel=1e-14)

    def test_agrees_with_gamma_route(self):
        grid = np.linspace(0.0, 50.0, 501)
        for k in (1, 2, 3):
            product = integer_product(k, grid)
            gamma_route = multiplier(INT, Params(9, float(k)), grid)
            assert np.max(np.abs(product - gamma_route) / product) <= 1e-12


class TestDecomposition:
    def test_integer_order(self):
        assert decomposition_error(Params(5, 2.0), 50.0, 200) <= 1e-12

    def test_fractional_orders(self):
        assert decomposition_error(Params(4, 0.75), 50.0, 500) <= 1e-10
        assert decomposition_error(Params(3, 1.25), 50.0, 500) <= 1e-10

    def test_exceptional_order(self):
        assert decomposition_error(Params(5, 1.5), 50.0, 500) <= 1e-10


class TestParams:
    def test_derived_quantities(self):
        p = Params(5, 1.5)
        assert p.rho == 2.0
        assert p.two_star == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Params(1, 0.3)
        with pytest.raises(ParameterError):
            Params(3, 1.5)  # s = n/2 excluded
        with pytest.raises(ParameterError):
            Params(3, 0.0)
