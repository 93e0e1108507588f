"""The package's one least-squares routine, grids._least_squares (a
two-column Gram-Schmidt QR), against numpy's np.polyfit and
np.linalg.lstsq on the data of every fit it serves: the benchmark's
kernel-decay radii and values, blowdown's N tables and the README eps
ladder. The fitted summary values are pinned to those the package printed
when its fits were np.polyfit and np.linalg.lstsq, and blowdown's
calibration to the one it printed when its spline solve was LAPACK's."""

import functools

import numpy as np
import pytest

from gjmslab.bubbles import bubble_asymptotics, bubble_mass_limit, bubble_energy_limit
from gjmslab.errors import NumericalError
from gjmslab.grids import _least_squares
from gjmslab.params import MultiplierKind, Params
from gjmslab.quotients import blowdown
from gjmslab.spherical import decay_fit_radii, kernel_decay

EPS = np.finfo(float).eps
README_LADDER = [0.05, 0.025, 0.0125, 0.00625]
README_P = Params(5, 1.0)
# the benchmark's kernel-decay commands (intertwined, eps_reg 0.01) and
# their summary slopes as np.polyfit fitted them
KERNEL_SLOPES = {
    ((3, 0.6), (2.0, 3.0, 4.0, 5.0, 6.0)): (-2.2443016119589565, -2.2414404983113103),
    ((3, 0.6), (2.0, 3.5, 4.5, 5.0, 6.0)): (-2.254283833169756, -2.2511878621377015),
    ((5, 0.7), (2.0, 3.0, 4.0, 5.0, 6.0)): (-3.4204739767664143, -3.4158037845723133),
    ((5, 0.7), (2.0, 3.5, 4.5, 5.0, 6.0)): (-3.4357352603085363, -3.4306798135401158),
}
# the benchmark's blowdown N tables ((3, 1), lambda 0.3) and their slopes
BLOWDOWN_SLOPES = {
    (4, 16, 64, 256): 0.6812753174551354,
    (2, 8, 32, 128, 512): 0.6880098716907852,
    (3, 9, 27, 81, 243): 0.6846023631876782,
}
# blowdown's calibration, shared by every N table, as the package printed it
# when the clamped spline's slopes were a dense LAPACK solve. C, and R0
# through log C, is fitted from kernel values that are quadrature roundoff
# at (3, 1): it moves by 0.4% across OpenBLAS's kernels (OPENBLAS_CORETYPE
# Prescott, Haswell and SkylakeX), q and alpha do not move
BLOWDOWN_CALIBRATION = {"q": 2.7367610180984343, "alpha": 0.8, "C": 181065.43532477642,
                        "R0": 16.474100245940708}


@functools.cache
def _kernel_run(ns, radii):
    return kernel_decay(MultiplierKind.INTERTWINED, Params(*ns), list(radii), 0.01)


@functools.cache
def _blowdown_run(counts):
    return blowdown(Params(3, 1.0), 0.3, list(counts))


@functools.cache
def _readme_run():
    return bubble_asymptotics(README_P, 0.2, README_LADDER)


def _line_fits():
    """(id, x, y) of every line fit the package makes on the benchmark's data."""
    fits = []
    for ns, radii in KERNEL_SLOPES:
        r, k, _ = (np.array(column) for column in zip(*_kernel_run(ns, radii)[0]))
        inside = np.isin(r, decay_fit_radii(r))
        fits.append((f"kernel-{ns}-{radii}", r[inside], np.log(np.abs(k[inside]))))
    for counts in BLOWDOWN_SLOPES:
        rows = _blowdown_run(counts)[0]
        fits.append((f"blowdown-{counts}", np.log([row[0] for row in rows]),
                     np.log([-row[3] for row in rows])))
    eps, crit, l2, energy = (np.array(column) for column in zip(*_readme_run()[0]))
    for name, y in (("crit", np.abs(bubble_mass_limit(README_P.n) - crit)), ("l2", l2),
                    ("energy", np.abs(energy - bubble_energy_limit(README_P)))):
        fits.append((f"readme-{name}", np.log(eps), np.log(y)))
        fits.append((f"readme-{name}-coarsest-dropped", np.log(eps[1:]), np.log(y[1:])))
    return fits


def _l2_columns(a):
    """fit_leading_exponent's columns x^a / y and x^b / y on the README
    ladder's L2 masses, b = 3."""
    eps, _, l2, _ = (np.array(column) for column in zip(*_readme_run()[0]))
    return np.column_stack([eps ** a, eps ** 3.0]) / l2[:, None]


class TestOracles:
    def test_line_fits_match_polyfit(self):
        # measured at most 9e-15, relative, on the intercepts
        for name, x, y in _line_fits():
            intercept, slope = _least_squares(np.ones_like(x), x, y)
            oracle_slope, oracle_intercept = np.polyfit(x, y, 1)
            assert slope == pytest.approx(oracle_slope, rel=1e-13, abs=0.0), name
            assert intercept == pytest.approx(oracle_intercept, rel=1e-13, abs=0.0), name

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 2.9])
    def test_exponent_fit_matches_lstsq(self, a):
        # the variable projection's solve; measured at most 2e-15, relative
        columns = _l2_columns(a)
        coeffs = _least_squares(columns[:, 0], columns[:, 1], np.ones(columns.shape[0]))
        oracle = np.linalg.lstsq(columns, np.ones(columns.shape[0]), rcond=None)[0]
        np.testing.assert_allclose(coeffs, oracle, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("gap", [1e-4, 1e-6])
    def test_nearly_collinear_columns(self, gap):
        # a close to b: the coefficients are determined only to about
        # cond * eps, relative (cond 5.4e4 and 5.4e6; measured 0.02 and 0.16
        # of that against lstsq's SVD), the fitted values to cond * eps
        columns = _l2_columns(3.0 - gap)
        ones = np.ones(columns.shape[0])
        coeffs = np.array(_least_squares(columns[:, 0], columns[:, 1], ones))
        oracle = np.linalg.lstsq(columns, ones, rcond=None)[0]
        tol = np.linalg.cond(columns) * EPS
        assert tol > 1e3 * EPS
        np.testing.assert_allclose(coeffs, oracle, rtol=tol, atol=0.0)
        np.testing.assert_allclose(columns @ coeffs, columns @ oracle, rtol=0.0, atol=tol)

    def test_dependent_columns_raise(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NumericalError, match="dependent columns"):
            _least_squares(x, 2.0 * x, np.ones(4))
        with pytest.raises(NumericalError, match="dependent columns"):
            _least_squares(np.zeros(4), x, np.ones(4))


class TestPinnedSummaries:
    # the values the package printed with np.polyfit and np.linalg.lstsq: the
    # line fits moved by at most 1.3e-15, relative; fit_leading_exponent's
    # golden section reads a flat residual whose last bits moved, so its
    # exponent moved by 1.1e-10 and its correction by 1.7e-9

    @pytest.mark.parametrize("ns, radii", sorted(KERNEL_SLOPES))
    def test_kernel_decay_slopes(self, ns, radii):
        summary = _kernel_run(ns, radii)[1]
        slope, slope_half_eps = KERNEL_SLOPES[(ns, radii)]
        assert summary["slope"] == pytest.approx(slope, rel=1e-12, abs=0.0)
        assert summary["slope_half_eps"] == pytest.approx(slope_half_eps, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("counts", sorted(BLOWDOWN_SLOPES))
    def test_blowdown_slopes(self, counts):
        assert _blowdown_run(counts)[1]["slope"] == pytest.approx(
            BLOWDOWN_SLOPES[counts], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("counts", sorted(BLOWDOWN_SLOPES))
    def test_blowdown_calibration(self, counts):
        summary = _blowdown_run(counts)[1]
        assert summary["target_slope"] == 2.0 / 3.0
        assert summary["alpha"] == BLOWDOWN_CALIBRATION["alpha"]
        assert summary["q"] == pytest.approx(BLOWDOWN_CALIBRATION["q"], rel=1e-12, abs=0.0)
        assert summary["C"] == pytest.approx(BLOWDOWN_CALIBRATION["C"], rel=1e-2, abs=0.0)
        assert summary["R0"] == pytest.approx(BLOWDOWN_CALIBRATION["R0"], rel=1e-3, abs=0.0)

    def test_readme_asymptotics(self):
        summary = _readme_run()[1]
        assert summary["crit"]["slope"] == pytest.approx(4.9439307588615025, rel=1e-12, abs=0.0)
        assert summary["energy"]["slope"] == pytest.approx(2.9434055629311793, rel=1e-12,
                                                           abs=0.0)
        l2 = summary["l2"]
        assert l2["raw_slope"] == pytest.approx(1.8719543615542793, rel=1e-12, abs=0.0)
        assert l2["exponent"] == pytest.approx(2.0014105033764347, rel=1e-8, abs=0.0)
        assert l2["correction_size"] == pytest.approx(-0.034412460900404736, rel=1e-8, abs=0.0)
