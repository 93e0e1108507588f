"""Closed-form spectral symbols of the fractional conformal operators and the
scalar constants attached to them. The spectral bottoms lambda0 = m_s(0) and
lambda0~ = m~_s(0) and the remainder constant b = max{0, B_s(0)} are read off
the symbols at beta = 0; the explicit gap is the paper's closed form.

All symbols are functions of the frequency beta >= 0 through |Gamma|^2
factors only, hence even in beta; the implementations work on log-Gamma
differences so ratios stay finite far beyond the float range of the factors.
"""

import math

import numpy as np

from .errors import ParameterError
from .params import MultiplierKind, Params
from .special import log_abs_gamma_sq

# GJMS denominators Gamma((3-2s)/4 + i beta/2) hit a pole only at beta = 0
# with (3-2s)/4 a non-positive integer, i.e. s in {3/2, 7/2, 11/2, ...}.
_EXCEPTIONAL_TOL = 1e-12


def sin_pi(s: float) -> float:
    """sin(pi s) with exact zeros at integers (argument reduction)."""
    s = float(s)
    k = math.floor(s + 0.5)
    return (-1.0) ** (k % 2) * math.sin(math.pi * (s - k))


def is_exceptional_order(s: float) -> bool:
    """True when (3 - 2s)/4 is within _EXCEPTIONAL_TOL of a Gamma pole (s = 3/2 + 2k)."""
    a = (3.0 - 2.0 * float(s)) / 4.0
    return a <= _EXCEPTIONAL_TOL and abs(a - round(a)) <= _EXCEPTIONAL_TOL


def _gamma_sq(a: float) -> float:
    """Gamma(a)^2 for real a off the pole set (via |Gamma(a+0i)|^2)."""
    return float(np.exp(log_abs_gamma_sq(a, 0.0)))


def _intertwined(s, beta):
    return np.exp(log_abs_gamma_sq(s + 0.5, beta) - log_abs_gamma_sq(0.5, beta))


def _remainder(s, beta):
    return sin_pi(s) / math.pi * np.exp(log_abs_gamma_sq(s + 0.5, beta))


def _gjms(s, beta):
    """The direct Gamma ratio at every beta; at the exceptional orders the
    denominator's pole at beta = 0 is not evaluated, and there, where
    1/Gamma((3-2s)/4) vanishes, the symbol is exactly 0."""
    pole = is_exceptional_order(s) & (beta == 0.0)
    half = np.where(pole, 1.0, beta) / 2.0
    out = np.exp(2.0 * s * math.log(2.0)
                 + log_abs_gamma_sq((3.0 + 2.0 * s) / 4.0, half)
                 - log_abs_gamma_sq((3.0 - 2.0 * s) / 4.0, half))
    return np.where(pole, 0.0, out)


def multiplier(kind: MultiplierKind, p: Params, beta):
    """Spectral symbol value(s) at frequency beta (scalar or ndarray).

    GJMS:        2^{2s} |G((3+2s)/4 + i b/2)|^2 / |G((3-2s)/4 + i b/2)|^2
    INTERTWINED: |G(s+1/2+ib)|^2 / |G(1/2+ib)|^2
    REMAINDER:   (sin pi s / pi) |G(s+1/2+ib)|^2   (may be negative)
    """
    beta_arr = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta_arr)):
        raise ParameterError("multiplier requires finite beta")
    scalar = beta_arr.ndim == 0
    beta_arr = np.atleast_1d(beta_arr)
    s = p.s
    if kind is MultiplierKind.INTERTWINED:
        out = _intertwined(s, beta_arr)
    elif kind is MultiplierKind.REMAINDER:
        out = _remainder(s, beta_arr)
    elif kind is MultiplierKind.GJMS:
        out = _gjms(s, beta_arr)
    else:
        raise ParameterError(f"unknown multiplier kind {kind!r}")
    return float(out[0]) if scalar else out


def spectral_bottom(kind: MultiplierKind, p: Params) -> float:
    """Bottom of the L^2 spectrum: the symbol value at beta = 0 (0 for GJMS
    at the exceptional orders s = 3/2 + 2k)."""
    if kind not in (MultiplierKind.GJMS, MultiplierKind.INTERTWINED):
        raise ParameterError(f"spectral_bottom is defined for GJMS/INTERTWINED, not {kind!r}")
    return multiplier(kind, p, 0.0)


def b_constant(s: float) -> float:
    """max{0, B_s(0)} = max{0, sin(pi s)/pi} * Gamma(s+1/2)^2: the remainder
    symbol at beta = 0, exactly 0 when sin(pi s) <= 0."""
    s = float(s)
    if not s > 0.0:
        raise ParameterError(f"b_constant requires s > 0, got {s}")
    return float(max(0.0, _remainder(s, 0.0)))


def gap_constant(s: float) -> float:
    """The explicit bottom-minus-remainder gap.

    Gamma(s+1/2)^2 / pi            when sin(pi s) > 0,
    (1 + sin(pi s))/pi * Gamma(s+1/2)^2  when sin(pi s) <= 0;
    always equal to spectral_bottom(GJMS) - b_constant(s).
    """
    s = float(s)
    if not s > 0.0:
        raise ParameterError(f"gap_constant requires s > 0, got {s}")
    sp = sin_pi(s)
    g2 = _gamma_sq(s + 0.5)
    if sp > 0.0:
        return g2 / math.pi
    return (1.0 + sp) / math.pi * g2
