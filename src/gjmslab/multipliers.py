"""Closed-form spectral symbols of the fractional conformal operators and the
scalar constants attached to them. The spectral bottoms lambda0 = m_s(0) and
lambda0~ = m~_s(0) and the remainder constant b = max{0, B_s(0)} are read off
the symbols at beta = 0; the explicit gap is the paper's closed form.

All symbols are functions of the frequency beta >= 0 through |Gamma|^2
factors only, hence even in beta; the implementations work on log-Gamma
differences so ratios stay finite far beyond the float range of the factors.
A Gamma pole is a log|Gamma|^2 of +inf, so at s = 3/2 + 2k the GJMS symbol is
0.0 at beta = 0; a value that overflows a double is a ParameterError, and so
is a |beta| above BETA_MAX, where the log-Gamma difference has lost its
relative accuracy.
"""

import math

import numpy as np

from .errors import ParameterError
from .params import MultiplierKind, Params
from .special import log_abs_gamma_sq


# a symbol is exp of a difference of log|Gamma|^2 values of size ~ pi |beta|:
# its relative error grows like pi |beta| 1e-16, to 5.3e-12 at this bound
BETA_MAX = 1e5


def sin_pi(s: float) -> float:
    """sin(pi s) with exact zeros at integers (argument reduction)."""
    s = float(s)
    k = math.floor(s + 0.5)
    return (-1.0) ** (k % 2) * math.sin(math.pi * (s - k))


def _exp(log_value, what):
    """exp(log_value), or ParameterError naming `what`, with no overflow
    warning, where it overflows a double."""
    with np.errstate(over="ignore"):
        value = np.exp(log_value)
    if not np.all(np.isfinite(value)):
        raise ParameterError(f"{what} overflows a double")
    return value


def _intertwined(s, beta, what):
    return _exp(log_abs_gamma_sq(s + 0.5, beta) - log_abs_gamma_sq(0.5, beta), what)


def _remainder(s, beta, what):
    return sin_pi(s) / math.pi * _exp(log_abs_gamma_sq(s + 0.5, beta), what)


def _gjms(s, beta, what):
    """The direct Gamma ratio at every beta. At the exceptional orders
    s = 3/2 + 2k the denominator's log|Gamma|^2 is +inf at beta = 0, where
    1/Gamma((3-2s)/4) vanishes, so the symbol there is exactly 0."""
    return _exp(2.0 * s * math.log(2.0)
                + log_abs_gamma_sq((3.0 + 2.0 * s) / 4.0, beta / 2.0)
                - log_abs_gamma_sq((3.0 - 2.0 * s) / 4.0, beta / 2.0), what)


def multiplier(kind: MultiplierKind, p: Params, beta):
    """Spectral symbol value(s) at frequency beta (scalar or ndarray).

    GJMS:        2^{2s} |G((3+2s)/4 + i b/2)|^2 / |G((3-2s)/4 + i b/2)|^2
    INTERTWINED: |G(s+1/2+ib)|^2 / |G(1/2+ib)|^2
    REMAINDER:   (sin pi s / pi) |G(s+1/2+ib)|^2   (may be negative)
    """
    beta_arr = np.asarray(beta, dtype=float)
    if not np.all(np.abs(beta_arr) <= BETA_MAX):
        raise ParameterError(f"multiplier requires finite |beta| <= {BETA_MAX:g}")
    scalar = beta_arr.ndim == 0
    beta_arr = np.atleast_1d(beta_arr)
    symbols = {MultiplierKind.INTERTWINED: _intertwined, MultiplierKind.REMAINDER: _remainder,
               MultiplierKind.GJMS: _gjms}
    if kind not in symbols:
        raise ParameterError(f"unknown multiplier kind {kind!r}")
    out = symbols[kind](p.s, beta_arr, f"n = {p.n}, s = {p.s!r}: the {kind.value} symbol")
    return float(out[0]) if scalar else out


def spectral_bottom(kind: MultiplierKind, p: Params) -> float:
    """Bottom of the L^2 spectrum: the symbol value at beta = 0 (0.0 for GJMS
    at the exceptional orders s = 3/2 + 2k, where the denominator's Gamma has
    its pole; ParameterError where it overflows a double)."""
    if kind not in (MultiplierKind.GJMS, MultiplierKind.INTERTWINED):
        raise ParameterError(f"spectral_bottom is defined for GJMS/INTERTWINED, not {kind!r}")
    return multiplier(kind, p, 0.0)


def b_constant(s: float) -> float:
    """max{0, B_s(0)} = max{0, sin(pi s)/pi} * Gamma(s+1/2)^2: the remainder
    symbol at beta = 0, exactly 0 when sin(pi s) <= 0; ParameterError where
    it overflows a double."""
    s = float(s)
    if not s > 0.0:
        raise ParameterError(f"b_constant requires s > 0, got {s}")
    if sin_pi(s) <= 0.0:
        return 0.0
    return float(_remainder(s, 0.0, f"s = {s!r}: b"))


def gap_constant(s: float) -> float:
    """The explicit bottom-minus-remainder gap.

    Gamma(s+1/2)^2 / pi            when sin(pi s) > 0,
    (1 + sin(pi s))/pi * Gamma(s+1/2)^2  when sin(pi s) <= 0;
    always equal to spectral_bottom(GJMS) - b_constant(s); ParameterError
    where Gamma(s+1/2)^2 overflows a double.
    """
    s = float(s)
    if not s > 0.0:
        raise ParameterError(f"gap_constant requires s > 0, got {s}")
    sp = sin_pi(s)
    g2 = float(_exp(log_abs_gamma_sq(s + 0.5, 0.0), f"s = {s!r}: Gamma(s + 1/2)^2"))
    if sp > 0.0:
        return g2 / math.pi
    return (1.0 + sp) / math.pi * g2
