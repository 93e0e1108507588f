"""Special functions: complex log-Gamma, the Gauss 2F1 series, the
spherical functions of odd dimension in elementary form, and Bessel J on the
half-integer lattice.

Everything downstream (spectral symbols, Plancherel densities, the Jacobi
and elementary columns of the Phi matrix, the Hankel transforms) is built
on these. Their tolerances are the module constants below. The Gauss
series has one routine, _GaussSeries: the coefficients of each parameter
row once, by the term-ratio recurrence, then sums at many y as two real
matrix products. At odd n = 2k + 1, _elementary_terms expands the shift
operator (-(1/sinh r) d/dr)^k cos(beta r) into its terms and
_elementary_columns evaluates them as blocks of Phi columns.
Bessel J has one entry point, bessel_j_scaled, which returns J_nu(x)/x^nu.
Half-odd orders m + 1/2 with m <= _HALF_ODD_NUMPY_MAX are numpy: the
ascending series near the origin and, above a per-order switch, the upward
recurrence of the spherical Bessel functions from sin x/x and cos x/x
(DLMF 10.49, 10.51), so Hankel paths at odd n <= 43 load no scipy. Every
other order (integer orders at even n, half-odd orders above
_HALF_ODD_NUMPY_MAX) takes ``scipy.special.jv`` above x = 0.5, imported on
the first call that needs it.
"""

import math

import numpy as np

from .errors import NumericalError, ParameterError

SERIES_TOL = 1e-14      # 2F1 term-ratio stopping tolerance
SERIES_CAP = 10_000     # 2F1 iteration cap before NumericalError

_BESSEL_SMALL_X = 0.5   # bessel_j_scaled, scipy orders: ascending series below this x
# largest m whose half-odd order m + 1/2 is numpy; above it neither the series
# nor the upward recurrence holds 1e-13 just below _half_odd_switch
_HALF_ODD_NUMPY_MAX = 20

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos coefficients, g = 7, 9 terms (~15 significant digits on Re z > 0).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_log_gamma(z):
    """Principal log Gamma for Re z >= 0.5 (complex ndarray in/out)."""
    w = z - 1.0
    acc = np.full(np.shape(w), _LANCZOS[0], dtype=complex)
    for i in range(1, len(_LANCZOS)):
        acc = acc + _LANCZOS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(acc)


def _log_gamma_array(z):
    """Vectorized complex log Gamma by Gamma(z) = Gamma(z + k) / prod_{j<k} (z + j):
    the Lanczos sum at z + k, k the least shift with Re(z + k) >= 1/2 (0, and
    the Lanczos sum's bits, on the right half-plane). At a pole z = -j one log
    is log 0 = -inf, so the real part is +inf exactly, with no warning."""
    z = np.asarray(z, dtype=complex)
    shift = np.maximum(np.ceil(0.5 - z.real), 0.0)
    out = _lanczos_log_gamma(z + shift)
    with np.errstate(divide="ignore"):
        for j in range(int(np.max(shift, initial=0.0))):
            out -= np.log(np.where(j < shift, z + j, 1.0))
    return out


def log_abs_gamma_sq(a, b):
    """2 * Re log Gamma(a + i b), vectorized over b (and a).

    This is the log of |Gamma(a+ib)|^2, the workhorse for every spectral
    symbol; kept in log form so ratios of huge/tiny moduli stay finite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    z = a + 1j * b
    return 2.0 * np.real(_log_gamma_array(z))


class _GaussSeries:
    """The Gauss series t_0 2F1(a, b; c; y) = sum_k t_k y^k with
    t_k = t_0 (a)_k (b)_k / ((c)_k k!), for 1-d complex parameter rows and
    t_0 = scale: coefficients, then contraction.

    The coefficients are kept as one matrix T, extended by the term-ratio
    recurrence when a call needs more of them. A call sums the first K terms
    at a 1-d y as T @ Y, Y[k, j] = y_j^k, by two real matrix products. K
    starts where every row's kept coefficients, relative to t_0, times
    max(y)^k fall below SERIES_TOL, and grows until every cell's last term is
    within SERIES_TOL of its sum; past SERIES_CAP terms it raises
    NumericalError.
    """

    def __init__(self, a, b, c, scale):
        self.params = tuple(np.asarray(v, dtype=complex) for v in (a, b, c))
        shape = np.broadcast_shapes(*(v.shape for v in self.params))
        first = np.broadcast_to(np.asarray(scale, dtype=complex), (1,) + shape)
        self._keep(first.real.copy(), first.imag.copy())

    def _keep(self, re, im):
        # order x row: the first K orders are one contiguous block
        self.re, self.im = re, im
        modulus = np.hypot(re, im)
        modulus /= modulus[0]
        self.envelope = np.max(modulus, axis=1)

    def _extend(self, count):
        a, b, c = self.params
        kept = len(self.re)
        re = np.empty((count,) + self.re.shape[1:])
        im = np.empty_like(re)
        re[:kept], im[:kept] = self.re, self.im
        term = self.re[-1] + 1j * self.im[-1]
        for k in range(kept - 1, count - 1):
            term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0)))
            re[k + 1], im[k + 1] = term.real, term.imag
        self._keep(re, im)

    def __call__(self, y):
        """(real part, imaginary part) of the sums at the 1-d y, each rows x y.size."""
        y = np.asarray(y, dtype=float)
        y_max = float(np.max(y, initial=0.0))
        small = self.envelope * y_max ** np.arange(self.envelope.size) <= SERIES_TOL
        count = int(np.argmax(small)) + 1 if small.any() else self.envelope.size
        while True:
            if count > self.envelope.size:
                self._extend(count)
            powers = y ** np.arange(count)[:, None]
            re, im = self.re[:count].T @ powers, self.im[:count].T @ powers
            # |last term|^2 <= SERIES_TOL^2 |sum|^2, squared to spare a hypot per cell
            size = re * re
            size += im * im
            size *= SERIES_TOL ** 2
            last = self.re[count - 1] ** 2 + self.im[count - 1] ** 2
            if np.all(np.multiply.outer(last, powers[-1] ** 2) <= size):
                return re, im
            if count > SERIES_CAP:
                raise NumericalError(f"2F1 series did not converge in {SERIES_CAP} terms "
                                     f"(largest y = {y_max:.17g})")
            count = min(count + max(8, count // 2), SERIES_CAP + 1)


# ----------------------------------------------------------------------------
# Spherical functions of odd dimension in elementary form
# ----------------------------------------------------------------------------

def _elementary_terms(k):
    """(-(1/sinh r) d/dr)^k cos(beta r) as {(p, a, b): integer coefficient}
    of the terms beta^p T_p(beta r) coth^a(r) csch^b(r), T_p = cos at even p
    and sin at odd p: 1, 2, 4 and 6 terms at k = 1, 2, 3, 4."""
    terms = {(0, 0, 0): 1}
    for _ in range(k):
        step = {}
        for (p, a, b), c in terms.items():
            for key, value in (((p + 1, a, b + 1), c if p % 2 == 0 else -c),
                               ((p, a - 1, b + 3), a * c),
                               ((p, a + 1, b + 1), b * c)):
                step[key] = step.get(key, 0) + value
        terms = {key: c for key, c in step.items() if c}
    return terms


def _elementary_columns(n, beta, radii, shifts, offsets):
    """cols -> the spherical functions Phi_beta(r) at odd n = 2k + 1 on the
    frequencies beta, row i offsets.size + j = shifts[i] + offsets[j]
    (RadialGrid.panel_factors), and the radii radii[cols], as a C-ordered
    beta.size x cols block: c_k(beta) (-(1/sinh r) d/dr)^k cos(beta r) with
    c_k(beta) = prod_{j<k} (2j + 1) / (beta^2 + j^2) (the Jacobi shift
    operator, Koornwinder 1984), sin(beta r) / (beta sinh r) at n = 3. Each
    power p of _elementary_terms is c_k(beta) beta^p times its coth/csch sum,
    times sin(beta r) or cos(beta r) from the panel factors."""
    k = (n - 1) // 2
    terms = _elementary_terms(k)
    c = np.ones_like(beta)
    for j in range(k):
        c *= (2 * j + 1) / (beta * beta + j * j)
    factors = {p: c * beta ** p for p in sorted({p for p, _, _ in terms})}
    parities = [(parity, [p for p in factors if p % 2 == parity])
                for parity in sorted({p % 2 for p in factors}, reverse=True)]

    def columns(cols):
        r = radii[cols]
        coth, csch = 1.0 / np.tanh(r), 1.0 / np.sinh(r)
        radial = dict.fromkeys(factors, 0.0)
        for (p, a, b), coef in terms.items():
            radial[p] = radial[p] + coef * coth ** a * csch ** b
        arg = shifts[:, None, None] * r                 # K x 1 x cols
        cos_m, sin_m = np.cos(arg), np.sin(arg, out=arg)
        arg = offsets[:, None] * r                      # 16 x cols
        cos_o, sin_o = np.cos(arg), np.sin(arg, out=arg)
        block = None
        for parity, powers in parities:
            if parity:                                  # sin(beta r)
                trig = sin_m * cos_o
                trig += cos_m * sin_o
            else:                                       # cos(beta r)
                trig = cos_m * cos_o
                trig -= sin_m * sin_o
            amplitude = np.multiply.outer(factors[powers[0]], radial[powers[0]])
            for p in powers[1:]:
                amplitude += np.multiply.outer(factors[p], radial[p])
            trig = trig.reshape(beta.size, -1)
            trig *= amplitude
            del amplitude
            if block is None:
                block = trig
            else:
                block += trig
        return block

    return columns


# ----------------------------------------------------------------------------
# Bessel J on the half-integer lattice {k/2 : k >= 0}
# ----------------------------------------------------------------------------

def _validate_order(order):
    two = 2.0 * float(order)
    if order < 0 or abs(two - round(two)) > 1e-12:
        raise ParameterError(f"order {order} is not on the half-integer lattice >= 0")
    return round(two) / 2.0


def _series_scaled(nu, x):
    """J_nu(x)/x^nu by 24 terms of the ascending series; stable for x < ~1,
    and for half-odd orders below _half_odd_switch."""
    x = np.asarray(x, dtype=float)
    pref = math.exp(-math.lgamma(nu + 1.0)) * 0.5 ** nu
    q = -0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(24):
        term = term * q / ((k + 1.0) * (nu + k + 1.0))
        total = total + term
    return pref * total


def _numpy_half_odd(nu):
    """Whether J_nu is computed in numpy: nu = m + 1/2, m <= _HALF_ODD_NUMPY_MAX."""
    return round(2 * nu) % 2 == 1 and round(nu - 0.5) <= _HALF_ODD_NUMPY_MAX


def _half_odd_switch(nu):
    """x below which J_nu of half-odd order nu = m + 1/2 comes from the
    ascending series and above which from the upward recurrence. At 0.8 m + 1
    both routes stay within 2e-14 of mpmath (relative, absolute below 1e-2)
    for m <= 20; for larger m the error grows (2e-12 at m = 25, 1e-5 at
    m = 40), so those orders take scipy."""
    return 0.8 * (nu - 0.5) + 1.0


def _spherical_bessel_upward(m, x):
    """Spherical Bessel j_m(x) for x > 0: j_0 = sin x/x, j_1 = (j_0 - cos x)/x
    and j_{k+1} = (2k+1)/x j_k - j_{k-1}, stable for x above about m."""
    j_prev = np.sin(x) / x
    if m == 0:
        return j_prev
    j = (j_prev - np.cos(x)) / x
    for k in range(1, m):
        j_prev, j = j, (2 * k + 1) * j / x - j_prev
    return j


def _bessel_argument(x):
    """(x as a 1-d float array, whether x was a scalar); x must be finite, >= 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or not np.all(np.isfinite(xa)):
        raise ParameterError("bessel_j_scaled requires finite x >= 0")
    return np.atleast_1d(xa), xa.ndim == 0


def bessel_j_scaled(order: float, x):
    """J_order(x) / x^order for half-integer orders >= 0 and finite x >= 0,
    finite and stable down to x = 0.

    This is the kernel the radial Fourier transform actually needs: its
    x -> 0 limit is 2^-order / Gamma(order+1). Scalar or ndarray x. Half-odd
    orders m + 1/2 use J_{m+1/2}(x) = sqrt(2x/pi) j_m(x). For
    m <= _HALF_ODD_NUMPY_MAX they are numpy: the ascending series below
    _half_odd_switch and above it sqrt(2/pi) j_m(x) / x^m, with j_m from the
    upward recurrence. Every other order takes the ascending series below
    x = 0.5 and ``scipy.special.jv`` / x^order above. Times x^order, within
    1e-13 of mpmath's J (relative, absolute below 1e-2) from x = 0 to 1e4 for
    orders <= 4.5; at half-odd orders 21.5 to 60.5, up to x = 2e5, within
    1e-13 relative below x = order and within 2e-12 of the envelope
    sqrt(2/(pi x)) above it (jv: 6.4e-13 at worst).
    """
    nu = _validate_order(order)
    xa, scalar = _bessel_argument(x)
    numpy_route = _numpy_half_odd(nu)
    out = np.empty_like(xa)
    lo = xa < (_half_odd_switch(nu) if numpy_route else _BESSEL_SMALL_X)
    out[lo] = _series_scaled(nu, xa[lo])
    xs = xa[~lo]
    if numpy_route:
        m = round(nu - 0.5)
        out[~lo] = math.sqrt(2.0 / math.pi) * _spherical_bessel_upward(m, xs) / xs ** m
    elif xs.size:
        from scipy.special import jv

        out[~lo] = jv(nu, xs) / xs ** nu
    return float(out[0]) if scalar else out
