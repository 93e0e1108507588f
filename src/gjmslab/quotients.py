"""Poincare-Sobolev quotients on hyperbolic space and their minimization over
bubble and spline trial families (gap_scan, the one search), the explicit
multi-bump blow-down bound and its experiment, and the internal
sharp-constant estimate with the closed-form floor of each level it gives
(level_floor), which every gap_scan row is checked against. The search of
a linear family (_minimize_linear, the spline's) is a Newton SQP
(Nocedal-Wright, ch. 18) in numpy on the family's quadratic forms."""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import spherical
from .bubbles import (
    ENERGY_DELTA,
    BubbleParams,
    _golden_section,
    bubble_energy,
    bubble_energy_limit,
    bubble_mass_limit,
    bubble_masses,
    smooth_window,
    truncated_bubble,
)
from .errors import BudgetExceeded, NumericalError, ParameterError
from .geometry import conformal_lift
from .grids import RadialFunction, _least_squares, uniform_grid
from .multipliers import BETA_MAX, multiplier, sin_pi, spectral_bottom
from .params import MultiplierKind, Params
from .spherical import DEFAULT_B_MAX, _beta_edges, _phi_cells, _polar_measure, \
    _spectral_forms, decay_slope, default_beta_grid, lp_mass, phi_matrix, quadratic_form, \
    regularized_kernel

MAX_GRID_RADIUS = 40.0   # the widest trial support, the blow-down arch's

# the geodesic radius inside which every lifted bubble lives: its cut-off
# support 2 delta < 1/2 lifts to r < log((1 + 1/2) / (1 - 1/2)) = log 3
LIFTED_BUBBLE_RADIUS = math.log(3.0)

# frequency cut of a bubble trial's remainder-only form: the remainder symbol
# over the intertwined one is sin(pi s) |Gamma(1/2 + i beta)|^2 / pi
# = sin(pi s) / cosh(pi beta), below 2^-53 from beta = 12 on, so the
# frequencies beyond 16 add nothing to the GJMS energy at double precision.
# Against b_max 60 the form moves by <= 2e-15 of itself at delta = 0.245;
# at delta = 0.05 and s >= 1.3, where it is below 1e-10 of the energy, by up
# to 5.3e-12 of itself, and the energy not at all.
REMAINDER_B_MAX = 16.0


@dataclass(frozen=True)
class QuotientReport:
    """Energy, masses, and quotient of one trial at one lambda."""

    lam: float
    energy: float
    l2_mass: float
    crit_norm: float
    quotient: float
    trial_descriptor: str

    def at_lambda(self, lam: float) -> "QuotientReport":
        """Same trial at a different shift (the numerator is affine in lambda)."""
        q = (self.energy - lam * self.l2_mass) / self.crit_norm
        return replace(self, lam=lam, quotient=q)


def _hyperbolic_width(r_max: float) -> float:
    """The panel width of standard_hyperbolic_grid(r_max): 0.025 up to
    r_max = 2, where bubble cores live, 0.05 up to 16 and 0.125 up to
    MAX_GRID_RADIUS for the wide trials; ParameterError beyond it."""
    if r_max > MAX_GRID_RADIUS:
        raise ParameterError(
            f"trial support {r_max} exceeds the largest grid radius {MAX_GRID_RADIUS}")
    return 0.025 if r_max <= 2.0 else (0.05 if r_max <= 16.0 else 0.125)


def standard_hyperbolic_grid(r_max: float):
    """The uniform geodesic grid on exactly [0, r_max], panels _hyperbolic_width wide."""
    return uniform_grid(r_max, panel_width=_hyperbolic_width(r_max))


def _report(p, lam, energy, l2, crit_integral, descriptor):
    if crit_integral <= 0.0:
        raise ParameterError("trial function has vanishing critical norm")
    crit = crit_integral ** (2.0 / p.two_star)
    quotient = (energy - lam * l2) / crit
    return QuotientReport(lam, energy, l2, crit, quotient, descriptor)


def _energy_kind(kind, p):
    """The symbol that prices kind's energy: kind itself, except INTERTWINED
    for GJMS at integer s, where sin(pi s) = 0, the remainder vanishes and
    the two symbols agree."""
    if kind not in (MultiplierKind.GJMS, MultiplierKind.INTERTWINED):
        raise ParameterError("a quotient needs the GJMS or INTERTWINED kind")
    if kind is MultiplierKind.GJMS and sin_pi(p.s) == 0.0:
        return MultiplierKind.INTERTWINED
    return kind


def sobolev_quotient(kind: MultiplierKind, p: Params, lam: float,
                     u: RadialFunction, b_max: float = DEFAULT_B_MAX) -> QuotientReport:
    """Quotient of an arbitrary radial hyperbolic trial.

    The energy is the spectral quadratic form of the symbol of kind
    (_energy_kind), from one spherical transform of u.
    """
    energy_kind = _energy_kind(kind, p)
    if not np.any(u.values):
        raise ParameterError("sobolev_quotient needs a nonzero trial")
    energy = quadratic_form(energy_kind, p, u, b_max)
    l2 = lp_mass(u, p.n, 2.0)
    crit_integral = lp_mass(u, p.n, p.two_star)
    return _report(p, lam, energy, l2, crit_integral, f"radial[{kind.value}]")


def bubble_quotient(kind: MultiplierKind, p: Params, lam: float,
                    bp: BubbleParams, phi=None) -> QuotientReport:
    """Quotient of the lifted truncated bubble.

    The intertwined energy is taken as the Euclidean fractional energy of
    the truncated bubble (the exact conformal reduction; bubble_energy, a
    Dirichlet integral at s = 1), and the masses as its Euclidean integrals
    (bubble_masses). This is the one energy that uses the split
    P_s = P~_s + B_s: GJMS at non-integer s adds the remainder form of the
    lifted trial, the conformal_lift of truncated_bubble sampled once on
    standard_hyperbolic_grid(LIFTED_BUBBLE_RADIUS) with declared support
    [0, LIFTED_BUBBLE_RADIUS], on frequencies up to REMAINDER_B_MAX. So
    every trial reads one Phi, _remainder_phi(kind, p), which a scan builds
    once (BubbleFamily._search) and passes as phi; a call without it
    streams its own.
    """
    energy = bubble_energy(p, bp)
    if _energy_kind(kind, p) is MultiplierKind.GJMS:
        u = RadialFunction.from_profile(conformal_lift(truncated_bubble(p, bp), 2.0 * bp.delta, p),
                                        standard_hyperbolic_grid(LIFTED_BUBBLE_RADIUS),
                                        LIFTED_BUBBLE_RADIUS)
        energy += quadratic_form(MultiplierKind.REMAINDER, p, u, b_max=REMAINDER_B_MAX, phi=phi)
    crit_integral, l2 = bubble_masses(p, bp)
    return _report(p, lam, energy, l2, crit_integral,
                   f"bubble[eps={bp.eps:.6g},delta={bp.delta:.6g}]")


def _remainder_phi(kind, p):
    """The Phi that every bubble trial's remainder form reads (bubble_quotient),
    or None where the energy of kind has no remainder (_energy_kind)."""
    if _energy_kind(kind, p) is not MultiplierKind.GJMS:
        return None
    return phi_matrix(p.n, default_beta_grid(LIFTED_BUBBLE_RADIUS, REMAINDER_B_MAX),
                      standard_hyperbolic_grid(LIFTED_BUBBLE_RADIUS))


# ---------------------------------------------------------------------------
# Trial families and their minimization
# ---------------------------------------------------------------------------

# the (eps, delta) box of the bubble family; its largest delta, where lambda >= 0
# scans price their trials, is the support of every bubble energy
BUBBLE_EPS = (0.02, 0.3)
BUBBLE_DELTA = (0.05, ENERGY_DELTA)


@dataclass(frozen=True)
class BubbleFamily:
    """The truncated bubbles of the box BUBBLE_EPS x BUBBLE_DELTA, searched
    along t = eps/delta: a scan runs _minimize_bubble's golden section at
    each lambda, and an evaluation is one bubble_quotient or the read-back
    of one priced at an earlier lambda. It refuses nothing and reads no
    b_max; at non-integer s a GJMS scan builds the Phi of the remainder
    forms (_remainder_phi, up to REMAINDER_B_MAX) once, for every trial of
    every lambda."""

    name = "bubble"

    def _search(self, kind, p, b_max):
        """gap_scan's search: one trial memo and one _remainder_phi for every lambda."""
        return functools.partial(_minimize_bubble, kind, p, reports={},
                                 phi=_remainder_phi(kind, p))


@dataclass(frozen=True)
class SplineFamily:
    """Cubic-spline radial profiles: values at knots on [0, radius].

    grading > 0 packs knots toward the origin (sinh spacing) so one family
    expresses both concentration cores and tails; grading = 0 gives uniform
    knots, the right choice for wide low-frequency trials on large supports
    (graded tails under-resolve there and the sinh^{n-1} weight amplifies
    any spline wiggle).

    A scan runs _minimize_linear over the knot values under the tail guard
    of the energy's symbol, on the forms (_forms) built once per scan, and
    returns only guard-passing trials. _search raises ParameterError, before
    Phi or its frequency grid is built (the small r-grid is), at s >= 7/2 (a
    C^2 cubic has jumps in its third derivative, so it lies in H^s only for
    s < 7/2 and every trial there has infinite energy) and for forms of more
    than spherical.MAX_TABLE_CELLS cells (read at the call): the
    spherical._phi_cells of the family's frequency edges and r-grid nodes,
    plus knots^2, the np.eye(k, k - 1) right-hand sides and the slopes that
    _forms passes through _clamped_slopes' sweep.
    """

    knots: int = 12
    radius: float = 8.0
    grading: float = 3.3
    name = "spline"

    def __post_init__(self):
        if self.knots < 4 or not self.radius > 0.0:
            raise ParameterError("spline family needs >= 4 knots and radius > 0")
        if not self.grading >= 0.0:
            raise ParameterError("grading must be >= 0")

    def trial(self, theta) -> RadialFunction:
        """Radial trial from the free knot values theta (the last knot is 0):
        the clamped cubic spline (zero slope at both ends) times a smooth
        window vanishing at the support radius (keeps the transform tail
        closed). It depends on no (n, s)."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.knots - 1,):
            raise ParameterError(f"expected {self.knots - 1} free knot values")
        knots_x = spline_knots(self)
        # trailing zero knots truncate the support: past-the-support spline
        # ringing (~1e-15) would otherwise be amplified by sinh^{n-1} weights
        nonzero = np.nonzero(theta)[0]
        if nonzero.size == 0:
            support = 0.0
        else:
            support = float(knots_x[min(int(nonzero[-1]) + 1, self.knots - 1)])
        grid = standard_hyperbolic_grid(self.radius)
        inside = grid.nodes <= support
        values = np.zeros_like(grid.nodes)
        values[inside] = _windowed_spline(self, np.concatenate([theta, [0.0]]))(grid.nodes[inside])
        return RadialFunction(grid, values, float(min(support, self.radius)))

    def _search(self, kind, p, b_max):
        """gap_scan's search, after the refusals of the class docstring: one
        build of the forms for every lambda."""
        if p.s >= 3.5:
            raise ParameterError(
                f"the cubic spline family has no trial of finite energy at s = {p.s!r}: a C^2 "
                "cubic has jumps in its third derivative, so it lies in H^s only for s < 7/2"
            )
        bound, radii = spherical.MAX_TABLE_CELLS, standard_hyperbolic_grid(self.radius).nodes
        phi_cells = _phi_cells(p.n, _beta_edges(self.radius, b_max), radii)
        cells = phi_cells + self.knots ** 2   # the Phi pass and the knot basis' sweep
        if cells > bound:
            flag = f"b_max {b_max!r}" if phi_cells > bound else f"spline_knots {self.knots}"
            raise ParameterError(f"{flag} asks for too much work: the spline forms read a Phi "
                                 f"and a knot system of {cells:.3g} cells, more than {bound:.0e}")
        return functools.partial(_minimize_linear, p, family=self,
                                 forms=self._forms(kind, p, b_max))

    def _forms(self, kind, p, b_max):
        """(basis, measure, energy, l2, guard) of the family on its full
        support: knot values theta give the trial basis @ theta, critical
        integral measure @ |basis @ theta|^{2*}, energy theta^T energy theta,
        L2 mass theta^T l2 theta, and pass the tail guard of quadratic_form
        for the energy's symbol (_energy_kind) iff theta^T guard theta >= 0
        (_spectral_forms)."""
        grid = standard_hyperbolic_grid(self.radius)
        basis = _windowed_spline(self, np.eye(self.knots, self.knots - 1))(grid.nodes)
        measure = _polar_measure(p.n, grid)
        energy, guard, _ = _spectral_forms(_energy_kind(kind, p), p, grid, basis, self.radius,
                                           b_max)
        return basis, measure, energy, basis.T @ (measure[:, None] * basis), guard

    def _start_candidates(self, p):
        """Deterministic starting knot values: a wide bump plus the geodesic
        profiles of lifted ball-truncated bubbles, each peak-normalized. From
        knot radii of 38 on, tanh(r/2) rounds to 1 and the conformal factor
        2 / (1 - t^2) is inf, so its power s - n/2 < 0 is exactly 0 there."""
        knots_x = spline_knots(self)
        t = np.tanh(knots_x / 2.0)
        q = (p.n - 2.0 * p.s) / 2.0
        cands = [np.exp(-((2.2 * knots_x / self.radius) ** 2))]
        with np.errstate(divide="ignore"):
            conformal = 2.0 / (1.0 - t * t)
        for eps, de in ((0.3, 0.35), (0.15, 0.45), (0.08, 0.45), (0.05, 0.45)):
            vals = (conformal ** (p.s - p.n / 2.0)
                    * smooth_window(t, de, min(2.0 * de, 0.999))
                    * eps ** (-q) * (1.0 + (t / eps) ** 2) ** (-q))
            cands.append(vals / np.max(np.abs(vals)))
        return [cand[:-1] for cand in cands]

    def _report(self, p, lam, forms, theta):
        """Report of the trial theta from the family's forms; the descriptor
        lists theta scaled to unit critical integral."""
        basis, measure, energy, l2, _ = forms
        crit_integral = float(measure @ np.abs(basis @ theta) ** p.two_star)
        values = np.array2string(theta / crit_integral ** (1.0 / p.two_star), precision=4,
                                 separator=",", max_line_width=np.inf)
        return _report(p, lam, float(theta @ energy @ theta), float(theta @ l2 @ theta),
                       crit_integral, f"spline[m={self.knots},R={self.radius:.6g},theta={values}]")


def spline_knots(family: SplineFamily) -> np.ndarray:
    """Knot abscissas per the family's grading (0 = uniform)."""
    i = np.linspace(0.0, 1.0, family.knots)
    a = family.grading
    if a == 0.0:
        return family.radius * i
    return family.radius * np.sinh(a * i) / math.sinh(a)


def _clamped_slopes(x, y):
    """Knot slopes of the C2 cubic spline through (x, y) with zero slope at
    both ends, one column per column of y. The second-derivative continuity
    conditions at the k - 2 inner knots are tridiagonal, knot i reading
    h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1}
    = 3 (h_i d_{i-1} + h_{i-1} d_i), h_i = x_{i+1} - x_i and d_i the secants,
    and strictly diagonally dominant, so one forward elimination and one
    back substitution without pivoting solve them, each step over all
    columns."""
    h = np.diff(x)
    secant = np.diff(y, axis=0) / h[:, None]
    # row i of rhs and pivots is the inner knot i + 1
    rhs = 3.0 * (h[1:, None] * secant[:-1] + h[:-1, None] * secant[1:])
    pivots = 2.0 * (h[:-1] + h[1:])
    for i in range(1, pivots.size):
        factor = h[i + 1] / pivots[i - 1]
        pivots[i] -= factor * h[i - 1]
        rhs[i] -= factor * rhs[i - 1]
    slopes = np.zeros_like(y)
    slopes[-2] = rhs[-1] / pivots[-1]
    for i in range(pivots.size - 2, -1, -1):
        slopes[i + 1] = (rhs[i] - h[i] * slopes[i + 2]) / pivots[i]
    return slopes


def _windowed_spline(family: SplineFamily, values):
    """r -> the clamped cubic spline through (knots, values), in cubic Hermite
    form with the knot slopes of _clamped_slopes' tridiagonal sweep, times
    the smooth window vanishing at the radius; one column per column of a
    2-d values."""
    x = spline_knots(family)
    y = values.reshape(x.size, -1)
    slopes = _clamped_slopes(x, y)

    def windowed(r):
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
        h = x[i + 1] - x[i]
        t = (r - x[i]) / h
        u = 1.0 - t
        spline = (((1.0 + 2.0 * t) * u * u)[:, None] * y[i]
                  + (t * t * (3.0 - 2.0 * t))[:, None] * y[i + 1]
                  + (h * t * u * u)[:, None] * slopes[i]
                  - (h * t * t * u)[:, None] * slopes[i + 1])
        spline *= smooth_window(r, 0.8 * family.radius, family.radius)[:, None]
        return spline.reshape(r.shape + values.shape[1:])

    return windowed


class _Budget:
    """Evaluation counter and the one owner of the best report found (the
    first of equal quotients wins)."""

    def __init__(self, cap):
        self.cap = cap
        self.used = 0
        self.best = None

    @property
    def spent(self):
        return self.used >= self.cap

    def price(self, trial, *args, admissible=True):
        """Count and price one trial; returns its quotient.

        `trial(*args)` returns a QuotientReport; one priced with
        admissible=False never becomes the best. Raises BudgetExceeded,
        before pricing, once the cap is spent.
        """
        if self.spent:
            raise BudgetExceeded(f"evaluation cap {self.cap} exhausted")
        self.used += 1
        rep = trial(*args)
        if admissible and (self.best is None or rep.quotient < self.best.quotient):
            self.best = rep
        return rep.quotient


DEFAULT_EVAL_CAP = 500

# gap_scan: a row may lie this far below its level_floor, relative; legitimate
# spectral trials reach 2e-3 below the sharp constant (acceptance test 9),
# and a truncated spectrum priced at b_max is the known cause beyond it
FLOOR_REL_TOL = 1e-2


def level_floor(kind: MultiplierKind, p: Params, lam: float):
    """A closed-form lower bound on the Poincare-Sobolev level at lambda, or
    None where none is known (GJMS with sin(pi s) < 0, where B_s < 0).

    S = sharp_constant_estimate(p), the sharp Euclidean constant (Lieb 1983;
    Cotsiolis-Tavoularis 2004): the conformal reduction gives
    <P~_s u, u> >= S ||u||^2_{2*}, and so does P_s = P~_s + B_s where
    B_s >= 0 (sin(pi s) >= 0). Both symbols increase in beta, so with
    lambda0 = spectral_bottom(kind, p), P - lambda >= (1 - lambda/lambda0) P
    for 0 <= lambda <= lambda0: the floor is S (1 - max(lambda, 0)/lambda0),
    and S at lambda <= 0."""
    if kind is MultiplierKind.GJMS and sin_pi(p.s) < 0.0:
        return None
    s_est = sharp_constant_estimate(p)
    if lam <= 0.0:
        return s_est
    return s_est * (1.0 - lam / spectral_bottom(kind, p))


def _minimize_bubble(kind, p, lam, budget, reports, phi):
    """Golden section (30 steps) over log t, t = eps/delta, on the box
    BUBBLE_EPS x BUBBLE_DELTA; returns True.

    The energy and critical mass depend on t alone and the L2 mass grows
    with delta at fixed t, so each t is priced at the box point the sign of
    lam prefers: the largest delta for lam >= 0, the smallest for lam < 0.
    reports maps rounded (log eps, delta) keys to reports at any lambda,
    read back through at_lambda; the budget still counts each trial priced.
    phi is the scan's _remainder_phi, passed to every trial's bubble_quotient.
    """
    (eps_lo, eps_hi), (delta_lo, delta_hi) = BUBBLE_EPS, BUBBLE_DELTA

    def trial(key, bp):
        if key not in reports:
            reports[key] = bubble_quotient(kind, p, lam, bp, phi=phi)
        return reports[key].at_lambda(lam)

    def evaluate(log_t):
        t = math.exp(log_t)
        if lam >= 0.0:
            delta = min(delta_hi, eps_hi / t)
        else:
            delta = max(delta_lo, eps_lo / t)
        eps = min(max(t * delta, eps_lo), eps_hi)
        key = (round(math.log(eps), 12), round(delta, 12))
        return budget.price(trial, key, BubbleParams(eps, delta))

    _golden_section(evaluate, math.log(eps_lo / delta_hi), math.log(eps_hi / delta_lo), steps=30)
    return True


def _guarded_newton_step(grad, vals, vecs, jac, value, margin):
    """Minimizer y of grad.y + y^T H y / 2, H = vecs diag(vals) vecs^T positive
    definite, under value + jac.y >= margin, and its multiplier mu: the free
    Newton step (mu = 0) when it reaches half the margin, else the step with
    the guard active, value + jac.y = margin; None when jac is a zero row or
    the active step has a negative multiplier or falls short of half the
    margin."""
    inverse = (vecs / vals) @ vecs.T
    newton = -inverse @ grad
    mu = 0.0
    if value + jac @ newton < 0.5 * margin:
        curvature = jac @ inverse @ jac
        if curvature == 0.0:
            return None
        mu = (margin - value - jac @ newton) / curvature
    y = newton + inverse @ (jac * mu)
    if mu >= 0.0 and value + jac @ y >= 0.5 * margin:
        return y, mu
    return None


def _minimize_linear(p, lam, family, budget, forms):
    """Newton SQP (Nocedal-Wright, ch. 18) over the coefficients theta of a
    linear trial family, on Q = theta^T (A - lam M) theta / crit^{2/2*}
    under the tail guard theta^T G theta >= 0, from the best of
    family._start_candidates(p) scaled to unit critical integral; forms:
    family._forms, and every trial is priced by family._report.

    Q is 0-homogeneous and the guard 2-homogeneous, so each step d is
    tangent (theta^T d = 0) and each trial is rescaled to unit critical
    integral. The step minimizes the quadratic model of Q with the exact
    Lagrangian Hessian on the tangent space, its eigenvalues clamped to
    positive, under the linearized guard held 1e-12 |theta|^T |G| |theta|
    inside; it is halved until an l1 merit decreases. Every trial is
    priced, line-search trials included.
    Returns True once an admissible trial moves Q by <= 1e-14 relative or a
    step is <= 1e-12 |theta|, and False when the linearized guard admits no
    step.
    """
    basis, measure, energy, l2, guard = forms
    shifted = energy - lam * l2
    power = p.two_star
    magnitude = np.abs(guard)

    def unit(theta):
        return theta / (measure @ np.abs(basis @ theta) ** power) ** (1.0 / power)

    def guard_value(theta, matrix=guard):
        # einsum's summation order, not BLAS's: theta @ G @ theta rounds
        # differently and moves the (3, 1) spline winner in its last bits
        return float(np.einsum("i,ij,j->", theta, matrix, theta))

    def quotient(theta):
        # a trial outside the guard steers the search but is never returned
        g = guard_value(theta)
        return budget.price(family._report, p, lam, forms, theta, admissible=g >= 0.0), g

    def gradient_hessian(theta):
        # of Q at unit critical integral: N = measure @ |u|^{2*}, u = basis
        # @ theta, has gradient 2* pull and Hessian 2* (2* - 1) B^T w B
        u = basis @ theta
        w = measure * np.abs(u) ** (power - 2.0)
        pull = basis.T @ (w * u)
        s_theta = shifted @ theta
        q = theta @ s_theta
        cross = np.outer(s_theta, pull)
        hessian = (2.0 * shifted - 4.0 * (cross + cross.T)
                   + 2.0 * q * ((power + 2.0) * np.outer(pull, pull)
                                - (power - 1.0) * (basis.T * w) @ basis))
        return 2.0 * (s_theta - q * pull), hessian

    candidates = family._start_candidates(p)
    start = [quotient(cand)[0] for cand in candidates]
    best = int(np.argmin(start))
    theta, q = unit(candidates[best]), start[best]
    g = guard_value(theta)
    mu, nu = 0.0, 0.0
    while True:
        gradient, hessian = gradient_hessian(theta)
        hessian -= 2.0 * mu * guard
        tangent = np.linalg.qr(theta[:, None], mode="complete")[0][:, 1:]
        vals, vecs = np.linalg.eigh(tangent.T @ hessian @ tangent)
        vals = np.maximum(np.abs(vals), 1e-15 * np.max(np.abs(vals)))
        step = _guarded_newton_step(tangent.T @ gradient, vals, vecs,
                                    2.0 * (guard @ theta) @ tangent, g,
                                    1e-12 * guard_value(np.abs(theta), magnitude))
        if step is None:
            return False
        d, mu = tangent @ step[0], step[1]
        if np.linalg.norm(d) <= 1e-12 * np.linalg.norm(theta):
            return True
        nu = max(nu, 1.5 * mu)
        violation = max(-g, 0.0)
        merit = q + nu * violation
        slope = min(gradient @ d - nu * violation, 0.0)
        alpha = 1.0
        while True:
            trial = unit(theta + alpha * d)
            q_trial, g_trial = quotient(trial)
            if q_trial + nu * max(-g_trial, 0.0) <= merit + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
            if alpha * np.linalg.norm(d) <= 1e-12 * np.linalg.norm(theta):
                return True
        done = g_trial >= 0.0 and abs(q_trial - q) <= 1e-14 * abs(q)
        theta, q, g = trial, q_trial, g_trial
        if done:
            return True


def gap_scan(kind: MultiplierKind, p: Params, lambda_grid, family,
             b_max: float = DEFAULT_B_MAX):
    """Best quotient report found over the trial family at each lambda.

    The search of family._search(kind, p, b_max), built once per scan (each
    family states its search and refusals), runs at each lambda in
    increasing order and prices at most DEFAULT_EVAL_CAP trials (read at the
    call); BudgetExceeded when it priced none, or spent the cap unfinished.
    Earlier winners are re-priced at each lambda (free: the numerator is
    affine in lambda), so the quotients do not increase with lambda. A row
    whose quotient is not finite, or more than FLOOR_REL_TOL below its
    level_floor (b_max truncated its trial's spectrum), raises
    NumericalError. Raises ParameterError, before the search is built, for
    an empty lambda grid, a b_max outside (0, multipliers.BETA_MAX], a
    family without _search, a lambda above the spectral bottom of kind
    (beyond 1e-12 relative roundoff; the level is -infinity there) and
    n > bubbles.MAX_N where kind has a level_floor.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0:
        raise ParameterError("gap_scan needs a nonempty lambda grid")
    if not 0.0 < b_max <= BETA_MAX:
        raise ParameterError(f"b_max must be > 0 and at most {BETA_MAX:g}, got {b_max}")
    if not hasattr(family, "_search"):
        raise ParameterError(f"unknown trial family {family!r}")
    bottom = spectral_bottom(kind, p)
    top = float(np.max(lambda_grid))
    if not (top <= bottom or math.isclose(top, bottom, rel_tol=1e-12)):
        raise ParameterError(
            f"lambda {top!r} is above the spectral bottom ({bottom!r}) of the {kind.value} "
            "operator: far-apart copies of a trial with a negative numerator drive the "
            "quotient to -infinity there"
        )
    floors = [level_floor(kind, p, lam) for lam in lambda_grid.tolist()]
    search = family._search(kind, p, b_max)
    order = np.argsort(lambda_grid, kind="stable")
    reports = {}        # in increasing lambda: the carried-over winners
    for idx in order:
        lam = float(lambda_grid[idx])
        budget = _Budget(DEFAULT_EVAL_CAP)
        try:
            converged = search(lam=lam, budget=budget)
        except BudgetExceeded:
            converged = False
        if budget.best is None:
            raise BudgetExceeded(f"{family.name} search priced no trial in {budget.used} of "
                                 f"{budget.cap} evaluations")
        if not converged and budget.spent:
            raise BudgetExceeded(f"{family.name} search used {budget.used} of {budget.cap} "
                                 "evaluations without converging")
        rep = budget.best
        for earlier in reports.values():
            candidate = earlier.at_lambda(lam)
            if candidate.quotient < rep.quotient:
                rep = candidate
        if not math.isfinite(rep.quotient):
            raise NumericalError(
                f"{family.name} search at lambda {lam!r} found the quotient {rep.quotient!r}: a "
                "trial's energy or mass overflows a double"
            )
        floor = floors[idx]
        if floor is not None and rep.quotient < floor * (1.0 - FLOOR_REL_TOL):
            raise NumericalError(
                f"{family.name} search at lambda {lam!r} found the quotient {rep.quotient:.6g}, "
                f"below the closed-form floor {floor:.6g} of the level: the b_max {b_max!r} "
                "cut-off truncates the trial's spectrum"
            )
        reports[idx] = rep
    return [reports[i] for i in range(lambda_grid.size)]


def _counts(N_values):
    """N_values as ints; ParameterError unless they are distinct positive
    integers."""
    if not all(float(N).is_integer() and N >= 1 for N in N_values):
        raise ParameterError("N values must be positive integers")
    if len(set(N_values)) != len(N_values):
        raise ParameterError("N values must be distinct")
    return [int(N) for N in N_values]


def multibump_blowdown(p: Params, q: float, C: float, alpha: float,
                       R0: float, N_values, crit_norm_phi: float):
    """The explicit far-apart-copies bound table.

    For each N: R_N = (2/alpha) log N + R0, bound = -N q + 2 C N^2 e^{-alpha R_N},
    and the quotient bound scaled by N^{2/2*} crit_norm_phi, which must blow
    down like -N^{2s/n}.
    """
    if not q > 0.0:
        raise ParameterError("multibump_blowdown needs q > 0 (a measured negative numerator)")
    if not (C >= 0.0 and alpha > 0.0 and R0 > 0.0 and crit_norm_phi > 0.0):
        raise ParameterError("C >= 0, alpha > 0, R0 > 0, crit_norm > 0 required")
    rows = []
    for N in _counts(N_values):
        R_N = (2.0 / alpha) * math.log(N) + R0
        bound = -N * q + 2.0 * C * N * N * math.exp(-alpha * R_N)
        scaled = bound / (N ** (2.0 / p.two_star) * crit_norm_phi)
        rows.append({"N": N, "R_N": R_N, "bound": bound, "scaled_bound": scaled})
    return rows


def _wide_negative_trial(p: Params, lam: float):
    """A wide spline arch with negative numerator at lam > the spectral bottom."""
    bottom = spectral_bottom(MultiplierKind.INTERTWINED, p)
    margin = (lam - bottom) / bottom
    h = 1e-3
    c2 = (math.log(multiplier(MultiplierKind.INTERTWINED, p, h)) - math.log(bottom)) / h ** 2
    arch = min(38.0, 1.35 * math.pi * math.sqrt(max(c2, 0.5) / margin))
    family = SplineFamily(knots=51, radius=40.0, grading=0.0)
    kx = spline_knots(family)[:-1]
    with np.errstate(all="ignore"):
        theta = np.where(kx <= arch,
                         np.sin(np.pi * kx / arch) / np.sinh(np.maximum(kx, 1e-9)), 0.0)
    theta[0] = math.pi / arch
    u = family.trial(theta)
    rep = sobolev_quotient(MultiplierKind.INTERTWINED, p, lam, u, b_max=8.0)
    return rep, u


def blowdown(p: Params, lam: float, N_values):
    """The multi-bump blow-down experiment at lam above the intertwined bottom.

    A wide spline arch gives q = -(its numerator); the kernel k^0.01 at
    r = 2..5 gives alpha = min(0.8 rho, 0.9 |decay slope|), C = max |k|
    e^{alpha r} times the arch's squared L1 norm, R0 = max(1, log(8 C/q)/alpha).
    rows holds (N, R_N, bound, scaled bound) of multibump_blowdown; summary
    holds q, C, alpha, R0, the target slope 2s/n and, when two or more scaled
    bounds are all negative, the log-log slope of -scaled bound against N
    (grids._least_squares, columns 1 and log N; the decay slope is
    spherical.decay_slope's). It makes no LAPACK call: the calibration
    spline's slopes are one tridiagonal sweep (_clamped_slopes).
    Raises NumericalError when the arch's numerator is not negative. At
    n >= 4 the arch (R = 40, b_max 8) fails the quadratic form's tail guard,
    so blowdown raises NumericalError there (CLI exit 5): the tail fraction is
    8.7e-4 at (5, 0.8), lambda 0.9, and 5.5e-4 at (4, 1), lambda 0.9, against
    the tolerance 1e-4.
    """
    bottom = spectral_bottom(MultiplierKind.INTERTWINED, p)
    if not lam > bottom:
        raise ParameterError(
            "the quadratic form of the intertwined operator is nonnegative "
            f"for every trial if and only if lambda <= its spectral bottom ({bottom!r}); "
            "blow-down requires lambda above the bottom"
        )
    counts = _counts(N_values)   # bad input fails before the calibration
    rep, u = _wide_negative_trial(p, lam)
    numerator = rep.energy - lam * rep.l2_mass
    if numerator >= 0.0:
        raise NumericalError("calibration trial failed to reach a negative numerator")
    q = -numerator
    fit_radii = [2.0, 3.0, 4.0, 5.0]
    ks = [regularized_kernel(MultiplierKind.INTERTWINED, p, r, 0.01) for r in fit_radii]
    slope = decay_slope(fit_radii, ks)
    alpha = min(0.8 * p.rho, 0.9 * abs(slope))
    l1_norm = lp_mass(u, p.n, 1.0)
    C = max(abs(k) * math.exp(alpha * r) for k, r in zip(ks, fit_radii)) * l1_norm ** 2
    R0 = max(1.0, math.log(8.0 * C / q) / alpha)
    table = multibump_blowdown(p, q, C, alpha, R0, counts, rep.crit_norm)
    rows = [(r["N"], r["R_N"], r["bound"], r["scaled_bound"]) for r in table]
    scaled = np.array([-r["scaled_bound"] for r in table])
    ns = np.array([r["N"] for r in table], dtype=float)
    summary = {"target_slope": 2.0 * p.s / p.n,
               "q": q, "C": C, "alpha": alpha, "R0": R0}
    if len(table) >= 2 and np.all(scaled > 0):
        summary["slope"] = _least_squares(np.ones_like(ns), np.log(ns), np.log(scaled))[1]
    return rows, summary


def sharp_constant_estimate(p: Params) -> float:
    """S_est = E(U) / M^{2/2*}: the closed-form bubble energy over its
    critical norm, the package's internal reference for every gap margin."""
    return bubble_energy_limit(p) / bubble_mass_limit(p.n) ** (2.0 / p.two_star)
