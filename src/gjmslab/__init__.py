"""gjmslab: a numerical laboratory for the fractional conformal operators on
hyperbolic space -- their Gamma-ratio spectral symbols, the radial
spherical-transform calculus, conformal bubble asymptotics, and
Poincare-Sobolev quotient minimization."""

from .bubbles import BubbleParams, bubble, bubble_asymptotics, cutoff, crit_mass, \
    fractional_energy, hyperbolic_l2_mass
from .errors import (
    BudgetExceeded,
    DegenerateData,
    DomainError,
    GjmsLabError,
    NonConvergence,
    ParameterError,
    SupportError,
    TailError,
    UnsupportedOrder,
    ZeroTrial,
)
from .geometry import conformal_factor, conformal_lift, distance, mobius
from .grids import RadialFunction, RadialGrid, Space, SpectralProfile
from .multipliers import b_constant, gap_constant, integer_multiplier, multiplier, \
    spectral_bottom, verify_decomposition
from .params import MultiplierKind, Params
from .quotients import BubbleFamily, QuotientReport, SplineFamily, blowdown, \
    bubble_quotient, gap_scan, multibump_blowdown, sharp_constant_estimate, sobolev_quotient
from .spherical import inverse_spherical_transform, kernel_decay, plancherel_density, \
    quadratic_form, regularized_kernel, spherical_function, spherical_transform

__version__ = "0.1.0"
