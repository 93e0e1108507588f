"""Exception hierarchy for gjmslab.

Every numerical-contract violation raises a subclass of GjmsLabError so
callers (and the CLI driver) can map failures onto exit codes without
string matching.
"""


class GjmsLabError(Exception):
    """Base class for all package errors."""


class DomainError(GjmsLabError):
    """Argument outside the mathematical domain of the operation."""


class UnsupportedOrder(DomainError):
    """Bessel order outside the half-integer lattice."""


class NonConvergence(GjmsLabError):
    """Series or adaptive quadrature failed to reach tolerance in budget."""


class SupportError(GjmsLabError):
    """Radial profile support violates an operation precondition."""


class TailError(GjmsLabError):
    """Truncated-integral tail estimate exceeds tolerance."""


class DegenerateData(GjmsLabError):
    """Data unusable for fitting (underflow, too few points, ...)."""


class BudgetExceeded(GjmsLabError):
    """Optimizer hit its evaluation cap before the stopping tolerance."""


class ParameterError(GjmsLabError):
    """Invalid parameter combination for an experiment."""


class ZeroTrial(GjmsLabError):
    """A quotient was requested for an identically-zero trial function."""
