"""Exception hierarchy for gjmslab: one class per way a command can fail.

ParameterError is bad input (CLI exit 2). NumericalError is a numerical
contract that did not hold: a tail guard, a series or a kernel's halves that
missed their tolerance, data a fit cannot use, a search that priced nothing
(CLI exit 5). BudgetExceeded is the NumericalError of a search's evaluation
cap, which gap_scan catches by name. The CLI maps by class, so which failure
is numerical is decided here alone.
"""


class GjmsLabError(Exception):
    """Base class for all package errors."""


class ParameterError(GjmsLabError):
    """Input outside the domain of an operation or experiment."""


class NumericalError(GjmsLabError):
    """A numerical contract (tolerance, tail, convergence, fit data) failed."""


class BudgetExceeded(NumericalError):
    """A search hit its evaluation cap before the stopping tolerance."""
