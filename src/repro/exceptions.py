"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers embedding the library can catch a single base class.  Sub-classes are
split by subsystem: geometric programming, query algebra, filter assignment
and simulation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GPError(ReproError):
    """Base class for geometric-programming errors."""


class InfeasibleProblemError(GPError):
    """The optimisation problem has no feasible point (or the solver could
    not find one from any start)."""

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        #: Optional :class:`repro.gp.diagnostics.SolveReport` with residuals.
        self.report = report


class SolverFailedError(GPError):
    """The numerical solver terminated abnormally on a problem that is not
    provably infeasible."""

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report


class QueryError(ReproError):
    """Base class for polynomial-query construction/parsing errors."""


class QueryParseError(QueryError):
    """A textual query could not be parsed."""

    def __init__(self, text: str, position: int, message: str):
        super().__init__(f"{message} (at position {position} in {text!r})")
        self.text = text
        self.position = position


class InvalidQueryError(QueryError):
    """A query violates a structural requirement (e.g. non-positive QAB,
    negative exponent where integral exponents are required)."""


class FilterError(ReproError):
    """Base class for DAB-assignment errors."""


class NotPositiveCoefficientError(FilterError):
    """An algorithm restricted to positive-coefficient polynomial queries
    (PPQs) received a general polynomial query."""


class InvalidAssignmentError(FilterError):
    """A DAB assignment is structurally invalid (missing items, non-positive
    bounds, secondary smaller than primary, ...)."""


class SimulationError(ReproError):
    """Base class for simulator configuration/runtime errors."""


class TraceError(ReproError):
    """A trace is malformed (empty, non-positive values where positive
    values are required, mismatched lengths, ...)."""
