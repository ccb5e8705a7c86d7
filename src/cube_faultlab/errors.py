"""Exception types shared across the package.

Argument errors (bad dimensions, malformed patterns, invalid families)
are plain ValueError.  The classes here mark the two other failure
kinds a caller may need to tell apart: a request that is too large to
honor exactly, and an internal contradiction with a proved bound, which
always indicates a bug rather than bad input.
"""

from __future__ import annotations


class FaultLabError(Exception):
    """Base class for package-specific failures."""


class ResourceLimitError(FaultLabError):
    """The request is predicted to take longer than the one time limit,
    or its tables to need more memory than the package allows.

    The message names an alternative that fits (a smaller n, budget,
    size or draw count, bfs_distance on chosen vertex pairs, or
    route_with_report, which needs no survival graph).
    """


class InvariantViolation(FaultLabError):
    """An internal check contradicted a proved property.

    Raised, for example, when a fault family within the connectivity
    budget disconnects the survival graph, or when a produced route
    exceeds its guaranteed bound.  Never caused by user input alone.
    """
