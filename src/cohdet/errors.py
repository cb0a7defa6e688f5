"""Exception types shared across the package."""


class CohdetError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CohdetError, ValueError):
    """An input value lies outside its physically meaningful domain."""


class DegenerateScenarioError(CohdetError, ValueError):
    """The scenario sits at the singular point where the two-source state is
    not normalizable (coincident, fully coherent, exactly out-of-phase
    sources), so every derived quantity would diverge."""


class GridAccuracyError(CohdetError, ValueError):
    """A spatial grid is too coarse or too short to meet the accuracy the
    brute-force reconstruction promises."""
