"""Exception types shared across the package."""


class MdfemError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MdfemError):
    """A run configuration is malformed or inconsistent."""


class DomainError(MdfemError, ValueError):
    """A coordinate lies outside the valid parameter or physical domain."""


class RankError(MdfemError):
    """A projection or solve target is rank deficient."""


class ConvergenceError(MdfemError):
    """An iterative procedure failed to converge."""


class PairingError(MdfemError):
    """Interface quadrature points could not be matched across the coupling."""


class DefinitenessError(MdfemError):
    """The constrained system matrix is not positive definite."""


class OverDeactivationError(MdfemError):
    """Every basis function of a cut element was deactivated."""
