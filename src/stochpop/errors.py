"""Exception types shared across the package."""


class StochpopError(Exception):
    """Base class for all package errors."""


class ConfigurationError(StochpopError):
    """Invalid specification, wiring, or runtime configuration."""


class NumericError(StochpopError):
    """Non-finite state, overflow, or a non-convergent numerical routine.

    Carries an optional diagnostic: the step index at which it appeared.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class QuadratureError(NumericError):
    """Adaptive quadrature failed to converge within the refinement budget."""


class FaceDegenerateError(StochpopError):
    """A boundary-face simulation lost its resident community.

    Raised when the resident trajectory hits the extinction floor, in
    which case an invasion rate against that face is ill-posed.
    """
