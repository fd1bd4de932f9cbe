"""Exception types shared across the library."""


class SgsLabError(Exception):
    """Base class for all library errors."""


class H2Violation(SgsLabError):
    """A nonlinear coefficient has nonpositive supremum over one period."""


class InvalidScale(SgsLabError):
    """Scaling factor k must be a positive integer."""


class NotDifferentiable(SgsLabError):
    """Derivative requested at a breakpoint of a piecewise descriptor."""


class IntegrationFailure(SgsLabError):
    """ODE propagation produced non-finite or inconsistent values."""


class BracketFailure(SgsLabError):
    """No sign change of the discriminant found in the search interval."""


class LambdaInSpectrum(SgsLabError):
    """Spectral parameter is not strictly below the bottom of the spectrum."""


class PositivityFailure(SgsLabError):
    """A periodic Bloch factor changed sign."""


class NonprojectableState(SgsLabError):
    """Candidate has nonpositive nonlinearity mass and cannot be scaled onto the constraint set."""


class NoConvergence(SgsLabError):
    """Ground-state iteration exhausted its budget before reaching the residual target."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class ShiftOutOfDomain(SgsLabError):
    """A shifted profile no longer fits inside the computational grid."""


class TailNotResolved(SgsLabError):
    """Profile has not decayed sufficiently at the grid boundary."""


class InvalidEnergy(SgsLabError):
    """Energy input expected to be positive was not."""


class ParseError(SgsLabError):
    """Experiment configuration file is malformed."""


class ValidationError(SgsLabError):
    """Experiment configuration is well-formed but semantically invalid."""
