"""Ground states of the stationary nonlinear Schrödinger equation with
periodic and interface coefficients: Floquet spectral analysis, constrained
variational solving, and mechanically checked existence criteria."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BracketFailure,
    H2Violation,
    IntegrationFailure,
    InvalidEnergy,
    InvalidScale,
    LambdaInSpectrum,
    NoConvergence,
    NonprojectableState,
    NotDifferentiable,
    ParseError,
    PositivityFailure,
    SgsLabError,
    ShiftOutOfDomain,
    TailNotResolved,
    ValidationError,
)
from .media import (  # noqa: F401
    FunctionDescriptor,
    InterfaceMedium,
    PeriodicMedium,
    ProblemParams,
    compose_interface,
    dislocate,
    eval_medium,
    scaled_pair,
)
