"""Exception types shared across the package."""


class SkewflowError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedCaseError(SkewflowError):
    """A combination of degree / dimension outside the supported range."""


class FrameError(SkewflowError):
    """A frame fails orthonormality or orientation requirements."""


class NotTangentError(SkewflowError):
    """A multivector has a component outside the tangent space beyond tolerance."""


class NotNormalError(SkewflowError):
    """A vector has a tangential component beyond tolerance."""


class DegenerateImmersionError(SkewflowError):
    """The discrete tangent map dropped below the rank threshold somewhere.

    Carries the offending node (grid multi-index) and, when raised during a
    flow, the simulation time.
    """

    def __init__(self, message, node=None, time=None):
        super().__init__(message)
        self.node = node
        self.time = time


class KrylovBreakdownError(DegenerateImmersionError):
    """The Krylov solve of an implicit step did not converge within its cap."""
