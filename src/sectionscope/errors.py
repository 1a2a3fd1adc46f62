"""Exception hierarchy shared by all sectionscope modules."""


class SectionScopeError(Exception):
    """Base class for all library errors."""


class ConfigError(SectionScopeError):
    """Invalid configuration value (bad range, unknown key, ...)."""


class CollisionError(SectionScopeError):
    """State is within machine threshold of a primary in the rotating chart."""


class NorthPoleError(SectionScopeError):
    """Moser state lies on the collision fiber (xi0 = 1); no chart image."""


class SecondaryCollisionError(SectionScopeError):
    """Regularized chart hit the *other* primary (denominator vanished)."""


class ZeroVError(SectionScopeError):
    """Levi-Civita chart requires v != 0."""


class BindingError(SectionScopeError):
    """State lies on (or numerically at) the binding of the open book."""


class NoCrossingError(SectionScopeError):
    """Requested event does not cross in the segment (or only tangentially)."""


class StepSizeUnderflow(SectionScopeError):
    """Adaptive integrator step collapsed (unregularized collision approach)."""


class MaxTimeExceeded(SectionScopeError):
    """Flow ran past the configured time budget before the stop condition."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class ConstraintDriftError(SectionScopeError):
    """Post-projection constraint residual on T*S^3 exceeded tolerance."""


class ConvergenceError(SectionScopeError):
    """Newton/continuation iteration failed to reach the residual target."""


class JacobianSingularError(ConvergenceError):
    """Newton matrix is singular (degenerate or non-isolated solutions)."""


class FoldDetected(SectionScopeError):
    """Natural-parameter continuation step underflowed (turning point)."""


class PerturbationEscapeError(SectionScopeError):
    """A point or frame on a page could not be built.

    Raised when the page tangent space at a base point is degenerate
    (page_frame: grad H and grad theta dependent, or the canonical 2-form
    degenerate on their complement), when page_embed's re-projection onto
    {H = c, angle = theta} does not converge, and when a perturbed point
    of the ellipsoid model leaves the page disk.
    """


class AssumptionViolation(SectionScopeError):
    """A Stark-Zeeman structural assumption failed at a witness point."""

    def __init__(self, assumption, witness, message=""):
        self.assumption = assumption
        self.witness = witness
        super().__init__(message or f"{assumption} violated at {witness}")


class OffSurfaceError(SectionScopeError):
    """Point does not satisfy the defining equation of the model surface."""


class OracleFailure(SectionScopeError):
    """A closed-form oracle check did not reproduce the expected value."""


class RootBracketingError(SectionScopeError):
    """Could not bracket a root (degenerate parameter range)."""
