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


class IntegrationFloorError(ConvergenceError):
    """Newton damping stalled within 10x its residual target: the closure
    cannot go lower at the integrator's tolerance, and a shorter
    continuation step would not help."""


class JacobianSingularError(ConvergenceError):
    """Newton matrix is singular (degenerate or non-isolated solutions)."""


class FoldDetected(SectionScopeError):
    """Natural-parameter continuation step underflowed (turning point)."""


class PerturbationEscapeError(SectionScopeError):
    """A point or frame on a page could not be built.

    Raised when the page tangent space at a base point is degenerate
    (page_frame: grad H and grad theta dependent, or the canonical 2-form
    degenerate on their complement), when page_embed's re-projection onto
    {H = c, angle = theta} does not converge, and when the re-projected
    point lies on the opposite page theta + pi.
    """


class OffSurfaceError(SectionScopeError):
    """Point does not satisfy the defining equation of the model surface."""


class RootBracketingError(SectionScopeError):
    """Could not bracket a root (degenerate parameter range)."""
