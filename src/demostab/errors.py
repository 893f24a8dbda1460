"""Exception types shared across the toolkit."""


class _Located:
    """Where a failure happened: mixed into the errors raised along a trajectory.

    Attributes:
        time: simulation time of the failure, if there is one.
        column: for a batch of states (n, k), the failing column (the first
            one outside the domain, or the one with the largest or a non-finite
            norm); None for a single state.
    """

    def __init__(self, message, time=None, column=None):
        super().__init__(message)
        self.time = time
        self.column = column


class DomainError(_Located, ValueError):
    """State left the open set on which the plant model is valid."""


class SingularDecouplingError(_Located, ArithmeticError):
    """Decoupling term b(z) = L_g L_f^{n-1} h(x) is numerically zero."""


class RiccatiError(ArithmeticError):
    """The LQR weights admit no accurate stabilizing solution of the algebraic Riccati
    equation (see plant.lqr_gain)."""


class NotFeedbackLinearizableError(ValueError):
    """Plant does not have relative degree n; use the embedding pipeline."""


class DivergenceError(_Located, RuntimeError):
    """Integration produced a non-finite or runaway state."""


class AffineDependenceError(_Located, RuntimeError):
    """Demonstration matrix Z(t) is singular or too ill-conditioned to invert."""


class DegenerateGeometryError(ValueError):
    """Point set is affinely dependent or otherwise unusable for triangulation."""


class SingularEmbeddingError(_Located, RuntimeError):
    """Embedding denominator r(x) vanished along a trajectory or demonstration."""
