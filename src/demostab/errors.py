"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """State left the open set on which the plant model is valid."""


class SingularDecouplingError(ArithmeticError):
    """Decoupling term b(z) = L_g L_f^{n-1} h(x) is numerically zero.

    Attributes:
        time: simulation time of the singular state, if there is one.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class NotFeedbackLinearizableError(ValueError):
    """Plant does not have relative degree n; use the embedding pipeline."""


class DivergenceError(RuntimeError):
    """Integration produced a non-finite or runaway state.

    Attributes:
        time: simulation time at which the blow-up was detected.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class AffineDependenceError(RuntimeError):
    """Demonstration matrix Z(t) is singular or too ill-conditioned to invert."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class DegenerateGeometryError(ValueError):
    """Point set is affinely dependent or otherwise unusable for triangulation."""


class SingularEmbeddingError(RuntimeError):
    """Embedding denominator r(x) vanished along a trajectory or demonstration."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time
