"""demostab: stabilizing controllers learned from expert demonstrations.

Pipeline: record expert runs of a known plant, move them into integrator-chain
coordinates (by feedback linearization or by a dynamic-feedback embedding),
recombine them affinely into a time-varying controller, certify stability with
the monodromy norm test, and simulate or track references with the result.
The names below are that pipeline; everything else lives in the submodules.
"""

from .certify import certificate, contraction_check, find_T_tilde
from .demos import (
    DemonstrationSet,
    load_demo_set,
    record_expert,
    save_demo_set,
    to_zv,
    validate_affine_independence,
)
from .embed import (
    EmbeddingConfig,
    simulate_embedded_closed_loop,
    transform_demos,
)
from .errors import (
    AffineDependenceError,
    DegenerateGeometryError,
    DivergenceError,
    DomainError,
    NotFeedbackLinearizableError,
    SingularDecouplingError,
    SingularEmbeddingError,
)
from .learner import (
    LearnedController,
    build_basis,
    load_controller,
    save_controller,
    simulate_chain_closed_loop,
)
from .plant import PlantModel, chain_preset, expert_lqr
from .systems import (
    ball_beam_expert,
    ball_beam_preset,
    figure_eight,
    flat_quad_demo_set,
    simulate_tracking,
)

__version__ = "0.1.0"


def __getattr__(name):
    # MultiController is loaded on first use: multi imports geometry, which
    # loads scipy.optimize and scipy.spatial, and only multi runs need them.
    if name == "MultiController":
        from .multi import MultiController

        return MultiController
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
