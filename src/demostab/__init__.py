"""demostab: stabilizing controllers learned from expert demonstrations.

Pipeline: record expert runs of a known plant, move them into integrator-chain
coordinates (by feedback linearization or by a dynamic-feedback embedding),
recombine them affinely into a time-varying controller, certify stability with
the monodromy norm test, and simulate or track references with the result.
"""

from .certify import (
    MonodromyCertificate,
    certificate,
    contraction_check,
    find_T_tilde,
    monodromy_from_integral,
)
from .demos import (
    Demonstration,
    DemonstrationSet,
    eval_demo,
    load_demo_set,
    record_expert,
    save_demo_set,
    to_zv,
    validate_affine_independence,
)
from .embed import (
    EmbeddingConfig,
    a_w_numeric,
    aux_rhs,
    dynamic_feedback,
    hurwitz,
    phi,
    phi_z,
    r_of_x,
    s_of_x_xi,
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
from .geometry import (
    Simplex,
    Triangulation,
    barycentric,
    delaunay,
    locate,
    pl_interpolate,
    project_to_hull,
)
from .learner import (
    AffineBasis,
    LearnedController,
    build_basis,
    load_controller,
    save_controller,
    simulate_chain_closed_loop,
)
from .multi import MultiController, select_index_set
from .plant import (
    BrunovskyPair,
    ExpertController,
    PlantModel,
    brunovsky_pair,
    chain_preset,
    expert_lqr,
    feedback_linearize,
    linearizing_input,
)
from .sim import Trajectory, integrate, simulate_closed_loop
from .systems import (
    Reference,
    ball_beam_preset,
    figure_eight,
    figure_eight_axis,
    flat_quad_demo_set,
    simulate_tracking,
    track,
)

__version__ = "0.1.0"
