"""Billiards in polyhedral cones.

Exact event-driven simulation of a point billiard in a polyhedral cone,
all the geometric constants of the cone (the equal-margin radius d,
capacity, charges, nondegeneracy constant), the collision-count bounds built from
them, the sharp two-wall analysis, and the isomorphic hard-ball-on-a-line
system used as an independent cross-check.
"""

from .constants import (
    BoundsReport,
    ConstantEstimate,
    EstimateMethod,
    InscribedBall,
    bfk_constant,
    bounds_report,
    capacity_delta,
    ceil_snapped,
    charge_SQ,
    charge_phi,
    inscribed_ball,
    main_bound,
    tridiagonal_case,
)
from .errors import (
    AlternationError,
    ConeBilliardsError,
    ConeMismatch,
    DegenerateArrangement,
    DegenerateSampling,
    DimensionMismatch,
    InvalidParameter,
    InvalidState,
    NonpositiveMass,
    NotPositiveDefinite,
    TooFewBalls,
    TooFewEvents,
    WrongWallCount,
    ZeroVector,
)
from .geometry import (
    ConeSpec,
    GramMatrix,
    contains,
    gram,
    jacobi_eigenvalues,
    make_cone,
    min_eigenvalue,
    require_positive_definite,
)
from .hardball import (
    BallEvent,
    BallTrajectory,
    CoordinateMap,
    HardBallSystem,
    balls_to_cone,
    conjugacy_check,
    simulate_balls,
)
from .harness import (
    EnsembleRow,
    ExperimentConfig,
    SearchResult,
    adversarial_search,
    ensemble_run,
    make_rng,
    random_cone,
)
from .simulator import (
    AuditVerdict,
    BilliardState,
    CollisionEvent,
    Terminal,
    TrajectoryRecord,
    audit,
    check_bounds,
    record_from_json,
    record_to_json,
    run,
    zigzag_length,
)
from .wedge import (
    ArcReport,
    WedgeSpec,
    collinearity_residual,
    sharp_bound,
    unfold,
    velocity_arc_check,
    wedge_angle,
    wedge_from_angle,
    wedge_from_cone,
)

__version__ = "0.1.0"
