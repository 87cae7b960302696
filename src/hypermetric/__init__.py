"""hypermetric: hyperbolic-type metrics, seeded inequality verification,
falsification scans, and quasihyperbolic distance estimation on open
Euclidean domains."""

from .domains import (
    DEFAULT_MIN_CLEARANCE,
    Domain,
    GenericDomain,
    HalfSpace,
    Interval,
    PointSet,
    PuncturedSpace,
    UnitBall,
    distance_to_set,
    lipschitz_defect,
    parse_domain,
    sample_complement,
    sample_interior,
)
from .metrics import (
    MetricKind,
    MetricParams,
    comparison_f,
    h_metric,
    h_metric_general,
    j_metric,
    phi_quantity,
    rho_ball,
    rho_halfspace,
)
from .moebius import BallAutomorphism, BallToHalfSpace, Identity, absolute_ratio
from .quasihyperbolic import (
    DisconnectedGridError,
    GeodesicGrid,
    KControls,
    KEstimate,
    NodeBudgetError,
    build_grid,
    k_estimate,
    k_exact_halfspace,
    k_exact_punctured,
)
from .maps import (
    BilipschitzEstimate,
    DilatationEstimate,
    RadialStretch,
    apply_map,
    bilipschitz_estimate,
    linear_dilatation,
    u_quantity,
)
from .verify import (
    CollinearViolation,
    InequalityReport,
    PhiViolation,
    UniformityEstimate,
    check_growth_bound,
    collinear_c_scan,
    growth_bound_constant,
    inequality_suite,
    phi_triangle_counterexample,
    triangle_scan,
    uniformity_estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
