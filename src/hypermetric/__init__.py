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
)
from .maps import (
    BilipschitzEstimate,
    DilatationEstimate,
    RadialStretch,
    bilipschitz_estimate,
    linear_dilatation,
)
from .verify import (
    CollinearViolation,
    InequalityReport,
    PhiViolation,
    UniformityEstimate,
    collinear_c_scan,
    inequality_suite,
    phi_triangle_counterexample,
    triangle_scan,
    uniformity_estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
