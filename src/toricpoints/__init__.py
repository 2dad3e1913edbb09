"""Exact divisor arithmetic and low-degree point interpolation bounds on
smooth complete toric surfaces."""

from .cohomology import CohomologyProfile, cohomology, euler_characteristic
from .divisor import (
    Positivity,
    ToricDivisor,
    canonical_divisor,
    effective_representative,
    intersection_number,
    positivity,
    principal_divisor,
)
from .fan import (
    LatticePoint,
    ToricSurfaceFan,
    build_fan,
    builtin_surface,
    hirzebruch,
    p1xp1,
    p2,
)
from .lowdeg import (
    CurveOnSurface,
    DegBTable,
    HirzebruchExampleReport,
    InterpolationReport,
    LambdaResult,
    blowup_self_intersection,
    hirzebruch_counterexample,
    lambda_invariant,
    positive_curve_representation,
    toric_theorem_report,
)
from .plane import (
    PlaneReport,
    find_m,
    plane_theorem_report,
    remark_inequality_check,
    sqrt_ceil_term,
)

__version__ = "0.1.0"
