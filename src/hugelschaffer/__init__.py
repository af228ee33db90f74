"""Areas of egg-shaped Hügelschäffer curves.

Complete elliptic integrals (AGM and series), the curve model and its
egg-part parametrization, exact and approximate area formulas with
two-sided Taylor enclosures, and an independent quadrature oracle that
cross-checks every closed form.
"""

from .curve import (
    CurveParams,
    DerivedShape,
    PlanePoint,
    Regime,
    construction_circles,
    derive,
    implicit_F,
    implicit_Fq,
    point_at,
    q_unification_residual,
    sample_egg,
    sample_grid,
)
from .elliptic import (
    DomainError,
    SeriesTarget,
    complete_D,
    complete_E,
    complete_K,
    scale_free_area,
    series_eval,
    series_partial,
    target_value,
)
from .taylor import (
    ChainReport,
    TaylorApprox,
    eval_approx,
    first_taylor,
    second_corrections,
    second_taylor,
    verify_chain,
)
from .area import (
    AreaBreakdown,
    BoundsCertificate,
    area_exact,
    area_series,
    area_taylor,
    bounds,
    check_J_relations,
    integral_I,
    inv_pi_partial,
)
from .oracle import AreaQuadrature, QuadratureSpec, Rule, quad, quad_area, quad_elliptic

__version__ = "0.1.0"

__all__ = [
    "CurveParams",
    "DerivedShape",
    "PlanePoint",
    "Regime",
    "construction_circles",
    "derive",
    "implicit_F",
    "implicit_Fq",
    "point_at",
    "q_unification_residual",
    "sample_egg",
    "sample_grid",
    "DomainError",
    "SeriesTarget",
    "complete_D",
    "complete_E",
    "complete_K",
    "scale_free_area",
    "series_eval",
    "series_partial",
    "target_value",
    "ChainReport",
    "TaylorApprox",
    "eval_approx",
    "first_taylor",
    "second_corrections",
    "second_taylor",
    "verify_chain",
    "AreaBreakdown",
    "BoundsCertificate",
    "area_exact",
    "area_series",
    "area_taylor",
    "bounds",
    "check_J_relations",
    "integral_I",
    "inv_pi_partial",
    "AreaQuadrature",
    "QuadratureSpec",
    "Rule",
    "quad",
    "quad_area",
    "quad_elliptic",
]
