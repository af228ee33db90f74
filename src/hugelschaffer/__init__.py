"""Areas of egg-shaped Hügelschäffer curves.

Complete elliptic integrals (AGM and series), the curve model and its
egg-part parametrization, exact and approximate area formulas with
two-sided Taylor enclosures, and an independent quadrature oracle that
cross-checks every closed form.

``import hugelschaffer`` imports no submodule: each name below loads its
home module the first time it is read (PEP 562), so a command line call
compiles only the modules its subcommand runs.
"""

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "curve": (
        "CurveParams DerivedShape PlanePoint construction_circles derive "
        "implicit_F implicit_Fq point_at q_unification_residual sample_egg sample_grid"
    ),
    "elliptic": (
        "DomainError SeriesTarget complete_D complete_E complete_K scale_free_area "
        "series_eval series_partial target_value"
    ),
    "taylor": (
        "ChainReport TaylorApprox eval_approx first_taylor second_corrections "
        "second_taylor verify_chain"
    ),
    "area": (
        "AreaBreakdown BoundsCertificate area_exact area_series area_taylor bounds "
        "check_J_relations integral_I inv_pi_partial"
    ),
    "oracle": "AreaQuadrature QuadratureSpec Rule quad quad_area quad_elliptic",
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import ``name``'s home module and keep the value, so the next read
    is a plain lookup."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
