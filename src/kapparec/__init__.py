"""Exact-rational computation engine for topological recursion on x = z^2/2,
kappa-class polynomial families, psi-kappa intersection numbers, the BGW tau
function, and monotone Hurwitz numbers."""

from .coeffs import (
    ell_from_ab,
    ell_via_ode,
    h_from_s,
    h_star,
    p_sequence,
    s_from_h,
    s_sequence,
    sigma_sequence,
)
from .intersect import Cache, IntersectionOracle
from .kappapoly import (
    KappaPoly,
    expand_family,
    j_polys,
    k_polys,
    kappa_substitute_pullback,
    p_polys,
    pullback,
    pushforward,
    shift_coeffs,
)
from .parampoly import ParamPoly
from .toprec import Correlator, Engine, SpectralCurve, build_curve, required_order
from .zseries import ZSeries, series_invert

__version__ = "0.1.0"

__all__ = [
    "Cache",
    "Correlator",
    "Engine",
    "IntersectionOracle",
    "KappaPoly",
    "ParamPoly",
    "SpectralCurve",
    "ZSeries",
    "build_curve",
    "ell_from_ab",
    "ell_via_ode",
    "expand_family",
    "h_from_s",
    "h_star",
    "j_polys",
    "k_polys",
    "kappa_substitute_pullback",
    "p_polys",
    "p_sequence",
    "pullback",
    "pushforward",
    "required_order",
    "s_from_h",
    "s_sequence",
    "series_invert",
    "shift_coeffs",
    "sigma_sequence",
]
