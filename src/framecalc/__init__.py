"""Exact-arithmetic curvature and Ricci soliton computations for manifolds
presented by an orthonormal-style frame with constant structure constants."""

from .scalars import (LinearForm, ParamScalar, ScalarError, format_rational,
                      parse_rational, parse_scalar)
from .geometry import (ConnectionTable, CurvatureTensor, FrameManifold,
                       FrameVector, GeometryError, RicciTensor,
                       covariant_derivative_endo, curvature, levi_civita,
                       ricci, ricci_operator, scalar_curvature, validate)
from .contact import (AlmostContactData, ContactError, check_almost_contact,
                      check_contact_metric, check_curvature_identity,
                      check_normality, check_reeb_ricci, check_sasakian,
                      derive_phi)
from .solitons import (Classification, ConcurrentSolitonResult, GradientData,
                       IntegrabilityError, LambdaSolve, SolitonError,
                       SolitonFlavor, check_gradient_curvature_identity,
                       classify, concurrent_soliton_constants,
                       gradient_soliton_residual, integrability_defects,
                       solve_lambda_trace, soliton_residual)
from .manifold_format import (ManifoldDocument, ParseError, parse_manifold,
                              parse_vector_text, render_manifold)
from .reports import CheckItem, CheckReport, LedgerEntry, combine
from .catalog import builtin_names, load_builtin

__version__ = "0.1.0"

__all__ = [
    "AlmostContactData", "CheckItem", "CheckReport", "Classification",
    "ConcurrentSolitonResult", "ConnectionTable", "ContactError",
    "CurvatureTensor", "FrameManifold", "FrameVector",
    "GeometryError", "GradientData", "IntegrabilityError", "LambdaSolve",
    "LedgerEntry", "LinearForm", "ManifoldDocument", "ParamScalar",
    "ParseError", "RicciTensor", "ScalarError", "SolitonError",
    "SolitonFlavor", "builtin_names",
    "check_almost_contact", "check_contact_metric",
    "check_curvature_identity", "check_gradient_curvature_identity",
    "check_normality", "check_reeb_ricci", "check_sasakian", "classify",
    "combine", "concurrent_soliton_constants", "covariant_derivative_endo",
    "curvature", "derive_phi", "format_rational",
    "gradient_soliton_residual", "integrability_defects", "levi_civita",
    "load_builtin", "parse_manifold", "parse_rational", "parse_scalar",
    "parse_vector_text", "render_manifold", "ricci", "ricci_operator",
    "scalar_curvature", "solve_lambda_trace", "soliton_residual", "validate",
]
