"""Exact-arithmetic curvature and Ricci soliton computations for manifolds
presented by an orthonormal-style frame with constant structure constants."""

from .scalars import (LinearForm, ParamScalar, Rational, ScalarError,
                      EvaluationError, format_rational, parse_rational,
                      parse_scalar)
from .geometry import (ConnectionTable, CurvatureTensor, FrameManifold,
                       FrameVector, GeometryError, RicciTensor,
                       covariant_derivative_endo, curvature, is_killing,
                       jacobi_defect, levi_civita, lie_derivative_metric,
                       ricci, ricci_operator, scalar_curvature, validate)
from .contact import (AlmostContactData, ContactError, check_almost_contact,
                      check_contact_metric, check_curvature_identity,
                      check_normality, check_reeb_ricci, check_sasakian,
                      d_eta, derive_phi, nijenhuis)
from .solitons import (Classification, ConcurrentSolitonResult, GradientData,
                       IntegrabilityError, LambdaSolve, SolitonError,
                       SolitonFlavor, check_distribution_gradient,
                       check_gradient_curvature_identity,
                       check_lambda_f_constant, classify, concurrent_check,
                       concurrent_soliton_constants, distribution_constant,
                       gradient_soliton_residual, gradient_vector, hessian,
                       integrability_defects, solve_lambda_trace,
                       soliton_residual)
from .manifold_format import (ManifoldDocument, ParseError, parse_manifold,
                              parse_vector_text, render_manifold)
from .reports import CheckItem, CheckReport, LedgerEntry, combine
from .catalog import builtin_names, load_builtin

__version__ = "0.1.0"

__all__ = [
    "AlmostContactData", "CheckItem", "CheckReport", "Classification",
    "ConcurrentSolitonResult", "ConnectionTable", "ContactError",
    "CurvatureTensor", "EvaluationError", "FrameManifold", "FrameVector",
    "GeometryError", "GradientData", "IntegrabilityError", "LambdaSolve",
    "LedgerEntry", "LinearForm", "ManifoldDocument", "ParamScalar",
    "ParseError", "Rational", "RicciTensor", "ScalarError", "SolitonError",
    "SolitonFlavor", "builtin_names",
    "check_almost_contact", "check_contact_metric",
    "check_curvature_identity", "check_distribution_gradient",
    "check_gradient_curvature_identity", "check_lambda_f_constant",
    "check_normality", "check_reeb_ricci", "check_sasakian", "classify",
    "combine", "concurrent_check", "concurrent_soliton_constants",
    "covariant_derivative_endo", "curvature", "d_eta", "derive_phi",
    "distribution_constant", "format_rational", "gradient_soliton_residual",
    "gradient_vector", "hessian", "integrability_defects",
    "is_killing", "jacobi_defect", "levi_civita", "lie_derivative_metric",
    "load_builtin", "nijenhuis", "parse_manifold", "parse_rational",
    "parse_scalar", "parse_vector_text", "render_manifold", "ricci",
    "ricci_operator", "scalar_curvature", "solve_lambda_trace",
    "soliton_residual", "validate",
]
