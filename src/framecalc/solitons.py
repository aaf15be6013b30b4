"""Ricci soliton equations on frame manifolds: residuals, trace solving for
lambda, shrinking/steady/expanding classification, the gradient (potential
function) residual and curvature identity, and the closed-form constants for
a concurrent potential field.

Soliton flavors all share the shape L_X g + 2 ric = s g with s = 2 s',
s' = lambda - shift; gradient variants replace L_X g / 2 by the Hessian of
the potential: Hess f + ric = s' g. The shift (_shift) is 0, or for the
conformal flavors half the pressure term p + 2/m, with m the manifold
dimension and p the pressure parameter; halved, no Fraction is doubled
only to be halved again.

The residuals do no polynomial arithmetic per entry. L_X g and the Hessian
come as monomial parts {monomial: ({(i, j): int}, d)}; for each monomial
of the parts, of s and the constant one, the part, the weighted Ricci
tensor and that monomial's coefficient of s times g are summed on ints over
one denominator. s and s' are {monomial: Fraction} maps. Every decision is
taken on these integer tables, and a ParamScalar is built only for an entry
that a caller reads or prints.

The trace solve reads the trace of L_X g from the brackets: nabla is metric
and torsion-free, so g^{ij} (L_X g)_ij = 2 div X = -2 sum_a x_a tr ad_{e_a}
(Milnor, "Curvatures of left invariant metrics on Lie groups", Adv. Math.
21, 1976), zero on a unimodular frame. The trace's constant term is twice
the scalar curvature, from geometry.scalar_curvature_int, the one helper
scalar_curvature also reads. s, lambda and the trace equation are built as
{monomial: Fraction} maps, each wrapped once in a ParamScalar. X is split
by monomial once, for the trace and for L_X g (LieDerivativeParts), and
each monomial's L_X g part is built on its first read, at most once per
solve. The status sweeps the residual one monomial at a time and stops at
the first monomial holding a nonzero entry, so it builds the L_X g parts
only up to that monomial; the first read of LambdaSolve.residual builds the
parts still missing, then the residual parts and matrix.

GradientData builds the integer forms ({k: int}, d) of df and dlambda
once, on first read, and every gradient kernel reads them; integrability
is decided on the integer brackets and df, and a Fraction is built only for
a defect.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property
from math import lcm

from .geometry import (ConnectionTable, CurvatureTensor, FrameManifold,
                       FrameVector, LieDerivativeParts, RicciTensor, add_to,
                       apply_columns, bracket_sum, check_lengths, compare,
                       endo_derivative_int, entry_defects, integer_map,
                       joined, matrix_of, ricci_operator_int,
                       scalar_curvature_int)
from .record import Record
from .reports import PRECONDITION, CheckItem, CheckReport
from .scalars import (LinearForm, ParamScalar, ScalarError, as_fraction,
                      format_rational)

P = ParamScalar.param("p")
_P = (("p", 1),)  # the monomial p
_HALF = Fraction(1, 2)


class SolitonError(ValueError):
    pass


class IntegrabilityError(SolitonError):
    def __init__(self, pairs):
        self.pairs = pairs
        listed = "; ".join(f"({i + 1},{j + 1}): {format_rational(d)}"
                           for (i, j), d in pairs)
        super().__init__(f"df is not integrable: {listed}")


class SolitonFlavor(enum.Enum):
    RICCI = "ricci"
    ALMOST_RICCI = "almost_ricci"
    CONFORMAL = "conformal"
    ALMOST_CONFORMAL = "almost_conformal"

    @property
    def is_conformal(self) -> bool:
        return self in (SolitonFlavor.CONFORMAL, SolitonFlavor.ALMOST_CONFORMAL)


def _shift(flavor: SolitonFlavor, m: int) -> dict:
    """The flavor's shift in s' = lambda - shift as {monomial: Fraction}."""
    return {_P: _HALF, (): Fraction(1, m)} if flavor.is_conformal else {}


def _gradient_scale(flavor: SolitonFlavor, lam: ParamScalar, m: int) -> dict:
    """The metric multiplier s' in Hess f + ric = s' g, as {monomial:
    Fraction} without zeros."""
    terms = lam.terms()
    for mono, c in _shift(flavor, m).items():
        terms[mono] = terms.get(mono, 0) - c
    return {mono: c for mono, c in terms.items() if c}


def _scale(flavor: SolitonFlavor, lam: ParamScalar, m: int) -> dict:
    """The metric multiplier s = 2 s' in L_X g + 2 ric = s g."""
    return {mono: 2 * c for mono, c in _gradient_scale(flavor, lam, m).items()}


def soliton_residual(M: FrameManifold, conn: ConnectionTable, ric_t: RicciTensor,
                     X: FrameVector, lam: ParamScalar,
                     flavor: SolitonFlavor) -> tuple:
    """L_X g + 2 ric - s g as an exact matrix; zero iff (X, lambda) solves the
    flavor's soliton equation on the frame."""
    return matrix_of(M.dim, joined(soliton_residual_parts(M, conn, ric_t, X,
                                                          lam, flavor)))


def soliton_residual_parts(M: FrameManifold, conn: ConnectionTable,
                           ric_t: RicciTensor, X: FrameVector,
                           lam: ParamScalar, flavor: SolitonFlavor) -> dict:
    """soliton_residual as integer parts {monomial: ({(i, j): int}, d)}."""
    check_lengths(M.dim, "X", X.coeffs, error=SolitonError)
    return dict(_residual_monomials(M, LieDerivativeParts(conn, X),
                                    ric_t.ric_int, 2, _scale(flavor, lam, M.dim)))


def _residual_monomials(M: FrameManifold, parts: dict, ric_int: tuple,
                        ric_weight: int, s: dict):
    """Yield (monomial, ({(i, j): int}, den)) of table + ric_weight * ric -
    s g, zeros kept, for a table given by parts {monomial: ({(i, j): int},
    d)}, ric_int as RicciTensor.ric_int and s as {monomial: Fraction}: each
    monomial's entries summed on ints over one denominator, one monomial
    at a time; dict() of them is the residual's parts."""
    ric, dr = ric_int
    g_cols, dg = M.g_int
    for mono in dict.fromkeys([*parts, *s, ()]):
        vec, d = parts.get(mono, ({}, 1))
        q = s.get(mono, 0)  # this monomial's part of s, a rational
        den = lcm(d, dr, dg * q.denominator)
        acc = {key: x * (den // d) for key, x in vec.items()}
        if mono == ():
            w = ric_weight * (den // dr)
            for key, x in ric.items():
                acc[key] = acc.get(key, 0) + w * x
        if q:
            w = q.numerator * (den // (dg * q.denominator))
            for j, col in g_cols.items():
                for i, x in col.items():
                    acc[i, j] = acc.get((i, j), 0) - w * x
        yield mono, (acc, den)


class LambdaSolve(Record):
    # the four-argument constructor and residual are kept as they are:
    # perfbench/test_perfbench.py reads residual and rebuilds solves
    def __init__(self, lam: ParamScalar, form: LinearForm, status: str,
                 residual):
        self.lam = lam
        self.form = form
        self.status = status  # "einstein_exact" or "trace_only"
        self._residual = residual  # a function building the matrix

    @cached_property
    def residual(self) -> tuple:
        return self._residual()


def solve_lambda_trace(M: FrameManifold, conn: ConnectionTable,
                       ric_t: RicciTensor, X: FrameVector,
                       flavor: SolitonFlavor) -> LambdaSolve:
    """Contract the soliton equation with g^{-1} and solve the resulting
    linear equation for lambda; the trace of L_X g comes from the brackets,
    -2 sum_a x_a tr ad_{e_a}. Status is einstein_exact when the full
    residual vanishes at the solved lambda, else trace_only. The status
    builds the L_X g parts up to the first monomial holding a nonzero
    residual entry; the first read of .residual builds the rest and reuses
    those."""
    m = M.dim
    check_lengths(m, "X", X.coeffs, error=SolitonError)
    table, dc = M.brackets_int
    tr_ad = {}  # {a: tr ad_{e_a} * dc}, from the diagonal entries c_ak^k
    for (a, k), row in table.items():
        if k in row:
            tr_ad[a] = tr_ad.get(a, 0) + row[k]
    # tr = g^{ij}(L_X g + 2 ric)_ij = tr_g L_X g + 2 r, r the scalar curvature
    r, dr = scalar_curvature_int(M, ric_t)
    tr = {(): Fraction(2 * r, dr)}
    parts = LieDerivativeParts(conn, X)  # X split once; parts built on read
    for mono, part in parts.split.items():
        if t := sum(part[a] * c for a, c in tr_ad.items() if a in part):
            tr[mono] = tr.get(mono, 0) + Fraction(-2, dc) * t
    # tr == m * s with s = 2 (lambda - shift), so lambda = s / 2 + shift and
    # the trace equation 2m * lambda - 2m * shift - tr = 0 has the remainder
    # -2m * shift - tr = -2m * lambda
    shift = _shift(flavor, m)
    s = {mono: t / m for mono, t in tr.items() if t}
    lam = {mono: c for mono in dict.fromkeys([*s, *shift])
           if (c := s.get(mono, 0) * _HALF + shift.get(mono, 0))}
    form = LinearForm(Fraction(2 * m), ParamScalar._of(
        {mono: -2 * m * c for mono, c in lam.items()}))
    exact = not any(any(acc.values()) for _, (acc, _) in
                    _residual_monomials(M, parts, ric_t.ric_int, 2, s))
    return LambdaSolve(ParamScalar._of(lam), form,
                       "einstein_exact" if exact else "trace_only",
                       lambda: matrix_of(m, joined(dict(
                           _residual_monomials(M, parts, ric_t.ric_int, 2, s)))))


# -- classification ------------------------------------------------------------

class Classification(Record):
    def __init__(self, verdict: str, condition: str | None = None,
                 threshold: Fraction | None = None):
        self.verdict = verdict      # shrinking | steady | expanding | conditional
        self.condition = condition  # predicate on p under which it shrinks
        self.threshold = threshold

    def render(self) -> str:
        if self.verdict == "conditional":
            return f"conditional (shrinking iff {self.condition})"
        return self.verdict


def classify(lam: ParamScalar) -> Classification:
    """Sign classification of lambda: positive shrinking, zero steady,
    negative expanding. For lambda affine in p the verdict is conditional
    with the exact sign threshold; anything else is unsupported."""
    if lam.symbols() - {"p"}:
        raise SolitonError(f"classification needs a scalar in p only: {lam}")
    try:
        a, b = lam.affine_in("p")
    except ScalarError as exc:
        raise SolitonError(f"unsupported: {exc}") from exc
    if a == 0:
        if b > 0:
            return Classification("shrinking")
        if b < 0:
            return Classification("expanding")
        return Classification("steady")
    t = -b / a
    op = ">" if a > 0 else "<"
    return Classification("conditional", f"p {op} {format_rational(t)}", t)


# -- gradient solitons ----------------------------------------------------------

class GradientData(Record):
    """Frame-constant first derivatives df of the potential and, when known,
    dlambda of the soliton function lambda. df_int and dlambda_int, the
    integer forms ({k: int}, d) of their nonzero entries, are built once,
    on first read, for every gradient kernel."""

    def __init__(self, df: tuple, dlambda: tuple | None = None):
        self.df = df
        self.dlambda = dlambda

    @classmethod
    def from_values(cls, df, dlambda=None) -> "GradientData":
        # kept: perfbench/workloads.py builds its gradient data with it
        return cls(tuple(as_fraction(x) for x in df),
                   None if dlambda is None else tuple(as_fraction(x) for x in dlambda))

    df_int = cached_property(lambda self: _integer_form(self.df))
    dlambda_int = cached_property(lambda self: _integer_form(self.dlambda))


def _integer_form(values) -> tuple:
    """({k: int}, d) of the nonzero entries of values."""
    return integer_map({k: as_fraction(x) for k, x in enumerate(values) if x})


def integrability_defects(M: FrameManifold, gd: GradientData) -> list:
    """Pairs (i, j) with sum_k df[k] c[i][j][k] nonzero. A frame-constant df
    is a genuine differential only when all of these vanish."""
    check_lengths(M.dim, "df", gd.df, error=SolitonError)
    table, dc = M.brackets_int
    dfi, dd = gd.df_int
    out = []
    for (i, j), row in table.items():
        if i < j and (d := sum(x * dfi[k] for k, x in row.items() if k in dfi)):
            out.append(((i, j), Fraction(d, dc * dd)))
    return out


def _gradient_preamble(M: FrameManifold, gd: GradientData,
                       report: CheckReport | None = None) -> bool:
    """Check the lengths of gd's df and dlambda against M; whether gd
    carries a dlambda, a precondition item added to report when it does
    not."""
    check_lengths(M.dim, "df", gd.df, error=SolitonError)
    check_lengths(M.dim, "dlambda", gd.dlambda, error=SolitonError)
    if gd.dlambda is None and report is not None:
        report.add_item(CheckItem("dlambda supplied", PRECONDITION,
                                  "gradient data carries no dlambda"))
    return gd.dlambda is not None


def _hessian_int(conn: ConnectionTable, gd: GradientData) -> tuple:
    """({(i, j): int}, d): Hess f(e_i, e_j) = -(nabla_{e_i} e_j) f =
    -sum_k Gamma[i][j][k] df[k] = int / d, on the integer Gamma."""
    gamma, dg = conn.gamma_int
    dfi, dd = gd.df_int
    return {key: -sum(x * dfi[k] for k, x in row.items() if k in dfi)
            for key, row in gamma.items()}, dg * dd


def _gradient_int(M: FrameManifold, gd: GradientData) -> tuple:
    """({a: int}, d): Df = g^{-1} df on the integer g^{-1} columns."""
    gi_cols, dgi = M.g_inv_int
    dfi, dd = gd.df_int
    return apply_columns(gi_cols, dfi), dgi * dd


def gradient_soliton_residual(M: FrameManifold, conn: ConnectionTable,
                              ric_t: RicciTensor, gd: GradientData,
                              lam: ParamScalar, flavor: SolitonFlavor) -> tuple:
    """Hess f + ric - s' g; df must be integrable."""
    _gradient_preamble(M, gd)
    if bad := integrability_defects(M, gd):
        raise IntegrabilityError(bad)
    return matrix_of(M.dim, joined(gradient_residual_parts(M, conn, ric_t, gd,
                                                           lam, flavor)))


def gradient_residual_parts(M: FrameManifold, conn: ConnectionTable,
                            ric_t: RicciTensor, gd: GradientData,
                            lam: ParamScalar, flavor: SolitonFlavor) -> dict:
    """gradient_soliton_residual as integer parts {monomial: ({(i, j): int},
    d)}, for a df already found integrable."""
    return dict(_residual_monomials(M, {(): _hessian_int(conn, gd)},
                                    ric_t.ric_int, 1,
                                    _gradient_scale(flavor, lam, M.dim)))


def check_gradient_curvature_identity(M: FrameManifold, conn: ConnectionTable,
                                      R: CurvatureTensor, ric_t: RicciTensor,
                                      gd: GradientData, lam: ParamScalar,
                                      flavor: SolitonFlavor) -> CheckReport:
    """On a gradient soliton, curvature applied to the gradient satisfies
    R(X, Y) Df = (X lambda) Y - (Y lambda) X - (nabla_X Q) Y + (nabla_Y Q) X
    with Q the Ricci operator. The soliton equation itself is the hypothesis:
    a nonzero residual is a precondition violation, not a failure."""
    report = CheckReport(f"{M.name} gradient curvature identity")
    if not _gradient_preamble(M, gd, report):
        return report
    if bad := integrability_defects(M, gd):
        report.add_item(CheckItem("df integrable", PRECONDITION,
                                  str(IntegrabilityError(bad))))
    else:
        add_identity_check(report, M, conn, ric_t, gd, gradient_residual_parts(
            M, conn, ric_t, gd, lam, flavor))
    return report


def add_identity_check(report: CheckReport, M: FrameManifold,
                       conn: ConnectionTable, ric_t: RicciTensor,
                       gd: GradientData, res: dict) -> None:
    """The identity's item for an integrable df and a dlambda, given the
    gradient_residual_parts res: a precondition violation while res != 0."""
    if shown := entry_defects(res, 6):
        report.add_item(CheckItem("gradient soliton equation holds",
                                  PRECONDITION, "; ".join(shown)))
        return
    gamma, dg = conn.gamma_int
    brackets, dc = M.brackets_int
    df_vec, dd = _gradient_int(M, gd)
    # nab[b] = nabla_{e_b} Df over dg dd; lhs[i, j] = R(e_i, e_j) Df =
    # nabla_i nab[j] - nabla_j nab[i] - sum_b c_ij^b nab[b] over dg^2 dc dd,
    # swept over the nonzero Gamma and c entries
    nab = [bracket_sum(gamma, {b: 1}, df_vec) for b in range(M.dim)]
    lhs = {}
    for (i, a), row in gamma.items():
        for j, vec in enumerate(nab):
            if vec.get(a):
                add_to(lhs, (i, j), row, dc * vec[a])
                add_to(lhs, (j, i), row, -dc * vec[a])
    for key, row in brackets.items():
        add_to(lhs, key, apply_columns(nab, row), -dg)
    # rhs[i, j] = dlam_i e_j - dlam_j e_i - (nabla_i Q) e_j + (nabla_j Q) e_i
    q_tab, dq = endo_derivative_int(conn, *ricci_operator_int(M, ric_t))
    dlam, dl = gd.dlambda_int
    rhs = {}
    for (i, j), vec in q_tab.items():
        add_to(rhs, (i, j), vec, -dl)
        add_to(rhs, (j, i), vec, dl)
    for i, x in dlam.items():
        for j in range(M.dim):
            add_to(rhs, (i, j), {j: x * dq})
            add_to(rhs, (j, i), {j: -x * dq})
    report.add_check(
        "R(X,Y)Df = (X lam)Y - (Y lam)X - (nabla_X Q)Y + (nabla_Y Q)X",
        compare(lhs, dg * dg * dc * dd, rhs, dq * dl))


# -- closed-form constants for a concurrent potential ---------------------------

class ConcurrentSolitonResult(Record):
    def __init__(self, dim: int, lam: ParamScalar,
                 einstein_constant: Fraction, classification: Classification):
        self.dim = dim
        self.lam = lam
        self.einstein_constant = einstein_constant
        self.classification = classification


def concurrent_soliton_constants(m: int) -> ConcurrentSolitonResult:
    """For a gradient almost conformal soliton whose potential field is
    concurrent on an m-dimensional Sasakian presentation (m odd, m >= 3):
    the manifold is Einstein with constant m - 1 and
    lambda = m + p/2 + 1/m, equivalently (m p + 2 m^2 + 2) / (2 m)."""
    if m < 3 or m % 2 == 0:
        raise SolitonError(f"dimension must be odd and at least 3, got {m}")
    lam = P / 2 + Fraction(m * m + 1, m)
    assert lam == (P * m + 2 * m * m + 2) / ParamScalar.rational(2 * m)
    return ConcurrentSolitonResult(m, lam, Fraction(m - 1), classify(lam))
