"""Command line interface.

Exit codes: 0 all checks pass and no ledger discrepancies; 1 at least one
check failed; 2 checks pass but declared expected values disagree with the
computation; 3 usage or parse errors.
"""
from __future__ import annotations

import argparse
import sys

from . import catalog
from .contact import (ContactError, check_almost_contact,
                      check_contact_metric, check_curvature_identity,
                      check_normality, check_reeb_ricci, check_sasakian)
from .geometry import (ConnectionTable, FrameManifold, FrameVector,
                       GeometryError, RicciTensor, curvature, is_killing,
                       levi_civita, ricci, scalar_curvature, validate)
from .manifold_format import ManifoldDocument, ParseError, parse_manifold
from .reports import CheckReport, combine
from .scalars import ScalarError, parse_rational, parse_scalar
from .solitons import (GradientData, SolitonError, SolitonFlavor, classify,
                       check_gradient_curvature_identity,
                       concurrent_soliton_constants, gradient_soliton_residual,
                       integrability_defects, solve_lambda_trace,
                       soliton_residual)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="framecalc",
                description="Exact frame-manifold curvature and Ricci "
                            "soliton checks.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_: str, subject: bool = True):
        s = sub.add_parser(name, help=help_)
        if subject:
            s.add_argument("--builtin", metavar="NAME",
                           help="catalog manifold: " + ", ".join(catalog.builtin_names()))
            s.add_argument("--file", metavar="PATH", help="manifold file")
        s.add_argument("--format", choices=("text", "json"), default="text")
        return s

    s = add("validate", "check structure constants and metric")
    s.add_argument("--strict", action="store_true",
                   help="also require the Jacobi identity")
    add("connection", "Levi-Civita connection table")
    add("curvature", "curvature tensor components")
    add("ricci", "Ricci tensor")
    add("check-contact", "almost-contact axioms")
    add("check-sasakian", "Sasakian equation")
    add("check-normality", "normality tensor")

    s = add("solve-lambda", "solve the trace of the soliton equation for lambda")
    s.add_argument("--field", required=True, metavar="X",
                   help="'xi' or comma-separated frame components")
    s.add_argument("--flavor", required=True,
                   choices=[f.value for f in SolitonFlavor])
    s.add_argument("--use-expected-ricci", action="store_true",
                   help="solve with the declared expected Ricci values instead "
                        "of the computed tensor")

    s = add("check-soliton", "evaluate the soliton equation residual")
    s.add_argument("--field", required=True, metavar="X")
    s.add_argument("--flavor", required=True,
                   choices=[f.value for f in SolitonFlavor])
    s.add_argument("--lambda", dest="lam", required=True, metavar="EXPR")

    s = add("check-gradient", "evaluate the gradient soliton equation")
    s.add_argument("--df", required=True, metavar="C1,..,CM")
    s.add_argument("--dlambda", metavar="C1,..,CM")
    s.add_argument("--flavor", required=True,
                   choices=[f.value for f in SolitonFlavor])
    s.add_argument("--lambda", dest="lam", required=True, metavar="EXPR")

    s = add("theorem36", "closed-form soliton constants for a concurrent "
                         "potential field", subject=False)
    s.add_argument("--dim", type=int, required=True)

    add("verify-paper-example", "full audit of the heisenberg5 worked example",
        subject=False)
    return p


def _load(args) -> ManifoldDocument:
    builtin = getattr(args, "builtin", None)
    path = getattr(args, "file", None)
    if (builtin is None) == (path is None):
        raise UsageError("exactly one of --builtin or --file is required")
    if builtin is not None:
        try:
            return catalog.load_builtin(builtin)
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return parse_manifold(text)


def _emit(report: CheckReport, fmt: str) -> int:
    out = report.render_json() if fmt == "json" else report.render_text()
    sys.stdout.write(out)
    return report.exit_code


def _require_contact(doc: ManifoldDocument):
    if doc.contact is None:
        raise UsageError(f"{doc.manifold.name} declares no contact structure")
    return doc.contact


def _parse_field(text: str, doc: ManifoldDocument) -> FrameVector:
    M = doc.manifold
    if text.strip() == "xi":
        return FrameVector.from_values(_require_contact(doc).xi)
    parts = text.split(",")
    if len(parts) != M.dim:
        raise UsageError(f"--field needs {M.dim} comma-separated components")
    coeffs = [parse_scalar(s) for s in parts]
    for c in coeffs:
        extra = c.symbols() - M.params
        if extra:
            raise UsageError(f"undeclared parameter {sorted(extra)[0]!r} in field")
    return FrameVector.from_values(coeffs)


def _parse_fraction_list(text: str, dim: int, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != dim:
        raise UsageError(f"{what} needs {dim} comma-separated rationals")
    return tuple(parse_rational(s) for s in parts)


def _parse_lambda(text: str, M: FrameManifold):
    lam = parse_scalar(text)
    extra = lam.symbols() - M.params
    if extra:
        raise UsageError(f"undeclared parameter {sorted(extra)[0]!r} in lambda")
    return lam


# -- table reports -------------------------------------------------------------

# Item labels with 1-based index placeholders, one per table kind.
_NABLA = "nabla_e{} e{}"
_RIEM = "R(e{},e{})e{}"
_RIC = "ric[{}][{}]"


def _table_report(title: str, label: str, table, expected) -> CheckReport:
    """A passing item per nonzero entry of table, and a ledger record per
    expected (*index, value, source) that table.entry does not reproduce."""
    def name(idx):
        return label.format(*(i + 1 for i in idx))

    report = CheckReport(title)
    for *idx, value in table.nonzero():
        report.add(f"{name(idx)} = {value}", True)
    for *idx, want, src in expected:
        got = table.entry(*idx)
        if got != want:
            report.add_ledger(src, f"{name(idx)} = {want}",
                              f"{name(idx)} = {got}")
    return report


def _expected_ricci_tensor(doc: ManifoldDocument) -> RicciTensor:
    M = doc.manifold
    if not doc.expected.ricci:
        raise UsageError(f"{M.name} declares no expected ricci values")
    tab = {}
    for i, j, q, _src in doc.expected.ricci:
        tab[i, j] = q
        tab[j, i] = q
    return RicciTensor(M, {key: q for key, q in tab.items() if q})


def _solve_lambda_report(doc: ManifoldDocument, conn: ConnectionTable,
                         engine_ric: RicciTensor, X: FrameVector,
                         flavor: SolitonFlavor,
                         use_expected_ricci: bool) -> CheckReport:
    M = doc.manifold
    if use_expected_ricci:
        ric_used = _expected_ricci_tensor(doc)
        srcs = ", ".join(sorted({s for _, _, _, s in doc.expected.ricci}))
        label = f" [ricci override: {srcs}]"
    else:
        ric_used = engine_ric
        label = ""
    solve = solve_lambda_trace(M, conn, ric_used, X, flavor)
    report = CheckReport(f"{M.name} solve-lambda [{flavor.value}] "
                         f"X = {X.render()}{label}")
    report.add(f"lambda = {solve.lam.render()}", True)
    report.add(f"trace equation: {solve.form.equation_str()}", True)
    report.add(f"status: {solve.status}", True)
    try:
        report.add(f"classification: {classify(solve.lam).render()}", True)
    except SolitonError:
        report.add("classification: unsupported", True)

    for lam_exp, src in doc.expected.lam:
        if lam_exp == solve.lam:
            continue
        expected_str = f"lambda = {lam_exp.render()}"
        if doc.expected.ricci:
            # show the trace equation the expected values would give
            alt = solve_lambda_trace(M, conn, _expected_ricci_tensor(doc),
                                     X, flavor)
            if alt.lam == lam_exp:
                expected_str += f" [trace: {alt.form.equation_str()}]"
        computed_str = (f"lambda = {solve.lam.render()} "
                        f"[trace: {solve.form.equation_str()}]")
        report.add_ledger(src, expected_str, computed_str)
    return report


def _defect_table(res) -> str:
    out = []
    for i, row in enumerate(res):
        for j, e in enumerate(row):
            if not e.is_zero():
                out.append(f"({i + 1},{j + 1}): {e.render()}")
    return "; ".join(out)


# -- command handlers ----------------------------------------------------------

def _cmd_validate(args) -> int:
    doc = _load(args)
    return _emit(validate(doc.manifold, strict=args.strict), args.format)


def _cmd_connection(args) -> int:
    doc = _load(args)
    M = doc.manifold
    return _emit(_table_report(f"{M.name} connection", _NABLA, levi_civita(M),
                               doc.expected.nabla), args.format)


def _cmd_curvature(args) -> int:
    doc = _load(args)
    M = doc.manifold
    return _emit(_table_report(f"{M.name} curvature", _RIEM,
                               curvature(M, levi_civita(M)),
                               doc.expected.riem), args.format)


def _cmd_ricci(args) -> int:
    doc = _load(args)
    M = doc.manifold
    return _emit(_table_report(f"{M.name} ricci", _RIC,
                               ricci(M, curvature(M, levi_civita(M))),
                               doc.expected.ricci), args.format)


def _cmd_check_contact(args) -> int:
    doc = _load(args)
    return _emit(check_almost_contact(doc.manifold, _require_contact(doc)),
                 args.format)


def _cmd_check_sasakian(args) -> int:
    doc = _load(args)
    conn = levi_civita(doc.manifold)
    return _emit(check_sasakian(doc.manifold, conn, _require_contact(doc)),
                 args.format)


def _cmd_check_normality(args) -> int:
    doc = _load(args)
    return _emit(check_normality(doc.manifold, _require_contact(doc)),
                 args.format)


def _cmd_solve_lambda(args) -> int:
    doc = _load(args)
    M = doc.manifold
    X = _parse_field(args.field, doc)
    conn = levi_civita(M)
    report = _solve_lambda_report(doc, conn, ricci(M, curvature(M, conn)), X,
                                  SolitonFlavor(args.flavor),
                                  args.use_expected_ricci)
    return _emit(report, args.format)


def _cmd_check_soliton(args) -> int:
    doc = _load(args)
    M = doc.manifold
    X = _parse_field(args.field, doc)
    lam = _parse_lambda(args.lam, M)
    flavor = SolitonFlavor(args.flavor)
    conn = levi_civita(M)
    ric_t = ricci(M, curvature(M, conn))
    res = soliton_residual(M, conn, ric_t, X, lam, flavor)
    report = CheckReport(f"{M.name} soliton [{flavor.value}] X = {X.render()} "
                         f"lambda = {lam.render()}")
    ok = all(e.is_zero() for row in res for e in row)
    report.add("L_X g + 2 ric - s g = 0", ok, None if ok else _defect_table(res))
    return _emit(report, args.format)


def _cmd_check_gradient(args) -> int:
    doc = _load(args)
    M = doc.manifold
    df = _parse_fraction_list(args.df, M.dim, "--df")
    dlam = (None if args.dlambda is None
            else _parse_fraction_list(args.dlambda, M.dim, "--dlambda"))
    gd = GradientData.from_values(df, dlam)
    lam = _parse_lambda(args.lam, M)
    flavor = SolitonFlavor(args.flavor)
    conn = levi_civita(M)
    R = curvature(M, conn)
    ric_t = ricci(M, R)

    report = CheckReport(f"{M.name} gradient soliton [{flavor.value}] "
                         f"lambda = {lam.render()}")
    defects = integrability_defects(M, df)
    report.add_check("df integrable", [f"({i + 1},{j + 1}): {d}"
                                       for (i, j), d in defects])
    if not defects:
        res = gradient_soliton_residual(M, conn, ric_t, gd, lam, flavor)
        ok = all(e.is_zero() for row in res for e in row)
        report.add("Hess f + ric - s' g = 0", ok,
                   None if ok else _defect_table(res))
        if dlam is not None:
            sub = check_gradient_curvature_identity(M, conn, R, ric_t, gd,
                                                    lam, flavor)
            for item in sub.items:
                report.add_item(item)
    return _emit(report, args.format)


def _theorem36_report(dim: int) -> CheckReport:
    r = concurrent_soliton_constants(dim)
    report = CheckReport(f"concurrent potential constants, dim {r.dim}")
    report.add(f"lambda = {r.lam.render()}", True)
    report.add(f"einstein constant = {r.einstein_constant}", True)
    report.add(f"classification: {r.classification.render()}", True)
    return report


def _cmd_theorem36(args) -> int:
    try:
        report = _theorem36_report(args.dim)
    except SolitonError as exc:
        raise UsageError(str(exc)) from exc
    return _emit(report, args.format)


def _cmd_verify_paper_example(args) -> int:
    doc = catalog.load_builtin("heisenberg5")
    M = doc.manifold
    D = doc.contact
    conn = levi_civita(M)
    R = curvature(M, conn)
    ric_t = ricci(M, R)

    sections = [validate(M, strict=True),
                _table_report(f"{M.name} connection", _NABLA, conn,
                              doc.expected.nabla),
                _table_report(f"{M.name} curvature", _RIEM, R,
                              doc.expected.riem),
                _table_report(f"{M.name} ricci", _RIC, ric_t,
                              doc.expected.ricci)]

    scal = CheckReport(f"{M.name} scalar curvature")
    scal.add(f"r = {scalar_curvature(M, ric_t).render()}", True)
    sections.append(scal)

    sections.extend([
        check_almost_contact(M, D),
        check_sasakian(M, conn, D),
        check_normality(M, D),
        check_contact_metric(M, D),
        check_curvature_identity(M, R, D),
        check_reeb_ricci(M, ric_t, D),
    ])

    xi = D.xi_vector()
    killing = CheckReport(f"{M.name} reeb field")
    ok, lx = is_killing(M, conn, xi)
    killing.add("L_xi g = 0", ok, None if ok else _defect_table(lx))
    sections.append(killing)

    for use_expected in (False, True):
        sections.append(_solve_lambda_report(doc, conn, ric_t, xi,
                                             SolitonFlavor.CONFORMAL,
                                             use_expected))
    sections.append(_theorem36_report(M.dim))

    return _emit(combine("heisenberg5 worked example", sections), args.format)


_HANDLERS = {
    "validate": _cmd_validate,
    "connection": _cmd_connection,
    "curvature": _cmd_curvature,
    "ricci": _cmd_ricci,
    "check-contact": _cmd_check_contact,
    "check-sasakian": _cmd_check_sasakian,
    "check-normality": _cmd_check_normality,
    "solve-lambda": _cmd_solve_lambda,
    "check-soliton": _cmd_check_soliton,
    "check-gradient": _cmd_check_gradient,
    "theorem36": _cmd_theorem36,
    "verify-paper-example": _cmd_verify_paper_example,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (ScalarError, GeometryError, ContactError, SolitonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
