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
from .geometry import (FrameManifold, FrameVector, GeometryError,
                       LieDerivativeParts, RicciTensor, entry_defects,
                       integer_map, render_vector, scalar_curvature, validate)
from .manifold_format import (MAX_CHARS, ManifoldDocument, ParseError,
                              parse_manifold)
from .reports import CheckReport, combine
from .scalars import ScalarError, format_rational, parse_rational, parse_scalar
from .solitons import (GradientData, SolitonError, SolitonFlavor,
                       add_identity_check, classify,
                       concurrent_soliton_constants, gradient_residual_parts,
                       integrability_defects, solve_lambda_trace,
                       soliton_residual_parts)


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

    def add(name: str, help_: str, run, subject: bool = True):
        s = sub.add_parser(name, help=help_)
        if subject:
            s.add_argument("--builtin", metavar="NAME",
                           help="catalog manifold: " + ", ".join(catalog.builtin_names()))
            s.add_argument("--file", metavar="PATH", help="manifold file")
        s.add_argument("--format", choices=("text", "json"), default="text")
        s.set_defaults(run=run, subject=subject)
        return s

    s = add("validate", "check structure constants and metric",
            lambda doc, args: validate(doc.manifold, strict=args.strict))
    s.add_argument("--strict", action="store_true",
                   help="also require the Jacobi identity")
    add("connection", "Levi-Civita connection table", _connection)
    add("curvature", "curvature tensor components", _curvature)
    add("ricci", "Ricci tensor", _ricci)
    add("check-contact", "almost-contact axioms", _check_contact)
    add("check-sasakian", "Sasakian equation", _check_sasakian)
    add("check-normality", "normality tensor", _check_normality)

    s = add("solve-lambda", "solve the trace of the soliton equation for lambda",
            lambda doc, args: _solve_lambda_report(
                doc, _parse_field(args.field, doc), SolitonFlavor(args.flavor),
                args.use_expected_ricci))
    s.add_argument("--field", required=True, metavar="X",
                   help="'xi' or comma-separated frame components")
    s.add_argument("--flavor", required=True,
                   choices=[f.value for f in SolitonFlavor])
    s.add_argument("--use-expected-ricci", action="store_true",
                   help="solve with the declared expected Ricci values instead "
                        "of the computed tensor")

    s = add("check-soliton", "evaluate the soliton equation residual",
            _check_soliton)
    s.add_argument("--field", required=True, metavar="X")
    s.add_argument("--flavor", required=True,
                   choices=[f.value for f in SolitonFlavor])
    s.add_argument("--lambda", dest="lam", required=True, metavar="EXPR")

    s = add("check-gradient", "evaluate the gradient soliton equation",
            _check_gradient)
    s.add_argument("--df", required=True, metavar="C1,..,CM")
    s.add_argument("--dlambda", metavar="C1,..,CM")
    s.add_argument("--flavor", required=True,
                   choices=[f.value for f in SolitonFlavor])
    s.add_argument("--lambda", dest="lam", required=True, metavar="EXPR")

    s = add("theorem36", "closed-form soliton constants for a concurrent "
                         "potential field",
            lambda doc, args: _theorem36(args.dim), subject=False)
    s.add_argument("--dim", type=int, required=True)

    add("verify-paper-example", "full audit of the heisenberg5 worked example",
        lambda doc, args: _verify_paper_example(), subject=False)
    return p


def _load(args) -> ManifoldDocument:
    builtin, path = args.builtin, args.file
    if (builtin is None) == (path is None):
        raise UsageError("exactly one of --builtin or --file is required")
    if builtin is not None:
        try:
            return catalog.load_builtin(builtin)
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
    parts, size = [], 0  # read in pieces: read(n) allocates n at once
    try:
        with open(path, encoding="utf-8") as fh:
            while size <= MAX_CHARS and (part := fh.read(1 << 16)):
                parts.append(part)
                size += len(part)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if size > MAX_CHARS:
        raise UsageError(f"cannot read {path}: more than {MAX_CHARS} characters")
    return parse_manifold("".join(parts))


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
    coeffs = [parse_scalar(s) for s in parts]  # all parsed, then checked
    return FrameVector.from_values([_declared(c, M, "field") for c in coeffs])


def _declared(c, M: FrameManifold, where: str):
    """c, if it uses no parameter that M does not declare."""
    if extra := c.symbols() - M.params:
        raise UsageError(f"undeclared parameter {sorted(extra)[0]!r} in {where}")
    return c


def _parse_fraction_list(text: str, dim: int, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != dim:
        raise UsageError(f"{what} needs {dim} comma-separated rationals")
    return tuple(parse_rational(s) for s in parts)


def _parse_lambda(text: str, M: FrameManifold):
    return _declared(parse_scalar(text), M, "lambda")


# -- table reports -------------------------------------------------------------

# Item labels with 1-based index placeholders, one per table kind.
_NABLA = "nabla_e{} e{}"
_RIEM = "R(e{},e{})e{}"
_RIC = "ric[{}][{}]"


def _table_report(title: str, label: str, rows: dict, show, zero,
                  expected) -> CheckReport:
    """A passing item per entry of rows (a table's nonzero rational entries),
    printed by show in index order, and a ledger record, both sides printed
    by show, per expected (*index, value, source) whose value is not the
    row at its index, zero where rows has none."""
    def name(idx):
        return label.format(*(i + 1 for i in idx))

    report = CheckReport(title)
    for idx in sorted(rows):
        report.add(f"{name(idx)} = {show(rows[idx])}", True)
    for *idx, want, src in expected:
        got = rows.get(tuple(idx), zero)
        if got != want:
            report.add_ledger(src, f"{name(idx)} = {show(want)}",
                              f"{name(idx)} = {show(got)}")
    return report


def _expected_ricci_tensor(doc: ManifoldDocument) -> RicciTensor:
    M = doc.manifold
    if not doc.expected.ricci:
        raise UsageError(f"{M.name} declares no expected ricci values")
    tab = {}
    for i, j, q, _src in doc.expected.ricci:
        tab[i, j] = q
        tab[j, i] = q
    return RicciTensor(M, integer_map({key: q for key, q in tab.items() if q}))


def _solve_lambda_report(doc: ManifoldDocument, X: FrameVector,
                         flavor: SolitonFlavor, use_expected_ricci: bool,
                         solves=None) -> CheckReport:
    """The lambda solve with the computed or the declared Ricci values.
    solves, {use_expected_ricci: LambdaSolve} for this X and flavor, holds
    each trace equation solved once, shared by the reports it is passed to."""
    M = doc.manifold
    solves = {} if solves is None else solves

    def solved(expected: bool):
        if expected not in solves:
            ric = _expected_ricci_tensor(doc) if expected else M.ric
            solves[expected] = solve_lambda_trace(M, M.conn, ric, X, flavor)
        return solves[expected]

    solve = solved(use_expected_ricci)
    label = ""
    if use_expected_ricci:
        srcs = ", ".join(sorted({s for _, _, _, s in doc.expected.ricci}))
        label = f" [ricci override: {srcs}]"
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
            alt = solved(True)
            if alt.lam == lam_exp:
                expected_str += f" [trace: {alt.form.equation_str()}]"
        computed_str = (f"lambda = {solve.lam.render()} "
                        f"[trace: {solve.form.equation_str()}]")
        report.add_ledger(src, expected_str, computed_str)
    return report


# -- sections: one report per subcommand, run as run(doc, args) -------------

def _connection(doc: ManifoldDocument, args=None) -> CheckReport:
    M = doc.manifold
    return _table_report(f"{M.name} connection", _NABLA, M.conn.gamma,
                         render_vector, {}, doc.expected.nabla)


def _curvature(doc: ManifoldDocument, args=None) -> CheckReport:
    M = doc.manifold
    return _table_report(f"{M.name} curvature", _RIEM, M.riem.comp,
                         render_vector, {}, doc.expected.riem)


def _ricci(doc: ManifoldDocument, args=None) -> CheckReport:
    M = doc.manifold
    return _table_report(f"{M.name} ricci", _RIC, M.ric.ric,
                         format_rational, 0, doc.expected.ricci)


def _check_contact(doc: ManifoldDocument, args=None) -> CheckReport:
    return check_almost_contact(doc.manifold, _require_contact(doc))


def _check_sasakian(doc: ManifoldDocument, args=None) -> CheckReport:
    M = doc.manifold
    return check_sasakian(M, M.conn, _require_contact(doc))


def _check_normality(doc: ManifoldDocument, args=None) -> CheckReport:
    return check_normality(doc.manifold, _require_contact(doc))


def _check_soliton(doc: ManifoldDocument, args) -> CheckReport:
    M = doc.manifold
    X = _parse_field(args.field, doc)
    lam = _parse_lambda(args.lam, M)
    flavor = SolitonFlavor(args.flavor)
    report = CheckReport(f"{M.name} soliton [{flavor.value}] X = {X.render()} "
                         f"lambda = {lam.render()}")
    report.add_check("L_X g + 2 ric - s g = 0", entry_defects(
        soliton_residual_parts(M, M.conn, M.ric, X, lam, flavor)))
    return report


def _check_gradient(doc: ManifoldDocument, args) -> CheckReport:
    M = doc.manifold
    df = _parse_fraction_list(args.df, M.dim, "--df")
    dlam = (None if args.dlambda is None
            else _parse_fraction_list(args.dlambda, M.dim, "--dlambda"))
    gd = GradientData.from_values(df, dlam)
    lam = _parse_lambda(args.lam, M)
    flavor = SolitonFlavor(args.flavor)

    report = CheckReport(f"{M.name} gradient soliton [{flavor.value}] "
                         f"lambda = {lam.render()}")
    defects = integrability_defects(M, df)
    report.add_check("df integrable", [f"({i + 1},{j + 1}): {d}"
                                       for (i, j), d in defects])
    if not defects:
        res = gradient_residual_parts(M, M.conn, M.ric, gd, lam, flavor)
        report.add_check("Hess f + ric - s' g = 0", entry_defects(res))
        if dlam is not None:
            add_identity_check(report, M, M.conn, M.ric, gd, res)
    return report


def _theorem36(dim: int) -> CheckReport:
    r = concurrent_soliton_constants(dim)
    report = CheckReport(f"concurrent potential constants, dim {r.dim}")
    report.add(f"lambda = {r.lam.render()}", True)
    report.add(f"einstein constant = {r.einstein_constant}", True)
    report.add(f"classification: {r.classification.render()}", True)
    return report


def _verify_paper_example() -> CheckReport:
    """The single-subject sections on heisenberg5 joined together, with the
    checks only the paper's audit runs: scalar curvature, the contact metric
    and Reeb curvature identities, and the Killing property of xi."""
    doc = catalog.load_builtin("heisenberg5")
    M = doc.manifold
    D = doc.contact
    xi = D.xi_vector()
    solves = {}
    scal = CheckReport(f"{M.name} scalar curvature")
    scal.add(f"r = {scalar_curvature(M, M.ric).render()}", True)
    killing = CheckReport(f"{M.name} reeb field")
    killing.add_check("L_xi g = 0",
                      entry_defects(LieDerivativeParts(M.conn, xi)))
    sections = [
        validate(M, strict=True), _connection(doc), _curvature(doc),
        _ricci(doc), scal, _check_contact(doc), _check_sasakian(doc),
        _check_normality(doc), check_contact_metric(M, D),
        check_curvature_identity(M, M.riem, D), check_reeb_ricci(M, M.ric, D),
        killing,
        *(_solve_lambda_report(doc, xi, SolitonFlavor.CONFORMAL, use_expected,
                               solves) for use_expected in (False, True)),
        _theorem36(M.dim)]
    return combine("heisenberg5 worked example", sections)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = args.run(_load(args) if args.subject else None, args)
        sys.stdout.write(report.render_json() if args.format == "json"
                         else report.render_text())
        return report.exit_code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ScalarError, GeometryError, ContactError,
            SolitonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
