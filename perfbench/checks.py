"""Output checks for every benchmark op.

The expected answers come from closed forms and from the benchmark's own
Fraction arithmetic (``gen``), never from framecalc. Each check returns a
list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from gen import matmul

CONFORMAL = ("conformal", "almost_conformal")


# -- engine values as plain data -----------------------------------------------

def affine_of(scalar) -> dict | None:
    """A ParamScalar as {"": constant, symbol: coefficient}, or None when it
    has a term of degree two or more."""
    out = {}
    for mono, coeff in scalar.terms().items():
        if mono == ():
            out[""] = Fraction(coeff)
        elif len(mono) == 1 and mono[0][1] == 1:
            out[mono[0][0]] = Fraction(coeff)
        else:
            return None
    return out


def clean(form: dict) -> dict:
    return {k: Fraction(v) for k, v in form.items() if v}


def add(*forms: dict) -> dict:
    out: dict = {}
    for f in forms:
        for k, v in f.items():
            out[k] = out.get(k, Fraction(0)) + v
    return clean(out)


def scale(form: dict, q) -> dict:
    return clean({k: v * q for k, v in form.items()})


def show(form: dict | None) -> str:
    if form is None:
        return "<nonlinear>"
    return " + ".join(f"{v}*{k}" if k else str(v) for k, v in sorted(form.items())) or "0"


def _same(scalar, form: dict) -> bool:
    return affine_of(scalar) == clean(form)


def _table(problems: list, what: str, got, want: list) -> None:
    """Compare engine scalars got(i, j) with a table of Fractions or forms;
    report the first mismatch."""
    for i, row in enumerate(want):
        for j, w in enumerate(row):
            g = got(i, j)
            w_form = w if isinstance(w, dict) else {"": w}
            if not _same(g, w_form):
                problems.append(f"{what}[{i + 1}][{j + 1}] = {g}, want {show(clean(w_form))}")
                return


# -- audit-sparse and audit-dense ------------------------------------------------

def audit_expectation(frame) -> dict:
    """Independent answers for one audited document (gen.Heisenberg or
    gen.DenseFrame): Ricci tensor, Ricci operator Q = g^{-1} ric, scalar
    curvature and the conformal soliton constant for X = xi."""
    base = getattr(frame, "base", frame)
    if frame is base:
        ric, q = base.ric, base.ric
    else:
        ric = frame.ric
        q = matmul(matmul(frame.ainv, base.ric), frame.a)
    return {"m": base.m, "ric": ric, "Q": q, "r": base.scalar_curvature,
            "lam": base.xi_lambda()}


def check_audit(out: dict, want: dict) -> list:
    problems = []
    for name in ("validate", "almost_contact", "sasakian", "normality",
                 "curvature_identity", "reeb"):
        rep = out[name]
        if rep.overall != "pass":
            bad = [i.name for i in rep.items if i.status != "pass"]
            problems.append(f"{name}: {rep.overall} ({'; '.join(bad)})")
    if not _same(out["r"], {"": want["r"]}):
        problems.append(f"scalar curvature {out['r']}, want {want['r']}")
    _table(problems, "ric", out["ric"].entry, want["ric"])
    _table(problems, "Q", lambda i, j: out["Q"][i][j], want["Q"])
    if not _same(out["solve"].lam, want["lam"]):
        problems.append(f"lambda {out['solve'].lam}, want {show(want['lam'])}")
    if out["solve"].status != "trace_only":
        problems.append(f"lambda status {out['solve'].status}, want trace_only")
    return problems


# -- soliton-sweep --------------------------------------------------------------

def sweep_lambda(flavor: str, m: int, r: int) -> dict:
    """div X = 0 on a nilpotent frame, so the trace equation gives
    lambda = r/m (ricci flavors) or p/2 + (1 + r)/m (conformal flavors)."""
    if flavor in CONFORMAL:
        return clean({"p": Fraction(1, 2), "": Fraction(1 + r, m)})
    return clean({"": Fraction(r, m)})


def scale_s(flavor: str, lam: dict, m: int) -> dict:
    """The multiplier s in L_X g + 2 ric = s g."""
    s = scale(lam, 2)
    if flavor in CONFORMAL:
        s = add(s, {"p": Fraction(-1), "": Fraction(-2, m)})
    return s


def expected_residual(frame, X: list, lam: dict, flavor: str) -> list:
    """L_X g + 2 ric - s g from the brackets: with an identity metric,
    (L_X g)(e_i, e_j) = -<[X, e_i], e_j> - <e_i, [X, e_j]>."""
    m = frame.m
    s = scale_s(flavor, lam, m)

    def ad(i, j):  # <[X, e_i], e_j> as an affine form
        return add(*(scale(X[a], frame.c[a][i][j]) for a in range(m) if frame.c[a][i][j]))

    return [[add(scale(ad(i, j), -1), scale(ad(j, i), -1),
                 {"": 2 * frame.ric[i][j]}, scale(s, -int(i == j)))
             for j in range(m)] for i in range(m)]


def check_solve(solve, flavor: str, m: int, r: int) -> list:
    want = sweep_lambda(flavor, m, r)
    problems = []
    if not _same(solve.lam, want):
        problems.append(f"lambda {solve.lam}, want {show(want)}")
    if solve.lam.symbols() - {"p"}:
        problems.append(f"lambda {solve.lam} depends on the field parameters")
    if solve.status != "trace_only":
        problems.append(f"status {solve.status}, want trace_only")
    return problems


def check_residual(res, want: list) -> list:
    problems = []
    _table(problems, "residual", lambda i, j: res[i][j], want)
    return problems


def check_gradient(res, report, m: int, shift: Fraction) -> list:
    """On a flat frame Hess f = 0 and ric = 0, so under the conformal flavors
    the residual is -(lambda - p/2 - 1/m) g = -shift * I, and the curvature
    identity passes exactly when shift = 0."""
    problems = []
    _table(problems, "gradient residual", lambda i, j: res[i][j],
           [[-shift if i == j else Fraction(0) for j in range(m)] for i in range(m)])
    want = "pass" if shift == 0 else "fail"
    if report.overall != want:
        problems.append(f"gradient identity {report.overall}, want {want}")
    return problems


# -- cli-paper -------------------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_cli_golden(argv: list, code: int, stdout: bytes, golden: dict) -> list:
    """Exit code and stdout digest recorded for a builtin call."""
    problems = []
    if code != golden["exit"]:
        problems.append(f"exit {code}, want {golden['exit']}")
    if sha256(stdout) != golden["sha256"]:
        problems.append("stdout differs from the recorded digest")
    if argv[0] == "verify-paper-example":
        problems += check_paper_example(code, stdout, "--format" in argv and "json" in argv)
    return problems


PAPER_LAMBDAS = ("lambda = 1/2*p + -3/5", "lambda = 1/2*p + 9/5")


def check_paper_example(code: int, stdout: bytes, is_json: bool) -> list:
    """The heisenberg5 audit: exit 2, nine ledger records, the engine and
    the expected-Ricci lambda."""
    problems = []
    if code != 2:
        problems.append(f"verify-paper-example exit {code}, want 2")
    text = stdout.decode()
    if is_json:
        obj = json.loads(text)
        records = len(obj["ledger"])
        names = [item["name"] for item in obj["items"]]
    else:
        lines = text.splitlines()
        at = lines.index("ledger:") if "ledger:" in lines else len(lines)
        records = len(lines) - at - 1 if at < len(lines) else 0
        names = lines[:at]
    if records != 9:
        problems.append(f"{records} ledger records, want 9")
    for lam in PAPER_LAMBDAS:
        if not any(lam in n for n in names):
            problems.append(f"no item reports {lam!r}")
    return problems


def check_cli_file(code: int, stdout: bytes, want_exit: int, needles: list) -> list:
    """A generated --file call: exit code plus strings the report must hold."""
    problems = []
    if code != want_exit:
        problems.append(f"exit {code}, want {want_exit}")
    text = stdout.decode()
    for s in needles:
        if s not in text:
            problems.append(f"output lacks {s!r}")
    return problems


def file_needles(frame, command: str) -> list:
    """Strings that a correct report on a generated H_{2n+1} holds."""
    if command == "ricci":
        return [f"ric[{a + 1}][{a + 1}] = {frame.ric[a][a]}" for a in range(frame.m)]
    if command == "solve-lambda":
        lam = frame.xi_lambda()[""]
        return [f"lambda = 1/2*p + {lam}", "status: trace_only"]
    return []
