"""End-to-end CLI behavior: commands, formats, exit codes."""
import contextlib
import importlib
import io
import json
import random
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from frames import (MALFORMED_SCALARS, change_frame, document,
                    elementary_change, gram_plus_identity, heisenberg,
                    identity, small)
from framecalc.catalog import FIXTURES, load_builtin
from framecalc.cli import main
from framecalc.geometry import FrameVector
from framecalc.manifold_format import parse_manifold, render_manifold
from framecalc.scalars import ParamScalar


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table commands ---------------------------------------------------------------

def test_connection_heisenberg5(capsys):
    code, out, _ = run(capsys, "connection", "--builtin", "heisenberg5")
    assert code == 2
    assert "overall: discrepancies" in out
    assert "nabla_e1 e2 = e3" in out
    assert out.count("pass") == 12
    assert out.count("[connection table") == 1
    assert "expected nabla_e1 e2 = e1; computed nabla_e1 e2 = e3" in out


def test_curvature_ledger_count(capsys):
    code, out, _ = run(capsys, "curvature", "--builtin", "heisenberg5",
                       "--format", "json")
    assert code == 2
    obj = json.loads(out)
    assert obj["overall"] == "discrepancies"
    assert len(obj["items"]) == 48
    assert len(obj["ledger"]) == 4
    assert {e["source"] for e in obj["ledger"]} == {"curvature list"}


def test_ricci_ledger(capsys):
    code, out, _ = run(capsys, "ricci", "--builtin", "heisenberg5",
                       "--format", "json")
    assert code == 2
    obj = json.loads(out)
    assert len(obj["ledger"]) == 3
    assert {e["expected"] for e in obj["ledger"]} == {
        "ric[2][2] = 3", "ric[4][4] = 4", "ric[5][5] = -1"}
    names = {i["name"] for i in obj["items"]}
    assert "ric[3][3] = 4" in names


def test_ricci_clean_manifold(capsys):
    code, out, _ = run(capsys, "ricci", "--builtin", "heisenberg3")
    assert code == 0
    assert "overall: pass" in out


TABLE_COMMANDS = ("connection", "curvature", "ricci")


def counted_constructions(monkeypatch) -> list:
    """The names of the ParamScalar and FrameVector constructors, one per call
    from now on."""
    calls = []
    for name in ("_of", "rational"):
        def counted(cls, arg, name=name, fn=getattr(ParamScalar, name).__func__):
            calls.append(name)
            return fn(cls, arg)
        monkeypatch.setattr(ParamScalar, name, classmethod(counted))

    def counted_init(self, coeffs, init=FrameVector.__init__):
        calls.append("FrameVector")
        init(self, coeffs)
    monkeypatch.setattr(FrameVector, "__init__", counted_init)
    return calls


def test_table_reports_build_no_per_entry_objects(monkeypatch, capsys, tmp_path):
    """Gamma, R and ric are rational, so their reports print the rows as
    they are: no ParamScalar or FrameVector for a document without expect
    lines, on builtins and on Heisenberg frames in a dense frame."""
    m, c, g, _, _ = heisenberg(2)
    A, Ainv = elementary_change(m, [("add", 0, 1, 1), ("add", 2, 0, Fraction(-1, 2)),
                                    ("scale", 1, Fraction(3, 2)), ("add", 1, 4, -1)])
    path = tmp_path / "dense5.txt"
    path.write_text(document("dense5", *change_frame(c, g, A, Ainv)[:2]))
    subjects = [("--builtin", name) for name in ("heisenberg3", "nonjacobi3", "abelian5")]
    calls = counted_constructions(monkeypatch)
    for subject in [*subjects, ("--file", str(path))]:
        for command in TABLE_COMMANDS:
            for fmt in ("text", "json"):
                calls.clear()
                code = main([command, *subject, "--format", fmt])
                out = capsys.readouterr().out
                assert code == 0 and "pass" in out, (command, subject)
                assert calls == [], (command, subject, fmt)


def test_a_table_report_builds_objects_for_its_expect_lines_only(monkeypatch, capsys):
    """heisenberg5's expect nabla and riem values (9 and 18) are rational
    maps, so neither the parse nor the connection, curvature and ricci
    reports, which compare and print them beside their 12, 48 and 5
    entries, build a FrameVector or a rational ParamScalar for them; the
    parse builds one ParamScalar, for the expect lambda line."""
    doc = load_builtin("heisenberg5")
    assert (len(doc.expected.nabla), len(doc.expected.riem)) == (9, 18)
    calls = counted_constructions(monkeypatch)
    for command in ("validate", *TABLE_COMMANDS):  # the parse alone, then each report
        for fmt in ("text", "json"):
            calls.clear()
            assert main([command, "--builtin", "heisenberg5", "--format", fmt]) in (0, 2)
            capsys.readouterr()
            assert calls == ["_of"], (command, fmt)


def test_verify_paper_example_builds_one_frame_vector(monkeypatch, capsys):
    """The paper's audit builds one FrameVector, the xi its lambda solves
    and its Killing check take, and none for its expect lines."""
    calls = counted_constructions(monkeypatch)
    assert main(["verify-paper-example"]) == 2
    capsys.readouterr()
    assert calls.count("FrameVector") <= 1


# heisenberg3 with its expect values spelled otherwise than the reports
# print them; {riem} and {ricci} are filled in.
RESPELLED = """\
manifold h3 dim 3
bracket e1 e2 = 2e3
metric identity
expect nabla e1 e2 = 2/2*e3 + e1 - e1 source "respelled"
expect riem e1 e2 e1 = {riem} source "respelled"
expect ricci 3 3 = 4/2 source "respelled"
expect ricci 1 2 = {ricci} source "respelled"
"""


def test_respelled_expect_values_compare_by_value(tmp_path, capsys):
    """An expect value matches the computed entry it equals however it is
    spelled, 0 included where the table holds no entry, and a ledger
    record prints both sides as the report prints its entries."""
    matching = RESPELLED.format(riem="6/2e2", ricci="0")
    altered = RESPELLED.format(riem="5/2e2", ricci="1/3")
    records = {"curvature": ("R(e1,e2)e1 = 5/2*e2", "R(e1,e2)e1 = 3*e2"),
               "ricci": ("ric[1][2] = 1/3", "ric[1][2] = 0")}
    for text, want in ((matching, {}), (altered, records)):
        path = tmp_path / "h3.txt"
        path.write_text(text)
        doc = parse_manifold(text)
        assert parse_manifold(render_manifold(doc)) == doc
        for command in TABLE_COMMANDS:
            pair = want.get(command)
            code, out, _ = run(capsys, command, "--file", str(path))
            assert code == (2 if pair else 0), (command, out)
            assert out.partition("ledger:\n")[2].splitlines() == (
                [f"  [respelled] expected {pair[0]}; computed {pair[1]}"]
                if pair else [])
            code, out, _ = run(capsys, command, "--file", str(path), "--format", "json")
            assert code == (2 if pair else 0)
            assert json.loads(out)["ledger"] == (
                [{"source": "respelled", "expected": pair[0], "computed": pair[1]}]
                if pair else [])


@st.composite
def table_frames(draw) -> tuple:
    """(c, g): antisymmetric brackets on up to 7 frame vectors, Jacobi or
    not, under the identity or a fractional B^T B + I metric."""
    m = draw(st.integers(1, 7))
    index = st.integers(0, m - 1)
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i, j, k, q in draw(st.lists(st.tuples(index, index, index, small),
                                    max_size=2 * m)):
        if i != j:
            c[i][j][k] += q
            c[j][i][k] -= q
    g = identity(m)
    if draw(st.booleans()):
        sparse = st.one_of(st.just(Fraction(0)), small)
        g = gram_plus_identity([[draw(sparse) for _ in range(m)] for _ in range(m)])
    return c, g


@settings(max_examples=40, deadline=None)
@given(table_frames(), st.data())
def test_table_reports_print_the_naive_oracle_tables(frame, data):
    """The connection, curvature and ricci reports, rows and ledger, are the
    text the oracle's brute-force Gamma, R and Ric print, with one wrong
    expect line of each kind."""
    c, g = frame
    m = len(g)
    gamma = oracle.naive_koszul(c, g)
    R = oracle.naive_curvature(c, gamma)
    ric = oracle.naive_ricci(R)
    index = st.integers(0, m - 1)
    i, j, k, t = (data.draw(index) for _ in range(4))

    def wrong(v):  # v changed in entry t, never to the zero vector
        return [x + (2 if x == -1 else 1) * (s == t) for s, x in enumerate(v)]
    expects = (("nabla", (i, j), wrong(gamma[i][j]),
                f"expect nabla e{i + 1} e{j + 1}"),
               ("riem", (i, j, k), wrong(R[i][j][k]),
                f"expect riem e{i + 1} e{j + 1} e{k + 1}"),
               ("ricci", (i, j), ric[i][j] + 1, f"expect ricci {i + 1} {j + 1}"))
    extra = [f"{head} = {oracle.render_vector(want) if kind != 'ricci' else want}"
             f' source "guess"' for kind, _, want, head in expects]
    tables = {
        "connection": ("nabla_e{} e{}", {(a, b): gamma[a][b]
                                         for a in range(m) for b in range(m)}),
        "curvature": ("R(e{},e{})e{}", {(a, b, z): R[a][b][z] for a in range(m)
                                        for b in range(m) for z in range(m)}),
        "ricci": ("ric[{}][{}]", {(a, b): ric[a][b]
                                  for a in range(m) for b in range(m)})}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.txt"
        path.write_text(document("frame", c, g, extra=extra))
        for (command, (label, values)), (_, idx, want, _) in zip(tables.items(), expects):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, "--file", str(path)])
            assert code == 2
            assert out.getvalue() == oracle.table_text(
                f"frame {command}", label, values, [(idx, want, "guess")])


# -- validate -----------------------------------------------------------------------

def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "nonjacobi3")
    assert code == 0
    code, out, _ = run(capsys, "validate", "--builtin", "nonjacobi3", "--strict")
    assert code == 1
    assert "jacobi identity" in out
    assert "(1,2,3): -e3" in out


# -- contact commands ------------------------------------------------------------------

def test_contact_commands_pass(capsys):
    for cmd in ("check-contact", "check-sasakian", "check-normality"):
        code, out, _ = run(capsys, cmd, "--builtin", "heisenberg5")
        assert code == 0, cmd
        assert "overall: pass" in out


def test_abelian_contact_vs_sasakian(capsys):
    code, _, _ = run(capsys, "check-contact", "--builtin", "abelian3")
    assert code == 0
    code, _, _ = run(capsys, "check-normality", "--builtin", "abelian3")
    assert code == 0
    code, _, _ = run(capsys, "check-sasakian", "--builtin", "abelian3")
    assert code == 1


def test_contact_command_without_contact_data(capsys):
    code, _, errtext = run(capsys, "check-contact", "--builtin", "nonjacobi3")
    assert code == 3
    assert "no contact structure" in errtext


# -- solve-lambda -----------------------------------------------------------------------

def test_solve_lambda_engine(capsys):
    code, out, _ = run(capsys, "solve-lambda", "--builtin", "heisenberg5",
                       "--field", "0,0,1,0,0", "--flavor", "conformal")
    assert code == 2
    assert "lambda = 1/2*p + -3/5" in out
    assert "10*lambda = 5*p + -6" in out
    assert "status: trace_only" in out
    assert "classification: conditional (shrinking iff p > 6/5)" in out
    # the single ledger line shows both trace equations
    assert ("expected lambda = 1/2*p + 9/5 [trace: 10*lambda = 5*p + 18]; "
            "computed lambda = 1/2*p + -3/5 [trace: 10*lambda = 5*p + -6]") in out


def test_solve_lambda_expected_ricci(capsys):
    code, out, _ = run(capsys, "solve-lambda", "--builtin", "heisenberg5",
                       "--field", "xi", "--flavor", "conformal",
                       "--use-expected-ricci")
    assert code == 0
    assert "lambda = 1/2*p + 9/5" in out
    assert "10*lambda = 5*p + 18" in out
    assert "[ricci override: Eq (3.33)]" in out


def test_solve_lambda_override_needs_expected_values(capsys):
    code, _, errtext = run(capsys, "solve-lambda", "--builtin", "heisenberg3",
                           "--field", "xi", "--flavor", "conformal",
                           "--use-expected-ricci")
    assert code == 3
    assert "no expected ricci" in errtext


def test_solve_lambda_field_validation(capsys):
    code, _, errtext = run(capsys, "solve-lambda", "--builtin", "heisenberg5",
                           "--field", "1,2", "--flavor", "ricci")
    assert code == 3
    assert "5 comma-separated components" in errtext


# -- check-soliton and check-gradient ------------------------------------------------------

def test_check_soliton_pass(capsys):
    code, out, _ = run(capsys, "check-soliton", "--builtin", "abelian5",
                       "--field", "1,0,0,0,0", "--flavor", "ricci",
                       "--lambda", "0")
    assert code == 0
    assert "L_X g + 2 ric - s g = 0" in out


def test_check_soliton_fail(capsys):
    code, out, _ = run(capsys, "check-soliton", "--builtin", "heisenberg5",
                       "--field", "xi", "--flavor", "conformal",
                       "--lambda", "1/2*p + -3/5")
    assert code == 1
    assert "(3,3): 48/5" in out


def test_check_gradient_pass(capsys):
    code, out, _ = run(capsys, "check-gradient", "--builtin", "abelian5",
                       "--df", "1,1,0,0,0", "--dlambda", "0,0,0,0,0",
                       "--flavor", "conformal", "--lambda", "1/2*p + 1/5")
    assert code == 0
    assert "Hess f + ric - s' g = 0" in out
    assert "R(X,Y)Df" in out


def test_check_gradient_nonintegrable(capsys):
    code, out, _ = run(capsys, "check-gradient", "--builtin", "heisenberg5",
                       "--df", "0,0,1,0,0", "--flavor", "ricci",
                       "--lambda", "0")
    assert code == 1
    assert "df integrable" in out
    assert "(1,2): 2" in out


def test_signed_df_denominator_exits_3(capsys):
    code, out, errtext = run(capsys, "check-gradient", "--builtin", "abelian5",
                             "--df", "1/-2,0,0,0,0", "--flavor", "ricci",
                             "--lambda", "0")
    assert code == 3
    assert out == ""
    assert errtext == ("error: expected an integer denominator at offset 2 "
                       "in scalar '1/-2'\n")


def test_check_gradient_without_dlambda(capsys):
    code, out, _ = run(capsys, "check-gradient", "--builtin", "abelian5",
                       "--df", "1,1,0,0,0",
                       "--flavor", "conformal", "--lambda", "1/2*p + 1/5")
    assert code == 0
    assert "R(X,Y)Df" not in out


# -- theorem36 ---------------------------------------------------------------------------

def test_theorem36(capsys):
    code, out, _ = run(capsys, "theorem36", "--dim", "5")
    assert code == 0
    assert "lambda = 1/2*p + 26/5" in out
    assert "einstein constant = 4" in out
    assert "classification: conditional (shrinking iff p > -52/5)" in out


def test_theorem36_rejects_even(capsys):
    code, _, errtext = run(capsys, "theorem36", "--dim", "4")
    assert code == 3
    assert "odd" in errtext


# -- verify-paper-example -------------------------------------------------------------------

def test_verify_paper_example(capsys):
    code, out, _ = run(capsys, "verify-paper-example", "--format", "json")
    assert code == 2
    obj = json.loads(out)
    assert obj["subject"] == "heisenberg5 worked example"
    assert obj["overall"] == "discrepancies"
    assert all(i["status"] == "pass" for i in obj["items"])
    assert len(obj["ledger"]) == 9
    sources = [e["source"] for e in obj["ledger"]]
    assert sources.count("curvature list") == 4
    assert sources.count("Eq (3.33)") == 3
    assert sources.count("lambda after Eq (3.34)") == 1
    assert sources.count("connection table, duplicated assignment") == 1


def kernel_calls(monkeypatch, capsys, *argv,
                 names=("levi_civita", "curvature"), module="geometry"):
    """Exit code of the command and its calls of the named functions,
    counted where they are looked up: by default levi_civita and curvature
    in framecalc.geometry, where the manifold's cached conn, riem and ric
    call them."""
    mod = importlib.import_module(f"framecalc.{module}")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(mod, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mod, name, counted(name))
    code, _, _ = run(capsys, *argv)
    return code, calls


def test_verify_paper_example_derives_geometry_once(monkeypatch, capsys):
    code, calls = kernel_calls(monkeypatch, capsys, "verify-paper-example")
    assert code == 2
    assert calls == {"levi_civita": 1, "curvature": 1}


def test_verify_paper_example_runs_the_contact_axioms_once(monkeypatch, capsys):
    """The almost-contact section and the Sasakian precondition read one
    derivation of the heisenberg5 structure."""
    code, calls = kernel_calls(monkeypatch, capsys, "verify-paper-example",
                               names=("axiom_items",), module="contact")
    assert code == 2
    assert calls == {"axiom_items": 1}


@pytest.mark.parametrize("argv", [
    ("solve-lambda", "--builtin", "heisenberg5", "--field", "xi",
     "--flavor", "conformal", "--use-expected-ricci"),
    ("check-gradient", "--builtin", "heisenberg5", "--df", "1,0,0,0,0",
     "--dlambda", "0,0,0,0,0", "--flavor", "conformal",
     "--lambda", "1/2*p + 1/5"),
], ids=["solve-lambda-expected-ricci", "check-gradient-dlambda"])
def test_command_derives_geometry_at_most_once(monkeypatch, capsys, argv):
    code, calls = kernel_calls(monkeypatch, capsys, *argv)
    assert code != 3
    assert max(calls.values()) <= 1, calls


def test_verify_paper_example_solves_each_trace_equation_once(monkeypatch,
                                                              capsys):
    code, calls = kernel_calls(monkeypatch, capsys, "verify-paper-example",
                               names=("solve_lambda_trace",), module="cli")
    assert code == 2
    assert calls == {"solve_lambda_trace": 2}


@pytest.mark.parametrize("extra,solves", [((), 2),
                                          (("--use-expected-ricci",), 1)],
                         ids=["engine", "expected-ricci"])
def test_solve_lambda_solves_expected_ricci_at_most_once(
        monkeypatch, capsys, tmp_path, extra, solves):
    """Two declared lambdas the engine does not reproduce: the expected
    Ricci values are solved once for both ledger records, and not again
    when they are what the report solved with."""
    path = tmp_path / "h5.fc"
    path.write_text(FIXTURES["heisenberg5"]
                    + 'expect lambda = 1/2*p + 1 source "another value"\n')
    code, calls = kernel_calls(monkeypatch, capsys, "solve-lambda", "--file",
                               str(path), "--field", "xi", "--flavor",
                               "conformal", *extra,
                               names=("solve_lambda_trace",), module="cli")
    assert code == 2
    assert calls == {"solve_lambda_trace": solves}


GRADIENT = ("check-gradient", "--builtin", "heisenberg5", "--df", "1,0,0,0,0",
            "--flavor", "conformal", "--lambda", "1/2*p + 1/5")


@pytest.mark.parametrize("argv", [
    ("ricci", "--builtin", "heisenberg5"),
    ("solve-lambda", "--builtin", "heisenberg5", "--field", "xi",
     "--flavor", "conformal"),
    ("solve-lambda", "--builtin", "heisenberg5", "--field", "xi",
     "--flavor", "conformal", "--use-expected-ricci"),
    ("check-soliton", "--builtin", "heisenberg5", "--field", "xi",
     "--flavor", "conformal", "--lambda", "1/2*p + -3/5"),
    ("check-contact", "--builtin", "heisenberg5"),
    ("check-sasakian", "--builtin", "heisenberg5"),
    GRADIENT,
], ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
def test_command_builds_no_curvature_table(monkeypatch, capsys, argv):
    code, calls = kernel_calls(monkeypatch, capsys, *argv,
                               names=("_curvature_components",))
    assert code != 3
    assert calls == {"_curvature_components": 0}


@pytest.mark.parametrize("argv", [
    ("curvature", "--builtin", "heisenberg5"),
    GRADIENT + ("--dlambda", "0,0,0,0,0"),
    ("verify-paper-example",),
], ids=["curvature", "check-gradient-dlambda", "verify-paper-example"])
def test_command_builds_curvature_table_at_most_once(monkeypatch, capsys,
                                                     argv):
    code, calls = kernel_calls(monkeypatch, capsys, *argv,
                               names=("_curvature_components",))
    assert code != 3
    assert calls["_curvature_components"] <= 1


def test_ricci_of_dense_brackets_stays_small_in_memory(tmp_path, capsys):
    """ricci on dense random brackets in dimension 16 reads no curvature
    table: building one would hold about 60000 components."""
    rng = random.Random(16)
    m = 16
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                c[i][j][k] = Fraction(rng.randint(-3, 3))
                c[j][i][k] = -c[i][j][k]
    path = tmp_path / "dense16.fc"
    path.write_text(document("dense16", c, identity(m)))
    tracemalloc.start()
    try:
        code = main(["ricci", "--file", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.count(" = ") == m * m
    assert peak < 4 * 2**20


# single commands whose reports verify-paper-example joins, in its order
VERIFY_SECTIONS = [
    ("validate", "--strict"), ("connection",), ("curvature",), ("ricci",),
    ("check-contact",), ("check-sasakian",), ("check-normality",),
    ("solve-lambda", "--field", "xi", "--flavor", "conformal"),
    ("solve-lambda", "--field", "xi", "--flavor", "conformal",
     "--use-expected-ricci"),
]


def test_verify_paper_example_joins_single_commands(capsys):
    """Each section that verify-paper-example shares with a single command
    has that command's items, in order, under its subject, and the ledger
    is those commands' ledgers one after another."""
    _, out, _ = run(capsys, "verify-paper-example", "--format", "json")
    joined = json.loads(out)
    singles = []
    for cmd, *rest in VERIFY_SECTIONS:
        code, out, _ = run(capsys, cmd, "--builtin", "heisenberg5", *rest,
                           "--format", "json")
        assert code in (0, 2)
        singles.append(json.loads(out))
    code, out, _ = run(capsys, "theorem36", "--dim", "5", "--format", "json")
    assert code == 0
    singles.append(json.loads(out))
    for single in singles:
        prefix = single["subject"] + ": "
        want = [dict(item, name=prefix + item["name"]) for item in single["items"]]
        got = [item for item in joined["items"] if item["name"].startswith(prefix)]
        assert want and got == want, single["subject"]
    assert joined["ledger"] == [e for single in singles for e in single["ledger"]]


# -- files and usage errors -------------------------------------------------------------------

def test_file_input(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("manifold demo dim 3\nbracket e1 e2 = 2*e3\nmetric identity\n",
                 encoding="utf-8")
    code, out, _ = run(capsys, "connection", "--file", str(f))
    assert code == 0
    assert "nabla_e1 e2 = e3" in out


def test_parse_error_exits_3(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("manifold demo dim 3\nbracket e1 e9 = e3\nmetric identity\n",
                 encoding="utf-8")
    code, _, errtext = run(capsys, "connection", "--file", str(f))
    assert code == 3
    assert "line 2" in errtext


def test_non_utf8_file_exits_3(tmp_path):
    f = tmp_path / "binary.txt"
    f.write_bytes(b"manifold demo dim 3\n\xff\nmetric identity\n")
    proc = subprocess.run([sys.executable, "-m", "framecalc", "validate",
                           "--file", str(f)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3
    assert "cannot read" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_file_past_the_character_limit_is_refused(capsys, monkeypatch,
                                                    tmp_path):
    """--file is read in pieces until MAX_CHARS characters are passed: a
    longer file, as /dev/zero is, ends in exit 3 with one message; one at
    the limit parses."""
    text = "manifold a dim 1\nmetric identity\n"
    path = tmp_path / "a.fc"
    path.write_text(text)
    monkeypatch.setattr("framecalc.cli.MAX_CHARS", len(text))
    assert run(capsys, "validate", "--file", str(path))[0] == 0
    monkeypatch.setattr("framecalc.cli.MAX_CHARS", len(text) - 1)
    code, out, errtext = run(capsys, "validate", "--file", str(path))
    assert (code, out) == (3, "")
    assert errtext == (f"error: cannot read {path}: more than "
                       f"{len(text) - 1} characters\n")


def test_missing_file(capsys):
    code, _, errtext = run(capsys, "validate", "--file", "/nonexistent/x.txt")
    assert code == 3
    assert "cannot read" in errtext


def test_subject_flags_are_exclusive(capsys):
    code, _, errtext = run(capsys, "validate", "--builtin", "heisenberg5",
                           "--file", "x")
    assert code == 3
    assert "exactly one" in errtext
    code, _, errtext = run(capsys, "validate")
    assert code == 3


def test_unknown_builtin(capsys):
    code, _, errtext = run(capsys, "validate", "--builtin", "zzz")
    assert code == 3
    assert "abelian3" in errtext


def test_bad_flavor_and_missing_args(capsys):
    code, _, _ = run(capsys, "solve-lambda", "--builtin", "heisenberg5",
                     "--field", "xi", "--flavor", "cubic")
    assert code == 3
    code, _, _ = run(capsys, "solve-lambda", "--builtin", "heisenberg5",
                     "--flavor", "ricci")
    assert code == 3


@pytest.mark.parametrize("builtin, field, lam, want", [
    ("abelian3", "xi", "q + 1", "undeclared parameter 'q' in lambda"),
    ("heisenberg5", "q,0,0,0,0", "0", "undeclared parameter 'q' in field"),
    ("heisenberg5", "xi", "q + 1", "undeclared parameter 'q' in lambda"),
    # every component is parsed before any is checked for parameters
    ("heisenberg5", "q,1/0,0,0,0", "q + 1",
     "zero denominator at offset 0 in scalar '1/0'"),
])
def test_bad_lambda_expression(capsys, builtin, field, lam, want):
    code, out, errtext = run(capsys, "check-soliton", "--builtin", builtin,
                             "--field", field, "--flavor", "ricci",
                             "--lambda", lam)
    assert (code, out, errtext) == (3, "", f"error: {want}\n")


@pytest.mark.parametrize("text", [t for t, _ in MALFORMED_SCALARS],
                         ids=[repr(t[:12]) for t, _ in MALFORMED_SCALARS])
def test_malformed_scalar_argument_exits_3(capsys, text):
    for argv in (("--field", "xi", "--lambda", text),
                 ("--field", f"{text},0,0,0,0", "--lambda", "0")):
        code, out, errtext = run(capsys, "check-soliton", "--builtin",
                                 "heisenberg5", "--flavor", "conformal", *argv)
        assert code == 3
        assert out == ""
        assert errtext.startswith("error: ")
        assert errtext.rstrip("\n").endswith(f"in scalar {text!r}")
        assert "Traceback" not in errtext


def test_huge_exponent_does_not_hang():
    proc = subprocess.run([sys.executable, "-m", "framecalc", "check-soliton",
                           "--builtin", "heisenberg5", "--field", "xi",
                           "--flavor", "conformal", "--lambda", "p^5000000"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode in (0, 1, 3)
    assert "Traceback" not in proc.stderr


# Literals longer than MAX_DIGITS, and computed values longer than Python
# prints, end in exit 3 with a message, never in a traceback.
HUGE = "9" * 5000


def test_huge_bracket_literal_exits_3(tmp_path, capsys):
    path = tmp_path / "big.fc"
    path.write_text(f"manifold b dim 3\nbracket e1 e2 = {HUGE}*e3\n"
                    "metric identity\n")
    code, _, errtext = run(capsys, "validate", "--file", str(path))
    assert code == 3
    assert "line 2, col 17: integer literal of 5000 digits exceeds the " \
           "limit of 1000" in errtext


def test_huge_metric_literal_exits_3(tmp_path, capsys):
    path = tmp_path / "big.fc"
    path.write_text(f"manifold b dim 1\nmetric g 1 1 = 1/{HUGE}\n")
    code, _, errtext = run(capsys, "validate", "--file", str(path))
    assert code == 3
    assert "line 2, col 18: integer literal of 5000 digits" in errtext


def test_huge_frame_index_exits_3(tmp_path, capsys):
    path = tmp_path / "big.fc"
    path.write_text(f"manifold b dim 3\nbracket e1 e{HUGE} = e3\n")
    code, _, errtext = run(capsys, "validate", "--file", str(path))
    assert code == 3
    assert "line 2, col 13: integer literal of 5000 digits" in errtext


def test_huge_lambda_literal_exits_3(capsys):
    code, _, errtext = run(capsys, "check-soliton", "--builtin", "heisenberg5",
                           "--field", "xi", "--flavor", "ricci",
                           "--lambda", "1" + "0" * 5000)
    assert code == 3
    assert "integer literal of 5001 digits exceeds the limit of 1000 at offset 0" in errtext


def test_huge_df_literal_exits_3(capsys):
    code, _, errtext = run(capsys, "check-gradient", "--builtin", "heisenberg5",
                           "--df", f"0,0,{HUGE},0,0", "--flavor", "ricci",
                           "--lambda", "0")
    assert code == 3
    assert "integer literal of 5000 digits" in errtext


def test_unprintable_computed_value_exits_3(tmp_path, capsys):
    # literals within the limit whose curvature has over 4300 digits
    big = "1" + "0" * 999
    path = tmp_path / "big.fc"
    path.write_text(f"manifold b dim 3\nbracket e1 e2 = {big}*e3\n"
                    f"bracket e2 e3 = {big}*e1\nmetric g 1 1 = 1/{big}\n"
                    f"metric g 2 2 = 1\nmetric g 3 3 = {big}\n")
    code, out, errtext = run(capsys, "curvature", "--file", str(path))
    assert code == 3
    assert out == ""
    assert "a computed value has too many digits to print" in errtext


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 3


# -- process-level entry points ------------------------------------------------------------------

def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "framecalc", "theorem36",
                           "--dim", "3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "lambda = 1/2*p + 10/3" in proc.stdout


def test_help_exits_zero():
    proc = subprocess.run([sys.executable, "-m", "framecalc", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify-paper-example" in proc.stdout
