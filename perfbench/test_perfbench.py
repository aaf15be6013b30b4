"""Self-tests of the benchmark: seeded generators, document round trips,
frame-change invariants, and that no output check is vacuous.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run
import tracing
import workloads
from framecalc import (ParamScalar, load_builtin, parse_manifold, parse_scalar,
                       render_manifold)
from framecalc.reports import CheckReport

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def ops_digest(wl, rounds: int = 2) -> list:
    out = []
    for _ in range(rounds):
        for op in wl.cycle():
            args = {k: v for k, v in op.args.items() if k not in ("frame", "want")}
            out.append((op.label, json.dumps(args, default=str, sort_keys=True)))
    return out


# -- generators ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["audit-sparse", "audit-dense", "soliton-sweep"])
def test_generators_are_deterministic_per_seed(name):
    first = ops_digest(workloads.make(name, 7, ROOT))
    assert first == ops_digest(workloads.make(name, 7, ROOT))
    assert first != ops_digest(workloads.make(name, 8, ROOT))


def test_cli_inputs_are_deterministic_per_seed():
    def texts(seed):
        wl = workloads.CliPaper(seed, ROOT)
        return [frame.text(key) for key, frame in wl.files.items()]
    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_h5_generator_matches_the_heisenberg5_builtin():
    ref = load_builtin("heisenberg5")
    doc = parse_manifold(gen.Heisenberg(2).text("h5"))
    assert doc.manifold.c == ref.manifold.c
    assert doc.contact == ref.contact


def test_unimodular_inverse_is_exact():
    rng = random.Random(1)
    for m in (3, 5, 9):
        a, ainv = gen.unimodular(m, 3 * m, rng)
        assert gen.matmul(a, ainv) == gen.identity(m)
        assert all(x.denominator == 1 for row in a + ainv for x in row)


def test_dense_frame_is_dense_and_bounded():
    rng = random.Random(2)
    for n in (2, 3):
        frame = gen.DenseFrame(gen.Heisenberg(n, rng), rng)
        assert 2 * frame.nnz >= frame.m ** 3
        assert frame.g_max <= gen.DENSE_G_MAX


# -- round trips -----------------------------------------------------------------

def documents():
    rng = random.Random(5)
    for n in range(1, 7):
        yield gen.Heisenberg(n, rng).text(f"h{2 * n + 1}")
    yield gen.Heisenberg(4, rng).text("h9", params=("q", "r"), expect=False)
    for n in (2, 3):
        yield gen.DenseFrame(gen.Heisenberg(n, rng), rng).text(f"d{2 * n + 1}")
    yield gen.abelian_text(9, "flat9")


@pytest.mark.parametrize("text", list(documents()))
def test_generated_documents_round_trip(text):
    doc = parse_manifold(text)
    assert parse_manifold(render_manifold(doc)) == doc


def test_affine_text_parses_to_the_same_form():
    rng = random.Random(9)
    for _ in range(50):
        form = gen.affine(rng, ("p", "q", "r"))
        assert checks.affine_of(parse_scalar(gen.affine_text(form))) == form


# -- the audit pipeline and its checks ---------------------------------------------

def audit(seed: int, dense: bool, m: int = 5):
    wl = workloads.Audit(seed, dense)
    op = wl._op(m)
    return op, wl.run(op)


def test_dense_frame_change_preserves_the_invariants_at_m5():
    for seed in range(3):
        op, out = audit(seed, dense=True)
        frame = op.args["frame"]
        assert gen.matmul(gen.transpose(frame.a), frame.a) == frame.g
        assert checks.check_audit(out, op.args["want"]) == []
        assert out["r"] == -4
        assert out["solve"].lam == parse_scalar("1/2*p + -3/5")


def test_sparse_audit_passes():
    for m in (5, 7):
        op, out = audit(1, dense=False, m=m)
        assert checks.check_audit(out, op.args["want"]) == []


def test_audit_check_rejects_wrong_answers():
    op, out = audit(1, dense=True)
    want = op.args["want"]
    _, other = audit(2, dense=True)
    _, h7 = audit(1, dense=False, m=7)
    failing = CheckReport("x")
    failing.add("axiom", False, "broken")
    wrong = [
        {"r": ParamScalar.rational(-3)},
        {"ric": other["ric"]},
        {"Q": other["Q"]},
        {"normality": failing},
        {"validate": failing},
        {"solve": h7["solve"]},
    ]
    for patch in wrong:
        assert checks.check_audit({**out, **patch}, want), patch
    einstein = type(out["solve"])(out["solve"].lam, out["solve"].form,
                                  "einstein_exact", out["solve"].residual)
    assert checks.check_audit({**out, "solve": einstein}, want)


# -- soliton-sweep checks ------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    wl = workloads.SolitonSweep(11)
    wl.setup()
    return wl


def test_sweep_ops_pass(sweep):
    for op in sweep.cycle():
        assert sweep.check(op, sweep.run(op)) == [], op.label


def test_sweep_checks_reject_wrong_answers(sweep):
    ops = {op.label.split()[0]: op for op in sweep.cycle() if op.label != "gradient"}
    solve = ops["solve"]
    good = sweep.run(solve)
    assert sweep.check(solve, good) == []
    shifted = type(good)(good.lam + ParamScalar.rational(1), good.form, good.status,
                         good.residual)
    assert sweep.check(solve, shifted)
    with_q = type(good)(good.lam + ParamScalar.param("q"), good.form, good.status,
                        good.residual)
    assert sweep.check(solve, with_q)
    exact = type(good)(good.lam, good.form, "einstein_exact", good.residual)
    assert sweep.check(solve, exact)

    res_op = ops["residual"]
    res = sweep.run(res_op)
    assert sweep.check(res_op, res) == []
    bumped = [list(row) for row in res]
    bumped[0][1] = bumped[0][1] + ParamScalar.param("q")
    assert sweep.check(res_op, bumped)


def test_gradient_check_rejects_wrong_answers(sweep):
    grads = [op for op in sweep.cycle() if op.label == "gradient"]
    by_shift = {op.args["shift"] == 0: op for op in grads}
    exact, shifted = by_shift[True], by_shift[False]
    res, rep = sweep.run(exact)
    assert sweep.check(exact, (res, rep)) == []
    # the exact-lambda output judged as if lambda were shifted, and back
    assert sweep.check(shifted, (res, rep))
    res2, rep2 = sweep.run(shifted)
    assert sweep.check(shifted, (res2, rep2)) == []
    assert sweep.check(exact, (res2, rep2))
    assert sweep.check(exact, (res, rep2))


# -- cli-paper checks ----------------------------------------------------------------

def cli(argv):
    proc = subprocess.run([sys.executable, "-m", "framecalc", *argv], capture_output=True,
                          cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, timeout=120)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_paper_example_check(fmt):
    argv = ["verify-paper-example", "--format", fmt]
    golden = json.loads(workloads.GOLDEN.read_text())[workloads.golden_key(argv)]
    code, out = cli(argv)
    assert checks.check_cli_golden(argv, code, out, golden) == []
    assert checks.check_cli_golden(argv, 0, out, golden)
    assert checks.check_cli_golden(argv, code, out + b" ", golden)
    assert checks.check_paper_example(code, out.replace(b"9/5", b"9/7"), fmt == "json")
    if fmt == "text":
        assert checks.check_paper_example(code, out.rsplit(b"\n", 2)[0] + b"\n", False)
    else:
        obj = json.loads(out)
        obj["ledger"].pop()
        assert checks.check_paper_example(code, json.dumps(obj).encode(), True)


def test_golden_covers_every_builtin_call():
    golden = json.loads(workloads.GOLDEN.read_text())
    keys = {workloads.golden_key(argv) for argv in workloads.builtin_argvs()}
    assert keys == set(golden)
    assert {v["exit"] for v in golden.values()} == {0, 1, 2}


def test_file_check_rejects_wrong_answers(tmp_path):
    frame = gen.Heisenberg(3, random.Random(4))
    path = tmp_path / "h7.fc"
    path.write_text(frame.text("h7"))
    code, out = cli(["solve-lambda", "--file", str(path), "--field", "xi",
                     "--flavor", "conformal"])
    needles = checks.file_needles(frame, "solve-lambda")
    assert checks.check_cli_file(code, out, 0, needles) == []
    assert checks.check_cli_file(code, out, 2, needles)
    assert checks.check_cli_file(code, out.replace(b"-5/7", b"-4/7"), 0, needles)
    code, out = cli(["ricci", "--file", str(path), "--format", "json"])
    needles = checks.file_needles(frame, "ricci")
    assert checks.check_cli_file(code, out, 0, needles) == []
    assert checks.check_cli_file(code, out.replace(b"= 6", b"= 5"), 0, needles)


# -- harness -------------------------------------------------------------------------

def test_tail_has_ten_samples_beyond_it():
    walls = list(range(1, 41))
    value, pct = run.tail(walls)
    assert sum(1 for w in walls if w > value) == 10
    assert pct == 75.0


def test_tracer_counts_and_restores():
    import framecalc
    import framecalc.geometry
    original = framecalc.geometry.levi_civita
    tracer = tracing.Tracer()
    wl = workloads.Audit(3, dense=False)
    op = wl._op(5)
    tracer.op = 0
    tracer.install()
    try:
        assert framecalc.levi_civita is not original
        wl.run(op)
    finally:
        tracer.uninstall()
    assert framecalc.levi_civita is original
    assert framecalc.geometry.levi_civita is original
    metrics, breakdown = tracer.summary([1e9], [op.label], [1.0])
    assert metrics["geometry.levi_civita_calls"] == 1
    assert metrics["geometry.conn_nnz"] == 12
    assert metrics["geometry.curv_nnz"] == 48
    assert metrics["geometry.curvature_ms"] > 0
    assert breakdown[op.label]["ops"] == 1


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "audit-sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
