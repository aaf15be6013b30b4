"""Acceptance suite: one test per shipped guarantee, every comparison exact.

Each test prints a single "criterion N ...: pass" line on success so a
verbose run reads as a checklist. Numbering is stable and referenced from
the README.
"""
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import oracle
from frames import dense_curvature, dense_of
from framecalc.catalog import FIXTURES, builtin_names, load_builtin
from framecalc.cli import main
from framecalc.contact import check_curvature_identity, check_reeb_ricci
from framecalc.geometry import FrameVector, curvature, levi_civita, ricci
from framecalc.manifold_format import parse_manifold, render_manifold
from framecalc.reports import CheckReport
from framecalc.scalars import ParamScalar
from framecalc.solitons import (GradientData, SolitonFlavor,
                                check_gradient_curvature_identity,
                                check_lambda_f_constant,
                                concurrent_soliton_constants,
                                gradient_soliton_residual)

P = ParamScalar.param("p")
JACOBI_NAMES = ("heisenberg5", "heisenberg3", "abelian3", "abelian5")


def done(n: int, label: str) -> None:
    print(f"criterion {n} ({label}): pass")


def cli_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def vec(*coeffs) -> FrameVector:
    return FrameVector.from_values([Fraction(c) for c in coeffs])


def test_criterion_01_koszul_reproduction(capsys):
    conn = levi_civita(load_builtin("heisenberg5").manifold)
    assert conn.entry(0, 1) == vec(0, 0, 1, 0, 0)    # nabla_e1 e2 = e3
    assert conn.entry(1, 0) == vec(0, 0, -1, 0, 0)   # nabla_e2 e1 = -e3
    assert conn.entry(0, 2) == vec(0, -1, 0, 0, 0)   # nabla_e1 e3 = -e2
    assert conn.entry(2, 0) == vec(0, -1, 0, 0, 0)   # nabla_e3 e1 = -e2
    assert conn.entry(3, 4) == vec(0, 0, 1, 0, 0)    # nabla_e4 e5 = e3
    assert conn.entry(3, 2) == vec(0, 0, 0, 0, -1)   # nabla_e4 e3 = -e5
    assert conn.entry(2, 4) == vec(0, 0, 0, 1, 0)    # nabla_e3 e5 = e4

    code, obj = cli_json(capsys, "connection", "--builtin", "heisenberg5")
    assert code == 2
    assert len(obj["ledger"]) == 1
    entry = obj["ledger"][0]
    assert entry["expected"] == "nabla_e1 e2 = e1"
    assert entry["computed"] == "nabla_e1 e2 = e3"
    done(1, "koszul reproduction with one ambiguous-entry ledger record")


def test_criterion_02_sasakian_verification(capsys):
    for cmd in ("check-contact", "check-sasakian", "check-normality"):
        code, obj = cli_json(capsys, cmd, "--builtin", "heisenberg5")
        assert code == 0, cmd
        assert obj["overall"] == "pass", cmd

    doc = load_builtin("heisenberg5")
    M, D = doc.manifold, doc.contact
    R = curvature(M, levi_civita(M))
    assert check_curvature_identity(M, R, D).overall == "pass"
    reeb = check_reeb_ricci(M, ricci(M, R), D)
    assert reeb.overall == "pass"
    assert reeb.items[0].name == "ric(xi, Z) = 4 eta(Z)"
    done(2, "sasakian structure verified on heisenberg5")


def test_criterion_03_ricci_reproduction_with_errata(capsys):
    code, obj = cli_json(capsys, "ricci", "--builtin", "heisenberg5")
    assert code == 2

    M = load_builtin("heisenberg5").manifold
    ric = ricci(M, curvature(M, levi_civita(M)))
    for j in range(5):
        for k in range(5):
            if j != k:
                assert ric.entry(j, k).is_zero()
    assert ric.entry(0, 0).constant_value() == -2
    assert ric.entry(2, 2).constant_value() == 4
    assert ric.entry(0, 0) == ric.entry(1, 1)
    assert ric.entry(3, 3) == ric.entry(4, 4)

    assert len(obj["ledger"]) == 3
    assert {(e["expected"], e["computed"]) for e in obj["ledger"]} == {
        ("ric[2][2] = 3", "ric[2][2] = -2"),
        ("ric[4][4] = 4", "ric[4][4] = -2"),
        ("ric[5][5] = -1", "ric[5][5] = -2"),
    }
    done(3, "ricci diag(-2,-2,4,-2,-2) with exactly three errata records")


def test_criterion_04_lambda_solve_both_ways(capsys):
    code, obj = cli_json(capsys, "solve-lambda", "--builtin", "heisenberg5",
                         "--field", "0,0,1,0,0", "--flavor", "conformal",
                         "--use-expected-ricci")
    assert code == 0
    assert any(i["name"] == "lambda = 1/2*p + 9/5" for i in obj["items"])

    code, obj = cli_json(capsys, "solve-lambda", "--builtin", "heisenberg5",
                         "--field", "0,0,1,0,0", "--flavor", "conformal")
    assert code == 2
    assert any(i["name"] == "lambda = 1/2*p + -3/5" for i in obj["items"])
    assert len(obj["ledger"]) == 1
    entry = obj["ledger"][0]
    assert entry["expected"] == \
        "lambda = 1/2*p + 9/5 [trace: 10*lambda = 5*p + 18]"
    assert entry["computed"] == \
        "lambda = 1/2*p + -3/5 [trace: 10*lambda = 5*p + -6]"
    done(4, "lambda = p/2 + 9/5 with declared ricci, p/2 - 3/5 from the engine")


def test_criterion_05_tensor_identity_suites():
    # The torsion, compatibility, and antisymmetry identities hold for any
    # antisymmetric bracket table; the interchange (pair) symmetry and first
    # Bianchi identity are theorems only under the Jacobi identity, so on the
    # deliberately Jacobi-violating fixture the suite pins the exact defect
    # (the bracket Jacobiator) instead. The engine's Gamma and R tables are
    # read as dense lists and lowered with the oracle.
    for name in builtin_names():
        M = load_builtin(name).manifold
        m = M.dim
        conn = levi_civita(M)
        R = curvature(M, conn)
        gamma, Rd = dense_of(conn.gamma, m), dense_curvature(R.comp, m)
        Rl = oracle.lower(Rd, M.g)
        for i, j in product(range(m), repeat=2):
            assert [a - b for a, b in zip(gamma[i][j], gamma[j][i])] == list(M.c[i][j])
            for k in range(m):
                d = (oracle.g_of(M.g, gamma[k][i], oracle.basis(m, j))
                     + oracle.g_of(M.g, oracle.basis(m, i), gamma[k][j]))
                assert d == 0, (name, "compatibility", k, i, j)
                assert Rd[i][j][k] == [-x for x in Rd[j][i][k]]
                for l in range(m):
                    assert Rl[i][j][k][l] == -Rl[i][j][l][k]
        for i, j, k in product(range(m), repeat=3):
            bianchi = [sum(t) for t in zip(Rd[i][j][k], Rd[j][k][i], Rd[k][i][j])]
            if name in JACOBI_NAMES:
                assert bianchi == [0] * m, (name, "bianchi", i, j, k)
                for l in range(m):
                    assert Rl[i][j][k][l] == Rl[k][l][i][j], \
                        (name, "pair symmetry", i, j, k, l)
            else:
                jac = [sum(t) for t in zip(
                    oracle.bracket(M.c, oracle.basis(m, i), M.c[j][k]),
                    oracle.bracket(M.c, oracle.basis(m, j), M.c[k][i]),
                    oracle.bracket(M.c, oracle.basis(m, k), M.c[i][j]))]
                assert bianchi == jac, (name, i, j, k)
    done(5, "tensor identities at every index tuple on every fixture")


def test_criterion_06_concurrent_constants_pipeline(capsys):
    code, obj = cli_json(capsys, "theorem36", "--dim", "5")
    assert code == 0
    names = [i["name"] for i in obj["items"]]
    assert "lambda = 1/2*p + 26/5" in names
    assert "einstein constant = 4" in names
    assert "classification: conditional (shrinking iff p > -52/5)" in names

    for m in (3, 5, 7, 9):
        r = concurrent_soliton_constants(m)
        assert r.lam == (P * m + 2 * m * m + 2) / ParamScalar.rational(2 * m)
        assert r.einstein_constant == m - 1
        assert r.classification.threshold == Fraction(-(2 * m * m + 2), m)
    done(6, "closed-form soliton constants and the symbolic lambda identity")


def random_df(rng, m):
    out = []
    for _ in range(m):
        den = rng.randint(1, 10)
        out.append(Fraction(rng.randint(-10 * den, 10 * den), den))
    return tuple(out)


def test_criterion_07_gradient_suite_on_abelian_fixtures():
    rng = random.Random(73)
    for name, count in (("abelian3", 50), ("abelian5", 50)):
        doc = load_builtin(name)
        M = doc.manifold
        m = M.dim
        conn = levi_civita(M)
        R = curvature(M, conn)
        ric = ricci(M, R)
        lam = P / 2 + Fraction(1, m)
        # flat fixture: the identity's two sides must both be identically zero
        assert all(v.is_zero() for i in range(m) for j in range(m)
                   for k in range(m) for v in [R.entry(i, j, k)])
        for _ in range(count):
            df = random_df(rng, m)
            gd = GradientData.from_values(df, (0,) * m)
            res = gradient_soliton_residual(M, conn, ric, gd, lam,
                                            SolitonFlavor.CONFORMAL)
            assert all(e.is_zero() for row in res for e in row), (name, df)
            rep = check_gradient_curvature_identity(M, conn, R, ric, gd, lam,
                                                    SolitonFlavor.CONFORMAL)
            assert rep.overall == "pass", (name, df)
    done(7, "zero gradient residual and curvature identity, 100 random df")


def test_criterion_08_constancy_iff_with_perturbations():
    rng = random.Random(74)
    M = load_builtin("heisenberg5").manifold
    for _ in range(100):
        df = random_df(rng, 5)
        gd = GradientData.from_values(df, tuple(-x for x in df))
        assert check_lambda_f_constant(M, gd).overall == "pass"
        idx = rng.randrange(5)
        delta = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        if rng.random() < 0.5:
            bumped_df = list(gd.df)
            bumped_df[idx] += delta
            bad = GradientData(tuple(bumped_df), gd.dlambda)
        else:
            bumped_dl = list(gd.dlambda)
            bumped_dl[idx] -= delta
            bad = GradientData(gd.df, tuple(bumped_dl))
        assert check_lambda_f_constant(M, bad).overall == "fail"
    done(8, "df + dlambda = 0 iff-check under 100 paired perturbations")


def test_criterion_09_oracle_equivalence():
    for name in builtin_names():
        M = load_builtin(name).manifold
        m = M.dim
        c = [[[Fraction(M.c[i][j][k]) for k in range(m)] for j in range(m)]
             for i in range(m)]
        g = [[Fraction(M.g[i][j]) for j in range(m)] for i in range(m)]
        gamma = oracle.naive_koszul(c, g)
        R_o = oracle.naive_curvature(c, gamma)
        conn = levi_civita(M)
        R = curvature(M, conn)
        for i in range(m):
            for j in range(m):
                assert conn.entry(i, j).rational_coeffs() == tuple(gamma[i][j]), \
                    (name, i, j)
                for k in range(m):
                    assert R.entry(i, j, k).rational_coeffs() == \
                        tuple(R_o[i][j][k]), (name, i, j, k)
    done(9, "independent naive oracle agrees entry-for-entry on all fixtures")


def test_criterion_10_roundtrip_and_determinism():
    for name in builtin_names():
        doc = parse_manifold(FIXTURES[name])
        text = render_manifold(doc)
        doc2 = parse_manifold(text)
        assert doc2.manifold == doc.manifold, name
        assert doc2.contact == doc.contact, name
        assert doc2.expected == doc.expected, name
        assert render_manifold(doc2) == text, name

    runs = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "framecalc", "verify-paper-example",
             "--format", "json"],
            capture_output=True)
        assert proc.returncode == 2
        runs.append(proc.stdout)
    assert runs[0] == runs[1] == runs[2]
    obj = json.loads(runs[0])
    assert obj["overall"] == "discrepancies"
    assert len(obj["ledger"]) == 9
    done(10, "parse/emit fixpoint and byte-identical json across 3 runs")
