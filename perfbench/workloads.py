"""The four benchmark workloads.

Each workload is a closed loop with one client: the next op starts only
after the previous one has returned. ``cycle()`` returns one round of ops in
a seeded order, with their inputs already generated; every round holds the
same mix of op kinds, so runs of any length and seed measure the same mix.
``run()`` is the timed part and ``check()`` compares its output with answers
from ``checks``.

Calls into framecalc go through module attributes (``fc.levi_civita``), so
the wrappers that ``tracing`` installs see them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    label: str
    args: dict = field(default_factory=dict)


def _fc():
    """framecalc, imported on first use, so that run.py can start, and
    refuse a directory without src/, before the package is importable."""
    import framecalc
    return framecalc


# -- audit-sparse / audit-dense ------------------------------------------------

# Dimensions of one round. A 20 s run holds two rounds of either mix. The
# median and the tail percentile fall well inside one size class (m = 9 for
# sparse, m = 5 for dense), and the round time sits well between the
# lengths at which a run would switch to one or three rounds.
SPARSE_MIX = (5, 7) + (9,) * 18 + (11, 13)
DENSE_MIX = (5,) * 28 + (7, 9)


class Audit:
    """One op parses a generated H_{2n+1} document and runs the whole audit
    pipeline on it: strict validate, connection, curvature, Ricci, Ricci
    operator, scalar curvature, the five contact checks and the conformal
    lambda solve for X = xi."""

    def __init__(self, seed: int, dense: bool):
        self.dense = dense
        self.name = "audit-dense" if dense else "audit-sparse"
        self.rng = random.Random(f"{self.name}/{seed}")
        self.mix = DENSE_MIX if dense else SPARSE_MIX
        self.count = 0

    def _frame(self, m: int):
        base = gen.Heisenberg((m - 1) // 2, self.rng)
        return gen.DenseFrame(base, self.rng) if self.dense else base

    def _op(self, m: int) -> Op:
        self.count += 1
        frame = self._frame(m)
        name = f"{'d' if self.dense else 'h'}{m}_{self.count}"
        text = frame.text(name)
        return Op(f"audit m={m}", {"text": text, "frame": frame,
                                   "want": checks.audit_expectation(frame)})

    def setup(self) -> None:
        fc = _fc()
        # The n = 2 generator output must carry the heisenberg5 brackets.
        ref = fc.load_builtin("heisenberg5").manifold
        h5 = fc.parse_manifold(gen.Heisenberg(2).text("h5")).manifold
        if h5.c != ref.c:
            raise RuntimeError("generated H_5 differs from the heisenberg5 builtin")
        for m in sorted(set(self.mix)):
            op = self._op(m)
            if fc.parse_manifold(op.args["text"]).manifold.dim != m:
                raise RuntimeError(f"generated document of dimension {m} misparsed")

    def cycle(self) -> list:
        sizes = list(self.mix)
        self.rng.shuffle(sizes)
        return [self._op(m) for m in sizes]

    def run(self, op: Op) -> dict:
        fc = _fc()
        doc = fc.parse_manifold(op.args["text"])
        M, D = doc.manifold, doc.contact
        out = {"validate": fc.validate(M, strict=True)}
        conn = fc.levi_civita(M)
        R = fc.curvature(M, conn)
        ric = fc.ricci(M, R)
        out["ric"] = ric
        out["Q"] = fc.ricci_operator(M, ric)
        out["r"] = fc.scalar_curvature(M, ric)
        out["almost_contact"] = fc.check_almost_contact(M, D)
        out["sasakian"] = fc.check_sasakian(M, conn, D)
        out["normality"] = fc.check_normality(M, D)
        out["curvature_identity"] = fc.check_curvature_identity(M, R, D)
        out["reeb"] = fc.check_reeb_ricci(M, ric, D)
        xi = fc.FrameVector.from_values(D.xi)
        out["solve"] = fc.solve_lambda_trace(M, conn, ric, xi,
                                             fc.SolitonFlavor.CONFORMAL)
        return out

    def check(self, op: Op, out: dict) -> list:
        return checks.check_audit(out, op.args["want"])

    def close(self) -> None:
        pass


# -- soliton-sweep ---------------------------------------------------------------

FLAVORS = ("ricci", "almost_ricci", "conformal", "almost_conformal")
SWEEP_DIM = 9


SWEEP_GROUPS = 5


class SolitonSweep:
    """Geometry of H_9 (params q, r) and of a flat 9-dimensional frame is
    derived once in setup. One round is SWEEP_GROUPS groups of four lambda
    solves (one per flavor) for parametric fields X, two residuals with
    parametric lambda and one gradient check on the flat frame with a
    shifted lambda; plus one gradient check with lambda = p/2 + 1/9, the
    slowest op. With about 30 of those per run, the tail percentile falls
    among them rather than at their extreme."""

    name = "soliton-sweep"

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.h = gen.Heisenberg(SWEEP_DIM // 2, self.rng)

    def setup(self) -> None:
        fc = _fc()
        self.geo = {}
        texts = {"h9": self.h.text("h9", params=("q", "r"), expect=False),
                 "flat9": gen.abelian_text(SWEEP_DIM, "flat9")}
        for key, text in texts.items():
            M = fc.parse_manifold(text).manifold
            conn = fc.levi_civita(M)
            R = fc.curvature(M, conn)
            self.geo[key] = (M, conn, R, fc.ricci(M, R))
        ric = self.geo["h9"][3]
        want = self.h.ric
        if any(ric.entry(i, j) != want[i][j] for i in range(SWEEP_DIM)
               for j in range(SWEEP_DIM)):
            raise RuntimeError("H_9 Ricci tensor differs from its closed form")

    def _field(self) -> tuple:
        forms = [gen.affine(self.rng, ("q", "r")) for _ in range(SWEEP_DIM)]
        return forms, [gen.affine_text(f) for f in forms]

    def _gradient(self, shift: Fraction) -> Op:
        flavor = self.rng.choice(checks.CONFORMAL)
        lam = {"p": Fraction(1, 2), "": Fraction(1, SWEEP_DIM) + shift}
        return Op("gradient", {"flavor": flavor, "lam": gen.affine_text(lam),
                               "df": gen.random_df(self.rng, SWEEP_DIM), "shift": shift})

    def cycle(self) -> list:
        rng = self.rng
        ops = [self._gradient(Fraction(0))]
        for _ in range(SWEEP_GROUPS):
            for flavor in FLAVORS:
                forms, texts = self._field()
                ops.append(Op(f"solve {flavor}", {"flavor": flavor, "X": texts}))
            for flavor in rng.sample(FLAVORS, 2):
                forms, texts = self._field()
                lam = gen.affine(rng, ("p", "q", "r"))
                ops.append(Op("residual", {
                    "flavor": flavor, "X": texts, "lam": gen.affine_text(lam),
                    "want": checks.expected_residual(self.h, forms, lam, flavor)}))
            ops.append(self._gradient(gen.small_fraction(rng, 1, 6)))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        fc = _fc()
        a = op.args
        flavor = fc.SolitonFlavor(a["flavor"])
        if op.label == "gradient":
            M, conn, R, ric = self.geo["flat9"]
            lam = fc.parse_scalar(a["lam"])
            gd = fc.GradientData.from_values(a["df"], (0,) * SWEEP_DIM)
            res = fc.gradient_soliton_residual(M, conn, ric, gd, lam, flavor)
            rep = fc.check_gradient_curvature_identity(M, conn, R, ric, gd, lam, flavor)
            return res, rep
        M, conn, R, ric = self.geo["h9"]
        X = fc.FrameVector.from_values([fc.parse_scalar(s) for s in a["X"]])
        if op.label == "residual":
            return fc.soliton_residual(M, conn, ric, X, fc.parse_scalar(a["lam"]), flavor)
        return fc.solve_lambda_trace(M, conn, ric, X, flavor)

    def check(self, op: Op, out) -> list:
        a = op.args
        if op.label == "gradient":
            return checks.check_gradient(out[0], out[1], SWEEP_DIM, a["shift"])
        if op.label == "residual":
            return checks.check_residual(out, a["want"])
        return checks.check_solve(out, a["flavor"], SWEEP_DIM,
                                  self.h.scalar_curvature)

    def close(self) -> None:
        pass


# -- cli-paper -------------------------------------------------------------------

GOLDEN = HERE / "cli_golden.json"
PAPER = ["verify-paper-example"]

# Builtin calls of one round; each runs once with --format text and once
# with --format json. heisenberg5 gets every subcommand, and the paper
# example runs six times per format, so that it sets the tail percentile.
BUILTIN_CALLS = [
    ["validate", "--builtin", "heisenberg5", "--strict"],
    ["connection", "--builtin", "heisenberg5"],
    ["curvature", "--builtin", "heisenberg5"],
    ["ricci", "--builtin", "heisenberg5"],
    ["check-contact", "--builtin", "heisenberg5"],
    ["check-sasakian", "--builtin", "heisenberg5"],
    ["check-normality", "--builtin", "heisenberg5"],
    ["solve-lambda", "--builtin", "heisenberg5", "--field", "xi", "--flavor", "conformal"],
    ["solve-lambda", "--builtin", "heisenberg5", "--field", "xi", "--flavor", "conformal",
     "--use-expected-ricci"],
    ["check-soliton", "--builtin", "heisenberg5", "--field", "xi", "--flavor", "conformal",
     "--lambda", "1/2*p + -3/5"],
    ["check-gradient", "--builtin", "heisenberg5", "--df", "0,0,1,0,0",
     "--dlambda", "0,0,-1,0,0", "--flavor", "conformal", "--lambda", "1/2*p + 1/5"],
    ["theorem36", "--dim", "5"],
    PAPER, PAPER, PAPER, PAPER, PAPER, PAPER,
    ["validate", "--builtin", "nonjacobi3", "--strict"],
    ["ricci", "--builtin", "heisenberg3"],
    ["check-sasakian", "--builtin", "heisenberg3"],
    ["check-contact", "--builtin", "abelian3"],
    ["curvature", "--builtin", "abelian3"],
    ["check-normality", "--builtin", "abelian5"],
    ["solve-lambda", "--builtin", "heisenberg3", "--field", "1,-2,1/2", "--flavor", "ricci"],
    ["check-soliton", "--builtin", "abelian5", "--field", "1,0,0,0,0", "--flavor", "ricci",
     "--lambda", "0"],
    ["check-gradient", "--builtin", "abelian5", "--df", "1,2,0,-1,1/2",
     "--dlambda", "0,0,0,0,0", "--flavor", "almost_conformal", "--lambda", "1/2*p + 1/5"],
    ["theorem36", "--dim", "9"],
    ["validate", "--builtin", "heisenberg3", "--strict"],
    ["connection", "--builtin", "heisenberg3"],
    ["check-normality", "--builtin", "heisenberg3"],
    ["validate", "--builtin", "abelian5"],
    ["ricci", "--builtin", "abelian5"],
    ["connection", "--builtin", "nonjacobi3"],
]

# Calls on generated files: (file, command, extra args, format).
FILE_CALLS = [
    ("h7", "ricci", [], "json"),
    ("h7", "check-sasakian", [], "text"),
    ("h9", "solve-lambda", ["--field", "xi", "--flavor", "conformal"], "text"),
    ("h9", "validate", ["--strict"], "json"),
]


def builtin_argvs() -> list:
    return [argv + ["--format", fmt] for argv in BUILTIN_CALLS
            for fmt in ("text", "json")]


def golden_key(argv: list) -> str:
    return " ".join(argv)


class CliPaper:
    """One op is one ``python -m framecalc`` process. With ``inprocess``
    (the traced run) the op is ``framecalc.cli.main(argv)`` with stdout
    captured instead."""

    name = "cli-paper"

    def __init__(self, seed: int, root: Path, inprocess: bool = False):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.root = root
        self.inprocess = inprocess
        self.files = {"h7": gen.Heisenberg(3, self.rng), "h9": gen.Heisenberg(4, self.rng)}
        self.tmp = root / ".perfbench_out" / f"cli-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self) -> None:
        fc = _fc()
        if self.inprocess:
            import framecalc.cli  # noqa: F401  (imported here, not in the op)
        self.golden = json.loads(GOLDEN.read_text())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for key, frame in self.files.items():
            text = frame.text(key)
            fc.parse_manifold(text)
            path = self.tmp / f"{key}.fc"
            path.write_text(text)
            self.paths[key] = str(path)

    def cycle(self) -> list:
        ops = [Op(f"cli {argv[0]}", {"argv": argv, "golden": self.golden[golden_key(argv)]})
               for argv in builtin_argvs()]
        for key, command, extra, fmt in FILE_CALLS:
            argv = [command, "--file", self.paths[key], *extra, "--format", fmt]
            ops.append(Op(f"cli {command} --file {key}", {
                "argv": argv, "needles": checks.file_needles(self.files[key], command)}))
        self.rng.shuffle(ops)
        return ops

    def run(self, op: Op) -> tuple:
        argv = op.args["argv"]
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sys.modules["framecalc.cli"].main(argv)
            return code, out.getvalue().encode()
        proc = subprocess.run([sys.executable, "-m", "framecalc", *argv],
                              capture_output=True, env=self.env, cwd=self.root,
                              timeout=60)
        return proc.returncode, proc.stdout

    def check(self, op: Op, out: tuple) -> list:
        code, stdout = out
        if "golden" in op.args:
            return checks.check_cli_golden(op.args["argv"], code, stdout, op.args["golden"])
        return checks.check_cli_file(code, stdout, 0, op.args["needles"])

    def close(self) -> None:
        for path in self.tmp.glob("*.fc"):
            path.unlink()
        with contextlib.suppress(OSError):
            self.tmp.rmdir()


def make(name: str, seed: int, root: Path, inprocess: bool = False):
    if name == "cli-paper":
        return CliPaper(seed, root, inprocess)
    if name in ("audit-sparse", "audit-dense"):
        return Audit(seed, dense=name == "audit-dense")
    if name == "soliton-sweep":
        return SolitonSweep(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cli-paper", "audit-sparse", "audit-dense", "soliton-sweep")
