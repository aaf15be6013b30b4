"""The library is what a command reaches. Every function and method whose
source is in geometry, contact or solitons is entered by some in-process
CLI call, or is named in ALLOWED with the reason it stays. The calls are
those of both snapshot suites and the malformed-input cases of
test_cli.py, run under sys.setprofile. A function that no call enters and
ALLOWED does not name fails here: give it a command, delete it, or list it
with its reason.

Names that are gone stay gone: every name in README's removed-name list
raises AttributeError, and every name in framecalc.__all__ resolves."""
import contextlib
import importlib
import io
import re
import sys
from pathlib import Path

import pytest

import framecalc
from frames import MALFORMED_SCALARS
from framecalc import contact, geometry, solitons
from framecalc.cli import main
from test_cli import malformed_argvs
from test_cli_snapshot import snapshot_argvs
from test_dense_snapshot import _write, snapshot_calls

MODULES = (geometry, contact, solitons)

# Never entered by a command, each for its reason. The benchmark's audit
# and sweep workloads call the library in process (perfbench/workloads.py).
ALLOWED = {
    "geometry.FrameManifold.__init__":
        "the library's checked constructor; the parser builds M with given",
    "geometry.FrameManifold.__eq__":
        "ManifoldDocument equality reads it; the round-trip tests compare documents",
    "geometry.FrameManifold.brackets": "a Fraction view; M.c and tests read it",
    "geometry.FrameManifold.c": "a Fraction view; the workloads read it",
    "geometry.FrameManifold.g": "a Fraction view; tests and the oracle read it",
    "geometry.FrameManifold.g_cols": "a Fraction view; M.g and tests read it",
    "geometry.FrameManifold.g_inv": "a Fraction view; tests and the oracle read it",
    "geometry.divided_columns": "builds the Fraction views of g, g^{-1} and phi",
    "geometry.dense": "builds the dense views M.g, M.g_inv and D.phi",
    "geometry.ConnectionTable.koszul": "a Fraction view; tests read it",
    "geometry.ConnectionTable.nonzero":
        "perfbench/tracing.py counts conn_nnz through it",
    "geometry.CurvatureTensor.nonzero":
        "perfbench/tracing.py counts curv_nnz through it",
    "geometry.RicciTensor.entry":
        "perfbench/checks.py reads the audit's Ricci tensor with it",
    "geometry.ricci_operator": "the audit workloads read Q",
    "geometry.matrix_of":
        "builds the matrices of ricci_operator and the soliton residuals",
    "geometry.covariant_derivative_endo":
        "perfbench/tracing.py looks it up by name",
    "contact.AlmostContactData.phi_cols":
        "a Fraction view; D.phi and tests read it",
    "contact.AlmostContactData.phi":
        "a Fraction view; record equality and tests read it",
    "contact.derive_phi":
        "a planned 'contact phi = -nabla xi' statement will call it",
    "solitons.soliton_residual": "the sweep workload's residual op",
    "solitons.LambdaSolve.residual":
        "perfbench/test_perfbench.py reads it and rebuilds solves with it",
    "solitons.gradient_soliton_residual": "the sweep workload's gradient op",
    "solitons.check_gradient_curvature_identity":
        "the sweep workload's gradient op",
    "solitons._gradient_preamble": "the two gradient functions above open with it",
    "solitons.IntegrabilityError.__init__":
        "gradient_soliton_residual raises it for a df that is not closed",
}

README = Path(__file__).resolve().parents[1] / "README.md"
REMOVED_HEAD = "Helpers that nothing in the package called are removed; use instead:"


def defined(module) -> dict:
    """{code object: "module.name"} of the functions whose source is in
    module: its functions, and per class its methods, class and static
    methods, properties and cached properties."""
    short = module.__name__.rsplit(".", 1)[1]
    out = {}
    for name, value in vars(module).items():
        members = (vars(value).items() if isinstance(value, type)
                   and value.__module__ == module.__name__ else [(None, value)])
        for attr, member in members:
            for fn in (member, getattr(member, "__func__", None),
                       getattr(member, "fget", None), getattr(member, "func", None)):
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    out[code] = f"{short}.{name}" + (f".{attr}" if attr else "")
    return out


def entered(argvs) -> set:
    """The code objects entered while main runs each argv."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)
    out, err = io.StringIO(), io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in argvs:
                main(list(argv))
    finally:
        sys.setprofile(None)
    return seen


def test_every_function_a_command_does_not_reach_is_allowed(tmp_path):
    folder = _write(tmp_path)
    argvs = [*snapshot_argvs(),
             *([str(folder / name) if a == "FILE" else a for a in argv]
               for _, argv, name in snapshot_calls()),
             *(argv for text, _ in MALFORMED_SCALARS
               for argv in malformed_argvs(text))]
    seen = entered(argvs)
    unreached = {name for module in MODULES
                 for code, name in defined(module).items() if code not in seen}
    # (unreached and not allowed, allowed but reached)
    assert (sorted(unreached - ALLOWED.keys()),
            sorted(ALLOWED.keys() - unreached)) == ([], [])


def removed_names() -> list:
    """(module, dotted name) of each `module.name` that opens a bullet of
    README's removed-name list."""
    section = README.read_text().split(REMOVED_HEAD, 1)[1].split("\n\n")[1]
    heads = [item.split(": ", 1)[0] for item in section.split("\n- ")]
    return [found for head in heads
            for found in re.findall(r"`(\w+)\.([\w.]+)`", head)]


def resolve(owner, dotted: str):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_readme_lists_the_removed_names():
    names = removed_names()
    assert ("geometry", "FrameManifold.from_brackets") in names
    assert ("solitons", "check_lambda_f_constant") in names
    assert len(names) >= 45


@pytest.mark.parametrize("module, dotted", removed_names(),
                         ids=lambda x: x)
def test_a_removed_name_stays_removed(module, dotted):
    for owner in (importlib.import_module(f"framecalc.{module}"), framecalc):
        with pytest.raises(AttributeError):
            resolve(owner, dotted)


def test_every_exported_name_resolves():
    assert len(set(framecalc.__all__)) == len(framecalc.__all__)
    for name in framecalc.__all__:
        getattr(framecalc, name)
