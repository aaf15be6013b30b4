"""The package is what a command reaches. Every function and method whose
source is in one of its nine modules is entered by some in-process CLI
call, or is named in ALLOWED with the reason it stays. The calls are those
of both snapshot suites, the malformed-input cases of test_cli.py, the
statement errors of test_format.py and one usage error, run under
sys.setprofile. A function that no call enters and ALLOWED does not name
fails here: give it a command, delete it, or list it with its reason.

Names that are gone stay gone: every name in README's removed-name list
raises AttributeError, and every name in framecalc.__all__ resolves. No
module imports or binds at module level a name that no line of the
package reads."""
import ast
import contextlib
import importlib
import io
import re
import sys
from pathlib import Path

import pytest

import framecalc
from frames import MALFORMED_SCALARS
from framecalc import (catalog, cli, contact, geometry, manifold_format,
                       record, reports, scalars, solitons)
from framecalc.cli import main
from test_cli import malformed_argvs
from test_cli_snapshot import snapshot_argvs
from test_dense_snapshot import _write, snapshot_calls
from test_format import STATEMENT_ERRORS

MODULES = (geometry, contact, solitons, scalars, manifold_format, cli,
           reports, record, catalog)

# Never entered by a command, each for its reason. The benchmark's audit
# and sweep workloads call the library in process (perfbench/workloads.py).
ALLOWED = {
    "geometry.FrameManifold.__init__":
        "the library's checked constructor; the parser builds M with given",
    "geometry.FrameManifold.__eq__":
        "ManifoldDocument equality reads it; the round-trip tests compare documents",
    "geometry.FrameManifold.c": "a Fraction view; the workloads read it",
    "geometry.FrameVector.from_values":
        "perfbench/workloads.py builds its fields with it",
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
    "contact.derive_phi":
        "a planned 'contact phi = -nabla xi' statement will call it",
    "solitons.soliton_residual": "the sweep workload's residual op",
    "solitons.LambdaSolve.residual":
        "perfbench/test_perfbench.py reads it and rebuilds solves with it",
    "solitons.GradientData.from_values":
        "perfbench/workloads.py builds its gradient data with it",
    "solitons.gradient_soliton_residual": "the sweep workload's gradient op",
    "solitons.check_gradient_curvature_identity":
        "the sweep workload's gradient op",
    "solitons._gradient_preamble": "the two gradient functions above open with it",
    "solitons.IntegrabilityError.__init__":
        "gradient_soliton_residual raises it for a df that is not closed",
    "scalars._operand": "runs at import, on ParamScalar's operators",
    "scalars.ParamScalar.__init__": "runs at import, for ZERO",
    "scalars.ParamScalar.param": "runs at import, for solitons.P",
    "scalars.ParamScalar.__bool__": "Python's truth test",
    "scalars.ParamScalar.__hash__": "Python's hash, for sets and dict keys",
    "scalars.ParamScalar.__str__": "Python's str()",
    "scalars.ParamScalar.__repr__": "Python's repr()",
    "manifold_format._line_pattern": "runs at import, for _LINE",
    "manifold_format.parse_vector_text":
        "the vector-grammar properties compare it with oracle.reference_vector",
    "manifold_format.render_manifold":
        "perfbench/test_perfbench.py and the round-trip tests parse what it renders",
    "cli.entry": "the console script; the calls here run main in process",
    "record.Record.__init_subclass__": "runs at import, once per record class",
    "record.Record.__eq__": "Python's ==, on a record's fields",
    "record.Record.__hash__": "Python's hash, on a record's fields",
    "record.Record.__repr__": "Python's repr(), of a record's fields",
    "record.Record._values": "the fields that __eq__ and __hash__ compare",
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
    errors = []
    for n, (text, *_) in enumerate(STATEMENT_ERRORS):
        (path := tmp_path / f"error{n}.fc").write_text(text, encoding="utf-8")
        errors.append(["validate", "--file", str(path)])
    argvs = [*snapshot_argvs(),
             *([str(folder / name) if a == "FILE" else a for a in argv]
               for _, argv, name in snapshot_calls()),
             *(argv for text, _ in MALFORMED_SCALARS
               for argv in malformed_argvs(text)),
             *errors, []]  # [], no command: a usage error
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


def test_every_import_and_module_level_name_is_read():
    """A name a module imports or binds at module level is read by a load
    of it in that module, by another module's `from .module import name`
    or `module.name`, or, in __init__, by being imported there: its imports
    are the package's exports."""
    src = Path(framecalc.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in src.glob("*.py")}
    read, bound = set(), set()
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((mod, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in trees):
                read.add((node.value.id, node.attr))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    names = {(a.asname or a.name).split(".")[0] for a in node.names}
                    bound.update((mod, name) for name in names)
                    if mod == "__init__":
                        read.update((mod, name) for name in names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add((mod, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                bound.update((mod, t.id) for t in ast.walk(node)
                             if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store))
    assert sorted(f"{mod}.{name}" for mod, name in bound - read
                  if not name.startswith("__")) == []
