"""Byte-level snapshot of the CLI: every subcommand that takes a builtin,
on all five builtins, in text and json, plus the subject-free commands.

Each call runs ``framecalc.cli.main`` in-process and is compared with the
exit code and stdout sha256 stored in ``cli_snapshot.json``. Re-record the
file only in a change that means to alter CLI output:

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from framecalc.catalog import builtin_names, load_builtin
from framecalc.cli import main

SNAPSHOT = Path(__file__).with_name("cli_snapshot.json")


def _subject_calls(name: str) -> list:
    doc = load_builtin(name)
    m = doc.manifold.dim
    xi_or_e1 = "xi" if doc.contact is not None else ",".join(["1"] + ["0"] * (m - 1))
    param_field = ",".join(["1", "p", "1/2"] + ["0"] * (m - 3))
    df_e1 = ",".join(["1"] + ["0"] * (m - 1))
    zeros = ",".join(["0"] * m)
    df_e3 = ",".join(["0", "0", "1"] + ["0"] * (m - 3))
    dl_e3 = ",".join(["0", "0", "-1"] + ["0"] * (m - 3))
    lam_flat = f"1/2*p + 1/{m}"
    calls = [
        ["validate"],
        ["validate", "--strict"],
        ["connection"],
        ["curvature"],
        ["ricci"],
        ["check-contact"],
        ["check-sasakian"],
        ["check-normality"],
        ["solve-lambda", "--field", "xi", "--flavor", "conformal"],
        ["solve-lambda", "--field", xi_or_e1, "--flavor", "almost_conformal",
         "--use-expected-ricci"],
        ["solve-lambda", "--field", param_field, "--flavor", "ricci"],
        ["solve-lambda", "--field", param_field, "--flavor", "almost_ricci"],
        ["check-soliton", "--field", xi_or_e1, "--flavor", "conformal",
         "--lambda", "1/2*p + -3/5"],
        ["check-soliton", "--field", param_field, "--flavor", "almost_ricci",
         "--lambda", "p^2 + 1"],
        ["check-gradient", "--df", df_e1, "--dlambda", zeros,
         "--flavor", "conformal", "--lambda", lam_flat],
        ["check-gradient", "--df", df_e3, "--dlambda", dl_e3,
         "--flavor", "almost_conformal", "--lambda", lam_flat],
        ["check-gradient", "--df", df_e1, "--flavor", "ricci", "--lambda", "0"],
    ]
    return [[c[0], "--builtin", name, *c[1:]] for c in calls]


def snapshot_argvs() -> list:
    calls = [c for name in builtin_names() for c in _subject_calls(name)]
    calls += [["theorem36", "--dim", d] for d in ("3", "5", "9", "4")]
    calls.append(["verify-paper-example"])
    return [c + ["--format", fmt] for c in calls for fmt in ("text", "json")]


def run_cli(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _key(argv: list) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_call(snapshot):
    assert sorted(snapshot) == sorted(_key(a) for a in snapshot_argvs())


@pytest.mark.parametrize("argv", snapshot_argvs(), ids=_key)
def test_cli_output_matches_snapshot(argv, snapshot):
    assert run_cli(argv) == snapshot[_key(argv)]


if __name__ == "__main__":
    recorded = {_key(a): run_cli(a) for a in snapshot_argvs()}
    SNAPSHOT.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} calls into {SNAPSHOT.name}", file=sys.stderr)
