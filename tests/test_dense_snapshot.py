"""Byte-level snapshot of the file-based CLI on generated documents with
dense brackets and non-identity metrics: fractional off-diagonal metric
entries, Heisenberg frames under exact rational frame changes, a failing
Jacobi triple, metrics with a negative, a zero and a vanishing leading minor,
and an almost-contact structure that is not normal. Together they render
defect strings, ledger records and the leading-minor message.

Each call runs ``framecalc.cli.main`` in-process on a file written from
``documents()`` and is compared with the exit code and stdout sha256 stored
in ``dense_snapshot.json``. Re-record the file only in a change that means
to alter CLI output:

    PYTHONPATH=src python tests/test_dense_snapshot.py
"""
import json
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest

from frames import change_frame, document, elementary_change, heisenberg
from test_cli_snapshot import run_cli

SNAPSHOT = Path(__file__).with_name("dense_snapshot.json")


def _with_contact(name: str, n: int, steps, expect=()) -> str:
    m, c, g, xi, phi = heisenberg(n)
    A, Ainv = elementary_change(m, steps)
    return document(name, *change_frame(c, g, A, Ainv, xi, phi),
                    params=("q",), extra=expect)


def documents() -> dict:
    docs = {}
    # H_5 brackets under a fractional non-diagonal metric; the identity-frame
    # contact data then fails the metric axioms.
    m, c, _, xi, phi = heisenberg(2)
    g = [[F(2) if i == j else F(0) for j in range(m)] for i in range(m)]
    for i in range(m - 1):
        g[i][i + 1] = g[i + 1][i] = F(1, 2 + i)
    g[0][4] = g[4][0] = F(-1, 3)
    docs["frac5"] = document("frac5", c, g, xi, phi, extra=(
        'expect nabla e1 e4 = e3 source "identity-metric value"',
        'expect ricci 1 1 = -2 source "identity-metric value"',
        'expect lambda = 1/2*p + -3/5 source "identity-metric value"'))
    # Heisenberg frames written in a dense frame; every check passes.
    docs["dense5"] = _with_contact("dense5", 2, [
        ("add", 0, 1, 1), ("add", 2, 0, F(-1, 2)), ("add", 3, 2, 2),
        ("add", 4, 3, F(1, 3)), ("scale", 1, F(3, 2)), ("add", 1, 4, -1)],
        expect=('expect ricci 1 1 = -2 source "orthonormal-frame value"',
                'expect riem e1 e2 e1 = e2 source "guess"',
                'expect lambda = 1/2*p + -3/5 source "H5 value"'))
    docs["dense7"] = _with_contact("dense7", 3, [
        ("add", 0, 1, 1), ("add", 1, 2, -1), ("add", 3, 0, F(1, 2)),
        ("add", 2, 4, 1), ("add", 5, 6, F(-2, 3)), ("add", 6, 3, 1),
        ("scale", 2, 2), ("add", 4, 5, -1)])
    # dense brackets that fail the Jacobi identity, under a fractional metric
    m = 4
    c = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    for (i, j), v in {(0, 1): (0, 1, F(1, 2), 0), (0, 2): (1, 0, 0, -1),
                      (1, 2): (0, 0, 1, 2), (1, 3): (F(-1, 3), 1, 0, 0),
                      (2, 3): (1, 1, 1, 0)}.items():
        c[i][j] = [F(x) for x in v]
        c[j][i] = [-F(x) for x in v]
    g = [[F(3), F(1, 2), 0, 0], [F(1, 2), F(2), F(-1, 4), 0],
         [0, F(-1, 4), F(2), F(1, 3)], [0, 0, F(1, 3), F(1)]]
    docs["nonjacobi4"] = document("nonjacobi4", c, g)
    # invertible metrics whose second (negative) or first (zero) leading
    # minor is not positive, and a singular metric
    m, c, _, xi, phi = heisenberg(1)
    docs["indefinite3"] = document(
        "indefinite3", c, [[1, 2, 0], [2, 1, F(1, 2)], [0, F(1, 2), 1]], xi, phi)
    docs["hyperbolic3"] = document(
        "hyperbolic3", c, [[0, 1, 0], [1, 0, 0], [0, 0, 2]], xi, phi)
    docs["singular3"] = document(
        "singular3", c, [[1, 1, 0], [1, 1, 0], [0, 0, 1]], xi, phi)
    # an almost-contact metric structure on H_5 that is not normal: phi
    # takes e1 to e2 and e5 to e4, across the bracket pairs
    m, c, g, xi, _ = heisenberg(2)
    phi = [[F(0)] * m for _ in range(m)]
    for a, b in ((0, 1), (4, 3)):
        phi[b][a], phi[a][b] = F(1), F(-1)
    docs["nonnormal5"] = document("nonnormal5", c, g, xi, phi)
    return docs


def _calls(m: int) -> list:
    e1 = ",".join(["1"] + ["0"] * (m - 1))
    zeros = ",".join(["0"] * m)
    param_field = ",".join(["1", "p", "1/2"] + ["0"] * (m - 3))
    lam_flat = f"1/2*p + 1/{m}"
    return [
        ["validate"],
        ["validate", "--strict"],
        ["connection"],
        ["curvature"],
        ["ricci"],
        ["check-contact"],
        ["check-sasakian"],
        ["check-normality"],
        ["solve-lambda", "--field", "xi", "--flavor", "conformal"],
        ["solve-lambda", "--field", e1, "--flavor", "almost_conformal",
         "--use-expected-ricci"],
        ["solve-lambda", "--field", param_field, "--flavor", "ricci"],
        ["check-soliton", "--field", "xi", "--flavor", "conformal",
         "--lambda", "1/2*p + -3/5"],
        ["check-soliton", "--field", param_field, "--flavor", "almost_ricci",
         "--lambda", "p^2 + 1"],
        ["check-gradient", "--df", e1, "--dlambda", zeros,
         "--flavor", "conformal", "--lambda", lam_flat],
        ["check-gradient", "--df", zeros, "--dlambda", zeros,
         "--flavor", "ricci", "--lambda", "0"],
    ]


def snapshot_calls() -> list:
    """(key, argv with the placeholder FILE for the document path, name)."""
    out = []
    for name, text in documents().items():
        m = int(text.split()[3])
        for call in _calls(m):
            for fmt in ("text", "json"):
                argv = [call[0], "--file", "FILE", *call[1:], "--format", fmt]
                out.append((" ".join(argv).replace("FILE", name), argv, name))
    return out


def _run(argv: list, name: str, folder: Path) -> dict:
    return run_cli([str(folder / name) if a == "FILE" else a for a in argv])


def _write(folder: Path) -> Path:
    for name, text in documents().items():
        (folder / name).write_text(text)
    return folder


@pytest.fixture(scope="module")
def folder(tmp_path_factory) -> Path:
    return _write(tmp_path_factory.mktemp("dense"))


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_dense_snapshot_covers_every_call(snapshot):
    assert sorted(snapshot) == sorted(key for key, _, _ in snapshot_calls())


@pytest.mark.parametrize("key,argv,name", snapshot_calls(),
                         ids=[key for key, _, _ in snapshot_calls()])
def test_dense_cli_output_matches_snapshot(key, argv, name, folder, snapshot):
    assert _run(argv, name, folder) == snapshot[key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        folder = _write(Path(tmp))
        recorded = {key: _run(argv, name, folder)
                    for key, argv, name in snapshot_calls()}
    SNAPSHOT.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} calls into {SNAPSHOT.name}", file=sys.stderr)
