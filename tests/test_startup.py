"""What one CLI call pays before it computes: importing framecalc.cli must
not pull in dataclasses, inspect or json, and must load every module whose
functions the benchmark's tracer wraps."""
import json
import subprocess
import sys

import pytest


@pytest.fixture(scope="module")
def loaded() -> set:
    """Names in sys.modules of a fresh interpreter after import framecalc.cli."""
    code = ("import sys\nimport framecalc.cli\n"
            "print('\\n'.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_avoids_heavy_stdlib_modules(loaded):
    for name in ("dataclasses", "inspect", "json"):
        assert name not in loaded, name


def test_cli_import_loads_every_traced_module(loaded):
    for name in ("catalog", "cli", "contact", "geometry", "manifold_format",
                 "reports", "scalars", "solitons"):
        assert f"framecalc.{name}" in loaded, name


def test_json_report_still_renders_in_a_fresh_process():
    proc = subprocess.run([sys.executable, "-m", "framecalc",
                           "verify-paper-example", "--format", "json"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["overall"] == "discrepancies"
