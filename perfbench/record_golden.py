"""Record the exit code and stdout digest of every builtin CLI call that
cli-paper makes, into cli_golden.json.

Run from the repository root:  python3 perfbench/record_golden.py

The recorded file pins the CLI output byte for byte. Re-record it only in a
change that means to alter that output, and say so in that change.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checks
import workloads


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    golden = {}
    for argv in workloads.builtin_argvs():
        proc = subprocess.run([sys.executable, "-m", "framecalc", *argv],
                              capture_output=True, env=env, cwd=root, timeout=120)
        golden[workloads.golden_key(argv)] = {"exit": proc.returncode,
                                              "sha256": checks.sha256(proc.stdout)}
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} calls into {workloads.GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
