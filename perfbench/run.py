"""framecalc benchmark: one workload, one seed, one run.

Run from the root of a framecalc checkout:

  python3 perfbench/run.py --workload audit-sparse --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: cli-paper, audit-sparse, audit-dense, soliton-sweep (see
workloads.py and README.md). Every op's output is checked against answers
that do not come from framecalc.

With --trace 0 the run reports the end-to-end metrics: op_p50_ms,
op_tail_ms, ops_per_s, setup_s and peak_rss_mb. setup_s is the median of
nine fresh processes, each timed from its start to the moment its first op
could begin. With --trace 1 it reports the per-layer metrics from spans
recorded around framecalc's public functions, and the tracing overhead.
Every time is normalized by the machine-speed reference in speed.py; the
raw medians are printed beside the metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The program exits with 2, printing no
result, when the working directory holds no framecalc source tree.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8        # plus the measuring process itself: nine set-ups
IMPORT_SPAWNS = 5
RUN_LIMIT_S = 170       # the whole run, all processes included
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root: Path, seconds: float):
        self.root = root
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def spawn(self, argv: list) -> tuple:
        """Run a child in its own process group; return (start, stdout).
        On timeout the whole group is killed and waited for."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(argv[:3])} timed out")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n"
                             + err.decode(errors="replace")[-2000:])
        return start, out.decode()

    def worker(self, workload: str, seed: int, *flags: str) -> tuple:
        """(set-up time in s, normalized by the speed reference taken just
        before and after the process, and the worker's result)."""
        before = speed.reference_ms()
        start, out = self.spawn([str(HERE / "worker.py"), "--workload", workload,
                                 "--seed", str(seed), "--seconds", str(self.seconds),
                                 *flags])
        after = speed.reference_ms()
        result = json.loads(out.strip().splitlines()[-1])
        factor = speed.NOMINAL_MS / statistics.mean((before, after))
        return (result["ready"] - start) * factor, result

    def import_ms(self) -> float:
        before = speed.reference_ms()
        t0 = time.perf_counter()
        self.spawn(["-c", "import framecalc.cli"])
        wall = (time.perf_counter() - t0) * 1000
        return wall * speed.NOMINAL_MS / statistics.mean((before, speed.reference_ms()))


def tail(walls: list) -> tuple:
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based rank of the value
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(runner: Runner, workload: str, seed: int) -> dict:
    setups = [runner.worker(workload, seed, "--setup-only")[0] for _ in range(SETUP_PROBES)]
    setup, res = runner.worker(workload, seed)
    setups.append(setup)
    walls = res["walls"]
    value, pct = tail(walls)
    attempted = len(walls)
    return {
        "attempted": attempted, "failed": res["failed"], "problems": res["problems"],
        "notes": {"samples": attempted, "tail_percentile": round(pct, 2),
                  "raw_op_p50_ms": round(statistics.median(res["raw_walls"]), 4),
                  "raw_op_tail_ms": round(tail(res["raw_walls"])[0], 4),
                  "speed_reference_ms": round(statistics.median(res["speed_ms"]), 4),
                  "setup_samples_s": [round(s, 4) for s in setups],
                  "fail_ratio": res["failed"] / attempted},
        "metrics": {
            "op_p50_ms": (statistics.median(walls), "ms"),
            "op_tail_ms": (value, "ms"),
            "ops_per_s": (attempted / (sum(walls) / 1000), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["rss_mb"], "MB"),
        },
    }


def per_layer(runner: Runner, workload: str, seed: int) -> dict:
    _setup, res = runner.worker(workload, seed, "--trace")
    plain = statistics.median(res["walls"])
    traced = statistics.median(res["traced_walls"])
    metrics = {k: (v, "count" if k.endswith(("_calls", "_nnz")) else "ms")
               for k, v in res["layer_metrics"].items()}
    metrics["cli.spawn_import_ms"] = (
        statistics.median(runner.import_ms() for _ in range(IMPORT_SPAWNS)), "ms")
    metrics["bench.trace_overhead_pct"] = (100 * (traced - plain) / plain, "%")
    attempted = len(res["walls"]) + len(res["traced_walls"])
    return {"attempted": attempted, "failed": res["failed"], "problems": res["problems"],
            "notes": {"samples": len(res["traced_walls"]), "by_op": res["breakdown"],
                      "fail_ratio": res["failed"] / attempted},
            "metrics": metrics}


def report(workload: str, out: dict) -> None:
    print(f"== {workload}: attempted {out['attempted']}, failed {out['failed']}, "
          f"fail_ratio {out['notes']['fail_ratio']:.4f}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    for key, value in out["notes"].items():
        if key == "by_op":
            for label, row in sorted(value.items()):
                print(f"  by op {label}: {json.dumps(row, sort_keys=True)}")
        elif key != "fail_ratio":
            print(f"  {key}: {value}")
    for p in out["problems"]:
        print(f"  FAILED {p}")


def result_line(out: dict) -> dict:
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "framecalc" / "__init__.py").is_file():
        print(f"no framecalc source tree under {root / 'src'}; run from the "
              f"root of a framecalc checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    results = {}
    try:
        for name in names:
            runner = Runner(root, args.seconds)
            runner.import_ms()  # warm the file cache and the bytecode cache
            results[name] = measure(runner, name, args.seed)
            report(name, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({name: result_line(out) for name, out in results.items()}))
    else:
        print(json.dumps(result_line(results[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
