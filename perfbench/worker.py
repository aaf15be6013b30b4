"""One workload in one fresh process: set up, then time ops in a closed loop.

Started by run.py from the root of a checkout, with src/ on PYTHONPATH:

  python3 perfbench/worker.py --workload NAME --seed N --seconds S [--setup-only | --trace]

Prints one JSON object as its last line. ``ready`` is the CLOCK_MONOTONIC
time at which setup ended and the first op could start; run.py subtracts
the time at which it started this process.

A run goes round after round of ``Workload.cycle()`` and stops at a round
boundary, when the time used plus half a round reaches the requested
seconds, so every run measures whole rounds of the same op mix. Between
ops, at most every 0.1 s, the speed reference (``speed.py``) is timed;
each op's wall time is normalized by the samples around it, and the time
used is counted at the nominal speed too. With
``--trace`` every op runs once without and once with the span wrappers.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

OP_TIMEOUT_S = 60.0
RAW_CAP = 1.3


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def timed(wl, op) -> tuple:
    """Run one op; return its wall time in ms, its (start, end) on the
    perf_counter clock and its list of problems."""
    t0 = time.perf_counter()
    try:
        out, bad = wl.run(op), None
    except Exception as exc:  # a failed op is counted, not fatal
        out, bad = None, [f"raised {type(exc).__name__}: {exc}"]
    t1 = time.perf_counter()
    wall = t1 - t0
    if bad is None:
        try:
            bad = wl.check(op, out)
        except Exception as exc:
            bad = [f"check raised {type(exc).__name__}: {exc}"]
    if wall > OP_TIMEOUT_S:
        bad.append(f"took {wall:.1f} s")
    return wall * 1000, (t0, t1), bad


def closed_loop(wl, seconds: float, tracer: tracing.Tracer | None = None) -> dict:
    """Run rounds of ops for about ``seconds`` and check every output.
    Wall times are returned raw and normalized by the speed reference
    sampled between ops. With a tracer, each op runs twice, without and with
    the span wrappers, in alternating order, so that drift in machine speed
    cancels out of the tracing overhead."""
    walls, traced, labels, problems = [], [], [], []
    intervals = {False: [], True: []}
    sampler = speed.Sampler()
    failed = 0
    start = monotonic()
    rounds = 0
    while True:
        for op in wl.cycle():
            if tracer is None:
                modes = (False,)
            else:
                tracer.op = len(walls)
                modes = (False, True) if len(walls) % 2 == 0 else (True, False)
            for on in modes:
                sampler.maybe_sample()
                if on:
                    tracer.install()
                try:
                    wall, interval, bad = timed(wl, op)
                finally:
                    if on:
                        tracer.uninstall()
                (traced if on else walls).append(wall)
                intervals[on].append(interval)
                if bad:
                    failed += 1
                    if len(problems) < 5:
                        problems.append(f"{op.label}: {'; '.join(bad)}")
            labels.append(op.label)
        rounds += 1
        used = monotonic() - start
        # Time is counted at the nominal machine speed, so that a run holds
        # the same number of rounds however fast the machine is just now;
        # wall time is capped at RAW_CAP times the requested seconds.
        nominal = used * speed.NOMINAL_MS / statistics.median(sampler.values)
        if (nominal + 0.5 * nominal / rounds >= seconds
                or used + 0.5 * used / rounds >= RAW_CAP * seconds):
            break
    sampler.maybe_sample(force=True)
    factors = {on: [sampler.factor(*iv) for iv in intervals[on]] for on in intervals}
    return {"raw_walls": walls,
            "walls": [w * f for w, f in zip(walls, factors[False])],
            "traced_walls": [w * f for w, f in zip(traced, factors[True])],
            "traced_factors": factors[True], "labels": labels,
            "speed_ms": sampler.values, "failed": failed, "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()

    wl = workloads.make(args.workload, args.seed, root, inprocess=args.trace)
    try:
        wl.setup()
        ready = monotonic()
        result = {"ready": ready}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        if not args.trace:
            result.update(closed_loop(wl, args.seconds))
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli-paper"
                   else resource.RUSAGE_SELF)
            result["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
            print(json.dumps(result))
            return 0

        tracer = tracing.Tracer()
        result.update(closed_loop(wl, args.seconds, tracer))
        metrics, breakdown = tracer.summary(result["traced_walls"], result["labels"],
                                            result["traced_factors"])
        tracer.write(root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     result["labels"])
        result.update(layer_metrics=metrics, breakdown=breakdown)
        print(json.dumps(result))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
