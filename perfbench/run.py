#!/usr/bin/env python3
"""weylharm benchmark: end-to-end and per-layer metrics for four workloads.

Usage, from the root of a checkout (the package is not installed; the
benchmark puts the checkout's ``src`` on PYTHONPATH itself):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run is a sequence of whole rounds.  Each round is a fresh worker
process (cold memo caches, as every `weylharm verify` or CLI call pays)
that sets up, runs every operation of the workload once, and checks the
outputs.  Rounds repeat while another one fits in S seconds, with at
least MIN_ROUNDS.  Every time is scaled by the processor speed sampled
during the round (CAL_REF_S below).  With --trace 0 the run prints the
end-to-end metrics; with --trace 1 the workers install the span hooks of
tracer.py and the run prints the per-layer metrics.  The last line of standard output is
one JSON object; the exit status is 1 when any output check fails and 2
when the checkout holds no weylharm sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify-full", "radial-highk", "weyl-ordering", "cli-cold")
MIN_ROUNDS = 2
SETUPS = 7  # set-up measurements per untraced run, spare processes included
INTERP_SAMPLES = 5  # bare-interpreter and import timings per traced run
DEADLINE_S = 170  # a run must end within 180 s
TRACE_DIR = ".perfbench-out"
# Duration of worker.calibration_chunk that defines the reference speed:
# a time is reported as measured times CAL_REF_S over the duration of the
# chunk measured alongside it (see README, "Speed scaling").
CAL_REF_S = 0.012


class RunError(RuntimeError):
    pass


def _worker(args: list, env: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise RunError("out of time before the round could start")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args[:2] + [repr(t0)] + args[2:],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _speed(proc: dict) -> float:
    """Scale factor for a whole worker process: its mean speed sample."""
    return CAL_REF_S / statistics.mean(proc["cal_s"])


def _scaled_op(rnd: dict, i: int) -> float:
    """Operation i of a round, scaled by the speed samples on either side."""
    j = rnd["cal_before"][i]  # samples j-1 and j bracket the operation
    return rnd["op_s"][i] * CAL_REF_S * 2 / (rnd["cal_s"][j - 1] + rnd["cal_s"][j])


def _startup_times(env: dict, deadline: float) -> tuple:
    """Median wall time of a bare interpreter and of `import weylharm.cli`."""
    def median_run(code):
        times = []
        for _ in range(INTERP_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    interp = median_run("pass")
    return interp, median_run("import weylharm.cli") - interp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weylharm", "__init__.py")):
        print("perfbench: no src/weylharm here; run from the root of a weylharm checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    start = time.monotonic()
    deadline = start + DEADLINE_S
    base = [args.workload, str(args.seed)]
    trace_dir = os.path.join(root, TRACE_DIR, args.workload)
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)

    rounds: list = []
    try:
        while True:
            extra = ["--trace", os.path.join(trace_dir, f"round{len(rounds)}")] if args.trace else []
            rounds.append(_worker(base + extra, env, deadline))
            if rounds[-1]["errors"]:
                break
            elapsed = time.monotonic() - start
            if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        setups = list(rounds)
        if not args.trace:
            while len(setups) < SETUPS:
                setups.append(_worker(base + ["--setup-only"], env, deadline))
        startup = _startup_times(env, deadline) if args.trace else None
    except (RunError, subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    errors = [e for r in rounds for e in r["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    speed = [_speed(r) for r in rounds]
    failed = {i for r in rounds for i in r["failed"]}
    # every round runs the same operations: one sample per operation, its
    # median over the rounds, so the count does not depend on the round count
    per_op = sorted(statistics.median(_scaled_op(r, i) for r in rounds)
                    for i in range(len(rounds[0]["op_s"])) if i not in failed)
    raw_wall = statistics.median(r["wall_s"] for r in rounds)
    wall = statistics.median(r["wall_s"] * f for r, f in zip(rounds, speed))
    print(f"{args.workload}: {len(rounds)} rounds, {len(rounds[0]['op_s'])} operations per "
          f"round ({len(rounds[0]['failed'])} failed); median round wall {raw_wall:.4f} s "
          f"as measured, {wall:.4f} s scaled (speed factors "
          f"{', '.join(f'{f:.3f}' for f in speed)})")

    if args.trace:
        import tracer

        per_layer = [tracer.layer_metrics(r["layers"]) for r in rounds]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in per_layer), "unit": unit}
            for name, (_, unit) in per_layer[0].items()
        }
        metrics["cli.interp_s"] = {"value": startup[0], "unit": "s"}
        metrics["cli.import_s"] = {"value": startup[1], "unit": "s"}
        print(f"traced wall_s {wall:.4f} s scaled; spans in {os.path.relpath(trace_dir, root)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] * _speed(r) for r in setups),
                        "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
            # the highest percentile with ten samples beyond it
            "op_tail_ms": {"value": per_op[max(0, len(per_op) - 11)] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(r["op_s"]) for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
