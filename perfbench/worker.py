"""One round of one workload, in a fresh process.

Usage (run.py starts it; PYTHONPATH must point at the checkout's src):

    python perfbench/worker.py WORKLOAD SEED T0 [--setup-only] [--trace OUT]

T0 is ``time.monotonic()`` read by the parent just before it started this
process; on Linux that clock is system-wide, so set-up time counts the
interpreter start, the imports and the input generation.  The last line
of standard output is a JSON object with the round's results.
"""

from __future__ import annotations

import argparse
import json
import time
from fractions import Fraction

CAL_EVERY_S = 0.25  # longest stretch of operations between two speed samples


def calibration_chunk() -> Fraction:
    """A fixed piece of exact rational arithmetic, like the program's hot
    path; its duration samples the processor's current speed."""
    y = Fraction(0)
    for _ in range(4):
        x = Fraction(1, 3)
        for i in range(1, 160):
            x = x * Fraction(i, i + 2) + Fraction(1, i)
            y += x * x - Fraction(i % 7, 3)
    return y


class Recorder:
    """Times each operation, samples the processor speed between
    operations, and tags the tracer's spans with the operation index."""

    def __init__(self, tracer=None):
        self.times: list = []
        self.cal: list = []
        self.cal_before: list = []  # per operation: speed samples taken before it
        self.tracer = tracer
        self._last_cal = float("-inf")

    def calibrate(self) -> None:
        start = time.perf_counter()
        calibration_chunk()
        end = time.perf_counter()
        self.cal.append(end - start)
        self._last_cal = end

    def op(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op_id = len(self.times)
        self.cal_before.append(len(self.cal))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.times.append(end - start)
            if end - self._last_cal >= CAL_EVERY_S:
                self.calibrate()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("t0", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="path prefix for trace files")
    args = parser.parse_args()

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        rec = Recorder()
        for _ in range(3):
            rec.calibrate()
        print(json.dumps({"setup_s": setup_s, "cal_s": rec.cal}))
        return

    tracer = None
    # a workload with trace_files traces inside its child processes instead
    if args.trace is not None and not hasattr(wl, "trace_files"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rec = Recorder(tracer)
    rec.calibrate()
    start = time.perf_counter()
    outputs = wl.run(state, rec, args.trace)
    wall_s = time.perf_counter() - start - sum(rec.cal[1:])
    rec.calibrate()
    peak_rss_mb = wl.peak_rss_mb()  # before the checks allocate
    errors, failed = wl.check(state, outputs, rec)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": rec.times,
        "failed": sorted(failed),
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "cal_s": rec.cal,
        "cal_before": rec.cal_before,
    }
    if tracer is not None:
        result["layers"] = [tracer.raw()]
        tracer.write(args.trace)
    elif args.trace is not None:
        raws = []
        for prefix in wl.trace_files(state, args.trace):
            with open(prefix + ".raw.json") as fh:
                raws.append(json.load(fh))
        result["layers"] = raws
    print(json.dumps(result))


if __name__ == "__main__":
    main()
