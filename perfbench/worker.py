"""One benchmark run in a fresh process: set up, print READY, run the timed
phase as a closed loop with one client, print one JSON result line.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The library is imported from ``src/`` of the checkout this file lives in and
nowhere else; without it the worker exits with a nonzero status.

The timed phase repeats passes over the seed's op plan. Each op is bracketed
by the reference kernel of reference.py and its time normalised by it; an
op's time is then the lower quartile of its normalised repeats in the run.
On a shared host the same op was measured to run up to twice as slow for
stretches of seconds to minutes: normalising removes most of a slow stretch,
and the lower quartile sheds what is left without hanging on one reading.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP_TIME_LIMIT_S = 90
MIN_PASSES = 2
# End-to-end metrics and their units; run.py adds setup_s.
E2E_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "success_ratio": "ratio", "peak_rss_mb": "MB"}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIME_LIMIT_S} s")


def import_library() -> None:
    init = SRC / "equigen" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no library source at {init}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import equigen
    if Path(equigen.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported equigen from {equigen.__file__}, not {init}")


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class OpTimes:
    """Every op's normalised times, and its fastest raw time, over the passes
    so far. An op's time is the lower quartile of its normalised repeats."""

    def __init__(self, n: int) -> None:
        self.norm: list[list[float]] = [[] for _ in range(n)]
        self.raw = [math.inf] * n

    def add(self, idx: int, norm: float, raw: float) -> None:
        self.norm[idx].append(norm)
        self.raw[idx] = min(self.raw[idx], raw)

    def times(self) -> list[float]:
        return [percentile(ts, 25) for ts in self.norm if ts]

    def raw_wall(self) -> float:
        return sum(t for t in self.raw if t != math.inf)


class Run:
    def __init__(self, workload, keys, inputs, goldens) -> None:
        self.wl = workload
        self.keys = keys
        self.inputs = inputs
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.outcomes: dict = {}   # key -> the verified record

    def run_pass(self, op_times: OpTimes, op_base: int, tracer=None) -> None:
        """One pass over the plan, each op bracketed by reference probes."""
        self.wl.start_pass()
        for idx, (key, inp) in enumerate(zip(self.keys, self.inputs)):
            self.wl.before_op(inp)
            if tracer is not None:
                tracer.begin_op(op_base + idx)
            self.attempted += 1
            before = reference.probe()
            signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
            try:
                t0 = time.perf_counter()
                out = self.wl.execute(inp)
                dt = time.perf_counter() - t0
            except Exception:
                self.failed += 1
                print(f"perfbench: op {key} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            after = reference.probe()
            rec = self.wl.record(inp, out)
            if rec == self.goldens.get(key):
                self.outcomes[key] = rec
                op_times.add(idx, reference.normalise(dt, before, after), dt)
            else:
                self.failed += 1
                print(f"perfbench: op {key} gave {rec}, golden {self.goldens.get(key)}",
                      file=sys.stderr)


def timed(run: Run, seconds: float) -> dict:
    n = len(run.keys)
    pct = run.wl.tail_pct
    op_times = OpTimes(n)
    passes = 0
    begin = time.perf_counter()
    while True:
        run.run_pass(op_times, passes * n)
        passes += 1
        if passes >= MIN_PASSES and time.perf_counter() - begin >= seconds:
            break
    elapsed = time.perf_counter() - begin
    times = op_times.times()
    if not times:
        sys.exit("perfbench: every op failed")
    tail = percentile(times, pct)
    values = {
        "wall_s": sum(times),
        "op_p50_ms": percentile(times, 50) * 1e3,
        "op_tail_ms": tail * 1e3,
        "success_ratio": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    beyond = sum(1 for t in times if t > tail)
    notes = {"passes": passes, "elapsed_s": elapsed, "raw_wall_s": op_times.raw_wall(),
             "tail": f"op_tail_ms is p{pct:g} of {len(times)} distinct ops "
                     f"(each the lower quartile of {passes} repeats); {beyond} lie beyond it"}
    return {"metrics": metrics, "notes": notes}


def traced(run: Run, seconds: float) -> tuple[dict, object]:
    """Alternate untraced and traced passes until half the run length is
    spent; per-layer figures (raw span times) come from the traced passes."""
    from tracer import LAYER_UNITS, Tracer

    n = len(run.keys)
    tracer = Tracer()
    op_times = {False: OpTimes(n), True: OpTimes(n)}
    traced_passes = 0
    begin = time.perf_counter()
    while True:
        for on in (False, True):
            if on:
                tracer.install()
            try:
                run.run_pass(op_times[on], (2 * traced_passes + on) * n, tracer if on else None)
            finally:
                if on:
                    tracer.uninstall()
        traced_passes += 1
        if time.perf_counter() - begin >= seconds / 2:
            break
    layers = tracer.layer_metrics(traced_passes)
    layers["trace.overhead_s"] = sum(op_times[True].times()) - sum(op_times[False].times())
    metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
    notes = {"traced_passes": traced_passes, "untraced_passes": traced_passes,
             "spans": len(tracer.spans)}
    return {"metrics": metrics, "notes": notes}, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", help="where to write the spans (JSON lines)")
    args = ap.parse_args(argv)

    import_library()
    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    wl = WORKLOADS[args.workload]()
    keys = wl.plan(args.seed)
    inputs = [wl.prepare(k) for k in keys]
    with open(HERE / "goldens" / f"{wl.name}.json") as fh:
        goldens = json.load(fh)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    run = Run(wl, keys, inputs, goldens)
    if args.trace:
        result, tracer = traced(run, args.seconds)
        if args.trace_file:
            tracer.write(args.trace_file)
    else:
        result = timed(run, args.seconds)
    result.update(attempted=run.attempted, failed=run.failed,
                  outcome_digest=digest(run.outcomes))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
