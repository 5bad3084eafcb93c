"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json at the checkout root.
Each run starts worker.py in a fresh process and, untraced, nine more
set-up-only workers first: ``setup_s`` is the median time from starting a
worker to its READY line (interpreter start, library import, input
generation), normalised like every timing (see reference.py). Untraced runs print every end-to-end metric; ``--trace 1``
prints every per-layer metric instead. Either way the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the full result, stamped with the machine and the source it ran,
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0


class RunError(RuntimeError):
    pass


def _read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    remaining = deadline - time.perf_counter()
    ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0.0))
    if not ready:
        raise RunError("worker did not get ready in time")
    return proc.stdout.readline()


def _start(argv: list[str]) -> tuple[subprocess.Popen, float, float]:
    before = reference.probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, bufsize=0, cwd=ROOT)
    return proc, t0, before


def _await_ready(proc: subprocess.Popen, t0: float, before: float,
                 deadline: float) -> tuple[float, float]:
    """Normalised and raw time from start to READY."""
    if _read_line(proc, deadline) != b"READY\n":
        raise RunError(f"worker failed during set-up (exit {proc.wait()})")
    raw = time.perf_counter() - t0
    return reference.normalise(raw, before, reference.probe()), raw


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the library sources, so results from a checkout without
    git history still name the code they measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(seed: int) -> dict:
    return {"commit": _commit(), "source_sha256": _source_digest(), "seed": seed,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "loadavg_1m": os.getloadavg()[0]}


def run(args: argparse.Namespace) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_times = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, t0, before = _start(common + ["--setup-only"])
            try:
                setup_times.append(_await_ready(proc, t0, before, deadline))
            finally:
                _stop(proc)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    proc, t0, before = _start(common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace), "--trace-file", str(spans)])
    try:
        setup_times.append(_await_ready(proc, t0, before, deadline))
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"run exceeded {RUN_LIMIT_S:g} s") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RunError(f"worker exited with status {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = (statistics.median(t for t, _ in setup_times), "s")
        result["notes"]["raw_setup_s"] = statistics.median(raw for _, raw in setup_times)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one equigen benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    info = stamp(args.seed)
    try:
        result = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info["loadavg_1m_end"] = os.getloadavg()[0]
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            print(f"perfbench: {m['name']} measured in {unit}, declared {m['unit']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": unit}

    full = {"workload": args.workload, "trace": args.trace, "stamp": info,
            "notes": result["notes"], "outcome_digest": result["outcome_digest"],
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(full, fh, indent=1)
    print("stamp " + json.dumps(info))
    print("notes " + json.dumps(result["notes"]))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
