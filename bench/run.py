"""Benchmark of the catruler package: one workload, one seed, one process.

    python3 bench/run.py --workload scan|oracle|threshold --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  A
run is a closed loop with one caller: after an untimed warm-up round it
repeats the workload's operation in whole rounds until `--seconds` have
passed, timing each operation on its own.  With `--trace 0` it reports
the end-to-end metrics (`op_s`, `setup_s`, `peak_rss_mb`); with
`--trace 1` it runs half the time untraced and half traced and reports
the per-layer metrics and the tracing overhead.  A `run-record` line
(versions, CPU count, BLAS threads, load and CPU steal over the run,
operation-time quartiles) precedes the last line, which is the result:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Outputs, records and span files go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# One BLAS/OpenMP thread: on two vCPUs a second thread only adds
# contention (see README).  Set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is measured this many times per run (this process plus children).
SETUP_SAMPLES = 3
# Timing slots reserved and touched before the loop, so that the run's
# peak memory does not grow with the number of operations it completes.
TIMING_SLOTS = 1 << 20


def process_age() -> float:
    """Seconds since this process started (10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> tuple[int, int]:
    """(steal ticks, all ticks) summed over the machine's CPUs."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def load_average() -> list[float]:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(v) for v in fh.read().split()[:3]]


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
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


def quantiles(values) -> dict[str, float]:
    """Median and quartiles; p90 only with at least 40 samples."""
    values = sorted(values)
    if len(values) < 2:
        return {"median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    out = {"q1": q1, "median": q2, "q3": q3}
    if len(values) >= 40:
        out["p90"] = statistics.quantiles(values, n=10)[8]
    return out


class Loop:
    """The timed closed loop: whole rounds of one workload's operation."""

    def __init__(self, workload):
        self.workload = workload
        self.timings = array("d", [0.0]) * TIMING_SLOTS
        self.n = 0
        self.error_shown = False

    def run(self, seconds: float, tracer=None) -> slice:
        """Run whole rounds until `seconds` have passed; return the slice
        of `timings` this call filled."""
        first = self.n
        deadline = time.perf_counter() + seconds
        while True:
            for _ in range(self.workload.round_size):
                if self.n == len(self.timings):
                    self.timings.extend(array("d", [0.0]) * self.n)
                if tracer is not None:
                    tracer.op = self.n
                start = time.perf_counter()
                try:
                    result = self.workload.op(self.n)
                except Exception as exc:  # a failed operation, counted by the check
                    result = exc
                self.timings[self.n] = time.perf_counter() - start
                if isinstance(result, Exception) and not self.error_shown:
                    self.error_shown = True
                    traceback.print_exception(result, file=sys.stderr)
                self.workload.check(self.n, result)
                self.n += 1
            if time.perf_counter() >= deadline:
                return slice(first, self.n)


def setup_samples(args) -> list[float]:
    """Set-up time of child processes that prepare the same run and stop
    at its first timed operation."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("scan", "oracle", "threshold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare and warm up, print the set-up time and stop")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "catruler" / "__init__.py").is_file():
        print(f"no catruler package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np
    import scipy

    import tracing
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    steal0, ticks0 = cpu_ticks()
    load0 = load_average()

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        workload.warm_up()
        loop = Loop(workload)
        setup_s = process_age()
        if args.setup_only:
            print(repr(setup_s))
            return 0

        if args.trace:
            untraced = loop.run(args.seconds / 2)
            tracer = tracing.Tracer()
            bytes_before = workload.bytes_written
            tracer.install()
            try:
                traced = loop.run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            n_traced = traced.stop - traced.start
            metrics = tracer.layer_metrics(n_traced)
            metrics["cli.bytes_written"] = (workload.bytes_written - bytes_before) / n_traced
            untraced_median = statistics.median(loop.timings[untraced])
            traced_median = statistics.median(loop.timings[traced])
            metrics["trace.overhead"] = traced_median / untraced_median - 1.0
            tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.csv")
            units = dict(tracing.layer_metric_names())
            units.update({"cli.bytes_written": "bytes", "trace.overhead": "ratio"})
        else:
            loop.run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op_times = loop.timings[: loop.n].tolist()
        failed, correct = workload.finish()
    finally:
        workload.close()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "ops": len(op_times), "op_s": quantiles(op_times), "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        record["op_s_untraced"] = untraced_median
        record["op_s_traced"] = traced_median
    else:
        setups = [setup_s] + setup_samples(args)
        record["setup_s_samples"] = setups
        metrics = {
            "op_s": statistics.median(op_times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    steal1, ticks1 = cpu_ticks()
    record.update({
        "loadavg_start": load0, "loadavg_end": load_average(),
        "steal_ticks": steal1 - steal0, "cpu_ticks": ticks1 - ticks0,
    })
    (OUT / f"record-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print("run-record " + json.dumps(record))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(op_times),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
