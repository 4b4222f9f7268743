"""psyslab benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload wave --seed 0 --seconds 10 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ``wave`` (acceptance 3),
``sweep`` (acceptance 4, seed s uses data seeds 20s..20s+19) and
``simulate`` (``psyslab simulate`` in-process).  The workload is repeated
until ``--seconds`` have passed, at least once.

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` first repeats the workload untraced, as the reference for
the tracing overhead, then repeats it under ``tracing.Tracer`` and
reports the per-layer metrics.  Either way the last stdout line is one
JSON object {correct, attempted, failed, metrics}; a fuller record with
the machine block and the spans goes to ``perfbench/out/``.

The package is imported from the ``src/`` directory of the checkout
that holds this file, never from an installed copy; without it the
benchmark exits 2.  BLAS thread variables are recorded, not set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: fresh processes timed for setup_s, half before and half after the
#: measured runs so that the median spans the machine's slow and fast
#: phases; the median is reported
SETUP_REPEATS = 4
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}]().prepare({seed})
print(time.perf_counter() - t0)
"""


def machine() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def setup_times(name: str, seed: int, repeats: int) -> list:
    """Wall time of importing psyslab and preparing the inputs, each in a
    fresh interpreter."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


class Tally:
    """Wall and CPU samples of repeated runs, and their check results."""

    def __init__(self):
        self.wall = []
        self.cpu = []
        self.attempted = 0
        self.problems = []

    def repeat(self, workload, inputs, seconds: float):
        start, runs = time.perf_counter(), 0
        while runs < workload.min_runs or time.perf_counter() - start < seconds:
            runs += 1
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                outcome, error = workload.run(inputs), None
            except Exception:
                outcome, error = None, traceback.format_exc()
            self.wall.append(time.perf_counter() - t0)
            self.cpu.append(time.process_time() - c0)
            if error:
                print(error, file=sys.stderr)
                self.attempted += workload.units_per_run
                self.problems += ([f"run raised {error.splitlines()[-1]}"]
                                  * workload.units_per_run)
                return
            attempted, problems = workload.check(outcome)
            self.attempted += attempted
            self.problems += problems


def end_to_end(workload, seed, seconds, setup_name) -> tuple:
    setup = setup_times(setup_name, seed, SETUP_REPEATS // 2)
    inputs = workload.prepare(seed)
    tally = Tally()
    tally.repeat(workload, inputs, seconds)
    setup += setup_times(setup_name, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(tally.wall),
        "cpu_s": statistics.median(tally.cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, metrics, {"setup_s_samples": setup}


def per_layer(workload, seed, seconds) -> tuple:
    inputs = workload.prepare(seed)
    tally = Tally()
    tally.repeat(workload, inputs, seconds)
    reference = tally.wall[:]
    with Tracer() as tracer:
        tally.repeat(workload, inputs, seconds)
    traced = tally.wall[len(reference):]
    metrics = tracer.layer_metrics(len(traced), getattr(workload, "bytes_written", 0))
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_pct"] = 100.0 * (
        metrics["trace.wall_s"] / statistics.median(reference) - 1.0)
    metrics["trace.span_coverage_pct"] = 100.0 * tracer.layer_s() / sum(traced)
    return tally, metrics, {"untraced_wall_s": reference,
                            "spans": [s.to_dict() for s in tracer.spans]}


def load_package() -> bool:
    """Import psyslab from this checkout's src/, and nowhere else."""
    if not (SRC / "psyslab" / "__init__.py").is_file():
        print(f"error: no psyslab sources at {SRC}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(BENCH)]
    import psyslab

    if Path(psyslab.__file__).resolve().parent != SRC / "psyslab":
        print(f"error: psyslab imported from {psyslab.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def run_workload(workload, name: str, seed: int, seconds: float,
                 trace: int) -> int:
    """Measure one workload, print the report and the result line, and
    write the full record to OUT.  Returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        tally, metrics, extra = per_layer(workload, seed, seconds)
        declared = spec["per_layer"]
    else:
        tally, metrics, extra = end_to_end(workload, seed, seconds, name)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    failed = len(tally.problems)
    result = {"correct": failed == 0,
              "attempted": tally.attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine(),
              "wall_samples_s": tally.wall, "cpu_samples_s": tally.cpu,
              "problems": tally.problems,
              "fail_ratio": failed / tally.attempted, **extra,
              "result": result}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"runs: {len(tally.wall)}  attempted: {tally.attempted}  "
          f"failed: {failed}  fail_ratio: {record['fail_ratio']:g}")
    for k in units:
        print(f"{k:36s} {metrics[k]:>16.6g} {units[k]}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not load_package():
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return run_workload(workloads.WORKLOADS[args.workload](), args.workload,
                        args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
