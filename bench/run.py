"""casidec benchmark.

    python3 bench/run.py --workload grid-cat --seed 1 --seconds 40 --trace 0

Runs one workload, single-threaded, in this process, from the root of a
source checkout (it imports casidec from ./src). Passes of the workload's
fixed task list repeat until --seconds is used up; the first pass is a
warm-up. Every operation's output is checked against a reference the
benchmark computes itself; failures are counted, never fatal.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh
interpreters importing casidec and building the inputs), wall_calib (median
pass time in units of a calibration kernel sampled inside the pass, see
calib.py), peak_rss_mb and max_err (worst error against an exact reference).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (spans.py), trace_overhead and failed_frac. The last line of
standard output is the result as JSON; a fuller record, with provenance,
goes to .bench_work/results/.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy loads: the benchmark is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import calib
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
MIN_PASSES = 3          # timed passes, even past --seconds
MIN_TRACED_PASSES = 2   # of each kind, traced and untraced, in a traced run


def _import_program() -> bool:
    """Import casidec from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import casidec
    except ImportError as exc:
        print(f"cannot import casidec from {src}: {exc}", file=sys.stderr)
        return False
    if not Path(casidec.__file__).resolve().is_relative_to(src):
        print(f"casidec came from {casidec.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "loadavg": os.getloadavg(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of fresh interpreters that import casidec and build
    the workload's inputs (run.py --setup-only DIR)."""
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--setup-only", str(probe_dir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls, in steps of up to 50 ms
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times)


class Runner:
    """Runs passes of one workload and keeps the tallies."""

    def __init__(self, workload):
        self.ops = workload.ops()
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.first_failures = []
        self.errors = []

    def one_pass(self, sampler: calib.Sampler | None = None) -> float:
        """Run every operation once; return the time spent inside the program.

        With a sampler, calibration kernels run only inside that time."""
        wall = 0.0
        prev = None
        for op in self.ops:
            sink = io.StringIO()
            failure = None
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                if sampler:
                    sampler.active = True
                try:
                    result = op.run(prev)
                except Exception as exc:   # any failure is counted, never fatal
                    failure = exc
                if sampler:
                    sampler.active = False
                wall += time.perf_counter() - t0
            if failure is None:
                try:
                    err = op.check(result)
                except Exception as exc:
                    failure = exc
            self.attempted += 1
            if failure is None:
                prev = result
                if err is not None:
                    self.errors.append(err)
                continue
            prev = None
            self.failed += 1
            kind = type(failure).__name__
            self.failures[kind] += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(
                    f"{op.label}: {kind}: {failure} {sink.getvalue()[-300:]}".strip())
        return wall


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    prov = provenance(seed)
    workdir = WORK / f"{workload_name}-{os.getpid()}"
    try:
        setup_s = None if traced else measure_setup(workload_name, seed, workdir)
        workload = workloads.WORKLOADS[workload_name](seed, workdir / "main")
        workload.references()
        runner = Runner(workload)
        tracer = spans.Tracer() if traced else None

        deadline = time.perf_counter() + seconds
        sampler = None if traced else calib.Sampler(workload.CALIBRATION)
        plain, with_trace, plain_calib, kernel_ms = [], [], [], []
        with sampler or contextlib.nullcontext():
            runner.one_pass(sampler)            # warm-up
            if sampler:
                sampler.take()
            while True:
                use_trace = traced and len(with_trace) <= len(plain)
                enough = (min(len(plain), len(with_trace)) >= MIN_TRACED_PASSES if traced
                          else len(plain) >= MIN_PASSES)
                if enough and time.perf_counter() + statistics.median(plain) > deadline:
                    break
                if use_trace:
                    with tracer.recording(len(with_trace)):
                        with_trace.append(runner.one_pass())
                elif sampler:
                    plain.append(runner.one_pass(sampler))
                    inside = sampler.take()
                    if not inside:   # a pass shorter than one period: time a kernel after it
                        sampler.kernel()
                    kernel_s = statistics.fmean(inside or sampler.take())
                    plain_calib.append(calib.calibrated(plain[-1], inside, kernel_s))
                    kernel_ms.append(1e3 * kernel_s)
                else:
                    plain.append(runner.one_pass())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed}
    if traced:
        layers = tracer.summarize(range(len(with_trace)))
        layers["trace_overhead"] = statistics.median(with_trace) / statistics.median(plain) - 1.0
        layers["failed_frac"] = runner.failed / runner.attempted
        units = spans.per_layer_metrics()
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_calib": {"value": statistics.median(plain_calib), "unit": "calib"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            # with no checked result at all, the error counts as total
            "max_err": {"value": max(runner.errors, default=1.0), "unit": "rel"},
        }
    result["metrics"] = metrics
    record = {
        "workload": workload_name,
        "trace": int(traced),
        "provenance": prov,
        **result,
        "failures": dict(runner.failures),
        "first_failures": runner.first_failures,
        "wall_s": statistics.median(plain),
        "pass_wall_s": plain,
        "pass_calib": plain_calib,
        "pass_kernel_ms": kernel_ms,
        "traced_pass_wall_s": with_trace,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    if traced:
        record["absent_spans"] = tracer.absent
        tracer.write_spans(results / f"{workload_name}-spans.csv")
    with open(results / f"{workload_name}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", type=Path, default=None,
                        help="only build the inputs, in DIR, and exit")
    args = parser.parse_args(argv)

    if not _import_program():
        return 2
    if args.setup_only is not None:
        workloads.WORKLOADS[args.workload](args.seed, args.setup_only)
        return 0

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance: " + json.dumps(record["provenance"]))
    if record["failed"]:
        print(f"failed {record['failed']} of {record['attempted']}: "
              + json.dumps(record["failures"]))
        for line in record["first_failures"]:
            print("  " + line)
    if record.get("absent_spans"):
        print("absent spans: " + ", ".join(record["absent_spans"]))
    print(f"median pass wall time = {record['wall_s']!r} s (host speed varies; not a metric)")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
