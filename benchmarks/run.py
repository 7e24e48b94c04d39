"""Run one benchmark workload against the ``discrep`` sources of this checkout.

    python3 benchmarks/run.py --workload exp1-large --seed 0 --seconds 30 --trace 0

One caller issues operations back to back in this process (a closed loop),
in whole rounds, for about ``--seconds`` of operation time. Every
operation's output is checked against the references in ``reference.py``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A copy of the
run's figures, with the machine's description, goes to
``benchmarks/results/``.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib
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

# One caller, one thread: BLAS threads would only contend with the caller on
# a small machine. numpy's huge-page advice is off so that resident memory
# does not depend on how many huge pages the host has free. Both are set
# before numpy loads and recorded with every run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

import numpy as np  # noqa: E402

from reference import CheckFailed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"
MODULES = ("core", "distance", "linalg", "reweight", "simplex_lp", "learners", "datagen",
           "experiments")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# Times the import of numpy and discrep in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, discrep; print(time.perf_counter() - t)"
)


def import_package() -> dict:
    """Import ``discrep`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "discrep" / "__init__.py").is_file():
        raise ImportError(f"no discrep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("discrep")
    if Path(package.__file__).resolve().parent != (SRC / "discrep").resolve():
        raise ImportError(f"discrep was imported from {package.__file__}, not {SRC}")
    return {name: importlib.import_module(f"discrep.{name}") for name in MODULES}


def import_seconds() -> float:
    """Median time to import numpy and ``discrep`` over several fresh
    interpreters: one first import is too noisy a sample on its own."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "numpy_hugepage_advice": bool(np._core.multiarray._get_madvise_hugepage()),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def attempt(workload, instance, capture, tracer):
    """One timed operation and its check: ``(seconds, record, error)``.

    Nothing of the operation outlives this call, so the next operation's
    memory peak does not include this one's outputs.
    """
    capture.take()
    capture.active = True
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result, error = workload.run(instance), None
    except Exception:  # an operation that raises is a failed operation
        result, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    capture.active = False
    if tracer is not None:
        tracer.active = False
    if error is not None:
        return seconds, None, error
    try:
        record = workload.check(instance, workload.outputs(instance, result, capture.take()))
    except CheckFailed as exc:
        return seconds, None, f"check failed: {exc}"
    return seconds, record, None


def measure(workload, args, capture, tracer) -> dict:
    """The closed loop: whole rounds for about ``args.seconds`` of operation time.

    A new round starts only while the run, ended after it, would come closer
    to ``args.seconds`` than it is now; on workloads whose rounds take
    seconds that keeps the run from overshooting by a whole round.
    """
    busy = 0.0
    attempted = failed = 0
    quality_records = []
    errors = []
    round_seconds = []
    round_completed = []
    index = 0
    while index < workload.quality_rounds or (
        busy + 0.5 * statistics.median(round_seconds or [0.0]) < args.seconds
    ):
        round_start = busy
        round_failed = 0
        instances = workload.round(index, args.seed)
        for instance in instances:
            attempted += 1
            seconds, record, error = attempt(workload, instance, capture, tracer)
            busy += seconds
            if error is not None:
                round_failed += 1
                errors.append(f"round {index}: {error}")
            elif index < workload.quality_rounds:
                quality_records.append(record)
        failed += round_failed
        round_seconds.append(busy - round_start)
        round_completed.append(len(instances) - round_failed)
        index += 1
        if index == workload.quality_rounds:
            # The high-water mark after a fixed amount of work: a faster
            # program that runs more rounds is not charged for their spread.
            peak_mb = peak_rss_mb()
    return {
        "peak_rss_mb": peak_mb,
        "busy": busy,
        "round_seconds": round_seconds,
        "round_completed": round_completed,
        "attempted": attempted,
        "failed": failed,
        "rounds": index,
        "quality_records": quality_records,
        "errors": errors,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = import_package()
    except ImportError as exc:
        print(f"cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    import_s = import_seconds()

    from probe import Capture, Patcher, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed, mods)
        setup_samples.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_samples)

    patcher = Patcher()
    capture = Capture(patcher)
    tracer = Tracer(patcher) if args.trace else None
    try:
        workload.watch(capture, mods)
        if tracer is not None:
            tracer.install(mods)
        run = measure(workload, args, capture, tracer)
    finally:
        patcher.restore()

    completed = run["attempted"] - run["failed"]
    # The median of the rounds' rates: a round slowed by a burst of load
    # from elsewhere on a shared host does not move it.
    throughput = statistics.median(
        done / seconds for done, seconds in zip(run["round_completed"], run["round_seconds"])
    )
    problems = list(run["errors"])
    quality = None
    expected = sum(len(workload.round(i, args.seed)) for i in range(workload.quality_rounds))
    if len(run["quality_records"]) == expected:
        quality = workload.quality(run["quality_records"])
        problems.extend(quality.problems)
    else:
        problems.append("an operation of the quality rounds failed; no quality metrics")

    if args.trace:
        metrics = tracer.metrics(run["attempted"])
        metrics["trace.throughput"] = metric(throughput, "ops/s")
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "throughput": metric(throughput, "ops/s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }
        if quality is not None:
            metrics["achieved_disc"] = metric(quality.achieved_disc, "disc")
            metrics["certified_gap"] = metric(quality.certified_gap, "disc")

    correct = quality is not None and not quality.problems and completed > 0
    summary = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "rounds": run["rounds"],
        "round_seconds": run["round_seconds"],
        "busy_s": run["busy"],
        "import_s": import_s,
        "setup_samples_s": setup_samples,
        "quality_extras": quality.extras if quality is not None else {},
        "problems": problems,
        **summary,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"machine": details["machine"], "quality_extras": details["quality_extras"]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
