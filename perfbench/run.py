"""gaugeqec benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from a checkout of the repository; the library is imported from its
``src/`` directory, so nothing is installed.  A run repeats its workload's
job, each one starting only after the previous one returned and with the
library's caches emptied, until the jobs have taken ``--seconds`` in total
(at least one job).  The first result goes through the independent checks
in ``checks.py``; every later one must reproduce it.

``--trace 0`` reports the end-to-end metrics: ``adj_wall_s``, the median
job time scaled to a reference host speed sampled during the job
(``hostclock.py``; the raw wall times are in the record); ``setup_s``, the
median of six fresh interpreters (one BLAS thread) each timed from start
to inputs ready and scaled the same way; ``peak_rss_mb`` after the first
job.  ``--trace 1`` alternates plain and traced jobs and reports the
per-layer metrics of ``stagetrace.py``.  Either way the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and a full record
with the raw samples goes to ``perfbench/records/``.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = HERE / "records"
DEFAULT_SEED = 20260811
SETUP_PROBES = 6
# Probes load numpy with one BLAS thread: starting the second one took 0 to
# 65 ms depending on the state of the shared host, more than the library's
# own set-up varies.  Jobs keep numpy's default thread count.
PROBE_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def _import_library() -> str | None:
    """Put the checkout's ``src`` first on the path; an error message if unusable."""
    package = SRC / "gaugeqec"
    if not (package / "__init__.py").is_file():
        return f"no gaugeqec sources under {SRC}; run from a checkout of the repository"
    sys.path.insert(0, str(SRC))
    import gaugeqec

    if Path(gaugeqec.__file__).resolve().parent != package.resolve():
        return f"imported gaugeqec from {gaugeqec.__file__}, not from {package}"
    return None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe_setup(name: str, seed: int) -> tuple[float, float]:
    """(adjusted, raw) seconds from starting a fresh interpreter to inputs ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), repr(start)],
        capture_output=True, text=True, timeout=120, check=True, env=PROBE_ENV,
    )
    adjusted, raw = proc.stdout.split()[-2:]
    return float(adjusted), float(raw)


class _Checker:
    """Full checks on the first result; later results must reproduce it."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed: list[str] = []
        self._reference = None
        self._jobs = 0

    def __call__(self, inputs, result) -> None:
        wl = self.workload
        if self._jobs == 0:
            checks = wl.check(inputs, result, self.seed)
            self._reference = wl.fingerprint(result)
        else:
            checks = [(f"job {self._jobs} reproduces job 0",
                       wl.fingerprint(result) == self._reference)]
        self._jobs += 1
        self.attempted += len(checks)
        self.failed += [label for label, ok in checks if not ok]


def _timed(fn, arg) -> tuple[object, float]:
    start = time.perf_counter()
    result = fn(arg)
    return result, time.perf_counter() - start


def measure(wl, seed: int, seconds: float) -> tuple[dict, dict, _Checker]:
    """End-to-end metrics of plain jobs; returns (metrics, raw samples, checker)."""
    import hostclock
    import workloads

    inputs = wl.setup(seed)
    # half the set-up probes before the jobs and half after, so a slow spell
    # of the host does not own all of them
    probes = [_probe_setup(wl.name, seed) for _ in range(SETUP_PROBES // 2)]
    checker = _Checker(wl, seed)
    clock = hostclock.HostClock()
    walls: list[float] = []
    adjusted: list[float] = []
    host_samples: list[int] = []  # loop samples behind each adjusted time
    rss = None
    while not walls or sum(walls) < seconds:
        workloads.clear_caches()
        edges = hostclock.edge_samples()
        with clock:
            start = time.monotonic()
            result = wl.job(inputs)
            end = time.monotonic()
        walls.append(end - start)
        adjusted.append(clock.adjusted(start, end, edges))
        host_samples.append(len(clock.samples))
        if rss is None:
            rss = _peak_rss_mb()
        checker(inputs, result)
    probes += [_probe_setup(wl.name, seed) for _ in range(SETUP_PROBES - len(probes))]
    setup = [scaled for scaled, _ in probes]
    metrics = {
        "adj_wall_s": (statistics.median(adjusted), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = {"adj_wall_s": adjusted, "wall_s": walls, "host_samples": host_samples,
           "setup_s": setup, "unadjusted_setup_s": [r for _, r in probes]}
    return metrics, raw, checker


def measure_traced(wl, seed: int, seconds: float):
    """Per-layer metrics: alternate a plain job and a traced (setup + job) pair."""
    import stagetrace
    import workloads

    inputs = wl.setup(seed)
    tracer = stagetrace.Tracer()
    checker = _Checker(wl, seed)
    plain: list[float] = []
    traced: list[float] = []
    while not plain or sum(plain) + sum(traced) < seconds:
        workloads.clear_caches()
        result, wall = _timed(wl.job, inputs)
        plain.append(wall)
        checker(inputs, result)

        tracer.begin_run()
        tracer.install()
        try:
            workloads.clear_caches()
            traced_inputs = tracer.wrap("setup", wl.setup)(seed)
            result, wall = _timed(tracer.wrap("job", wl.job), traced_inputs)
        finally:
            tracer.uninstall()
        traced.append(wall)
        checker(traced_inputs, result)

    tables = stagetrace.stage_table(tracer)
    runs = [stagetrace.layer_metrics(t, c) for t, c in zip(tables, tracer.counters)]
    metrics = {
        name: (statistics.median(r[name] for r in runs), unit)
        for name, unit in stagetrace.LAYER_METRICS
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    raw = {
        "plain_wall_s": plain,
        "traced_wall_s": traced,
        "stage_tables": tables,
        "counters": tracer.counters,
        "absent_stages": tracer.absent,
        "top_stage": stagetrace.top_stage(tables[len(tables) // 2]),
    }
    return metrics, raw, checker, tracer


def run_one(args) -> int:
    import runrecord
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        metrics, raw, checker, tracer = measure_traced(wl, args.seed, args.seconds)
    else:
        metrics, raw, checker = measure(wl, args.seed, args.seconds)
    summary = {
        "correct": not checker.failed,
        "attempted": checker.attempted,
        "failed": len(checker.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "summary": summary,
        "samples": raw,
        "failed_checks": checker.failed,
        "machine": runrecord.machine_info(ROOT),
    }
    try:
        runrecord.write_record(RECORDS / f"{stem}.json", record)
        if tracer is not None:
            tracer.save(RECORDS / f"{stem}.spans.npz")
    except OSError as exc:  # the measurement stands without its record
        print(f"warning: run record not written: {exc}", file=sys.stderr)

    for label in checker.failed[:20]:
        print(f"FAILED CHECK: {label}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{wl.name} {key} = {value:.6g} {unit}", file=sys.stderr)
    if "wall_s" in raw:
        print(f"{wl.name} unadjusted wall_s = {statistics.median(raw['wall_s']):.6g} s",
              file=sys.stderr)
    if tracer is not None:
        print(f"{wl.name} largest self time: {raw['top_stage']}", file=sys.stderr)
        for label in tracer.absent:
            print(f"{wl.name} absent stage: {label}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter; one table of every metric."""
    import workloads

    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        summary = json.loads(lines[-1])
        status |= not summary["correct"]
        fail_ratio = summary["failed"] / summary["attempted"]
        rows.append((name, "fail_ratio", fail_ratio, f"of {summary['attempted']} checks"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in summary["metrics"].items()]
    for name, metric, value, unit in rows:
        print(f"{name:<12} {metric:<42} {value:>14.6g} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=13.0, help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    problem = _import_library()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
