"""Outside-in stage tracing for the traced benchmark run.

The library is not edited: ``Tracer.install`` rebinds each stage callable
(module functions wherever the package binds them, and methods on their
classes) to a wrapper that records a span, and ``uninstall`` puts the
originals back.  A stage whose callable no longer exists, for example after
a refactor renames a private helper, is reported as absent and skipped.

Spans live in flat in-memory arrays (name id, parent index, start, end) and
are written out once at the end.  A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

Observer = Callable[["Tracer", tuple, Any], None]  # (tracer, call args, result)


def _passed(prefix: str) -> Observer:
    def observe(tracer, args, result):
        tracer.count(prefix + ".passed", result is not None)
    return observe


def _sectors(tracer, args, result):
    examined, accepted = result
    tracer.count("search.sectors.examined", examined)
    tracer.count("search.sectors.accepted", len(accepted))


def _search_result(tracer, args, result):
    tracer.count("search.subspaces", result.stats.subspaces)
    tracer.count("search.candidates", result.stats.candidates)
    codes = getattr(result, "codes", None)
    tracer.count("search.codes_found",
                 len(codes) if codes is not None else result.restructured is not None)


def _sim_report(tracer, args, result):
    tracer.count("montecarlo.shots", result.shots)
    tracer.count("montecarlo.failures", result.failures)
    tracer.count("montecarlo.unrecoverable", result.unrecoverable)


def _dense_bytes(tracer, args, result):
    # labelled computed: the size of the 2^n x 2^n complex128 result
    tracer.count("oracle.dense.bytes_computed", 16 << (2 * args[0].n))


class _TimedGenerator:
    """A numpy Generator whose ``random`` draws are recorded as spans."""

    def __init__(self, gen, random):
        self._gen = gen
        self.random = random

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _time_draws(tracer: "Tracer", shot_stream: Callable) -> Callable:
    @functools.wraps(shot_stream)
    def traced(*args, **kwargs):
        gen = shot_stream(*args, **kwargs)
        return _TimedGenerator(gen, tracer.wrap("montecarlo.draw", gen.random))
    return traced


@dataclass(frozen=True)
class Stage:
    name: str  # metric prefix
    module: str
    attr: str  # "function" or "Class.method"
    observe: Observer | None = None
    # builds the replacement instead of a plain span wrapper
    adapt: Callable[["Tracer", Callable], Callable] | None = None


STAGES = (
    Stage("search.enumerate", "gaugeqec.search", "sweep_nonexistence", _search_result),
    Stage("search.enumerate", "gaugeqec.search", "find_gauge_symmetries", _search_result),
    Stage("search.check_subspace", "gaugeqec.search", "_SweepContext.check_subspace",
          _passed("search.check_subspace")),
    Stage("search.sectors", "gaugeqec.search", "_SweepContext.sectors", _sectors),
    Stage("search.filter_subspace", "gaugeqec.search", "_GaugeContext.filter_subspace",
          _passed("search.filter_subspace")),
    Stage("search.solve_gauge_partners", "gaugeqec.search", "_solve_gauge_partners"),
    Stage("gf2.solve_affine", "gaugeqec.gf2", "solve_affine"),
    Stage("gf2.kernel_basis", "gaugeqec.gf2", "kernel_basis"),
    Stage("gf2.solve_membership", "gaugeqec.gf2", "solve_membership"),
    Stage("gf2.rref", "gaugeqec.gf2", "rref"),
    Stage("code.validated", "gaugeqec.code", "validated"),
    Stage("distance.distance", "gaugeqec.distance", "distance"),
    Stage("distance.classify", "gaugeqec.distance", "classify"),
    Stage("distance.is_correctable_set", "gaugeqec.distance", "is_correctable_set"),
    Stage("decoder.build_table", "gaugeqec.decoder", "build_table"),
    Stage("montecarlo.run", "gaugeqec.montecarlo", "run", _sim_report),
    Stage("montecarlo.draw", "gaugeqec.montecarlo", "shot_stream", adapt=_time_draws),
    Stage("oracle.code_projector", "gaugeqec.oracle", "code_projector"),
    Stage("oracle.dense", "gaugeqec.oracle", "dense", _dense_bytes),
    Stage("oracle.acts_as_gauge", "gaugeqec.oracle", "acts_as_gauge"),
    Stage("oracle.vanishes_on_code_space", "gaugeqec.oracle", "vanishes_on_code_space"),
    Stage("oracle.verify_correctability", "gaugeqec.oracle", "verify_correctability"),
    Stage("oracle.verify_subsystem_structure", "gaugeqec.oracle", "verify_subsystem_structure"),
)

STAGE_NAMES = tuple(dict.fromkeys(s.name for s in STAGES))
# spans the benchmark opens itself around each traced iteration
ROOT_SPANS = ("setup", "job")


def _resolve(stage: Stage):
    """([(owner, attribute name)], original callable), or None if absent."""
    module = sys.modules.get(stage.module)
    if module is None:
        return None
    *owner_path, attr = stage.attr.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return None
    if owner is not module:
        return [(owner, attr)], original
    # a module function is bound under its name in every module that imported it
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "gaugeqec" or name.startswith("gaugeqec.")):
            sites += [(mod, key) for key, value in vars(mod).items() if value is original]
    return sites, original


class Tracer:
    """Span recorder for one traced benchmark run (one thread)."""

    def __init__(self, stages=STAGES):
        self.stages = stages
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_bounds: list[int] = []  # first span index of each run
        self.counters: list[dict[str, float]] = []
        self.absent: list[str] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def begin_run(self) -> None:
        """Spans and counters from here on belong to a new run id."""
        self.run_bounds.append(len(self.start))
        self.counters.append({})

    def count(self, key: str, value: float) -> None:
        counters = self.counters[-1]
        counters[key] = counters.get(key, 0) + value

    def _mark_absent(self, label: str) -> None:
        if label not in self.absent:
            self.absent.append(label)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """``fn`` recording one span named ``name`` per call, then ``observe``."""
        nid = self._name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(self, args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    self._mark_absent(f"{name} counters (result shape changed)")
            return result

        return traced

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for stage in self.stages:
            found = _resolve(stage)
            if found is None:
                self._mark_absent(f"{stage.name} ({stage.module}.{stage.attr})")
                continue
            sites, original = found
            if stage.adapt is not None:
                replacement = stage.adapt(self, original)
            else:
                replacement = self.wrap(stage.name, original, stage.observe)
            for owner, key in sites:
                self._installed.append((owner, key, vars(owner)[key]))
                setattr(owner, key, replacement)

    def uninstall(self) -> None:
        while self._installed:
            owner, key, original = self._installed.pop()
            setattr(owner, key, original)

    # -- reading ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        run = np.zeros(n, dtype=np.int32)
        for i, first in enumerate(self.run_bounds):
            run[first:] = i
        return {
            "name": np.asarray(self.name, dtype=np.uint16),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "run": run,
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval.  Sibling spans never
    overlap, because every span comes from one thread's call stack, so their
    covered parts simply add.
    """
    child = parent >= 0
    p = parent[child]
    overlap = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
    covered = np.bincount(p, weights=np.clip(overlap, 0.0, None), minlength=len(start))
    return (end - start) - covered


def stage_table(tracer: Tracer) -> list[dict[str, dict[str, float]]]:
    """Per run: stage name -> {calls, self_s, total_s}."""
    a = tracer.arrays()
    own = self_times(a["parent"], a["start"], a["end"])
    dur = a["end"] - a["start"]
    bounds = tracer.run_bounds + [len(own)]
    k = len(tracer.names)
    runs = []
    for lo, hi in zip(bounds, bounds[1:]):
        names = a["name"][lo:hi]
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=own[lo:hi], minlength=k)
        totals = np.bincount(names, weights=dur[lo:hi], minlength=k)
        runs.append({
            name: {"calls": int(calls[i]), "self_s": float(selfs[i]), "total_s": float(totals[i])}
            for i, name in enumerate(tracer.names)
        })
    return runs


DRAW = "montecarlo.draw"
COUNTED = (
    "search.sectors.examined",
    "search.sectors.accepted",
    "search.subspaces",
    "search.candidates",
    "search.codes_found",
    "montecarlo.failures",
    "montecarlo.unrecoverable",
    "oracle.dense.bytes_computed",
)
RATIOS = ("search.check_subspace", "search.filter_subspace")

# every per-layer metric a traced run reports, with its unit
LAYER_METRICS = (
    [(f"{s}.{f}", u) for s in STAGE_NAMES if s != DRAW for f, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"{s}.pass_ratio", "ratio") for s in RATIOS]
    + [(key, "B" if key.endswith("bytes_computed") else "count") for key in COUNTED]
    + [
        ("montecarlo.draw_s", "s"),
        ("montecarlo.draw_calls", "count"),
        ("montecarlo.decode_s", "s"),
        ("montecarlo.shots_per_s", "1/s"),
        ("trace.overhead_s", "s"),
    ]
)


def layer_metrics(table: dict[str, dict[str, float]], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run; stages never called read 0.

    ``trace.overhead_s`` compares runs, so the caller adds it.
    """
    def get(stage: str, field: str) -> float:
        return table.get(stage, {}).get(field, 0)

    m: dict[str, float] = {}
    for s in STAGE_NAMES:
        if s != DRAW:
            m[f"{s}.calls"] = get(s, "calls")
            m[f"{s}.self_s"] = get(s, "self_s")
    for s in RATIOS:
        calls = get(s, "calls")
        m[f"{s}.pass_ratio"] = counters.get(f"{s}.passed", 0) / calls if calls else 0.0
    for key in COUNTED:
        m[key] = counters.get(key, 0)
    draw_s, run_s = get(DRAW, "total_s"), get("montecarlo.run", "total_s")
    m["montecarlo.draw_s"] = draw_s
    m["montecarlo.draw_calls"] = get(DRAW, "calls")
    m["montecarlo.decode_s"] = run_s - draw_s
    m["montecarlo.shots_per_s"] = counters.get("montecarlo.shots", 0) / run_s if run_s else 0.0
    return m


def top_stage(table: dict[str, dict[str, float]]) -> str | None:
    """The stage with the largest self time, ignoring the benchmark's own spans."""
    stages = {k: v["self_s"] for k, v in table.items() if k not in ROOT_SPANS and v["calls"]}
    return max(stages, key=stages.get) if stages else None
