"""The five benchmark workloads: inputs from the seed, one job, its checks.

A job calls the library only through module attributes looked up at call
time (``search.sweep_nonexistence``, not a name imported once), so the
traced run sees every call through its rebound stage wrappers.  Every job
runs single-process (``workers=1``).
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks

# ``import gaugeqec.distance as m`` would bind the package attribute, which
# the package rebinds to the function of the same name; go through sys.modules.
catalog = importlib.import_module("gaugeqec.catalog")
decoder = importlib.import_module("gaugeqec.decoder")
distance = importlib.import_module("gaugeqec.distance")
montecarlo = importlib.import_module("gaugeqec.montecarlo")
oracle = importlib.import_module("gaugeqec.oracle")
pauli = importlib.import_module("gaugeqec.pauli")
search = importlib.import_module("gaugeqec.search")

SHOTS = 1_000_000
SIM_CODES = ("shor9", "bacon-shor-9")
SIM_PS = (0.005, 0.01, 0.02)
PER_SHOT_SHOTS = 2_000  # shots re-tallied one at a time per code, at the highest p
GAUGE_EXPECTED_R = {"shor9": 4, "steane7": 0, "five-qubit": 0}
GAUGE_D_MIN = 3
VERIFY_CODE = "bacon-shor-9"
RANDOM_OPS = 16  # uniformly random operators; as many again from the normalizer


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], Any]  # seed -> inputs
    job: Callable[[Any], Any]  # inputs -> result
    fingerprint: Callable[[Any], Any]  # result -> value compared across repeated jobs
    check: Callable[[Any, Any, int], list[checks.Check]]  # (inputs, result, seed)


def clear_caches() -> None:
    """Empty every functools cache in the library, as a fresh CLI process has.

    Found by scanning the package's modules rather than by name, so caches
    that later changes add or rename are cleared too.  Stage wrappers keep
    the wrapped cache reachable through ``__wrapped__``.
    """
    seen = set()
    for name, module in list(sys.modules.items()):
        if name != "gaugeqec" and not name.startswith("gaugeqec."):
            continue
        for fn in list(vars(module).values()):
            while fn is not None and id(fn) not in seen:
                seen.add(id(fn))
                if hasattr(fn, "cache_info") and callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()
                fn = getattr(fn, "__wrapped__", None)


# --------------------------------------------------------------------------
# sweeps


def _sweep(n: int, k: int, r: int, d: int, expect_codes: bool, name: str, why: str) -> Workload:
    return Workload(
        name=name,
        why=why,
        setup=lambda seed: search.SweepSpec(n, k, r, d),
        job=lambda spec: search.sweep_nonexistence(spec, workers=1),
        fingerprint=lambda res: (res.exhausted, tuple(res.codes)),
        check=lambda spec, res, seed: checks.check_sweep(spec, res, expect_codes),
    )


# --------------------------------------------------------------------------
# gauge-symmetry discovery


def _gauge_setup(seed: int) -> dict:
    return {name: catalog.catalog(name) for name in GAUGE_EXPECTED_R}


def _gauge_job(codes: dict) -> dict:
    return {
        name: search.find_gauge_symmetries(code, GAUGE_D_MIN, workers=1)
        for name, code in codes.items()
    }


def _gauge_fingerprint(results: dict) -> tuple:
    return tuple((n, r.r_found, r.restructured, r.exhausted) for n, r in results.items())


# --------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class SimInputs:
    seed: int
    codes: dict  # name -> (code, decoding table)


def _sim_setup(seed: int) -> SimInputs:
    codes = {}
    for name in SIM_CODES:
        code = catalog.catalog(name)
        codes[name] = (code, decoder.build_table(code, 1))
    return SimInputs(seed, codes)


def _sim_job(inputs: SimInputs) -> dict:
    return {
        (name, p): montecarlo.run(code, table, montecarlo.NoiseModel(p), SHOTS, inputs.seed,
                                  workers=1)
        for name, (code, table) in inputs.codes.items()
        for p in SIM_PS
    }


def _sim_check(inputs: SimInputs, reports: dict, seed: int) -> list[checks.Check]:
    out = checks.check_simulate(reports, SHOTS, seed)
    model = montecarlo.NoiseModel(max(SIM_PS))
    for name, (code, table) in inputs.codes.items():
        out += checks.check_per_shot_path(code, table, model, PER_SHOT_SHOTS, seed, name)
    return out


# --------------------------------------------------------------------------
# dense oracle


@dataclass(frozen=True)
class VerifyInputs:
    code: Any
    errors: tuple  # identity and every weight-1 Pauli, as ``gaugeqec verify`` checks
    operators: tuple  # seeded random operators for the classify cross-check


@dataclass(frozen=True)
class VerifyOutcome:
    projector_ok: bool
    structure_ok: bool
    dense_correctable: bool
    group_correctable: bool
    operators: tuple  # (classify kind, acts_as_gauge, vanishes_on_code_space or None)


def _verify_setup(seed: int) -> VerifyInputs:
    code = catalog.catalog(VERIFY_CODE)
    n = code.n
    errors = [pauli.identity(n)] + [pauli.single(n, q, a) for q in range(n) for a in "XYZ"]
    rng = random.Random(seed)
    ops = [pauli.hermitian(n, rng.randrange(1 << n), rng.randrange(1 << n))
           for _ in range(RANDOM_OPS)]
    # uniform operators almost never commute with the stabilizer, so also
    # draw random normalizer elements to reach the gauge and logical verdicts
    gens = [op.vec for op in code.normalizer_generators()]
    mask = (1 << n) - 1
    for _ in range(RANDOM_OPS):
        vec = 0
        for g in gens:
            if rng.random() < 0.5:
                vec ^= g
        ops.append(pauli.hermitian(n, vec & mask, vec >> n))
    return VerifyInputs(code, tuple(errors), tuple(ops))


def _verify_job(inputs: VerifyInputs) -> VerifyOutcome:
    code = inputs.code
    proj = oracle.code_projector(code).matrix
    projector_ok = (
        float(np.linalg.norm(proj @ proj - proj)) < 1e-10
        and float(np.linalg.norm(proj - proj.conj().T)) < 1e-10
        and abs(proj.trace().real - 2 ** (code.n - code.s)) < 1e-10
    )
    structure = oracle.verify_subsystem_structure(code)
    dense = oracle.verify_correctability(code, list(inputs.errors))
    group = distance.is_correctable_set(code, list(inputs.errors))
    verdicts = []
    for op in inputs.operators:
        kind = distance.classify(code, op).kind
        vanishes = (oracle.vanishes_on_code_space(code, op)
                    if kind is distance.Kind.OUTSIDE_N else None)
        verdicts.append((kind, oracle.acts_as_gauge(code, op), vanishes))
    return VerifyOutcome(projector_ok, structure.ok, dense.ok, group.correctable, tuple(verdicts))


WORKLOADS = {
    w.name: w
    for w in (
        _sweep(
            5, 1, 1, 3, False, "sweep-5113",
            "the paper's headline no-[[5,1,1,3]] verdict: 782,595 subspaces, 0 codes; "
            "the rank-bound filter (check_subspace) dominates and distance is never called",
        ),
        _sweep(
            4, 1, 1, 2, True, "sweep-4112",
            "positive control, 4,320 codes: the same search layer mostly accepting sectors "
            "and assembling candidates through validated and distance",
        ),
        Workload(
            "find-gauge",
            "shor9 (finds r = 4), steane7 and five-qubit (r = 0): the only workload for the "
            "gauge filter and partner solving",
            _gauge_setup,
            _gauge_job,
            _gauge_fingerprint,
            lambda codes, res, seed: checks.check_find_gauge(codes, res, GAUGE_EXPECTED_R,
                                                             GAUGE_D_MIN),
        ),
        Workload(
            "simulate",
            "10^6-shot Monte Carlo on shor9 and bacon-shor-9 at p = 0.005, 0.01, 0.02: "
            "low p shows the Philox draw, high p the decode",
            _sim_setup,
            _sim_job,
            lambda reports: reports,
            _sim_check,
        ),
        Workload(
            "verify",
            "the dense-matrix oracle on bacon-shor-9 (projector, structure, weight-1 "
            "correctability) plus seeded operators against classify",
            _verify_setup,
            _verify_job,
            lambda outcome: outcome,
            lambda inputs, outcome, seed: checks.check_verify(outcome),
        ),
    )
}
