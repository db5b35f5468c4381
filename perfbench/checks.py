"""Correctness checks behind the benchmark's ``failed`` count.

Every check gates on a verdict or on an independent re-check of a returned
object, never on a work counter (subspaces, sectors, candidates), so a later
search that visits less of the space still passes as long as its answers
hold.  Each function returns a list of ``(label, passed)`` pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

from gaugeqec.code import SubsystemCode, parameters, validate
from gaugeqec.decoder import DecodingTable, Outcome, recover_and_classify
from gaugeqec.distance import Kind, distance
from gaugeqec.montecarlo import NoiseModel, SimReport, run, sample_error, shot_stream
from gaugeqec.search import GaugeSymmetryResult, SweepResult, SweepSpec

Check = tuple[str, bool]

GOLDEN_SEED = 20260811

# SimReport counts at GOLDEN_SEED, 10^6 shots, t = 1, captured at the commit
# that introduced the benchmark: (gauge_success, unrecoverable, failures).
GOLDEN_COUNTS = {
    ("shor9", 0.005): (999241, 609, (("X", 88), ("Z", 62))),
    ("shor9", 0.01): (997074, 2268, (("X", 355), ("Z", 303))),
    ("shor9", 0.02): (988838, 8762, (("X", 1365), ("Z", 1035))),
    ("bacon-shor-9", 0.005): (999478, 0, (("X", 225), ("Y", 56), ("Z", 241))),
    ("bacon-shor-9", 0.01): (997905, 0, (("X", 980), ("Y", 187), ("Z", 928))),
    ("bacon-shor-9", 0.02): (992046, 0, (("X", 3627), ("Y", 766), ("Z", 3561))),
}

MIN_SLOPE = 1.7  # acceptance criterion 10: failure rate grows like p^2


def check_code(code: SubsystemCode, n: int, k: int, r: int, d_min: int) -> bool:
    """Independent re-check: valid, [[n, k, r]], and exhaustive distance >= d_min.

    The searches measure distance with the coset walk; the exhaustive walk
    over the whole centralizer is a different enumeration.
    """
    if not validate(code).ok:
        return False
    p = parameters(code)
    if (p.n, p.k, p.r) != (n, k, r) or p.k == 0:
        return False
    return distance(code, "exhaustive") >= d_min


def check_sweep(spec: SweepSpec, result: SweepResult, expect_codes: bool) -> list[Check]:
    point = f"[[{spec.n},{spec.k},{spec.r},{spec.d_min}]]"
    verdict = bool(result.codes) if expect_codes else not result.codes
    checks = [
        (f"sweep {point} exhausted", result.exhausted),
        (f"sweep {point} verdict: codes {'exist' if expect_codes else 'do not exist'}", verdict),
    ]
    for i, code in enumerate(result.codes):
        ok = check_code(code, spec.n, spec.k, spec.r, spec.d_min)
        checks.append((f"sweep {point} code {i} re-checks", ok))
    return checks


def check_find_gauge(
    codes: Mapping[str, SubsystemCode],
    results: Mapping[str, GaugeSymmetryResult],
    expected_r: Mapping[str, int],
    d_min: int,
) -> list[Check]:
    checks: list[Check] = []
    for name, r in expected_r.items():
        res = results[name]
        checks.append((f"find-gauge {name}: r = {r}", res.r_found == r))
        checks.append((f"find-gauge {name}: exhausted", res.exhausted))
        if r == 0:
            checks.append((f"find-gauge {name}: no restructured code", res.restructured is None))
            continue
        n, k = codes[name].n, codes[name].k
        ok = res.restructured is not None and check_code(res.restructured, n, k, r, d_min)
        checks.append((f"find-gauge {name}: restructured code is [[{n},{k},{r}]], d >= {d_min}", ok))
    return checks


def _counts(report: SimReport) -> tuple:
    return (report.gauge_success, report.unrecoverable, report.logical_failures)


def _slope(ps: Sequence[float], rates: Sequence[float]) -> float:
    """Least-squares slope of log(rate) against log(p)."""
    xs = [math.log(p) for p in ps]
    ys = [math.log(r) for r in rates]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return num / sum((x - xbar) ** 2 for x in xs)


def per_shot_report(
    code: SubsystemCode, table: DecodingTable, model: NoiseModel, shots: int, seed: int
) -> SimReport:
    """Tally shots one at a time through the public per-shot functions."""
    gauge = unrec = 0
    failures: Counter[str] = Counter()
    for shot in range(shots):
        error = sample_error(model, code.n, shot_stream(seed, shot, code.n))
        rec = recover_and_classify(code, table, error)
        if rec.outcome is Outcome.GAUGE_SUCCESS:
            gauge += 1
        elif rec.outcome is Outcome.UNRECOVERABLE:
            unrec += 1
        else:
            failures[rec.logical_class.label_str()] += 1
    return SimReport(shots, model.p, seed, gauge, unrec, tuple(sorted(failures.items())))


def check_simulate(
    reports: Mapping[tuple[str, float], SimReport],
    shots: int,
    seed: int,
) -> list[Check]:
    """Count sums, criterion-10 scaling and, at GOLDEN_SEED, the captured counts."""
    checks: list[Check] = []
    for (name, p), rep in reports.items():
        total = rep.gauge_success + rep.unrecoverable + sum(c for _, c in rep.logical_failures)
        checks.append((f"simulate {name} p={p}: counts sum to {shots} shots",
                       rep.shots == shots and total == shots))
        if seed == GOLDEN_SEED:
            checks.append((f"simulate {name} p={p}: counts match seed {GOLDEN_SEED}",
                           _counts(rep) == GOLDEN_COUNTS.get((name, p))))
    for name in dict.fromkeys(name for name, _ in reports):
        ps = sorted(p for n, p in reports if n == name)
        rates = [reports[name, p].failures / reports[name, p].shots for p in ps]
        ok = all(rate > 0 for rate in rates) and _slope(ps, rates) >= MIN_SLOPE
        checks.append((f"simulate {name}: log-log slope >= {MIN_SLOPE}", ok))
    return checks


def check_per_shot_path(
    code: SubsystemCode, table: DecodingTable, model: NoiseModel, shots: int, seed: int,
    name: str,
) -> list[Check]:
    """``run`` must equal the shot-by-shot public path on the same shots."""
    batch = run(code, table, model, shots, seed, workers=1)
    single = per_shot_report(code, table, model, shots, seed)
    return [(f"simulate {name} p={model.p}: run matches per-shot path on {shots} shots",
             _counts(batch) == _counts(single))]


def check_verify(outcome) -> list[Check]:
    """Every dense-oracle verdict must agree with the symplectic machinery."""
    checks = [
        ("verify: projector is a rank-2^(n-s) orthogonal projector", outcome.projector_ok),
        ("verify: subsystem structure", outcome.structure_ok),
        ("verify: dense correctability agrees with is_correctable_set",
         outcome.dense_correctable == outcome.group_correctable),
    ]
    for i, (kind, gauge, vanishes) in enumerate(outcome.operators):
        checks.append((f"verify: operator {i} acts_as_gauge agrees with classify ({kind.value})",
                       gauge == (kind is Kind.GAUGE)))
        if kind is Kind.OUTSIDE_N:
            checks.append((f"verify: operator {i} outside the normalizer vanishes on the code space",
                           bool(vanishes)))
    return checks
