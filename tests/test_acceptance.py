"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Shared expensive searches come from session fixtures in conftest.
"""

import math
import time
from itertools import combinations, product

from gaugeqec.catalog import catalog
from gaugeqec.cli import main as cli_main
from gaugeqec.code import gauge_fix, parameters, singleton_check, validate
from gaugeqec.decoder import Outcome, build_table, recover_and_classify
from gaugeqec.distance import Kind, classify, distance, is_correctable_set
from gaugeqec.gf2 import Eliminator
from gaugeqec.montecarlo import NoiseModel, run
from gaugeqec.oracle import (
    acts_as_gauge,
    vanishes_on_code_space,
    verify_correctability,
    verify_subsystem_structure,
)
from gaugeqec.pauli import (
    hermitian,
    identity,
    multiply,
    pauli_from_string,
    single,
)
from gaugeqec.search import find_gauge_symmetries


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def _weight_le(n: int, wmax: int):
    ops = [identity(n)]
    for w in range(1, wmax + 1):
        for qubits in combinations(range(n), w):
            for letters in product("XYZ", repeat=w):
                e = identity(n)
                for q, letter in zip(qubits, letters):
                    e = multiply(e, single(n, q, letter))
                ops.append(e)
    return ops


def test_criterion_1_catalog_fidelity():
    start = time.monotonic()
    shor = parameters(catalog("shor9"))
    bs = parameters(catalog("bacon-shor-9"))
    ok = (shor.n, shor.k, shor.r) == (9, 1, 0)
    ok &= (bs.n, bs.k, bs.r) == (9, 1, 4)
    ok &= distance(catalog("shor9")) == 3
    ok &= distance(catalog("bacon-shor-9")) == 3
    ok &= time.monotonic() - start < 2.0  # well under one second per code
    _verdict(1, "catalog fidelity", ok)


def test_criterion_2_gauge_group_rank():
    bs = catalog("bacon-shor-9")
    stab = tuple(g.vec for g in bs.stabilizer)
    gauge = tuple(op.vec for op in bs.gauge_ops())
    extra = Eliminator(stab + gauge).rank - Eliminator(stab).rank
    _verdict(2, "gauge generators span eight dimensions", extra == 8)


def test_criterion_3_gauge_fixing():
    start = time.monotonic()
    fixed = gauge_fix(catalog("bacon-shor-9"))
    shor = catalog("shor9")
    span = Eliminator(g.vec for g in fixed.stabilizer)
    ok = span.rank == 8
    ok &= all(span.contains(g.vec) for g in shor.stabilizer)
    ok &= distance(fixed) == 3
    ok &= time.monotonic() - start < 1.0
    _verdict(3, "gauge fixing reproduces the eight-generator code", ok)


def test_criterion_4_alternative_logical_representative():
    shor = catalog("shor9")
    bs = catalog("bacon-shor-9")
    alt = multiply(shor.stabilizer[0], multiply(bs.gauge_pairs[0][0], bs.logical_pairs[0][0]))
    _verdict(4, "alternative logical X", alt == pauli_from_string("IIXIIIXXI"))


def test_criterion_5_gauge_symmetry_discovery(shor9_gauge_search):
    res = shor9_gauge_search
    ok = res.r_found == 4 and res.exhausted
    ok &= res.stats.elapsed <= 60.0
    code = res.restructured
    ok &= validate(code).ok
    p = parameters(code)
    ok &= (p.n, p.k, p.r) == (9, 1, 4) and distance(code) >= 3
    for name in ("five-qubit", "steane7"):
        start = time.monotonic()
        neg = find_gauge_symmetries(catalog(name), 3)
        ok &= neg.r_found == 0 and neg.exhausted
        ok &= time.monotonic() - start <= 60.0
    _verdict(5, "gauge-symmetry discovery", ok)


def test_criterion_6_better_than_perfect_nonexistence(sweep_5113, sweep_5103):
    ok = sweep_5113.codes == [] and sweep_5113.exhausted
    ok &= sweep_5113.stats.elapsed <= 1800.0
    ok &= len(sweep_5103.codes) >= 1 and sweep_5103.exhausted
    first = sweep_5103.codes[0]
    p = parameters(first)
    ok &= (p.n, p.k, p.r) == (5, 1, 0) and distance(first) == 3
    _verdict(6, "no better-than-perfect five-qubit code", ok)


def test_criterion_7_oracle_agreement():
    errors = _weight_le(9, 1)
    ok = True
    for name in ("shor9", "bacon-shor-9"):
        code = catalog(name)
        dense_report = verify_correctability(code, errors)
        group = is_correctable_set(code, errors)
        ok &= dense_report.ok == group.correctable is True
        structure = verify_subsystem_structure(code)
        ok &= structure.ok
    # classification against the dense commutant on random operators
    import random

    rng = random.Random(20260811)
    for name in ("shor9", "bacon-shor-9"):
        code = catalog(name)
        for _ in range(200):
            p = hermitian(9, rng.randrange(1 << 9), rng.randrange(1 << 9))
            kind = classify(code, p).kind
            ok &= acts_as_gauge(code, p) == (kind is Kind.GAUGE)
            if kind is Kind.OUTSIDE_N:
                ok &= vanishes_on_code_space(code, p)
    _verdict(7, "dense oracle agreement", ok)


def test_criterion_8_decoder_exhaustive_check():
    ok = True
    for name in ("shor9", "bacon-shor-9"):
        code = catalog(name)
        table = build_table(code, 1)
        for q in range(9):
            for letter in "XYZ":
                rec = recover_and_classify(code, table, single(9, q, letter))
                ok &= rec.outcome is Outcome.GAUGE_SUCCESS
    witness_set = [pauli_from_string("XXIIIIIII"), pauli_from_string("IIIIIXIII")]
    ok &= not is_correctable_set(catalog("bacon-shor-9"), witness_set).correctable
    ok &= is_correctable_set(catalog("shor9"), witness_set).correctable

    ops = _weight_le(9, 2)
    counts = {}
    for name in ("shor9", "bacon-shor-9"):
        code = catalog(name)
        bad = 0
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if classify(code, multiply(ops[i], ops[j])).kind is Kind.LOGICAL:
                    bad += 1
        counts[name] = bad
    ok &= counts == {"shor9": 351, "bacon-shor-9": 2322}
    ok &= counts["bacon-shor-9"] > counts["shor9"]
    _verdict(8, "decoder exhaustive check and pair counts", ok)


def test_criterion_9_singleton_bound():
    ok = all(
        singleton_check(catalog(name).n, catalog(name).k, distance(catalog(name)))
        for name in ("shor9", "bacon-shor-9", "five-qubit", "steane7")
    )
    ok &= not singleton_check(4, 1, 3)
    _verdict(9, "quantum Singleton bound", ok)


def test_criterion_10_monte_carlo_scaling():
    start = time.monotonic()
    ok = True
    for name in ("shor9", "bacon-shor-9"):
        code = catalog(name)
        table = build_table(code, 1)
        for q in range(9):
            for letter in "XYZ":
                rec = recover_and_classify(code, table, single(9, q, letter))
                ok &= rec.outcome is Outcome.GAUGE_SUCCESS
        rates = []
        for p in (0.005, 0.01, 0.02):
            report = run(code, table, NoiseModel(p), 1_000_000, seed=20260811)
            rates.append(report.failures / report.shots)
        xs = [math.log(p) for p in (0.005, 0.01, 0.02)]
        ys = [math.log(r) for r in rates]
        xbar, ybar = sum(xs) / 3, sum(ys) / 3
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
            (x - xbar) ** 2 for x in xs
        )
        ok &= slope >= 1.7
    ok &= time.monotonic() - start <= 300.0
    _verdict(10, "Monte Carlo quadratic scaling", ok)


def test_criterion_11_cli_determinism():
    import contextlib
    import io

    def capture(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(list(argv))
        return code, out.getvalue()

    ok = True
    sim = ("simulate", "--code", "shor9", "--p", "0.01", "--shots", "50000", "--seed", "77")
    ok &= capture(*sim, "--workers", "1") == capture(*sim, "--workers", "4")
    sweep = ("sweep", "--n", "4", "--k", "1", "--r", "1", "--distance-min", "2")
    ok &= capture(*sweep, "--workers", "1") == capture(*sweep, "--workers", "4")
    fg = ("find-gauge", "--code", "five-qubit", "--distance-min", "3")
    ok &= capture(*fg, "--workers", "1") == capture(*fg, "--workers", "4")
    _verdict(11, "CLI output is worker-count invariant", ok)
