import math

import pytest

from gaugeqec.catalog import catalog
from gaugeqec.decoder import Outcome, build_table, recover_and_classify
from gaugeqec.montecarlo import (
    SEED_BOUND,
    NoiseModel,
    SimReport,
    run,
    sample_error,
    shot_stream,
)
from gaugeqec.pauli import identity, single


def test_noise_model_bounds():
    NoiseModel(0.0)
    NoiseModel(1.0)
    with pytest.raises(ValueError):
        NoiseModel(-0.1)
    with pytest.raises(ValueError):
        NoiseModel(1.5)


def test_zero_probability_never_errs():
    model = NoiseModel(0.0)
    for shot in range(50):
        assert sample_error(model, 9, shot_stream(3, shot, 9)) == identity(9)


def test_unit_probability_always_errs():
    model = NoiseModel(1.0)
    for shot in range(200):
        assert sample_error(model, 1, shot_stream(3, shot, 1)) != identity(1)


def test_mean_weight_within_binomial_band():
    model = NoiseModel(0.5)
    shots, n = 100_000, 9
    total = 0
    for shot in range(shots):
        total += sample_error(model, n, shot_stream(77, shot, n)).weight
    mean = total / shots
    sigma = math.sqrt(n * 0.5 * 0.5 / shots)
    assert abs(mean - n * 0.5) <= 3 * sigma


def test_sampling_is_deterministic_per_shot():
    model = NoiseModel(0.3)
    a = [sample_error(model, 9, shot_stream(5, s, 9)) for s in range(40)]
    b = [sample_error(model, 9, shot_stream(5, s, 9)) for s in range(40)]
    assert a == b
    c = [sample_error(model, 9, shot_stream(6, s, 9)) for s in range(40)]
    assert a != c


def test_empty_run():
    code = catalog("shor9")
    table = build_table(code, 1)
    report = run(code, table, NoiseModel(0.1), 0, seed=1)
    assert report.shots == 0 and report.failures == 0


def test_run_refuses_fewer_than_one_worker():
    code = catalog("shor9")
    table = build_table(code, 1)
    with pytest.raises(ValueError, match="workers"):
        run(code, table, NoiseModel(0.1), 10, seed=1, workers=0)


def test_runs_reproduce_and_ignore_worker_count():
    code = catalog("bacon-shor-9")
    table = build_table(code, 1)
    a = run(code, table, NoiseModel(0.05), 40_000, seed=11)
    b = run(code, table, NoiseModel(0.05), 40_000, seed=11)
    c = run(code, table, NoiseModel(0.05), 40_000, seed=11, workers=2)
    d = run(code, table, NoiseModel(0.05), 40_000, seed=11, workers=3)
    assert a == b == c == d


def test_forced_weight_one_injections_never_fail():
    for name in ("shor9", "bacon-shor-9"):
        code = catalog(name)
        table = build_table(code, 1)
        for q in range(9):
            for letter in "XYZ":
                rec = recover_and_classify(code, table, single(9, q, letter))
                assert rec.outcome is Outcome.GAUGE_SUCCESS


def test_failure_rate_monotone_in_p():
    code = catalog("shor9")
    table = build_table(code, 1)
    rates = []
    for p in (0.001, 0.01, 0.05):
        report = run(code, table, NoiseModel(p), 100_000, seed=2026)
        rates.append(report.failures / report.shots)
    assert rates[0] < rates[1] < rates[2]


def test_report_counts_must_balance():
    with pytest.raises(ValueError):
        SimReport(10, 0.1, 1, gauge_success=5, unrecoverable=1, logical_failures=())


def test_report_serialization_round_trip():
    code = catalog("shor9")
    table = build_table(code, 1)
    report = run(code, table, NoiseModel(0.05), 5_000, seed=4)
    lines = report.as_lines().splitlines()
    assert lines[0] == "shots: 5000"
    assert lines[-1].startswith("unrecoverable: ")
    assert dict(report.as_items())["gauge_success"] == report.gauge_success


def test_table_code_mismatch_rejected():
    table = build_table(catalog("shor9"), 1)
    with pytest.raises(ValueError):
        run(catalog("bacon-shor-9"), table, NoiseModel(0.1), 10, seed=0)


def test_sampled_low_weight_shots_never_fail():
    # cross-check run() against per-shot replay: every shot that happened to
    # sample weight <= 1 must decode to a gauge transformation
    code = catalog("shor9")
    table = build_table(code, 1)
    model = NoiseModel(0.05)
    for shot in range(5_000):
        e = sample_error(model, 9, shot_stream(31, shot, 9))
        if e.weight <= 1:
            rec = recover_and_classify(code, table, e)
            assert rec.outcome is Outcome.GAUGE_SUCCESS


def test_identity_fallback_reclassifies_unrecoverable_shots():
    code = catalog("shor9")
    table = build_table(code, 1)
    strict = run(code, table, NoiseModel(0.2), 20_000, seed=8)
    relaxed = run(code, table, NoiseModel(0.2), 20_000, seed=8, fallback_identity=True)
    assert strict.unrecoverable > 0
    assert relaxed.unrecoverable == 0
    assert dict(relaxed.logical_failures)["uncorrected"] == strict.unrecoverable
    assert relaxed.gauge_success == strict.gauge_success


@pytest.mark.parametrize("seed", [-1, SEED_BOUND, SEED_BOUND + 5])
def test_seeds_outside_the_philox_key_range_are_refused(seed):
    with pytest.raises(ValueError, match="seed"):
        shot_stream(seed, 0, 9)


def test_largest_seed_is_its_own_key():
    top = shot_stream(SEED_BOUND - 1, 0, 9).random(9)
    assert not (top == shot_stream(0, 0, 9).random(9)).all()
