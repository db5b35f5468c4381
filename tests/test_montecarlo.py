import math
from collections import Counter

import numpy as np
import pytest

from gaugeqec import montecarlo
from gaugeqec.catalog import catalog
from gaugeqec.code import validated
from gaugeqec.codefile import parse_code_file
from gaugeqec.decoder import DecodingTable, Outcome, build_table, recover_and_classify, syndrome
from gaugeqec.distance import Kind, classify
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


def test_signed_zero_probability_is_zero():
    assert math.copysign(1.0, NoiseModel(-0.0).p) == 1.0
    assert NoiseModel(-0.0) == NoiseModel(0.0)


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
    # one stream walks every shot's slot: n draws, then the slot's padding
    rng = shot_stream(77, 0, n)
    padding = 4 * ((n + 3) // 4) - n
    total = 0
    for _ in range(shots):
        total += sample_error(model, n, rng).weight
        rng.random(padding)
    assert total == 450_074  # the total of one fresh stream per shot
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
    items = report.as_items()
    assert items[0] == ("shots", 5000)
    assert items[-1][0] == "unrecoverable"
    assert dict(items)["gauge_success"] == report.gauge_success


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


@pytest.mark.parametrize("seed", [0, 41, 20260811, SEED_BOUND - 1])
@pytest.mark.parametrize("shot, n", [(0, 9), (1, 9), (12_345, 9), (777, 5), (3, 36)])
def test_philox_doubles_are_raw_words_over_two_to_the_53(seed, shot, n):
    # ``run`` reads the raw words that ``sample_error``'s doubles come from
    doubles = shot_stream(seed, shot, n).random(1_000)
    words = shot_stream(seed, shot, n).bit_generator.random_raw(1_000)
    assert np.array_equal(doubles, (words >> np.uint64(11)) * 2.0**-53)


@pytest.mark.parametrize("p", [0.0, -0.0, 5e-324, 1e-300, 0.005, 1 / 3, 0.5, 1 - 2**-53, 1.0])
def test_raw_word_compare_is_the_double_compare(p):
    # a draw hits when its double is below p, i.e. when w < ceil(p * 2^53) * 2^11
    limit = math.ceil(p * 2.0**53) << 11
    assert 0 <= limit <= 1 << 64
    words = sorted({w for w in (0, limit - 1, limit, (1 << 64) - 1) if 0 <= w < 1 << 64})
    doubles = (np.array(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53
    assert [w < limit for w in words] == (doubles < p).tolist()


# SimReport counts at seed 20260811, 10^5 shots, t = 1, captured before the
# batch decoder replaced the per-shot loop in run():
# (gauge_success, unrecoverable, logical_failures)
GOLDEN_100K = {
    ("shor9", 0.005): (99923, 62, (("X", 4), ("Z", 11))),
    ("shor9", 0.01): (99707, 222, (("X", 33), ("Z", 38))),
    ("shor9", 0.02): (98823, 932, (("X", 143), ("Z", 102))),
    ("bacon-shor-9", 0.005): (99952, 0, (("X", 18), ("Y", 4), ("Z", 26))),
    ("bacon-shor-9", 0.01): (99781, 0, (("X", 94), ("Y", 20), ("Z", 105))),
    ("bacon-shor-9", 0.02): (99152, 0, (("X", 368), ("Y", 96), ("Z", 384))),
}


@pytest.mark.parametrize("name, p", sorted(GOLDEN_100K))
def test_seeded_counts_are_pinned(name, p):
    code = catalog(name)
    report = run(code, build_table(code, 1), NoiseModel(p), 100_000, seed=20260811)
    got = (report.gauge_success, report.unrecoverable, report.logical_failures)
    assert got == GOLDEN_100K[name, p]


def per_shot_report(code, table, model, shots, seed, fallback_identity=False):
    """Tally shots one at a time through the public per-shot functions."""
    gauge = unrec = 0
    failures = Counter()
    for shot in range(shots):
        error = sample_error(model, code.n, shot_stream(seed, shot, code.n))
        rec = recover_and_classify(code, table, error)
        if rec.outcome is Outcome.UNRECOVERABLE and fallback_identity:
            # identity recovery leaves the error itself as the residual
            cls = classify(code, error)
            if cls.kind is Kind.GAUGE:
                gauge += 1
            elif cls.kind is Kind.LOGICAL:
                failures[cls.label_str()] += 1
            else:  # the nonzero syndrome stays in place
                failures["uncorrected"] += 1
        elif rec.outcome is Outcome.GAUGE_SUCCESS:
            gauge += 1
        elif rec.outcome is Outcome.UNRECOVERABLE:
            unrec += 1
        else:
            failures[rec.logical_class.label_str()] += 1
    return SimReport(shots, model.p, seed, gauge, unrec, tuple(sorted(failures.items())))


@pytest.fixture
def small_chunks(monkeypatch):
    # many chunks per run, so merging shot keys across chunks is exercised
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 256)


@pytest.mark.parametrize("name", ["shor9", "bacon-shor-9"])
@pytest.mark.parametrize("p", [0.0, 0.02, 0.3, 1.0, 0.5, 1 - 2**-53, 5e-324])
def test_run_equals_per_shot_path(name, p, small_chunks):
    code = catalog(name)
    table = build_table(code, 1)
    model = NoiseModel(p)
    expected = per_shot_report(code, table, model, 1_500, seed=41)
    assert run(code, table, model, 1_500, seed=41) == expected
    assert run(code, table, model, 1_500, seed=41, workers=2) == expected


@pytest.mark.parametrize(
    "code",
    [
        parse_code_file("n: 4\n\n[stabilizer]\nXXXX\nZZZZ\n"),
        catalog("five-qubit"),
        parse_code_file("n: 6\n\n[stabilizer]\nXXXXXX\nZZZZZZ\n"),
        catalog("steane7"),
    ],
    ids=lambda code: f"n{code.n}",
)
@pytest.mark.parametrize("p", [0.3, 1.0])
def test_run_equals_per_shot_path_at_every_slot_padding(code, p, small_chunks):
    # n = 4, 5, 6, 7 leave 0, 3, 2 and 1 padding words in a shot's last
    # Philox block, all of which the clean-shot screen must ignore
    table = build_table(code, 1)
    model = NoiseModel(p)
    expected = per_shot_report(code, table, model, 1_000, seed=19)
    assert run(code, table, model, 1_000, seed=19) == expected
    assert run(code, table, model, 1_000, seed=19, workers=2) == expected


def test_identity_fallback_equals_per_shot_path_with_weight_zero_table(small_chunks):
    code = catalog("bacon-shor-9")
    table = build_table(code, 0)
    model = NoiseModel(0.1)
    expected = per_shot_report(code, table, model, 2_000, seed=12, fallback_identity=True)
    assert expected.unrecoverable == 0 and dict(expected.logical_failures)["uncorrected"] > 0
    assert run(code, table, model, 2_000, seed=12, fallback_identity=True) == expected
    assert run(code, table, model, 2_000, seed=12, workers=2, fallback_identity=True) == expected


@pytest.mark.parametrize("p", [0.0, 0.05])
def test_nonidentity_trivial_syndrome_entry_decodes_clean_shots(p, small_chunks):
    # recovering syndrome 0 with a logical X sends every clean shot to X
    code = validated(catalog("shor9"))
    entries = dict(build_table(code, 1).entries)
    entries[0] = code.logical_pairs[0][0]
    table = DecodingTable(code, 1, entries)
    model = NoiseModel(p)
    expected = per_shot_report(code, table, model, 2_000, seed=77)
    assert dict(expected.logical_failures)["X"] > 0
    assert run(code, table, model, 2_000, seed=77) == expected
    assert run(code, table, model, 2_000, seed=77, workers=2) == expected


@pytest.mark.parametrize("name", ["shor9", "five-qubit"])
@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("fallback", [False, True])
def test_table_without_a_trivial_syndrome_entry(name, p, fallback, small_chunks):
    # clean shots decode under key 0 like any other key: with no entry they
    # are unrecoverable, while the identity fallback leaves them clean and
    # counts only shots with a nonzero syndrome as uncorrected
    code = validated(catalog(name))
    entries = dict(build_table(code, 1).entries)
    del entries[0]
    table = DecodingTable(code, 1, entries)
    model = NoiseModel(p)
    expected = per_shot_report(code, table, model, 1_000, seed=5, fallback_identity=fallback)
    lost = dict(expected.logical_failures).get("uncorrected", 0) + expected.unrecoverable
    if not fallback:
        assert lost > 0 and (p > 0 or lost == 1_000)
    elif p == 0:
        assert expected.gauge_success == 1_000
    else:  # five-qubit's table holds every nonzero syndrome
        assert expected.unrecoverable == 0 and (lost > 0) == (name == "shor9")
    assert run(code, table, model, 1_000, seed=5, fallback_identity=fallback) == expected
    assert run(code, table, model, 1_000, seed=5, workers=2, fallback_identity=fallback) == expected


def test_entry_with_the_wrong_syndrome_leaves_the_normalizer(small_chunks):
    # a hand-built entry whose syndrome differs from its key leaves a residual
    # outside the normalizer, counted under its own failure class
    code = catalog("shor9")
    key = syndrome(code, single(9, 0, "X")).bits
    entries = dict(build_table(code, 1).entries)
    entries[key] = identity(9)
    table = DecodingTable(code, 1, entries)
    model = NoiseModel(0.05)
    hits = sum(
        syndrome(code, sample_error(model, 9, shot_stream(3, shot, 9))).bits == key
        for shot in range(2_000)
    )
    report = run(code, table, model, 2_000, seed=3)
    assert hits > 0
    assert dict(report.logical_failures)["outside_normalizer"] == hits


def _shor_like_file(blocks: int, size: int, drop: tuple[int, ...]) -> str:
    """Code file of a blocks x size Shor-type code minus the listed stabilizers."""
    n = blocks * size
    rows = []
    for b in range(blocks):
        for i in range(size - 1):
            row = ["I"] * n
            row[b * size + i] = row[b * size + i + 1] = "Z"
            rows.append("".join(row))
    for b in range(blocks - 1):
        rows.append("I" * (b * size) + "X" * (2 * size) + "I" * (n - (b + 2) * size))
    kept = [row for i, row in enumerate(rows) if i not in drop]
    return f"n: {n}\n\n[stabilizer]\n" + "\n".join(kept) + "\n"


@pytest.mark.parametrize(
    "text, p",
    [
        # 35 qubits, 32 stabilizers, 3 logical qubits: labels such as X1Z2
        (_shor_like_file(5, 7, drop=(0, 33)), 0.02),
        # 36 qubits, 2 stabilizers, 34 logical qubits: 70-bit shot keys
        ("n: 36\n\n[stabilizer]\n" + "X" * 36 + "\n" + "Z" * 36 + "\n", 0.01),
    ],
    ids=["shor-like-35", "two-stabilizer-36"],
)
def test_run_equals_per_shot_path_beyond_64_bits(text, p, small_chunks):
    code = parse_code_file(text)
    assert code.n >= 33
    table = build_table(code, 1)
    model = NoiseModel(p)
    expected = per_shot_report(code, table, model, 1_000, seed=2024)
    labels = dict(expected.logical_failures)
    assert expected.gauge_success > 0 and any(len(label) > 2 for label in labels)
    assert run(code, table, model, 1_000, seed=2024) == expected
    assert run(code, table, model, 1_000, seed=2024, workers=2) == expected


class _FixedWords:
    """A stand-in shot stream that hands out chosen raw Philox words in order."""

    def __init__(self, words):
        self.words = words
        self.bit_generator = self

    def random_raw(self, k):
        out, self.words = self.words[:k], self.words[k:]
        return out

    def random(self, k):  # the doubles numpy makes of the same words
        return (self.random_raw(k) >> np.uint64(11)) * 2.0**-53


@pytest.mark.parametrize("p", [0.02, 1 / 3, 0.5, 1 - 2**-53, 1.0])
def test_run_cuts_hits_and_letters_exactly_where_the_doubles_do(p, monkeypatch, small_chunks):
    # words on both sides of the hit limit and of the X/Y and Y/Z letter
    # edges, which random words almost never reach
    limit = math.ceil(p * 2.0**53) << 11
    edges = {0, limit - 1, limit, (1 << 64) - 1}
    for third in (1, 2):
        m = int(third * p / 3 * 2.0**53)
        edges |= {(m + d) << 11 | low for d in range(-2, 3) for low in (0, 0x7FF)}
    edges = np.array(sorted(w for w in edges if 0 <= w < 1 << 64), dtype=np.uint64)
    shots, width = 700, 12
    words = np.random.default_rng(3).choice(edges, size=shots * width)

    def stream(seed, shot, n):
        return _FixedWords(words[shot * width :])

    # both ``run`` and the per-shot reference read these words
    monkeypatch.setattr(montecarlo, "shot_stream", stream)
    monkeypatch.setitem(globals(), "shot_stream", stream)
    code = catalog("shor9")
    table = build_table(code, 1)
    expected = per_shot_report(code, table, NoiseModel(p), shots, seed=0)
    assert expected.gauge_success < shots
    assert run(code, table, NoiseModel(p), shots, seed=0) == expected
