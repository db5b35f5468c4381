import random

import pytest

from gaugeqec.gf2 import Eliminator, ParityMap, gray_walk, parities
from naive_ops import in_span, rref_lists
from naive_ops import rank as naive_rank
from test_gf2_reference import tagged_combination


def _lists(rows, ncols):
    return [[(v >> j) & 1 for j in range(ncols)] for v in rows]


def _int(bits):
    return sum(b << j for j, b in enumerate(bits))


def test_rref_zero_matrix():
    elim = Eliminator((0, 0, 0))
    assert elim.rank == 0
    assert elim.pivots == []


def test_rref_known_example():
    # rows: 110, 011 -> reduced: 110? no: full reduction gives 101? work it out:
    # [1,1,0], [0,1,1] -> eliminate col1 from row0: [1,0,1], [0,1,1]
    elim = Eliminator((0b011, 0b110))
    assert elim.rank == 2
    assert elim.pivots == [(0, 0b101), (1, 0b110)]


def test_rref_pivots_strictly_increasing_and_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        ncols = rng.randrange(1, 16)
        rows = tuple(rng.randrange(1 << ncols) for _ in range(rng.randrange(8)))
        elim = Eliminator(rows)
        pivots = [p for p, _ in elim.pivots]
        assert pivots == sorted(set(pivots))
        assert len(pivots) == elim.rank
        ref_rows, ref_pivots = rref_lists(_lists(rows, ncols), ncols)
        assert elim.pivots == list(zip(ref_pivots, map(_int, ref_rows)))
        again = Eliminator(row for _, row in elim.pivots)
        assert again.pivots == elim.pivots


def test_rref_dependent_rows():
    a, b = 0b0110, 0b1100
    assert Eliminator((a, b, a ^ b)).rank == 2


def test_tagged_membership_zero_vector_is_empty_combination():
    assert tagged_combination((0b0110, 0b1100), 4, 0) == 0


def test_tagged_membership_roundtrip_random():
    rng = random.Random(5)
    for _ in range(200):
        ncols = rng.randrange(1, 14)
        nrows = rng.randrange(1, 8)
        rows = tuple(rng.randrange(1 << ncols) for _ in range(nrows))
        comb = rng.randrange(1 << nrows)
        v = 0
        for i in range(nrows):
            if (comb >> i) & 1:
                v ^= rows[i]
        got = tagged_combination(rows, ncols, v)
        assert got is not None
        rebuilt = 0
        for i in range(nrows):
            if (got >> i) & 1:
                rebuilt ^= rows[i]
        assert rebuilt == v


def test_tagged_membership_absent():
    assert tagged_combination((0b001, 0b010), 3, 0b100) is None


def test_membership_agrees_before_and_after_reduction():
    rng = random.Random(23)
    for _ in range(100):
        ncols = rng.randrange(1, 12)
        rows = tuple(rng.randrange(1 << ncols) for _ in range(rng.randrange(1, 7)))
        reduced = tuple(row for _, row in Eliminator(rows).pivots)
        for _ in range(5):
            v = rng.randrange(1 << ncols)
            assert (tagged_combination(rows, ncols, v) is None) == (
                tagged_combination(reduced, ncols, v) is None
            )


def test_kernel_size_and_orthogonality():
    rng = random.Random(7)
    for _ in range(100):
        ncols = rng.randrange(1, 14)
        rows = tuple(rng.randrange(1 << ncols) for _ in range(rng.randrange(6)))
        elim = Eliminator(rows)
        kernel = list(elim.kernel(range(ncols)))
        assert len(kernel) == ncols - elim.rank
        for v in kernel:
            assert all((v & row).bit_count() & 1 == 0 for row in rows)
        assert Eliminator(kernel).rank == len(kernel)


def test_nine_qubit_stabilizer_rows_are_independent():
    from gaugeqec.catalog import catalog

    rows = tuple(g.vec for g in catalog("shor9").stabilizer)
    assert Eliminator(rows).rank == 8


def test_four_stabilizer_code_recovers_the_dropped_generator():
    # the pairwise-Z generator on the last block lies in the span of the
    # four stabilizers plus the z-type gauge generators
    from gaugeqec.catalog import catalog
    from gaugeqec.pauli import pauli_from_string

    bs = catalog("bacon-shor-9")
    rows = tuple(g.vec for g in bs.stabilizer) + tuple(
        gz.vec for _, gz in bs.gauge_pairs
    )
    target = pauli_from_string("IIIIIIZZI").vec  # seventh generator upstream
    comb = tagged_combination(rows, 18, target)
    assert comb is not None
    # exactly the combination {third stabilizer row, gauge z 3, gauge z 4}
    assert comb == (1 << 2) | (1 << 6) | (1 << 7)
    assert tagged_combination(rows, 18, pauli_from_string("XXXXXXXXX").vec) is None


def test_eliminator_matches_matrix_rank_and_membership():
    rng = random.Random(42)
    for _ in range(50):
        ncols = rng.randrange(1, 14)
        rows = [rng.randrange(1 << ncols) for _ in range(rng.randrange(8))]
        elim = Eliminator(rows)
        lists = _lists(rows, ncols)
        assert elim.rank == naive_rank(lists)
        for _ in range(5):
            v = rng.randrange(1 << ncols)
            assert elim.contains(v) == in_span(lists, *_lists([v], ncols))


def test_insert_of_a_reduced_row_matches_add():
    rng = random.Random(7)
    for _ in range(50):
        ncols = rng.randrange(1, 14)
        added, inserted = Eliminator(), Eliminator()
        for _ in range(rng.randrange(10)):
            v = rng.randrange(1 << ncols)
            grew = added.add(v)
            reduced = inserted.reduce(v)
            assert grew == (reduced != 0)
            if reduced:
                inserted.insert(reduced)
            assert inserted.pivots == added.pivots


@pytest.mark.parametrize("nbits", [1, 5, 8, 13, 18, 24])
def test_parity_map_matches_parities(nbits):
    rng = random.Random(nbits)
    for nrows in (0, 1, 7, 64, 65, 130):
        rows = [rng.randrange(1 << nbits) for _ in range(nrows)]
        key = ParityMap(rows, nbits)
        assert key.width == nrows
        assert [len(table) for table in key.tables] == [256] * ((nbits + 7) // 8)
        for v in [0, (1 << nbits) - 1] + [rng.randrange(1 << nbits) for _ in range(200)]:
            assert key(v) == parities(v, rows)


def test_gray_walk_visits_every_combination_once():
    rows = [0b0011, 0b0110, 0b1000]
    walk = list(gray_walk(0b10000, rows))
    assert sorted(walk) == sorted(
        0b10000 ^ (rows[0] * (c & 1)) ^ (rows[1] * (c >> 1 & 1)) ^ (rows[2] * (c >> 2))
        for c in range(8)
    )
    # one row flip per step
    assert all((a ^ b) in rows for a, b in zip(walk, walk[1:]))
