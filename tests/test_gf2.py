import random

import pytest

from gaugeqec.gf2 import (
    BinMatrix,
    Eliminator,
    ParityMap,
    gray_walk,
    kernel_basis,
    parities,
    parity,
    rank,
    rref,
    solve_membership,
)


def test_rref_zero_matrix():
    m = BinMatrix(6, (0, 0, 0))
    reduced, r, pivots = rref(m)
    assert r == 0
    assert pivots == ()
    assert reduced.rows == ()


def test_rref_known_example():
    # rows: 110, 011 -> reduced: 110? no: full reduction gives 101? work it out:
    # [1,1,0], [0,1,1] -> eliminate col1 from row0: [1,0,1], [0,1,1]
    m = BinMatrix(3, (0b011, 0b110))
    reduced, r, pivots = rref(m)
    assert r == 2
    assert pivots == (0, 1)
    assert reduced.rows == (0b101, 0b110)


def test_rref_pivots_strictly_increasing_and_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        ncols = rng.randrange(1, 16)
        rows = tuple(rng.randrange(1 << ncols) for _ in range(rng.randrange(8)))
        reduced, r, pivots = rref(BinMatrix(ncols, rows))
        assert list(pivots) == sorted(set(pivots))
        assert len(pivots) == r == len(reduced.rows)
        again, r2, pivots2 = rref(reduced)
        assert again.rows == reduced.rows and r2 == r and pivots2 == pivots


def test_rref_dependent_rows():
    a, b = 0b0110, 0b1100
    _, r, _ = rref(BinMatrix(4, (a, b, a ^ b)))
    assert r == 2


def test_solve_membership_zero_vector_is_empty_combination():
    m = BinMatrix(4, (0b0110, 0b1100))
    assert solve_membership(m, 0) == 0


def test_solve_membership_roundtrip_random():
    rng = random.Random(5)
    for _ in range(200):
        ncols = rng.randrange(1, 14)
        nrows = rng.randrange(1, 8)
        rows = tuple(rng.randrange(1 << ncols) for _ in range(nrows))
        m = BinMatrix(ncols, rows)
        comb = rng.randrange(1 << nrows)
        v = 0
        for i in range(nrows):
            if (comb >> i) & 1:
                v ^= rows[i]
        got = solve_membership(m, v)
        assert got is not None
        rebuilt = 0
        for i in range(nrows):
            if (got >> i) & 1:
                rebuilt ^= rows[i]
        assert rebuilt == v


def test_solve_membership_absent():
    m = BinMatrix(3, (0b001, 0b010))
    assert solve_membership(m, 0b100) is None


def test_solve_membership_rejects_wrong_length():
    with pytest.raises(ValueError):
        solve_membership(BinMatrix(3, (0b001,)), 0b1000)


def test_membership_agrees_before_and_after_reduction():
    rng = random.Random(23)
    for _ in range(100):
        ncols = rng.randrange(1, 12)
        rows = tuple(rng.randrange(1 << ncols) for _ in range(rng.randrange(1, 7)))
        m = BinMatrix(ncols, rows)
        reduced, _, _ = rref(m)
        for _ in range(5):
            v = rng.randrange(1 << ncols)
            assert (solve_membership(m, v) is None) == (
                solve_membership(reduced, v) is None
            )


def test_kernel_basis_size_and_orthogonality():
    rng = random.Random(7)
    for _ in range(100):
        ncols = rng.randrange(1, 14)
        rows = tuple(rng.randrange(1 << ncols) for _ in range(rng.randrange(6)))
        m = BinMatrix(ncols, rows)
        kernel = kernel_basis(m)
        assert len(kernel) == ncols - rank(m)
        for v in kernel:
            assert all(parity(v & row) == 0 for row in rows)
        assert rank(BinMatrix(ncols, tuple(kernel))) == len(kernel)


def test_nine_qubit_stabilizer_rows_are_independent():
    from gaugeqec.catalog import catalog

    rows = tuple(g.vec for g in catalog("shor9").stabilizer)
    assert rank(BinMatrix(18, rows)) == 8


def test_four_stabilizer_code_recovers_the_dropped_generator():
    # the pairwise-Z generator on the last block lies in the span of the
    # four stabilizers plus the z-type gauge generators
    from gaugeqec.catalog import catalog
    from gaugeqec.pauli import pauli_from_string

    bs = catalog("bacon-shor-9")
    rows = tuple(g.vec for g in bs.stabilizer) + tuple(
        gz.vec for _, gz in bs.gauge_pairs
    )
    m = BinMatrix(18, rows)
    target = pauli_from_string("IIIIIIZZI").vec  # seventh generator upstream
    comb = solve_membership(m, target)
    assert comb is not None
    # exactly the combination {third stabilizer row, gauge z 3, gauge z 4}
    assert comb == (1 << 2) | (1 << 6) | (1 << 7)
    assert solve_membership(m, pauli_from_string("XXXXXXXXX").vec) is None


def test_eliminator_matches_matrix_rank_and_membership():
    rng = random.Random(42)
    for _ in range(50):
        ncols = rng.randrange(1, 14)
        rows = [rng.randrange(1 << ncols) for _ in range(rng.randrange(8))]
        elim = Eliminator(rows)
        assert elim.rank == rank(BinMatrix(ncols, tuple(rows)))
        for _ in range(5):
            v = rng.randrange(1 << ncols)
            expected = solve_membership(BinMatrix(ncols, tuple(rows)), v) is not None
            assert elim.contains(v) == expected


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
