import hashlib
import json
import random
import time
from itertools import product

import pytest

from gaugeqec import gf2
from gaugeqec.catalog import catalog
from gaugeqec.code import SubsystemCode, validate
from gaugeqec.gf2 import Eliminator
from gaugeqec.pauli import (
    PauliOp,
    commutes,
    hermitian,
    multiply,
    pauli_from_string,
    single,
    swap_halves,
    vec_hermitian,
)
from gaugeqec.tableau import PartialFrame, check_pattern
from naive_ops import (
    affine_particular,
    anticommute,
    centralizer_lists,
    in_span,
    kernel_lists,
    split_sign,
    to_bits,
)
from naive_ops import rank as naive_rank

SHOR_STAB = [
    "XXXXXXIII", "XXXIIIXXX", "ZZIIIIIII", "IZZIIIIII",
    "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
]


def _ops(strings):
    return [pauli_from_string(s) for s in strings]


def _centralizer(n, gens):
    """The rows ``distance(..., "exhaustive")`` walks: the kernel of the swapped generators."""
    return list(Eliminator(swap_halves(g.vec, n) for g in gens).kernel(range(2 * n)))


def _words(ops):
    return [split_sign(str(op))[1] for op in ops]


def test_centralizer_of_nothing_spans_everything():
    basis = _centralizer(2, [])
    assert len(basis) == 4
    assert Eliminator(basis).rank == 4


def test_centralizer_size_table_one():
    gens = _ops(SHOR_STAB)
    basis = _centralizer(9, gens)
    assert len(basis) == 10
    span = Eliminator(basis)
    assert span.contains(pauli_from_string("ZZZZZZZZZ").vec)
    assert span.contains(pauli_from_string("XXXXXXXXX").vec)


def test_centralizer_size_table_two_contains_gauge_ops():
    bs = catalog("bacon-shor-9")
    basis = _centralizer(9, bs.stabilizer)
    assert len(basis) == 14
    span = Eliminator(basis)
    for op in bs.gauge_ops():
        assert span.contains(op.vec)


def test_centralizer_elements_commute_with_generators():
    # the kernel spans exactly the string reference's centralizer
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 8)
        gens = [hermitian(n, rng.randrange(1 << n), rng.randrange(1 << n))
                for _ in range(rng.randrange(4))]
        basis = _centralizer(n, gens)
        assert len(basis) == 2 * n - Eliminator(g.vec for g in gens).rank
        for b in basis:
            assert all(commutes(vec_hermitian(n, b), g) for g in gens)
        reference = centralizer_lists(_words(gens), n)
        assert naive_rank(reference) == len(basis) == naive_rank([_bits(b, 2 * n) for b in basis])
        assert all(in_span(reference, _bits(b, 2 * n)) for b in basis)


def _complete(n, rows):
    """``PartialFrame`` completion around known rows {index: (x|z) vector}."""
    frame = PartialFrame(n)
    for i, v in rows.items():
        assert frame.add(i, v)
    return frame.complete()


def test_symplectic_complete_single_qubit_default_frame():
    assert _complete(1, {}) == [single(1, 0, "X").vec, single(1, 0, "Z").vec]


def test_symplectic_complete_table_one():
    gens = _ops(SHOR_STAB)
    rows = _complete(9, {9 + i: g.vec for i, g in enumerate(gens)})
    check_pattern(9, rows)
    assert rows[9:17] == [g.vec for g in gens]
    # the leftover pair spans the centralizer together with the stabilizer
    derived = [rows[17], rows[8]]
    span = Eliminator(g.vec for g in gens)
    for v in derived:
        assert span.add(v)
    cent = centralizer_lists(SHOR_STAB, 9)
    assert naive_rank(cent) == 10
    for v in [g.vec for g in gens] + derived:
        assert in_span(cent, _bits(v, 18))


def test_symplectic_complete_table_two_spans_centralizer():
    bs = catalog("bacon-shor-9")
    gens = list(bs.stabilizer)
    rows = _complete(9, {9 + i: g.vec for i, g in enumerate(gens)})
    check_pattern(9, rows)
    cent = centralizer_lists(_words(gens), 9)
    completion = rows[13:18] + rows[4:9]
    assert all(in_span(cent, _bits(v, 18)) for v in completion)
    span = Eliminator([g.vec for g in gens] + completion)
    assert span.rank == 14 == naive_rank(cent)


def test_symplectic_complete_keeps_supplied_pairs():
    bs = catalog("bacon-shor-9")
    known = {9 + i: g.vec for i, g in enumerate(bs.stabilizer)}
    for i, (gx, gz) in enumerate(bs.gauge_pairs):
        known[4 + i], known[13 + i] = gx.vec, gz.vec
    rows = _complete(9, known)
    check_pattern(9, rows)
    assert all(rows[i] == v for i, v in known.items())


def test_symplectic_complete_rejects_dependent_input():
    s3 = pauli_from_string("ZZIIIIIII")
    s4 = pauli_from_string("IZZIIIIII")
    frame = PartialFrame(9)
    assert frame.add(9, s3.vec) and frame.add(10, s4.vec)
    assert not frame.add(11, multiply(s3, s4).vec)
    assert sorted(frame.rows) == [9, 10]


def test_symplectic_complete_rejects_pattern_violation():
    # two z rows that anticommute cannot share the z side of a frame
    frame = PartialFrame(2)
    assert frame.add(2, pauli_from_string("XI").vec) and frame.add(3, pauli_from_string("ZI").vec)
    with pytest.raises(ValueError):
        frame.complete()


def _random_frame(rng, n):
    """x and z vectors of a random frame: the standard one under 2n transvections."""
    xs = [1 << j for j in range(n)]
    zs = [1 << (n + j) for j in range(n)]
    for _ in range(2 * n):
        h = rng.randrange(1, 1 << (2 * n))
        h_sw = swap_halves(h, n)
        xs = [v ^ h if (v & h_sw).bit_count() & 1 else v for v in xs]
        zs = [v ^ h if (v & h_sw).bit_count() & 1 else v for v in zs]
    return xs, zs


def _op(n, vec, phase=0):
    return PauliOp(n, phase, vec & ((1 << n) - 1), vec >> n)


def _partial_assignment(rng):
    """Rows of a random frame with random phases, sometimes with one slot broken."""
    n = rng.randint(1, 6)
    xs, zs = _random_frame(rng, n)
    z_ops, x_ops = {}, {}
    for _ in range(rng.randint(0, 2 * n)):
        side, rows = rng.choice(((z_ops, zs), (x_ops, xs)))
        j = rng.randrange(n)
        side[j] = _op(n, rows[j], rng.randrange(4))
    kind = rng.choice(("none", "none", "slot", "row", "dependent"))
    side = rng.choice((z_ops, x_ops))
    if kind == "slot":  # out of range
        side[n] = _op(n, rng.randrange(1 << (2 * n)))
    elif kind == "row":  # usually breaks the commutation pattern
        side[rng.randrange(n)] = _op(n, rng.randrange(1 << (2 * n)), rng.randrange(4))
    elif kind == "dependent" and len(side) >= 2:
        a, b = rng.sample(sorted(side), 2)
        side[rng.randrange(n)] = _op(n, side[a].vec ^ side[b].vec)
    return n, z_ops, x_ops


def test_symplectic_complete_golden():
    # 3,000 seeded partial frames: about 60% complete, the rest have an
    # out-of-range slot or dependent rows, or fail completion on a pattern
    # violation; the phases of the supplied operators never reach the rows
    rng = random.Random(2005)
    outcomes = []
    for _ in range(3000):
        n, z_ops, x_ops = _partial_assignment(rng)
        if max([*z_ops, *x_ops], default=0) >= n:
            outcomes.append("slot out of range")
            continue
        supplied = {n + j: op.vec for j, op in sorted(z_ops.items())}
        supplied |= {j: op.vec for j, op in sorted(x_ops.items())}
        frame = PartialFrame(n)
        if not all(frame.add(i, v) for i, v in supplied.items()):
            outcomes.append("dependent")
            continue
        try:
            rows = frame.complete()
        except ValueError as exc:
            outcomes.append(str(exc))
        else:
            assert all(rows[i] == v for i, v in supplied.items())
            outcomes.append(rows)
    assert sum(isinstance(o, list) for o in outcomes) == 1875
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "b9461458a99a1ff4cab9430883c7d226bcb611ab4549617a837e327e1de0082c"


def _bits(v, width):
    return [(v >> j) & 1 for j in range(width)]


def _int(bits):
    return sum(b << j for j, b in enumerate(bits))


def test_filled_rows_match_an_independent_gram_schmidt():
    # Re-derive every filled row, in fill order, with the 0/1-list reference:
    # solve "commute with every known row, anticommute with the partner", then
    # take the first of the particular solution and its kernel shifts that is
    # nonzero and outside the span of the known rows.
    rng = random.Random(1113)
    filled = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        xs, zs = _random_frame(rng, n)
        rows = {("x", j): xs[j] for j in range(n)} | {("z", j): zs[j] for j in range(n)}
        given = rng.sample(sorted(rows), rng.randint(0, 2 * n))
        side = {"x": {}, "z": {}}
        for kind, j in given:
            side[kind][j] = _op(n, rows[kind, j], rng.randrange(4))
        supplied = {n + j: op.vec for j, op in sorted(side["z"].items())}
        supplied |= {j: op.vec for j, op in sorted(side["x"].items())}
        frame = _complete(n, supplied)
        out = {("x", j): frame[j] for j in range(n)} | {("z", j): frame[n + j] for j in range(n)}
        known = {key: out[key] for key in given}
        for slot in range(n):
            for kind, other in (("x", "z"), ("z", "x")):
                if (kind, slot) in known:
                    continue
                system = []
                for key, v in known.items():
                    bits = _bits(v, 2 * n)
                    system.append((bits[n:] + bits[:n], int(key == (other, slot))))
                particular = affine_particular(system, 2 * n)
                kernel = kernel_lists([mask for mask, _ in system], 2 * n)
                span = [_bits(v, 2 * n) for v in known.values()]
                candidates = [particular] + [
                    [a ^ b for a, b in zip(particular, k)] for k in kernel
                ]
                expected = next(c for c in candidates if any(c) and not in_span(span, c))
                assert out[kind, slot] == _int(expected)
                known[kind, slot] = out[kind, slot]
                filled += 1
    assert filled > 600


@pytest.mark.parametrize("n, frames", [(1, 6), (2, 720)])
def test_frame_check_accepts_exactly_the_standard_gram_matrix(n, frames):
    # every assignment of 2n rows: the pattern check alone passes exactly when
    # the Gram matrix is the standard form, and those rows have full rank
    letters = ["".join("IXZY"[v >> j & 1 | (v >> n + j & 1) << 1] for j in range(n)) for v in range(1 << 2 * n)]
    anti = [[anticommute(a, b) for b in letters] for a in letters]
    passed = 0
    for rows in product(range(1 << 2 * n), repeat=2 * n):
        standard = all(
            anti[rows[i]][rows[j]] == (abs(i - j) == n)
            for i in range(2 * n)
            for j in range(2 * n)
        )
        try:
            check_pattern(n, rows)
        except ValueError:
            assert not standard
            continue
        assert standard
        assert naive_rank([to_bits(letters[v]) for v in rows]) == 2 * n
        passed += 1
    assert passed == frames


@pytest.mark.parametrize("name", ["shor9", "bacon-shor-9"])
def test_completion_builds_one_elimination(name, monkeypatch):
    stabilizer = catalog(name).stabilizer
    built = []

    class Counting(gf2.Eliminator):
        def __init__(self, rows=()):
            built.append(1)
            super().__init__(rows)

    monkeypatch.setattr(gf2, "Eliminator", Counting)
    rows = _complete(9, {9 + i: g.vec for i, g in enumerate(stabilizer)})
    assert rows[9 : 9 + len(stabilizer)] == [g.vec for g in stabilizer]
    assert len(built) == 1


@pytest.mark.parametrize("name", ["shor9", "bacon-shor-9"])
def test_completion_takes_kernel_shifts_only_for_rows_inside_the_span(name, monkeypatch):
    # a row whose partner is known anticommutes with it, so its particular
    # solution is outside the span; only the x row of an empty slot (its
    # particular solution is 0) needs the kernel shifts: one call per empty
    # slot, not one per missing row (2n - s)
    stabilizer = catalog(name).stabilizer
    calls = []
    kernel = gf2.Eliminator.kernel

    def counting(self, ncols):
        calls.append(ncols)
        return kernel(self, ncols)

    monkeypatch.setattr(gf2.Eliminator, "kernel", counting)
    rows = _complete(9, {9 + i: g.vec for i, g in enumerate(stabilizer)})
    assert rows[9 : 9 + len(stabilizer)] == [g.vec for g in stabilizer]
    assert len(calls) == 9 - len(stabilizer)


def test_an_empty_1000_qubit_code_validates_in_under_two_seconds():
    # each empty slot takes the first kernel vector outside the span, not the whole kernel
    start = time.process_time()
    report = validate(SubsystemCode(1000))
    assert time.process_time() - start < 2
    assert report.ok and report.completed.rows == tuple(
        v for q in range(1000) for v in (1 << q, 1 << 1000 + q))
