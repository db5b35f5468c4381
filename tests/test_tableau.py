import hashlib
import json
import random
from itertools import product

import pytest

from gaugeqec import gf2
from gaugeqec.catalog import catalog
from gaugeqec.gf2 import Eliminator
from gaugeqec.pauli import (
    commutes,
    from_vec,
    identity,
    multiply,
    pauli_from_string,
    pauli_to_string,
    single,
    swap_halves,
)
from gaugeqec.tableau import (
    SymplecticFrame,
    centralizer_basis,
    in_group_exact,
    in_group_mod_phase,
    symplectic_complete,
)
from naive_ops import (
    affine_particular,
    anticommute,
    in_span,
    kernel_lists,
    membership_combination,
    to_bits,
)
from naive_ops import mul as naive_mul
from naive_ops import rank as naive_rank

SHOR_STAB = [
    "XXXXXXIII", "XXXIIIXXX", "ZZIIIIIII", "IZZIIIIII",
    "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
]


def _ops(strings):
    return [pauli_from_string(s) for s in strings]


def test_centralizer_of_nothing_spans_everything():
    basis = centralizer_basis(2, [])
    assert len(basis) == 4
    assert Eliminator(p.vec for p in basis).rank == 4


def test_centralizer_size_table_one():
    gens = _ops(SHOR_STAB)
    basis = centralizer_basis(9, gens)
    assert len(basis) == 10
    span = Eliminator(p.vec for p in basis)
    assert span.contains(pauli_from_string("ZZZZZZZZZ").vec)
    assert span.contains(pauli_from_string("XXXXXXXXX").vec)


def test_centralizer_size_table_two_contains_gauge_ops():
    bs = catalog("bacon-shor-9")
    basis = centralizer_basis(9, list(bs.stabilizer))
    assert len(basis) == 14
    span = Eliminator(p.vec for p in basis)
    for op in bs.gauge_ops():
        assert span.contains(op.vec)


def test_centralizer_elements_commute_with_generators():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 8)
        gens = []
        for _ in range(rng.randrange(4)):
            x, z = rng.randrange(1 << n), rng.randrange(1 << n)
            from gaugeqec.pauli import hermitian

            gens.append(hermitian(n, x, z))
        basis = centralizer_basis(n, gens)
        expected = 2 * n - Eliminator(g.vec for g in gens).rank
        assert len(basis) == expected
        for b in basis:
            assert all(commutes(b, g) for g in gens)


def test_symplectic_complete_single_qubit_default_frame():
    frame = symplectic_complete(1)
    assert frame.x_ops[0] == single(1, 0, "X")
    assert frame.z_ops[0] == single(1, 0, "Z")


def test_symplectic_complete_table_one():
    gens = _ops(SHOR_STAB)
    frame = symplectic_complete(9, z_ops=dict(enumerate(gens)))
    frame.check()
    for i, g in enumerate(gens):
        assert frame.z_ops[i] == g
    # the leftover pair spans the centralizer together with the stabilizer
    derived = [frame.z_ops[8], frame.x_ops[8]]
    span = Eliminator(g.vec for g in gens)
    for op in derived:
        assert span.add(op.vec)
    cent = Eliminator(p.vec for p in centralizer_basis(9, gens))
    assert cent.rank == 10
    for op in list(gens) + derived:
        assert cent.contains(op.vec)


def test_symplectic_complete_table_two_spans_centralizer():
    bs = catalog("bacon-shor-9")
    gens = list(bs.stabilizer)
    frame = symplectic_complete(9, z_ops=dict(enumerate(gens)))
    frame.check()
    cent = Eliminator(p.vec for p in centralizer_basis(9, gens))
    completion = [frame.z_ops[j] for j in range(4, 9)] + [
        frame.x_ops[j] for j in range(4, 9)
    ]
    assert all(cent.contains(op.vec) for op in completion)
    span = Eliminator(op.vec for op in list(gens) + completion)
    assert span.rank == 14 == cent.rank


def test_symplectic_complete_keeps_supplied_pairs():
    bs = catalog("bacon-shor-9")
    z_slots = {i: g for i, g in enumerate(bs.stabilizer)}
    x_slots = {}
    for i, (gx, gz) in enumerate(bs.gauge_pairs):
        z_slots[4 + i] = gz
        x_slots[4 + i] = gx
    frame = symplectic_complete(9, z_slots, x_slots)
    frame.check()
    for i, (gx, gz) in enumerate(bs.gauge_pairs):
        assert frame.x_ops[4 + i] == gx
        assert frame.z_ops[4 + i] == gz


def test_symplectic_complete_rejects_dependent_input():
    s3 = pauli_from_string("ZZIIIIIII")
    s4 = pauli_from_string("IZZIIIIII")
    dependent = multiply(s3, s4)
    with pytest.raises(ValueError):
        symplectic_complete(9, z_ops={0: s3, 1: s4, 2: dependent})


def test_symplectic_complete_rejects_pattern_violation():
    # two z rows that anticommute cannot share the z side of a frame
    with pytest.raises(ValueError):
        symplectic_complete(
            2, z_ops={0: pauli_from_string("XI"), 1: pauli_from_string("ZI")}
        )


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


def _partial_assignment(rng):
    """Rows of a random frame with random phases, sometimes with one slot broken."""
    n = rng.randint(1, 6)
    xs, zs = _random_frame(rng, n)
    z_ops, x_ops = {}, {}
    for _ in range(rng.randint(0, 2 * n)):
        side, rows = rng.choice(((z_ops, zs), (x_ops, xs)))
        j = rng.randrange(n)
        side[j] = from_vec(n, rows[j], rng.randrange(4))
    kind = rng.choice(("none", "none", "slot", "row", "dependent"))
    side = rng.choice((z_ops, x_ops))
    if kind == "slot":  # out of range
        side[n] = from_vec(n, rng.randrange(1 << (2 * n)))
    elif kind == "row":  # usually breaks the commutation pattern
        side[rng.randrange(n)] = from_vec(n, rng.randrange(1 << (2 * n)), rng.randrange(4))
    elif kind == "dependent" and len(side) >= 2:
        a, b = rng.sample(sorted(side), 2)
        side[rng.randrange(n)] = from_vec(n, side[a].vec ^ side[b].vec)
    return n, z_ops, x_ops


def test_symplectic_complete_golden():
    # 3,000 seeded partial frames: about 60% complete, the rest raise for an
    # out-of-range slot, a pattern violation or dependent rows
    rng = random.Random(2005)
    outcomes = []
    for _ in range(3000):
        n, z_ops, x_ops = _partial_assignment(rng)
        try:
            frame = symplectic_complete(n, z_ops, x_ops)
        except ValueError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append([pauli_to_string(op) for op in frame.x_ops + frame.z_ops])
    assert sum(isinstance(o, list) for o in outcomes) == 1875
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "6e1dd04aa18bd9c9c768ae8f2df51998d9630f4361ea488851d7f90442431e0c"


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
            side[kind][j] = from_vec(n, rows[kind, j], rng.randrange(4))
        frame = symplectic_complete(n, side["z"], side["x"])
        out = {("x", j): op.vec for j, op in enumerate(frame.x_ops)}
        out |= {("z", j): op.vec for j, op in enumerate(frame.z_ops)}
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
    ops = [from_vec(n, v) for v in range(1 << 2 * n)]
    letters = ["".join("IXZY"[op.x >> j & 1 | (op.z >> j & 1) << 1] for j in range(n)) for op in ops]
    anti = [[anticommute(a, b) for b in letters] for a in letters]
    passed = 0
    for rows in product(range(1 << 2 * n), repeat=2 * n):
        standard = all(
            anti[rows[i]][rows[j]] == (abs(i - j) == n)
            for i in range(2 * n)
            for j in range(2 * n)
        )
        frame = SymplecticFrame(n, tuple(ops[v] for v in rows[:n]), tuple(ops[v] for v in rows[n:]))
        try:
            frame.check()
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
    frame = symplectic_complete(9, z_ops=dict(enumerate(stabilizer)))
    assert frame.z_ops[: len(stabilizer)] == stabilizer
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
    frame = symplectic_complete(9, z_ops=dict(enumerate(stabilizer)))
    assert frame.z_ops[: len(stabilizer)] == stabilizer
    assert len(calls) == 9 - len(stabilizer)


def test_in_group_mod_phase():
    gens = _ops(SHOR_STAB)
    assert in_group_mod_phase(gens, identity(9))
    assert in_group_mod_phase(gens, pauli_from_string("ZZIIIIIII"))
    assert not in_group_mod_phase(gens, pauli_from_string("ZZZZZZZZZ"))


def test_in_group_exact_examples():
    gens = _ops(SHOR_STAB)
    s3s4 = multiply(gens[2], gens[3])
    assert s3s4 == pauli_from_string("ZIZIIIIII")
    assert in_group_exact(gens, s3s4) == 0
    minus_s1 = pauli_from_string("-XXXXXXIII")
    assert in_group_exact(gens, minus_s1) == 2
    assert in_group_exact(gens, pauli_from_string("XXXXXXXXX")) is None


def _phased(k, letters):
    return pauli_from_string(("", "+i", "-", "-i")[k] + letters)


def test_in_group_exact_matches_string_arithmetic_with_dependent_generators():
    # generators are (k, letters) for i**k * letters; dependent rows include
    # products of earlier generators and sign-flipped duplicates g, -g, so
    # the phase depends on which rows the combination skips
    rng = random.Random(2026)
    members = dependent = 0
    for _ in range(1500):
        n = rng.randint(1, 6)
        gens = []
        for _ in range(rng.randrange(8)):
            kind = rng.random()
            if kind < 0.2 and gens:
                k, letters = rng.choice(gens)
                gens.append(((k + 2) % 4, letters))
            elif kind < 0.4 and len(gens) >= 2:
                (ka, a), (kb, b) = rng.sample(gens, 2)
                ph, letters = naive_mul(a, b)
                gens.append(((ka + kb + ph + 2 * rng.randrange(2)) % 4, letters))
            else:
                gens.append((rng.randrange(4), "".join(rng.choice("IXYZ") for _ in range(n))))
        if rng.random() < 0.6:
            k, letters = rng.randrange(4), "I" * n
            for kg, g in gens:
                if rng.random() < 0.5:
                    ph, letters = naive_mul(letters, g)
                    k += kg + ph
            target = (k % 4, letters)
        else:
            target = (rng.randrange(4), "".join(rng.choice("IXYZ") for _ in range(n)))
        comb = membership_combination([to_bits(g) for _, g in gens], to_bits(target[1]))
        if comb is None:
            expected = None
        else:
            k, letters = 0, "I" * n
            for (kg, g), c in zip(gens, comb):
                if c:
                    ph, letters = naive_mul(letters, g)
                    k += kg + ph
            assert letters == target[1]
            expected = (target[0] - k) % 4
            members += 1
            dependent += naive_rank([to_bits(g) for _, g in gens]) < len(gens)
        got = in_group_exact([_phased(k, g) for k, g in gens], _phased(*target))
        assert got == expected, (gens, target)
    assert members > 500 and dependent > 200


@pytest.mark.parametrize("member", [in_group_mod_phase, in_group_exact])
@pytest.mark.parametrize("n", [3, 12])
def test_group_membership_refuses_an_operator_on_another_qubit_count(member, n):
    with pytest.raises(ValueError, match=f"operator is on 9 qubits, expected {n}"):
        member(_ops(SHOR_STAB), pauli_from_string("Z" * n))
