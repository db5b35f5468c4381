import random

import pytest

from naive_ops import all_paulis_up_to_weight, anticommute as naive_anticommute, mul as naive_mul
from naive_ops import to_bits, weight as naive_weight

from gaugeqec import pauli
from gaugeqec.pauli import (
    PauliFormatError,
    PauliOp,
    commutes,
    hermitian,
    identity,
    letter_keys,
    letter_vecs,
    multiply,
    pauli_from_string,
    pauli_to_string,
    single,
    weight,
    weight_sums,
)

LETTERS = "IXYZ"


def random_pauli(rng: random.Random, n: int) -> PauliOp:
    s = "".join(rng.choice(LETTERS) for _ in range(n))
    prefix = rng.choice(["", "+", "-", "+i", "-i"])
    return pauli_from_string(prefix + s)


def test_parse_stabilizer_row():
    p = pauli_from_string("XXXXXXIII")
    assert (p.n, p.phase_exp, p.x, p.z) == (9, 0, 0b000111111, 0)


def test_parse_identity():
    p = pauli_from_string("IIIIIIIII")
    assert p == identity(9) and p.phase_exp == 0


def test_parse_y_convention():
    p = pauli_from_string("Y")
    assert (p.phase_exp, p.x, p.z) == (1, 1, 1)


def test_parse_sign_prefixes():
    assert pauli_from_string("-X").phase_exp == 2
    assert pauli_from_string("+i" + "Z").phase_exp == 1
    assert pauli_from_string("-i" + "Z").phase_exp == 3
    assert pauli_from_string("+XZ") == pauli_from_string("XZ")


def test_parse_rejects_bad_character_with_position():
    with pytest.raises(PauliFormatError) as err:
        pauli_from_string("XXXXXXIIW")
    assert err.value.position == 9
    with pytest.raises(PauliFormatError):
        pauli_from_string("")
    with pytest.raises(PauliFormatError):
        pauli_from_string("-")


def test_string_roundtrip_random():
    rng = random.Random(3)
    for _ in range(300):
        p = random_pauli(rng, rng.randrange(1, 13))
        assert pauli_from_string(pauli_to_string(p)) == p


def test_to_string_signs():
    assert pauli_to_string(pauli_from_string("Y")) == "Y"
    # X then Z on one qubit is -iY
    assert pauli_to_string(multiply(single(1, 0, "X"), single(1, 0, "Z"))) == "-iY"
    assert pauli_to_string(multiply(single(1, 0, "Z"), single(1, 0, "X"))) == "+iY"


def test_multiply_self_inverse():
    x = single(1, 0, "X")
    assert multiply(x, x) == identity(1)


def test_multiply_anticommutation_signs():
    x, z = single(1, 0, "X"), single(1, 0, "Z")
    xz = multiply(x, z)
    zx = multiply(z, x)
    assert (xz.phase_exp, xz.x, xz.z) == (0, 1, 1)
    assert (zx.phase_exp, zx.x, zx.z) == (2, 1, 1)


def test_multiply_matches_naive_table():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 9)
        a = "".join(rng.choice(LETTERS) for _ in range(n))
        b = "".join(rng.choice(LETTERS) for _ in range(n))
        phase, letters = naive_mul(a, b)
        got = multiply(pauli_from_string(a), pauli_from_string(b))
        want = pauli_from_string(letters)
        # naive_mul reports the phase relative to the plain letter product
        assert got.x == want.x and got.z == want.z
        assert (got.phase_exp - want.phase_exp) % 4 == phase % 4


def test_multiply_associative_identity_neutral():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randrange(1, 13)
        p, q, r = (random_pauli(rng, n) for _ in range(3))
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
        assert multiply(p, identity(n)) == p == multiply(identity(n), p)


def test_multiply_rejects_size_mismatch():
    with pytest.raises(ValueError):
        multiply(identity(2), identity(3))
    with pytest.raises(ValueError):
        commutes(identity(2), identity(3))


def test_inverse_and_fourth_power():
    rng = random.Random(41)
    for _ in range(200):
        p = random_pauli(rng, rng.randrange(1, 10))
        cube = multiply(p, multiply(p, p))
        assert multiply(p, cube) == identity(p.n)


def test_commutes_matches_naive_and_phase_free():
    rng = random.Random(53)
    for _ in range(300):
        n = rng.randrange(1, 10)
        a = "".join(rng.choice(LETTERS) for _ in range(n))
        b = "".join(rng.choice(LETTERS) for _ in range(n))
        p, q = pauli_from_string(a), pauli_from_string(b)
        assert commutes(p, q) == (not naive_anticommute(a, b))
        flipped = PauliOp(p.n, (p.phase_exp + 2) % 4, p.x, p.z)
        assert commutes(flipped, q) == commutes(p, q)


def test_commutes_iff_products_equal():
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randrange(1, 10)
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        assert commutes(p, q) == (multiply(p, q) == multiply(q, p))


def test_table_one_rows_commute():
    s1 = pauli_from_string("XXXXXXIII")
    s3 = pauli_from_string("ZZIIIIIII")
    assert commutes(s1, s3)
    assert not commutes(single(9, 0, "X"), s3)
    assert not commutes(s3, single(9, 0, "X"))


def test_weight_examples_and_subadditivity():
    assert weight(identity(9)) == 0
    assert weight(pauli_from_string("XXXXXXIII")) == 6
    y3 = pauli_from_string("-i" + "IIYIIIIII")
    assert weight(y3) == 1
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randrange(1, 12)
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        assert weight(multiply(p, q)) <= weight(p) + weight(q)


def test_hermitian_constructor_is_positive():
    rng = random.Random(67)
    for _ in range(100):
        n = rng.randrange(1, 10)
        x, z = rng.randrange(1 << n), rng.randrange(1 << n)
        h = hermitian(n, x, z)
        assert h.sign_exponent == 0
        assert multiply(h, h) == identity(n)


def test_pauliop_field_validation():
    with pytest.raises(ValueError, match="negative qubit count"):
        PauliOp(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        PauliOp(2, 4, 0, 0)
    with pytest.raises(ValueError):
        PauliOp(2, 0, 0b100, 0)


def _naive_weight_w(n: int, w: int) -> list[str]:
    return [p for p in all_paulis_up_to_weight(n, w) if naive_weight(p) == w]


def _string(vec: int, n: int) -> str:
    return "".join("IXZY"[(vec >> q & 1) | (vec >> n + q & 1) << 1] for q in range(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_weight_sums_of_the_letter_vectors_are_the_naive_paulis_in_order(n):
    letters = letter_vecs(n)
    assert weight_sums(letters, 1) is letters
    assert weight_sums(letters, n + 1) == []
    for w in range(n + 1):
        naive = [sum(b << i for i, b in enumerate(to_bits(p))) for p in _naive_weight_w(n, w)]
        assert weight_sums(letters, w) == naive, w


def test_weight_sums_refuses_a_list_over_the_cap_before_building_it(monkeypatch):
    # C(200, 3)·27 = 35,461,800 vectors would take gigabytes; the refusal takes microseconds
    with pytest.raises(ValueError, match="35461800 Paulis of weight 3 on 200 qubits exceed 16777216"):
        weight_sums(letter_vecs(200), 3)
    assert pauli.MAX_WEIGHT_SUMS >= 1 << 24 > len(weight_sums(letter_vecs(9), 3)) == 2268
    # only w >= 2 is checked: the w = 0 and w = 1 lists are never built
    monkeypatch.setattr(pauli, "MAX_WEIGHT_SUMS", 0)
    letters = letter_vecs(3)
    assert weight_sums(letters, 1) is letters and weight_sums(letters, 0) == [0]
    with pytest.raises(ValueError):
        weight_sums(letters, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_weight_sums_of_letter_keys_are_the_naive_anticommutation_patterns(n):
    rng = random.Random(8000 + n)
    rows = [rng.randrange(1 << 2 * n) for _ in range(rng.randint(1, 2 * n + 2))]
    strings = [_string(v, n) for v in rows]
    letters = letter_keys(n, rows)
    assert len(letters) == 3 * n
    for w in range(n + 1):
        naive = [sum(naive_anticommute(p, g) << i for i, g in enumerate(strings))
                 for p in _naive_weight_w(n, w)]
        assert weight_sums(letters, w) == naive, w
