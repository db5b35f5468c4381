"""Depolarizing-noise sampling and logical-error-rate estimation.

Randomness comes from a counter-based Philox generator keyed by the seed.
Philox draws in blocks of four words, and shot i owns the ceil(n/4) blocks
starting at block i*ceil(n/4); its error reads the first n of those words
and the rest of the slot is padding.  Workers position their generator at
the first shot of their range, so any partition of the shots reproduces the
single-worker result bit for bit.

``run`` reads the raw Philox words of a chunk of shots at a time: one
integer compare per draw finds the hits, only the hits are turned into
letters and keys, and each distinct key is decoded once.
``sample_error`` and ``decoder.recover_and_classify`` are the per-shot
reference path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .code import SubsystemCode, validated
from .decoder import DecodingTable
from .distance import Kind, _tables
from .parallel import ordered_map
from .pauli import PauliOp, identity, letter_vecs, vec_hermitian

_CHUNK_SHOTS = 1 << 13
SEED_BOUND = 1 << 128  # a seed is a Philox key, used as is


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-qubit depolarizing noise: X, Y or Z with probability p/3 each."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("depolarizing probability must be in [0, 1]")
        if self.p == 0.0:  # -0.0 is the same model, reported as 0.0
            object.__setattr__(self, "p", 0.0)


def _blocks_per_shot(n: int) -> int:
    # Philox advances in 4-word blocks; each shot owns a whole slot of them.
    return (n + 3) // 4


def shot_stream(seed: int, shot: int, n: int) -> np.random.Generator:
    """Generator positioned at the first draw of the given shot's slot."""
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"seed must be in [0, 2^128), got {seed}")
    bg = np.random.Philox(key=seed)
    bg.advance(shot * _blocks_per_shot(n))
    return np.random.Generator(bg)


def sample_error(model: NoiseModel, n: int, rng: np.random.Generator) -> PauliOp:
    """Draw one error, consuming exactly n uniforms from the stream."""
    letters, vec = letter_vecs(n), 0
    for j, uj in enumerate(rng.random(n)):
        if uj < model.p:  # X, Y or Z by min(int(3u/p), 2)
            vec ^= letters[3 * j + min(int(3.0 * uj / model.p), 2)]
    return vec_hermitian(n, vec)


@dataclass(frozen=True)
class SimReport:
    shots: int
    p: float
    seed: int
    gauge_success: int
    unrecoverable: int
    logical_failures: tuple[tuple[str, int], ...]  # (class label, count), sorted

    def __post_init__(self) -> None:
        total = self.gauge_success + self.unrecoverable + sum(
            c for _, c in self.logical_failures
        )
        if total != self.shots:
            raise ValueError("outcome counts do not sum to the shot count")

    @property
    def failures(self) -> int:
        return self.shots - self.gauge_success

    def as_items(self) -> list[tuple[str, object]]:
        items: list[tuple[str, object]] = [
            ("shots", self.shots),
            ("p", self.p),
            ("seed", self.seed),
            ("gauge_success", self.gauge_success),
        ]
        items += [(f"logical_failure.{lab}", c) for lab, c in self.logical_failures]
        items.append(("unrecoverable", self.unrecoverable))
        return items


def _merge(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct key rows of the (words, counts) pairs, each with its total count."""
    words, counts = (np.concatenate(column) for column in zip(*pairs))
    # equal rows only need to be adjacent; one word sorts 4x faster by argsort
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T)
    words, counts = words[order], counts[order]
    first = np.ones(len(words), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return words[starts], np.add.reduceat(counts, starts)


def _run_range(
    ctx: tuple[SubsystemCode, NoiseModel, int], shots: tuple[int, int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shots lo..hi-1 as (key rows, counts) pairs: merged noisy keys, then the clean shots.

    ``ctx`` is (code, model, seed) and ``shots`` is (lo, hi).
    Each chunk draws its slots as raw Philox words, the words that
    ``sample_error`` turns into the doubles (w >> 11)·2^-53.  Such a double
    is below p exactly when w < ceil(p·2^53)·2^11, so one integer compare on
    the first n words of each slot marks the hits, a fraction p of the
    draws.  Only hit words become doubles, to pick X, Y or Z by the rule of
    ``sample_error``; each (qubit, letter) indexes a table of its 3n keys
    under the code's key map (syndrome bits, then label bits above bit s),
    and a noisy shot's key is the XOR of its hits' keys.  Noisy keys are
    merged into distinct rows whenever ``_CHUNK_SHOTS`` of them are pending,
    so a range holds at most about two chunks of keys; the clean shots are
    counted under key 0, one row at the end.
    """
    code, model, seed = ctx
    lo, hi = shots
    n, p = code.n, model.p
    key = _tables(code).key
    nwords = key.width // 64 + 1
    zero = np.zeros((1, nwords), dtype=np.uint64)
    limit = math.ceil(p * 2.0**53) << 11  # at most 2^64, at p = 1
    if not limit:  # p = 0 hits nothing
        return [(zero, np.array([hi - lo]))]
    last = np.uint64(limit - 1)
    # row 3j + l: the key of letter l (X, Y, Z) on qubit j, in 64-bit words
    xyz = map(key, letter_vecs(n))
    key_of_letter = np.array([[(k >> 64 * w) % 2**64 for w in range(nwords)] for k in xyz], np.uint64)
    width = 4 * _blocks_per_shot(n)  # one aligned slot per shot, padded
    draw = shot_stream(seed, lo, n).bit_generator.random_raw
    keys: list[tuple[np.ndarray, np.ndarray]] = []
    pending = clean = 0
    for start in range(lo, hi, _CHUNK_SHOTS):
        count = min(_CHUNK_SHOTS, hi - start)
        raw = draw(count * width).reshape(count, width)
        shot, qubit = np.divmod(np.flatnonzero(raw[:, :n] <= last), n)
        u = (raw[shot, qubit] >> np.uint64(11)) * 2.0**-53
        del raw  # freed before the next chunk's draw, which bounds peak memory
        # letter min(int(3u/p), 2): X below 1, Y below 2, Z from 2 on
        scaled = 3.0 * u / p
        letter = 3 * qubit + (scaled >= 1.0) + (scaled >= 2.0)
        starts = np.flatnonzero(np.diff(shot, prepend=-1))
        clean += count - len(starts)
        noisy = np.bitwise_xor.reduceat(key_of_letter[letter], starts, axis=0)
        keys.append((noisy, np.ones(len(noisy), dtype=np.int64)))
        pending += len(noisy)
        if pending >= _CHUNK_SHOTS:
            keys, pending = [_merge(keys)], 0
    keys.append((zero, np.array([clean])))
    return keys


def run(
    code: SubsystemCode,
    table: DecodingTable,
    model: NoiseModel,
    shots: int,
    seed: int,
    workers: int = 1,
    fallback_identity: bool = False,
) -> SimReport:
    """Sample, decode and classify ``shots`` errors; fully seed-deterministic.

    Shots whose syndrome is missing from the table count as unrecoverable.
    With ``fallback_identity`` they are recovered with the identity instead:
    a trivial syndrome leaves the error as the residual, classified like any
    other, and a nonzero one lands in the ``uncorrected`` failure class.
    """
    c = validated(code)
    if table.code != c:
        raise ValueError("decoding table was built for a different code")
    if shots < 0:
        raise ValueError("negative shot count")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if shots == 0:
        return SimReport(0, model.p, seed, 0, 0, ())
    bounds = [shots * i // workers for i in range(workers + 1)]
    ranges = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    parts = list(ordered_map(_run_range, (c, model, seed), ranges, workers))
    words, counts = _merge([pair for part in parts for pair in part])

    tables = _tables(c)
    smask = (1 << c.s) - 1
    # identity recovery of a trivial syndrome is an entry like any other
    entries = {0: identity(c.n)} | table.entries if fallback_identity else table.entries
    gauge = unrec = 0
    failures: Counter[str] = Counter()
    for row, count in zip(words, counts.tolist()):
        key = int.from_bytes(row.tobytes(), "little")
        rep = entries.get(key & smask)
        if rep is None:
            if fallback_identity:
                # identity recovery leaves the nonzero syndrome in place,
                # so the shot ends with an uncorrected detectable error
                failures["uncorrected"] += count
            else:
                unrec += count
            continue
        # the residual rep * e carries the XOR of both keys
        cls = tables.class_of(key ^ tables.key(rep.vec))
        if cls.kind is Kind.GAUGE:
            gauge += count
        else:
            failures[cls.label_str()] += count
    return SimReport(shots, model.p, seed, gauge, unrec, tuple(sorted(failures.items())))
