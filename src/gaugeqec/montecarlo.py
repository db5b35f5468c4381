"""Depolarizing-noise sampling and logical-error-rate estimation.

Randomness comes from a counter-based Philox generator keyed by the seed.
Philox draws in blocks of four words, and shot i owns the ceil(n/4) blocks
starting at block i*ceil(n/4); its error reads the first n of those words
and the rest of the slot is padding.  Workers position their generator at
the first shot of their range, so any partition of the shots reproduces the
single-worker result bit for bit.

``run`` decodes chunks of shots as arrays: a numpy copy of the byte tables
of the code's key map (a ``gf2.ParityMap``: syndrome bits, then label bits)
gives every shot's key, and each distinct key is decoded once.
``sample_error`` and ``decoder.recover_and_classify`` are the per-shot
reference path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import gf2
from .code import SubsystemCode, validated
from .decoder import DecodingTable
from .distance import Kind, _tables
from .parallel import ordered_map
from .pauli import PauliOp, hermitian, identity

_CHUNK_SHOTS = 1 << 13
SEED_BOUND = 1 << 128  # a seed is a Philox key, used as is


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-qubit depolarizing noise: X, Y or Z with probability p/3 each."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("depolarizing probability must be in [0, 1]")


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
    x = z = 0
    for j, uj in enumerate(rng.random(n)):
        if uj < model.p:
            which = min(int(3.0 * uj / model.p), 2)
            if which != 2:  # X or Y
                x |= 1 << j
            if which != 0:  # Y or Z
                z |= 1 << j
    return hermitian(n, x, z)


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


def _merge(words: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``words``, each with the sum of its ``counts``."""
    order = np.lexsort(words.T)
    words, counts = words[order], counts[order]
    first = np.ones(len(words), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return words[starts], np.add.reduceat(counts, starts)


def _key_tables(key: gf2.ParityMap) -> np.ndarray:
    """``key``'s byte tables as little-endian uint64 words, entry [b, v] per byte value v."""
    nwords = key.width // 64 + 1
    raw = b"".join(entry.to_bytes(8 * nwords, "little") for table in key.tables for entry in table)
    return np.frombuffer(raw, dtype="<u8").reshape(-1, 256, nwords)


def _run_range(
    ctx: tuple[SubsystemCode, NoiseModel, int], shots: tuple[int, int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shots lo..hi-1: per chunk its distinct keys and counts, then the clean shots.

    ``ctx`` is (code, model, seed) and ``shots`` is (lo, hi).
    Each chunk draws its slots into one buffer reused for the whole range.
    One compare marks every hit; OR-ing each shot's Philox blocks, viewed
    as uint32 words with the padding bytes of the last block masked out,
    screens out the clean shots.  A noisy shot's X then Z letter bits are
    packed into bytes, and its key is the XOR of one ``_key_tables`` entry
    per byte: its syndrome bits, then its label bits above bit s.  The clean
    shots are counted under key 0, one row after the chunks.
    """
    code, model, seed = ctx
    lo, hi = shots
    n, p = code.n, model.p
    key_of_byte = _key_tables(_tables(code).key)
    width = 4 * _blocks_per_shot(n)  # one aligned slot per shot, padded
    size = min(_CHUNK_SHOTS, hi - lo)
    u_buf = np.empty((size, width))
    hit_buf = np.empty((size, width), dtype=bool)
    last_block = np.arange(width - 4, width) < n  # which words of the last block are letters
    last_mask = last_block.view(np.uint32)[0]
    keys = []
    clean = 0
    gen = shot_stream(seed, lo, n)
    for start in range(lo, hi, _CHUNK_SHOTS):
        count = min(_CHUNK_SHOTS, hi - start)
        u, hit = u_buf[:count], hit_buf[:count]
        gen.random(out=u)
        np.less(u, p, out=hit)
        blocks = hit.view(np.uint32)  # one word per Philox block, one byte per draw
        blocks[:, -1] &= last_mask
        noisy = reduce(np.bitwise_or, blocks.T) != 0
        clean += count - int(np.count_nonzero(noisy))
        u, hit = u[noisy, :n], hit[noisy, :n]
        with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 hits nothing
            scaled = 3.0 * u / p
        # letter min(int(3u/p), 2) is X, Y or Z: x below 2, z from 1 on
        bits = np.concatenate((hit & (scaled < 2.0), hit & (scaled >= 1.0)), axis=1)
        letters = np.packbits(bits, axis=1, bitorder="little")
        words = key_of_byte[0][letters[:, 0]]
        for b in range(1, letters.shape[1]):
            words ^= key_of_byte[b][letters[:, b]]
        keys.append(_merge(words, np.ones(len(words), dtype=np.int64)))
    if clean:
        zero = np.zeros((1, key_of_byte.shape[2]), dtype=key_of_byte.dtype)
        keys.append((zero, np.array([clean], dtype=np.int64)))
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
    chunks = [chunk for part in parts for chunk in part]
    words, counts = _merge(*(np.concatenate(column) for column in zip(*chunks)))

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
