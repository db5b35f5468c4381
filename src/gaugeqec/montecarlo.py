"""Depolarizing-noise sampling and logical-error-rate estimation.

Randomness comes from a counter-based generator keyed by the seed: shot i
owns the block of n uniform draws starting at counter i*n.  Workers position
their generator at the first shot of their range, so any partition of the
shots reproduces the single-worker result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .code import SubsystemCode, validated
from .decoder import DecodingTable
from .distance import Kind, _tables
from .pauli import PauliOp, hermitian

_CHUNK_SHOTS = 1 << 15
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


def _letters_from_uniforms(u: np.ndarray, p: float) -> tuple[int, int]:
    """Pack one shot's uniforms into (x, z) bit masks."""
    x = z = 0
    for j, uj in enumerate(u):
        if uj < p:
            which = min(int(3.0 * uj / p), 2)
            if which != 2:  # X or Y
                x |= 1 << j
            if which != 0:  # Y or Z
                z |= 1 << j
    return x, z


def sample_error(model: NoiseModel, n: int, rng: np.random.Generator) -> PauliOp:
    """Draw one error, consuming exactly n uniforms from the stream."""
    x, z = _letters_from_uniforms(rng.random(n), model.p)
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

    def as_lines(self) -> str:
        return "\n".join(f"{k}: {v}" for k, v in self.as_items()) + "\n"


def _run_range(
    code: SubsystemCode,
    table: DecodingTable,
    model: NoiseModel,
    seed: int,
    lo: int,
    hi: int,
    fallback_identity: bool,
) -> tuple[int, int, dict[tuple[int, ...], int]]:
    tables = _tables(code)
    entries = {bits: rep.vec for bits, rep in table.entries.items()}
    n = code.n
    p = model.p
    gauge = unrec = 0
    failures: dict[str, int] = {}
    gen = shot_stream(seed, lo, n)
    width = 4 * _blocks_per_shot(n)  # one aligned slot per shot, padded
    identity_ok = entries.get(0) == 0  # trivial syndrome maps to identity
    for start in range(lo, hi, _CHUNK_SHOTS):
        count = min(_CHUNK_SHOTS, hi - start)
        u = gen.random((count, width))[:, :n]
        hit = u < p
        noisy = np.flatnonzero(hit.any(axis=1))
        if identity_ok:
            gauge += count - len(noisy)
        else:  # clean shots still go through the decoder
            noisy = np.arange(count)
        for idx in noisy:
            x, z = _letters_from_uniforms(u[idx], p)
            vec = x | (z << n)
            rep = entries.get(tables.syndrome_bits(vec))
            if rep is None:
                if fallback_identity:
                    # identity recovery leaves the nonzero syndrome in place,
                    # so the shot ends with an uncorrected detectable error
                    failures["uncorrected"] = failures.get("uncorrected", 0) + 1
                else:
                    unrec += 1
                continue
            cls = tables.classify_vec(rep ^ vec)
            if cls.kind is Kind.GAUGE:
                gauge += 1
            else:
                label = cls.label_str()
                failures[label] = failures.get(label, 0) + 1
    return gauge, unrec, failures


def _worker(args) -> tuple[int, int, dict[str, int]]:
    return _run_range(*args)


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

    Shots whose syndrome is missing from the table count as unrecoverable;
    with ``fallback_identity`` they are instead recovered with the identity
    and land in the ``uncorrected`` failure class.
    """
    c = validated(code)
    if table.code != c:
        raise ValueError("decoding table was built for a different code")
    if shots < 0:
        raise ValueError("negative shot count")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if workers == 1 or shots == 0:
        parts = [_run_range(c, table, model, seed, 0, shots, fallback_identity)]
    else:
        bounds = [shots * i // workers for i in range(workers + 1)]
        jobs = [
            (c, table, model, seed, bounds[i], bounds[i + 1], fallback_identity)
            for i in range(workers)
        ]
        with Pool(workers) as pool:
            parts = pool.map(_worker, jobs)

    gauge = sum(part[0] for part in parts)
    unrec = sum(part[1] for part in parts)
    failures: dict[str, int] = {}
    for _, _, fdict in parts:
        for label, count in fdict.items():
            failures[label] = failures.get(label, 0) + count

    return SimReport(shots, model.p, seed, gauge, unrec, tuple(sorted(failures.items())))
