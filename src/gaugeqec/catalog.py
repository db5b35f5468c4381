"""Built-in code catalog.

``shor9`` and ``bacon-shor-9`` are entered generator-for-generator from the
standard presentations (the Bacon-Shor entry keeps four stabilizers and four
gauge pairs).  The five-qubit perfect code and Steane's seven-qubit code use
their usual published generators and are re-checked at load time: they must
validate with the expected parameters and come out at distance 3.
"""

from __future__ import annotations

from functools import lru_cache

from .code import SubsystemCode, validated
from .distance import distance

_SHOR9 = dict(
    stabilizer=[
        "XXXXXXIII",
        "XXXIIIXXX",
        "ZZIIIIIII",
        "IZZIIIIII",
        "IIIZZIIII",
        "IIIIZZIII",
        "IIIIIIZZI",
        "IIIIIIIZZ",
    ],
    logical_x=["XXXXXXXXX"],
    logical_z=["ZZZZZZZZZ"],
)

_BACON_SHOR_9 = dict(
    stabilizer=[
        "XXXXXXIII",
        "XXXIIIXXX",
        "ZZIZZIZZI",
        "IZZIZZIZZ",
    ],
    gauge_x=[
        "IIXIIIIIX",
        "IIIIIXIIX",
        "XIIIIIXII",
        "IIIXIIXII",
    ],
    gauge_z=[
        "IZZIIIIII",
        "IIIIZZIII",
        "ZZIIIIIII",
        "IIIZZIIII",
    ],
    logical_x=["XXXXXXXXX"],
    logical_z=["ZZZZZZZZZ"],
)

_FIVE_QUBIT = dict(
    stabilizer=[
        "XZZXI",
        "IXZZX",
        "XIXZZ",
        "ZXIXZ",
    ],
    logical_x=["XXXXX"],
    logical_z=["ZZZZZ"],
)

_STEANE7 = dict(
    stabilizer=[
        "IIIXXXX",
        "IXXIIXX",
        "XIXIXIX",
        "IIIZZZZ",
        "IZZIIZZ",
        "ZIZIZIZ",
    ],
    logical_x=["XXXXXXX"],
    logical_z=["ZZZZZZZ"],
)

_TABLES = {
    "shor9": _SHOR9,
    "bacon-shor-9": _BACON_SHOR_9,
    "five-qubit": _FIVE_QUBIT,
    "steane7": _STEANE7,
}

CATALOG_NAMES = tuple(_TABLES)

_EXPECTED = {
    "shor9": (9, 1, 0, 3),
    "bacon-shor-9": (9, 1, 4, 3),
    "five-qubit": (5, 1, 0, 3),
    "steane7": (7, 1, 0, 3),
}


@lru_cache(maxsize=None)
def catalog(name: str) -> SubsystemCode:
    """Return a validated catalog code; raises KeyError for unknown names."""
    try:
        table = _TABLES[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog code {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        ) from None
    code = validated(SubsystemCode.from_strings(**table))
    _self_check(name, code)
    return code


def _self_check(name: str, code: SubsystemCode) -> None:
    n, k, r, d = _EXPECTED[name]
    if (code.n, code.k, code.r) != (n, k, r):
        raise AssertionError(f"catalog entry {name} loads as [[{code.n},{code.k},{code.r}]]")
    if name in ("five-qubit", "steane7") and distance(code) != d:
        raise AssertionError(f"catalog entry {name} failed its distance self-check")
