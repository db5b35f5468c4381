"""Text format for subsystem codes.

A code file starts with an ``n: <ASCII digits>`` header, n at most
``MAX_CODE_QUBITS``, then bracketed sections, one operator per line::

    n: 9

    [stabilizer]
    XXXXXXIII
    # comments run to the end of the line
    ZZIIIIIII

    [logical_z]
    -ZZZZZZZZZ

Sections may appear in any order; ``gauge_x``/``gauge_z`` lines pair up by
position, as do ``logical_x``/``logical_z``.  Signs are written inline as
+, -, +i or -i prefixes: a stabilizer row takes none but +, and a gauge or
logical row no i.
"""

from __future__ import annotations

import re

from .code import SubsystemCode, validate, validated
from .pauli import PauliFormatError, pauli_from_string, pauli_to_string

SECTIONS = ("stabilizer", "gauge_x", "gauge_z", "logical_x", "logical_z")
# The largest ``n:`` a file may declare; validation holds 2n vectors of 2n bits.
MAX_CODE_QUBITS = 1000


class CodeFileError(ValueError):
    def __init__(self, message: str, line: int, col: int | None = None):
        where = f"line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(f"{message} ({where})")
        self.line = line
        self.col = col


def parse_code_file(text: str) -> SubsystemCode:
    """Parse and validate a code file; errors carry line/column positions."""
    n: int | None = None
    section: str | None = None
    ops: dict[str, list] = {name: [] for name in SECTIONS}
    lines: dict[str, list[int]] = {name: [] for name in SECTIONS}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if n is None:
            if not stripped.startswith("n:"):
                raise CodeFileError("expected 'n: <qubit count>' header", lineno)
            count = stripped[2:].strip()
            if not (count.isascii() and count.isdigit()):  # int() takes "+5", "1_0", "９"
                raise CodeFileError("invalid qubit count", lineno)
            # a longer count is over the cap unread: int() refuses more than 4,300 digits
            n = int(count) if len(count.lstrip("0")) <= len(str(MAX_CODE_QUBITS)) else -1
            if not 1 <= n <= MAX_CODE_QUBITS:
                raise CodeFileError(f"qubit count must be 1 to {MAX_CODE_QUBITS}", lineno)
            continue
        if stripped.startswith("["):
            inner = stripped[1:-1]
            if not stripped.endswith("]") or "[" in inner or "]" in inner:
                raise CodeFileError(f"malformed section header {stripped}; write [name]", lineno)
            name = inner.strip()
            if name not in SECTIONS:
                raise CodeFileError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise CodeFileError("operator line outside any section", lineno)
        offset = raw.index(stripped[0])
        try:
            op = pauli_from_string(stripped)
        except PauliFormatError as exc:
            raise CodeFileError(str(exc), lineno, offset + exc.position) from None
        if op.n != n:
            raise CodeFileError(
                f"operator has {op.n} qubits, header says {n}", lineno
            )
        ops[section].append(op)
        lines[section].append(lineno)

    if n is None:
        raise CodeFileError("missing 'n:' header", 1)
    for xs, zs in (("gauge_x", "gauge_z"), ("logical_x", "logical_z")):
        if len(ops[xs]) != len(ops[zs]):
            raise CodeFileError(
                f"[{xs}] lists {len(ops[xs])} operators but [{zs}] lists {len(ops[zs])}",
                max(lines[xs][-1] if lines[xs] else 1, lines[zs][-1] if lines[zs] else 1),
            )

    code = SubsystemCode(
        n,
        tuple(ops["stabilizer"]),
        tuple(zip(ops["gauge_x"], ops["gauge_z"])),
        tuple(zip(ops["logical_x"], ops["logical_z"])),
    )
    try:
        return validated(code)
    except ValueError as exc:
        raise CodeFileError(str(exc), _violation_line(validate(code).violations[0], lines)) from None


def _violation_line(violation: str, lines: dict[str, list[int]]) -> int:
    """The line of the operator a violation names, the later of two; 1 if it names none."""
    refs = [("stabilizer", i) for pair in re.findall(r"stabilizer generators? (\d+)(?: and (\d+))?",
                                                     violation) for i in pair if i]
    refs += [(f"{kind}_{xz}", i) for kind, xz, i in re.findall(r"(gauge|logical) ([xz])(\d+)", violation)]
    return max((lines[section][int(i)] for section, i in refs), default=1)


def serialize_code(code: SubsystemCode) -> str:
    """Canonical text form; parse(serialize(c)) == c for validated codes."""
    out = [f"n: {code.n}"]
    parts: list[tuple[str, list]] = [
        ("stabilizer", list(code.stabilizer)),
        ("gauge_x", [gx for gx, _ in code.gauge_pairs]),
        ("gauge_z", [gz for _, gz in code.gauge_pairs]),
        ("logical_x", [lx for lx, _ in code.logical_pairs]),
        ("logical_z", [lz for _, lz in code.logical_pairs]),
    ]
    for name, group in parts:
        if not group:
            continue
        out.append("")
        out.append(f"[{name}]")
        out.extend(pauli_to_string(op) for op in group)
    return "\n".join(out) + "\n"
