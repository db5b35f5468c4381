"""Command-line front end.

Results go to standard output as stable ``key: value`` lines (or one JSON
object with ``--json``); progress and statistics go to standard error so
output is byte-identical for any worker count.  Exit codes: 0 success,
1 input or validation error, 2 search stopped by budget without a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from .catalog import CATALOG_NAMES, catalog
from .code import SubsystemCode, gauge_fix, parameters, validated
from .codefile import CodeFileError, parse_code_file, serialize_code
from .decoder import Outcome, build_table, recover_and_classify, syndrome
from .distance import BudgetExceededError, DEFAULT_BUDGET, distance, is_correctable_set
from .montecarlo import SEED_BOUND, NoiseModel, run
from .oracle import (
    code_projector,
    verify_correctability,
    verify_projector,
    verify_subsystem_structure,
)
from .pauli import PauliFormatError, PauliOp, letter_vecs, pauli_from_string, vec_hermitian, weight_sums
from .search import SweepSpec, find_gauge_symmetries, sweep_nonexistence


class _CliError(Exception):
    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 with usage, not argparse's 2
        self.print_usage(sys.stderr)
        raise _CliError(message)


def _int(text: str) -> int:
    """An optional '-' then ASCII digits; int() also takes '+', '_' and other scripts' digits."""
    if not (text.removeprefix("-").isdigit() and text.isascii()):
        raise argparse.ArgumentTypeError(f"must be an ASCII decimal integer, got {text!r}")
    return int(text)


def _float(text: str) -> float:
    """ASCII text with no '_' read by float(), which also takes other scripts' digits."""
    try:
        if text.isascii() and "_" not in text:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an ASCII decimal number, got {text!r}")


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    value = _int(text)
    if not 0 <= value < SEED_BOUND:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^128), got {value}")
    return value


def _load_code(ref: str) -> SubsystemCode:
    if ref in CATALOG_NAMES:
        return catalog(ref)
    path = Path(ref)
    if not path.exists():
        raise _CliError(
            f"{ref!r} is neither a catalog name ({', '.join(CATALOG_NAMES)}) nor a file"
        )
    try:
        return parse_code_file(path.read_text())
    except (CodeFileError, OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"{ref}: {exc}") from None


def _parse_error_op(text: str, n: int) -> PauliOp:
    try:
        op = pauli_from_string(text)
    except PauliFormatError as exc:
        raise _CliError(f"bad --error operand: {exc}") from None
    if op.n != n:
        raise _CliError(f"--error has {op.n} qubits, code has {n}")
    return op


def _emit(items: list[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        print(json.dumps(dict(items)))
    else:
        for key, value in items:
            if isinstance(value, bool):
                value = "true" if value else "false"
            print(f"{key}: {value}")


def _stats_line(label: str, stats) -> None:
    """Print a search's work counters to standard error; only the sweep examines sectors."""
    examined = f" sectors={stats.sectors}" if label.startswith("sweep") else ""
    print(f"{label}: subspaces={stats.subspaces}{examined} candidates={stats.candidates} "
          f"elapsed={stats.elapsed:.1f}s", file=sys.stderr)


def _search_report(args, label: str, res, count: tuple[str, int], code: tuple[str, object]) -> int:
    """Print a search's result and then its stats; exit 2 when it is inconclusive."""
    items: list[tuple[str, object]] = [count, ("exhausted", res.exhausted)]
    if code[1] is not None:
        items.append((code[0], serialize_code(code[1])))
    _emit(items, args.json)
    _stats_line(f"{label} stats", res.stats)
    return 0 if res.conclusive else 2


def _cmd_catalog(args) -> int:
    if args.code is None:
        _emit([("codes", " ".join(CATALOG_NAMES))], args.json)
        return 0
    code = _load_code(args.code)
    text = serialize_code(code)
    if args.json:
        _emit([("name", args.code), ("code_file", text)], True)
    else:
        print(text, end="")
    return 0


def _cmd_params(args) -> int:
    p = parameters(_load_code(args.code))
    _emit([("n", p.n), ("k", p.k), ("r", p.r)], args.json)
    return 0


def _cmd_distance(args) -> int:
    code = _load_code(args.code)
    try:
        d = distance(code, args.method, args.budget)
    except BudgetExceededError as exc:
        raise _CliError(str(exc), exit_code=2) from None
    _emit([("d", d)], args.json)
    return 0


def _cmd_syndrome(args) -> int:
    code = _load_code(args.code)
    syn = syndrome(code, _parse_error_op(args.error, code.n))
    _emit([("syndrome", str(syn))], args.json)
    return 0


def _cmd_decode(args) -> int:
    code = _load_code(args.code)
    table = build_table(code, args.t)
    if args.error is None:
        if args.json:
            entries = [line.split(" ") for line in table.dump().splitlines()]
            _emit([("t", args.t), ("table", entries)], True)
        else:
            print(table.dump(), end="")
        return 0
    rec = recover_and_classify(code, table, _parse_error_op(args.error, code.n))
    items: list[tuple[str, object]] = [("outcome", rec.outcome.value)]
    if rec.outcome is Outcome.LOGICAL_FAILURE:
        items.append(("class", rec.logical_class.label_str()))
    if rec.residual is not None:
        items.append(("residual", str(rec.residual)))
    _emit(items, args.json)
    return 0


def _cmd_gauge_fix(args) -> int:
    fixed = gauge_fix(_load_code(args.code))
    text = serialize_code(fixed)
    if args.json:
        p = parameters(fixed)
        _emit([("n", p.n), ("k", p.k), ("r", p.r), ("code_file", text)], True)
    else:
        print(text, end="")
    return 0


def _cmd_find_gauge(args) -> int:
    res = find_gauge_symmetries(_load_code(args.code), args.distance_min, budget=args.budget,
                                workers=args.workers,
                                progress=partial(_stats_line, "find-gauge") if args.verbose else None)
    return _search_report(args, "find-gauge", res, ("r", res.r_found), ("code_file", res.restructured))


def _cmd_sweep(args) -> int:
    res = sweep_nonexistence(
        SweepSpec(args.n, args.k, args.r, args.distance_min, budget=args.budget),
        workers=args.workers,
        progress=partial(_stats_line, "sweep") if args.verbose else None,
    )
    first = res.codes[0] if res.codes else None
    return _search_report(args, "sweep", res, ("codes_found", len(res.codes)), ("first_code", first))


def _cmd_verify(args) -> int:
    code = _load_code(args.code)
    c = validated(code)
    dim_ok = verify_projector(code_projector(c))
    structure = verify_subsystem_structure(c)
    errors = [vec_hermitian(c.n, v) for w in (0, 1) for v in weight_sums(letter_vecs(c.n), w)]
    dense_report = verify_correctability(c, errors)
    group_verdict = is_correctable_set(c, errors)
    agree = dense_report.ok == group_verdict.correctable
    items = [
        ("projector", "pass" if dim_ok else "fail"),
        ("structure", "pass" if structure.ok else "fail"),
        ("correctability_weight1", "pass" if dense_report.ok else "fail"),
        ("agreement", "pass" if agree else "fail"),
    ]
    _emit(items, args.json)
    ok = dim_ok and structure.ok and agree
    return 0 if ok else 1


def _cmd_simulate(args) -> int:
    code = _load_code(args.code)
    if not 0.0 <= args.p <= 1.0:
        raise _CliError("--p must be in [0, 1]")
    table = build_table(code, args.t)
    report = run(
        code, table, NoiseModel(args.p), args.shots, args.seed, args.workers,
        fallback_identity=args.fallback_identity,
    )
    items = [("t", args.t)] + report.as_items()
    _emit(items, args.json)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="gaugeqec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        return p

    p = add("catalog", _cmd_catalog, help="list or print built-in codes")
    p.add_argument("--code", help="catalog name to print")

    for name, fn, help_ in (
        ("params", _cmd_params, "report n, k, r"),
        ("syndrome", _cmd_syndrome, "syndrome of an error"),
        ("gauge-fix", _cmd_gauge_fix, "promote gauge z generators to stabilizers"),
        ("verify", _cmd_verify, "dense-matrix verification"),
    ):
        p = add(name, fn, help=help_)
        p.add_argument("--code", required=True, help="catalog name or code file")
        if name == "syndrome":
            p.add_argument("--error", required=True, help="Pauli string")

    p = add("distance", _cmd_distance, help="code distance")
    p.add_argument("--code", required=True)
    p.add_argument("--method", choices=("exhaustive", "coset"), default="coset",
                   help="coset: one walk over the (syndrome, label) keys, lightest first; "
                        "exhaustive: a walk over the whole centralizer")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                   help="cap on the bound of each coset key layer, or on the centralizer walked")

    p = add("decode", _cmd_decode, help="decode an error (or dump the table)")
    p.add_argument("--code", required=True)
    p.add_argument("--error", help="Pauli string; omit to dump the table")
    p.add_argument("--t", type=_int, default=1, help="max tabulated error weight")

    p = add("find-gauge", _cmd_find_gauge, help="search for gauge symmetries")
    p.add_argument("--code", required=True)
    p.add_argument("--distance-min", type=_int, required=True)
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--verbose", action="store_true", help="progress to stderr")

    p = add("sweep", _cmd_sweep, help="enumerate all codes at a parameter point")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--distance-min", type=_int, required=True)
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--verbose", action="store_true")

    p = add("simulate", _cmd_simulate, help="Monte Carlo logical error rates")
    p.add_argument("--code", required=True)
    p.add_argument("--p", type=_float, required=True, help="depolarizing probability")
    p.add_argument("--shots", type=_int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--t", type=_int, default=1)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument(
        "--fallback-identity", action="store_true",
        help="recover unknown syndromes with identity instead of counting unrecoverable",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
