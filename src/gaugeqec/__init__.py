"""Workbench for operator (subsystem) stabilizer quantum error-correcting codes."""

from .catalog import CATALOG_NAMES, catalog
from .code import (
    CodeParams,
    SubsystemCode,
    gauge_fix,
    logical_equivalent,
    parameters,
    singleton_check,
    validate,
    validated,
)
from .codefile import parse_code_file, serialize_code
from .decoder import DecodingTable, Outcome, Syndrome, build_table, recover_and_classify, syndrome
from .distance import Kind, OperatorClass, classify, distance, is_correctable_set
from .montecarlo import NoiseModel, SimReport, run, sample_error
from .pauli import PauliOp, commutes, multiply, pauli_from_string, pauli_to_string, weight
from .search import (
    GaugeSymmetryResult,
    SweepResult,
    SweepSpec,
    find_gauge_symmetries,
    sweep_nonexistence,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_NAMES",
    "CodeParams",
    "DecodingTable",
    "GaugeSymmetryResult",
    "Kind",
    "NoiseModel",
    "OperatorClass",
    "Outcome",
    "PauliOp",
    "SimReport",
    "SubsystemCode",
    "SweepResult",
    "SweepSpec",
    "Syndrome",
    "build_table",
    "catalog",
    "classify",
    "commutes",
    "distance",
    "find_gauge_symmetries",
    "gauge_fix",
    "is_correctable_set",
    "logical_equivalent",
    "multiply",
    "parameters",
    "parse_code_file",
    "pauli_from_string",
    "pauli_to_string",
    "recover_and_classify",
    "run",
    "sample_error",
    "serialize_code",
    "singleton_check",
    "sweep_nonexistence",
    "syndrome",
    "validate",
    "validated",
    "weight",
]
