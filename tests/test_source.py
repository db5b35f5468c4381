"""Checks on the library source itself."""

import ast
from pathlib import Path

import gaugeqec


def test_no_assert_statements_in_the_library():
    # ``python -O`` strips asserts, so no invariant may live in one
    found = []
    for path in sorted(Path(gaugeqec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_only_the_parallel_driver_imports_multiprocessing():
    # one ordered driver serves every parallel call site
    importers = []
    for path in sorted(Path(gaugeqec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "multiprocessing" for name in names):
                importers.append(path.name)
    assert importers == ["parallel.py"]


def test_the_oracle_imports_no_symplectic_machinery():
    # the dense oracle is an independent check: from the package it takes
    # only the code's operator lists and the Pauli record
    path = Path(gaugeqec.__file__).parent / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "gaugeqec"
        ):
            module = (node.module or "").removeprefix("gaugeqec.")
            imported |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            imported |= {(name, "") for name in names if name.split(".")[0] == "gaugeqec"}
    assert imported == {("code", "SubsystemCode"), ("code", "validated"), ("pauli", "PauliOp")}


def _module_names(module):
    """The functions, classes and variables a library module defines at top level."""
    path = Path(gaugeqec.__file__).parent / module
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_gf2_has_one_elimination_kernel():
    # every GF(2) row-space question goes through ``Eliminator``; no second
    # matrix API wraps it
    assert _module_names("gf2.py") == {"parities", "ParityMap", "gray_walk", "Eliminator"}


def test_frame_rows_become_operators_one_way():
    # frames are completed by ``PartialFrame`` alone, and a row becomes an
    # operator only through ``vec_hermitian``: no phase-0 constructor is left
    assert _module_names("tableau.py") == {"check_pattern", "check_qubits", "PartialFrame"}
    assert "from_vec" not in _module_names("pauli.py")


def test_frames_are_completed_in_code_py_alone():
    # one frame completion: ``frame_rows`` derives every missing row,
    # find-gauge's gauge partners included, so no other module builds a frame
    importers = []
    for path in sorted(Path(gaugeqec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and "PartialFrame" in {a.name for a in node.names}:
                importers.append(path.name)
    assert importers == ["code.py"]


def test_every_exported_name_resolves():
    missing = [name for name in gaugeqec.__all__ if not hasattr(gaugeqec, name)]
    assert missing == []
