"""The public API and the benchmark's entry points resolve, every runtime
function has a caller, the runtime package imports only the standard library,
numpy and itself (never tests/), and the spin system and measurement hold
only real arrays."""

import ast
import collections
import dataclasses
import importlib
import pathlib
import sys

import numpy as np

import lgmet

SRC = pathlib.Path(lgmet.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


def test_every_export_resolves():
    missing = [name for name in lgmet.__all__ if not hasattr(lgmet, name)]
    assert missing == []


BENCHMARK_MODULES = {"cli", "scan", "correlations", "measurement", "spin"}


def _benchmark_attributes() -> set:
    """(module, attribute) for every lgmet module attribute that bench/workloads.py uses."""
    tree = ast.parse((TESTS.parent / "bench" / "workloads.py").read_text())
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in BENCHMARK_MODULES}


def test_benchmark_names_resolve():
    """Every lgmet module attribute that bench/workloads.py uses exists."""
    used = _benchmark_attributes()
    assert {module for module, _ in used} == BENCHMARK_MODULES
    missing = [module + "." + attr for module, attr in sorted(used)
               if not hasattr(importlib.import_module("lgmet." + module), attr)]
    assert missing == []


def _names(tree):
    """Every name that tree reads, calls, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_orphan_function():
    """Every function defined in the runtime package is referenced there outside its own
    body, or is a module attribute that bench/workloads.py uses: no dead helper stays."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    references = collections.Counter(name for tree in trees for name in _names(tree))
    benchmark = {attr for _, attr in _benchmark_attributes()}
    orphans = sorted(node.name for tree in trees for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not (node.name.startswith("__") and node.name.endswith("__"))
                     and node.name not in benchmark
                     and references[node.name] == collections.Counter(_names(node))[node.name])
    assert orphans == []


def _runtime_imports():
    """(file name, module) for every absolute import in the runtime package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((path.name, name) for name in names)


def test_runtime_imports_nothing_from_tests():
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    offenders = [imp for imp in _runtime_imports() if imp[1].split(".")[0] in test_modules]
    assert offenders == []


def test_runtime_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "lgmet"}
    offenders = [imp for imp in _runtime_imports() if imp[1].split(".")[0] not in allowed]
    assert offenders == []


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_spin_system_and_measurement_hold_no_complex_array():
    sys = lgmet.make_spin_system(5)
    for obj, least in ((sys, 2), (lgmet.build_measurement(sys, 0.9), 1)):
        arrays = [a for f in dataclasses.fields(obj) for a in _arrays(getattr(obj, f.name))]
        assert len(arrays) >= least
        assert not any(np.iscomplexobj(a) for a in arrays), type(obj).__name__
