"""The public API resolves, and the runtime package does not reach into tests/."""

import ast
import pathlib

import lgmet

SRC = pathlib.Path(lgmet.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


def test_every_export_resolves():
    missing = [name for name in lgmet.__all__ if not hasattr(lgmet, name)]
    assert missing == []


def test_runtime_imports_nothing_from_tests():
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += ["%s: %s" % (path.name, n) for n in names
                          if n.split(".")[0] in test_modules]
    assert offenders == []
