"""The dependency manifest against the imports of the code it covers."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(paths):
    """Top-level names of every absolute import in ``paths``, including
    the imports inside functions; relative imports are left out."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def test_runtime_needs_numpy_alone_and_the_test_extra_covers_the_rest():
    package = sorted((ROOT / "src" / "resofilt").glob("*.py"))
    foreign = _imported_modules(package) - set(sys.stdlib_module_names) - {"numpy"}
    assert not foreign, f"src/resofilt imports {sorted(foreign)}"

    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _requirement_names(project["dependencies"])
    assert runtime == {"numpy"}

    scripts = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    assert scripts
    local = {path.stem for path in scripts} | {"resofilt"}
    third_party = _imported_modules(scripts) - set(sys.stdlib_module_names) - local
    listed = runtime | _requirement_names(project["optional-dependencies"]["test"])
    assert third_party <= listed, f"not in the manifest: {sorted(third_party - listed)}"
