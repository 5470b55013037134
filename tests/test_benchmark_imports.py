"""The benchmark under perfbench/ imports names from the package; tier-1 does
not run it, so this test reads its imports and checks that each resolves."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "bench.py"


def _package_imports(path):
    """(module, name) for every `from kaczmarz_pr[.sub] import name` in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "kaczmarz_pr" or node.module.startswith("kaczmarz_pr.")
        ):
            for alias in node.names:
                yield node.module, alias.name


def test_every_benchmark_import_resolves():
    imports = list(_package_imports(BENCH))
    assert imports, f"no kaczmarz_pr imports found in {BENCH}"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
