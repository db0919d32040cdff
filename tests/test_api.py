"""The public surface: every exported name exists, the package imports
only exported names, and every name the benchmark tracer wraps
(perfbench/spans.py) is still bound and callable."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import tracemin_amg

MODULES = sorted(m.name for m in pkgutil.iter_modules(tracemin_amg.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"tracemin_amg.{name}")
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"{name}.__all__ names missing {attr}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(tracemin_amg.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tracemin_amg.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, \
                f"tracemin_amg imports {node.module}.{alias.name}, not in its __all__"


def test_traced_bindings_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BINDINGS
    for module, attr, _, _ in spans.BINDINGS:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} is traced by the benchmark but not bound"
