"""The public surface: every exported name exists and has a reader, the
package imports only exported names, and every name the benchmark
tracer wraps (perfbench/spans.py) is still bound and callable."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import tracemin_amg

MODULES = sorted(m.name for m in pkgutil.iter_modules(tracemin_amg.__path__))
ROOT = Path(__file__).resolve().parents[1]
# exported names that no library, CLI or benchmark code reads, each kept on purpose
UNREAD_ON_PURPOSE = {
    "perfect_shuffle": "the subject of acceptance criterion 1",
    "optimal_interpolation": "the subject of acceptance criterion 5",
}


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


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def read_names(nodes):
    """Every name read, as a bare name or as an attribute, in the nodes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for root in nodes for node in ast.walk(root)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_exported_name_has_a_reader():
    """Each name in a module's __all__ is read by the library, the CLI or
    the benchmark outside its own definition, is wrapped by the
    benchmark tracer, or is kept on purpose (UNREAD_ON_PURPOSE).  Tests
    do not count as readers, and neither does the package's re-export."""
    package = ROOT / "src" / "tracemin_amg"
    trees = {path: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
             if path.name != "__init__.py"}
    # each file is walked once; only a name's own module is walked again,
    # without the name's definition
    names_read = {path: read_names(tree.body) for path, tree in trees.items()}
    traced = {(module.__name__, attr) for module, attr, _, _ in load_spans().BINDINGS}
    unread = []
    for name in MODULES:
        module = importlib.import_module(f"tracemin_amg.{name}")
        own = package / f"{name}.py"
        for attr in getattr(module, "__all__", []):
            if attr in UNREAD_ON_PURPOSE or (module.__name__, attr) in traced:
                continue
            if any(attr in names for path, names in names_read.items() if path != own):
                continue
            if attr not in read_names([s for s in trees[own].body
                                       if getattr(s, "name", None) != attr]):
                unread.append(f"{name}.{attr}")
    assert not unread, f"exported names without a reader: {unread}"
