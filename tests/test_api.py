"""The public surface: every exported name exists and has a reader,
every defaulted parameter of an exported function has a caller, every
defaulted field of an exported dataclass has a setter, every field of an
exported dataclass and every method and property of an exported class
has a reader, the CLI's defaults are the dataclasses' own, the package
imports only exported names, and every name the benchmark tracer wraps
(perfbench/spans.py) is still bound and callable."""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import tracemin_amg
from tracemin_amg.cli import build_parser
from tracemin_amg.experiments import ExperimentConfig
from tracemin_amg.hierarchy import SetupConfig
from tracemin_amg.problems import ProblemSpec
from tracemin_amg.sylvester import sylvester_cg
from tracemin_amg.theory import TheoryReport

MODULES = sorted(m.name for m in pkgutil.iter_modules(tracemin_amg.__path__))
ROOT = Path(__file__).resolve().parents[1]
# exported names that no library, CLI or benchmark code reads, each kept on purpose
UNREAD_ON_PURPOSE = {
    "perfect_shuffle": "the subject of acceptance criterion 1",
    "optimal_interpolation": "the subject of acceptance criterion 5",
}
# fields of exported dataclasses that only their own class body reads,
# each kept on purpose
FIELDS_UNREAD_ON_PURPOSE = {
    "SparsityPattern.nf": "the pattern's row count, read through its shape",
    "SparsityPattern.nc": "the pattern's column count, read through its shape",
    "ExperimentConfig.modes": "the sweep's modes, read by the config's own grid",
    "Permutation.forward": "the permutation itself, read through its matrix",
    "SpectralEquivalence.x_kind": "set only by tests, on purpose (ROADMAP aim 2)",
    **{f"TheoryReport.{f.name}": "printed by its __str__, the output of `tracemin-amg theory`"
       for f in dataclasses.fields(TheoryReport)},
}
# methods and properties of exported classes that only tests read, each
# kept on purpose (names are matched alone, so Problem.matrix already
# reads as a reader of Permutation.matrix)
METHODS_UNREAD_ON_PURPOSE = {
    "BlockSplit.from_c_points": "how the tests build splits",
    "MatrixEquation.sylvester": "the paper's Sylvester form of the operator",
    "Permutation.matrix": "the subject of acceptance criterion 1",
}
PACKAGE = ROOT / "src" / "tracemin_amg"


@functools.cache
def parsed_files():
    """Each library, benchmark and test file, parsed once."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) \
        + sorted((ROOT / "tests").glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in paths}


def library_and_benchmark_files():
    """The parsed files that count as readers: the library without the
    package's re-export, and the benchmark."""
    return {path: tree for path, tree in parsed_files().items()
            if path.parent != ROOT / "tests" and path != PACKAGE / "__init__.py"}


def exported_objects():
    """(module name, exported name, object) for every name in an __all__."""
    for name in MODULES:
        module = importlib.import_module(f"tracemin_amg.{name}")
        for attr in getattr(module, "__all__", []):
            yield name, attr, getattr(module, attr)


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


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_bindings_resolve():
    bindings = load_spans().BINDINGS
    assert bindings
    for module, attr, _, _ in bindings:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} is traced by the benchmark but not bound"


def test_only_the_setting_checks_import_numbers():
    """problems.check_count and problems.check_real own the integer and
    real-number rules; no other library module tests a setting's type
    against the numbers ABCs itself."""
    def imports_numbers(tree):
        return any(isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                   or isinstance(node, ast.ImportFrom) and node.module == "numbers"
                   for node in ast.walk(tree))

    importers = [path.name for path, tree in parsed_files().items()
                 if path.parent == PACKAGE and path.name != "problems.py"
                 and imports_numbers(tree)]
    assert not importers, f"modules that import numbers: {importers}"


def private_imports(tree):
    """Each absolute import in the tree that names a module, or a name in
    a module, with a dotted component starting with '_' (__future__
    aside), as the dotted name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module != "__future__":
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return [name for name in names if any(part.startswith("_") for part in name.split("."))]


def test_the_package_imports_no_private_module():
    """The library reads its dependencies through their public names only:
    a private module may move or change between releases of an unpinned
    dependency."""
    found = {path.name: names for path, tree in parsed_files().items()
             if path.parent == PACKAGE and (names := private_imports(tree))}
    assert not found, f"private imports: {found}"


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
    trees = library_and_benchmark_files()
    # each file is walked once; only a name's own module is walked again,
    # without the name's definition
    names_read = {path: read_names(tree.body) for path, tree in trees.items()}
    traced = {(module.__name__, attr) for module, attr, _, _ in load_spans().BINDINGS}
    unread = []
    for name, attr, _ in exported_objects():
        if attr in UNREAD_ON_PURPOSE or (f"tracemin_amg.{name}", attr) in traced:
            continue
        own = PACKAGE / f"{name}.py"
        if any(attr in names for path, names in names_read.items() if path != own):
            continue
        if attr not in read_names([s for s in trees[own].body
                                   if getattr(s, "name", None) != attr]):
            unread.append(f"{name}.{attr}")
    assert not unread, f"exported names without a reader: {unread}"


def defaulted_parameters(function, bound):
    """(name, position) of each parameter of `function` that has a default;
    position counts the call's positional arguments (the bound self or
    cls excluded) and is None for a keyword-only parameter."""
    params = list(inspect.signature(function).parameters.values())[bound:]
    for position, param in enumerate(params):
        if param.default is not param.empty:
            keyword_only = param.kind is param.KEYWORD_ONLY
            yield param.name, None if keyword_only else position


def exported_functions():
    """(qualified name, called name, function, bound arguments) for each
    exported function and each method defined on an exported class."""
    for module, attr, obj in exported_objects():
        if inspect.isfunction(obj):
            yield f"{module}.{attr}", attr, obj, 0
        elif inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                function = getattr(method, "__func__", method)  # static or class method
                if inspect.isfunction(function) and not method_name.startswith("__"):
                    bound = 0 if isinstance(method, staticmethod) else 1
                    yield f"{module}.{attr}.{method_name}", method_name, function, bound


def test_every_defaulted_parameter_has_a_caller():
    """Each parameter with a default, of an exported function or of a
    method of an exported class, is passed by some call in the library,
    the benchmark or the tests, by keyword or by position.  A call is
    matched by the called name, as the reader test matches names."""
    calls = {}
    for tree in parsed_files().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = node.func.id if isinstance(node.func, ast.Name) else \
                    node.func.attr if isinstance(node.func, ast.Attribute) else None
                calls.setdefault(called, []).append(node)
    unset = []
    for qualified, called, function, bound in exported_functions():
        for param, position in defaulted_parameters(function, bound):
            if not any(any(k.arg == param for k in call.keywords)
                       or (position is not None and len(call.args) > position)
                       for call in calls.get(called, [])):
                unset.append(f"{qualified}({param})")
    assert not unset, f"defaulted parameters that no call passes: {unset}"


def read_attributes(nodes):
    """Every name read as an attribute in the nodes."""
    return {node.attr for root in nodes for node in ast.walk(root)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_members(members, kept, class_body_reads):
    """Each (module, class, member) that the library and the benchmark
    never read as an attribute, and that `kept` does not keep on
    purpose, as module.class.member.  Reads in the class's own body
    count only when class_body_reads is true, and never those in the
    member's own definition."""
    trees = library_and_benchmark_files()
    attributes_read = {path: read_attributes(tree.body) for path, tree in trees.items()}
    unread = []
    for module, cls, member in members:
        own = PACKAGE / f"{module}.py"
        own_reads = read_attributes(
            [s for s in trees[own].body if getattr(s, "name", None) != cls]
            + [t for s in trees[own].body if class_body_reads and getattr(s, "name", None) == cls
               for t in s.body if getattr(t, "name", None) != member])
        if f"{cls}.{member}" in kept or member in own_reads:
            continue
        if not any(member in names for path, names in attributes_read.items() if path != own):
            unread.append(f"{module}.{cls}.{member}")
    return unread


def test_every_dataclass_field_has_a_reader():
    """Each field of an exported dataclass is read as an attribute by the
    library or the benchmark outside its own class body, or is kept on
    purpose (FIELDS_UNREAD_ON_PURPOSE).  Tests do not count as readers."""
    unread = unread_members([(module, attr, field.name)
                             for module, attr, obj in exported_objects()
                             if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                             for field in dataclasses.fields(obj)],
                            FIELDS_UNREAD_ON_PURPOSE, class_body_reads=False)
    assert not unread, f"dataclass fields without a reader: {unread}"


def test_every_method_and_property_has_a_reader():
    """Each public method and property of an exported class is read as an
    attribute by the library or the benchmark outside its own definition
    (another method of its class counts), or is kept on purpose
    (METHODS_UNREAD_ON_PURPOSE).  Tests do not count as readers."""
    def is_member(value):
        return isinstance(value, property) or inspect.isfunction(getattr(value, "__func__", value))

    members = [(module, attr, name)
               for module, attr, obj in exported_objects() if inspect.isclass(obj)
               for name, value in vars(obj).items()
               if not name.startswith("_") and is_member(value)]
    assert set(METHODS_UNREAD_ON_PURPOSE) <= {f"{cls}.{name}" for _, cls, name in members}
    unread = unread_members(members, METHODS_UNREAD_ON_PURPOSE, class_body_reads=True)
    assert not unread, f"methods and properties without a reader: {unread}"


def exported_dataclasses():
    return {attr: obj for _, attr, obj in exported_objects()
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj)}


def set_fields(classes):
    """(class, field) for every field that a call or sweep JSON in the
    library, the benchmark or the tests sets: passed by keyword or by
    position to a call of the class, by keyword to a dataclasses.replace
    call whose keywords are all fields of the class, or a key of a dict
    literal that also holds the key 'problem' (a sweep JSON) for a class
    with a problem field."""
    init_fields = {name: [f.name for f in dataclasses.fields(cls) if f.init]
                   for name, cls in classes.items()}
    found = set()
    for tree in parsed_files().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                keywords = {k.arg for k in node.keywords} - {None}
                if called in init_fields:
                    names = init_fields[called]
                    found |= {(called, f) for f in keywords | set(names[:len(node.args)])}
                elif called == "replace" and (isinstance(func, ast.Name) or
                                              getattr(func.value, "id", None) == "dataclasses"):
                    found |= {(cls, f) for cls, names in init_fields.items()
                              if keywords <= set(names) for f in keywords}
            elif isinstance(node, ast.Dict):
                keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
                if "problem" in keys:
                    found |= {(cls, f) for cls, names in init_fields.items()
                              if "problem" in names for f in keys & set(names)}
    return found


def test_every_defaulted_dataclass_field_is_set():
    """Each defaulted field of an exported dataclass is set by some call or
    sweep JSON in the library, the benchmark or the tests (set_fields): a
    default that nothing overrides is a restated constant, not a setting."""
    classes = exported_dataclasses()
    found = set_fields(classes)
    unset = [f"{name}.{f.name}" for name, cls in classes.items()
             for f in dataclasses.fields(cls)
             if f.init and (f.default is not dataclasses.MISSING
                            or f.default_factory is not dataclasses.MISSING)
             and (name, f.name) not in found]
    assert not unset, f"defaulted dataclass fields that nothing sets: {unset}"


PROBLEM_FLAGS = {"epsilon": (ProblemSpec, "epsilon"), "theta": (ProblemSpec, "theta"),
                 "K": (ProblemSpec, "K")}
SOLVE_FLAGS = {"mode": (SetupConfig, "mode"), "tau": (SetupConfig, "tau"),
               "iters": (SetupConfig, "emin_iters"),
               "pattern_degree": (SetupConfig, "pattern_degree"),
               "max_levels": (SetupConfig, "max_levels"),
               "improvement_iters": (ExperimentConfig, "improvement_iters"),
               "seed": (ExperimentConfig, "seed"), **PROBLEM_FLAGS}


SYLVESTER_FLAGS = {"tol": (sylvester_cg, "tol"), "max_iters": (sylvester_cg, "max_iters")}


def library_default(owner, name):
    """The default of field `name` of a dataclass, or of parameter `name`
    of a function."""
    if dataclasses.is_dataclass(owner):
        return {f.name: f.default for f in dataclasses.fields(owner)}[name]
    return inspect.signature(owner).parameters[name].default


@pytest.mark.parametrize("argv, flags", [(["solve"], SOLVE_FLAGS),
                                         (["assemble", "--out", "x"], PROBLEM_FLAGS),
                                         (["sylvester", "--F", "x"], SYLVESTER_FLAGS)],
                         ids=["solve", "assemble", "sylvester"])
def test_cli_defaults_are_the_dataclass_defaults(argv, flags):
    """The CLI restates no setting: each flag's default is its field's,
    or, for sylvester, its parameter's in sylvester_cg."""
    args = vars(build_parser().parse_args(argv))
    for dest, (owner, name) in flags.items():
        default = library_default(owner, name)
        assert args[dest] == default, f"--{dest} defaults to {args[dest]!r}, " \
                                      f"{owner.__name__}.{name} to {default!r}"
