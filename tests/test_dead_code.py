"""Every top-level function and class, and every method and property, of
the package has a caller in it, and every name it keeps only for the
benchmark tracer is one that the tracer patches."""

import ast
import importlib.util
from importlib import import_module
from pathlib import Path

import hydrobal

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# reference implementations with no caller in the package, which the tests
# compare against: the Horner helpers of `poly` and the solid-wall flux in a
# call of its own.  perfbench/spans.py patches them by name, so they stay in
# the package until the tracer stops patching them (ROADMAP item 1); every
# other test-only name lives in the tests (`tests/oracles.py`)
ALLOWED = {"poly_eval", "poly_antiderivative", "poly_mul",
           "wall_boundary_flux"}

# private methods reached without their name in the source:
# `IdealGasRadiation.thermo` and `thermo_eps` call the radiation kernels
# through getattr(self, "_" + name); perfbench/spans.py patches
# `_newton_anchor` (TRACER_METHODS), which the solver no longer calls,
# until ROADMAP item 1
TRACER_METHODS = {"SpatialOperator._newton_anchor"}
PRIVATE_ALLOWED = {"IdealGasRadiation._internal_energy",
                   "IdealGasRadiation._deps_drho",
                   "IdealGasRadiation._sound_speed"} | TRACER_METHODS


def _definitions_and_loads():
    """Top-level definitions {name: module}, private methods
    {"Class._name": module}, every name and attribute loaded, and public
    methods and properties {"Class.name": module}."""
    defined, private, used, public = {}, {}, set(), {}
    for path in sorted(Path(hydrobal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.endswith("__"):
                        methods = private if item.name.startswith("_") \
                            else public
                        methods[f"{node.name}.{item.name}"] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) and node.value.isidentifier():
                # a name in a string is reached through getattr (the
                # quantities `thermo` takes)
                used.add(node.value)
    return defined, private, used, public


def test_every_top_level_definition_is_used_in_src():
    defined, _, used, _ = _definitions_and_loads()
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used | ALLOWED)
    assert unused == []


def test_every_private_method_is_called_in_src():
    _, private, used, _ = _definitions_and_loads()
    unused = sorted(f"{module}:{name}" for name, module in private.items()
                    if name.split(".")[1] not in used
                    and name not in PRIVATE_ALLOWED)
    assert unused == []


def test_every_public_method_and_property_is_used_in_src():
    # a public method or property that only the tests call is test-only
    # code: it moves into the tests, or the test reads what the package uses
    *_, used, public = _definitions_and_loads()
    unused = sorted(f"{module}:{name}" for name, module in public.items()
                    if name.split(".")[1] not in used)
    assert unused == []


def test_every_exemption_is_defined_and_unused_in_src():
    # a stale exemption (the name gone, or a caller added) fails here
    defined, private, used, _ = _definitions_and_loads()
    assert sorted(ALLOWED - set(defined)) == []
    assert sorted(ALLOWED & used) == []
    assert sorted(PRIVATE_ALLOWED - set(private)) == []
    assert sorted(name for name in PRIVATE_ALLOWED
                  if name.split(".")[1] in used) == []


def _tracer_targets():
    """(module, attribute path) of every entry point perfbench/spans.py
    patches, the tracer loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module, path) for module, path, _ in spans.Tracer()._targets()}


def _tracer_only_names():
    """(module, name) of every name the package binds only for the tracer:
    each import marked `# noqa: F401` and each module-level alias
    `name = other`."""
    names = set()
    for path in sorted(Path(hydrobal.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines, module = source.splitlines(), f"hydrobal.{path.stem}"
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom) and any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                names |= {(module, alias.asname or alias.name)
                          for alias in node.names}
            elif isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Name):
                names |= {(module, target.id) for target in node.targets}
    return names


def test_every_exemption_is_a_tracer_target():
    # test-only code stays in the package only where the tracer pins it
    patched = {path.split(".")[0] for _, path in _tracer_targets()}
    assert sorted(ALLOWED - patched) == []


def test_every_tracer_only_name_is_a_tracer_target():
    # a name kept for the tracer that it no longer patches fails here, so
    # no such name outlives the tracer's use of it
    targets = _tracer_targets()
    patched = {(module, path.split(".")[0]) for module, path in targets}
    names = _tracer_only_names()
    assert ("hydrobal.operator2d", "SpatialOperator2D") in names
    assert sorted(names - patched) == []
    for name in sorted(TRACER_METHODS):
        owner, method = name.split(".")
        assert any(
            path.split(".")[-1] == method and getattr(getattr(
                import_module(module), path.split(".")[0], None),
                "__name__", None) == owner
            for module, path in targets), name
