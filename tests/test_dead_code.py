"""Every top-level function and class, and every private method, of the
package has a caller in it."""

import ast
from pathlib import Path

import hydrobal

# reference implementations with no caller in the package, which the tests
# compare against: the scenario self-checks; the Horner product and the exact
# cell mean of `poly`; the solid-wall flux in a call of its own.
# perfbench/spans.py patches `poly_mul` and `wall_boundary_flux` by name, so
# they stay in the package until the tracer stops patching them (ROADMAP
# item 1)
ALLOWED = {"hydrostatic_residual", "potential_gradient_residual",
           "poly_mul", "poly_cell_average", "wall_boundary_flux"}

# private methods reached without their name in the source:
# `IdealGasRadiation.thermo` and `thermo_eps` call the radiation kernels
# through getattr(self, "_" + name); perfbench/spans.py patches
# `_newton_anchor`, which the solver no longer calls, until ROADMAP item 1
PRIVATE_ALLOWED = {"IdealGasRadiation._internal_energy",
                   "IdealGasRadiation._deps_drho",
                   "IdealGasRadiation._sound_speed",
                   "SpatialOperator2D._newton_anchor"}


def _definitions_and_loads():
    """Top-level definitions {name: module}, private methods
    {"Class._name": module} and every name and attribute loaded."""
    defined, private, used = {}, {}, set()
    for path in sorted(Path(hydrobal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                private.update(
                    (f"{node.name}.{item.name}", path.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name.startswith("_")
                    and not item.name.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return defined, private, used


def test_every_top_level_definition_is_used_in_src():
    defined, _, used = _definitions_and_loads()
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used | ALLOWED)
    assert unused == []


def test_every_private_method_is_called_in_src():
    _, private, used = _definitions_and_loads()
    unused = sorted(f"{module}:{name}" for name, module in private.items()
                    if name.split(".")[1] not in used
                    and name not in PRIVATE_ALLOWED)
    assert unused == []


def test_every_exemption_is_defined_and_unused_in_src():
    # a stale exemption (the name gone, or a caller added) fails here
    defined, private, used = _definitions_and_loads()
    assert sorted(ALLOWED - set(defined)) == []
    assert sorted(ALLOWED & used) == []
    assert sorted(PRIVATE_ALLOWED - set(private)) == []
    assert sorted(name for name in PRIVATE_ALLOWED
                  if name.split(".")[1] in used) == []
