"""Every top-level function and class of the package has a caller in it."""

import ast
from pathlib import Path

import hydrobal

# scenario self-checks that the tests use as reference implementations
ALLOWED = {"hydrostatic_residual", "potential_gradient_residual"}


def test_every_top_level_definition_is_used_in_src():
    defined, used = {}, set()
    for path in sorted(Path(hydrobal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used | ALLOWED)
    assert unused == []
