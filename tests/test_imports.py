"""Every name a module imports is used in that module.

A module in src/ or tests/ that imports a name it never references
fails here.  The package's __init__ is exempt for the names it lists in
__all__, which it imports to re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").glob("*.py")])


def imported_names(tree):
    """The names bound by every import outside `from __future__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def exported_names(tree):
    """The string entries of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= exported_names(tree)
        names = sorted(name for name in imported_names(tree) if name not in used)
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert not unused, unused
