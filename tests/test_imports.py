"""Every name a module imports is used in that module, and src/ holds
only what the program runs or reads.

A module in src/ or tests/ that imports a name it never references
fails here.  The package's __init__ is exempt for the names it lists in
__all__, which it imports to re-export.

Every function and class defined in src/ (dunders exempt) must be named
somewhere other than its own definition: in src/, in perfbench/*.py
(string constants included, as perfbench looks functions up by name),
in the README's python blocks or in pyproject.toml's scripts.  A helper
only the tests use belongs in the tests.  Likewise every field of a
dataclass or NamedTuple in src/ must be read as an attribute in those
same sources: a field only the tests read is not stored.
"""

import ast
import re
from collections import Counter
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


def referenced_names(tree):
    """Every name, attribute, imported name and name-like string constant in tree."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.:]+", node.value):
                names.update(re.split(r"[.:]", node.value))
    return names


def script_names():
    """The module and function names of pyproject.toml's console scripts."""
    section = ROOT.joinpath("pyproject.toml").read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return Counter(name for target in re.findall(r'=\s*"([^"]*)"', section) for name in re.split(r"[.:]", target))


def program_trees():
    """The ASTs of src/, and of its callers: perfbench/*.py and the README's python blocks."""
    src = [ast.parse(path.read_text()) for path in sorted(ROOT.joinpath("src").rglob("*.py"))]
    callers = [ast.parse(path.read_text()) for path in sorted(ROOT.joinpath("perfbench").glob("*.py"))]
    readme = ROOT.joinpath("README.md").read_text()
    callers += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return src, callers


def test_src_defines_only_what_the_program_names():
    src, callers = program_trees()
    names = script_names()
    for tree in [*src, *callers]:
        names += referenced_names(tree)
    unnamed = set()
    for tree in src:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if names[node.name] - referenced_names(node)[node.name] <= 0:
                unnamed.add(node.name)
    assert not unnamed, sorted(unnamed)


def record_fields(tree):
    """(class, field) for every annotated field of a dataclass or NamedTuple in tree."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if "dataclass" in {getattr(d, "id", getattr(d, "attr", None)) for d in decorators} or any(
            getattr(base, "id", None) == "NamedTuple" for base in node.bases
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def test_src_records_hold_only_fields_the_program_reads():
    src, callers = program_trees()
    read = {
        node.attr
        for tree in [*src, *callers]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {f"{cls}.{field}" for tree in src for cls, field in record_fields(tree) if field not in read}
    assert not unread, sorted(unread)
