"""Every function, class and method in the library is used by the program.

A definition counts as used when a Name or Attribute node refers to it by name
somewhere in `src/graphspring` outside its own body and outside `__init__.py`,
or anywhere in `perfbench/`.  A mention in a docstring or a comment is not a
use.  Code that only tests call belongs in `tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "graphspring"
# library names that only tests may use
ALLOWED: set[str] = set()


def definitions(tree):
    """(qualified name, bare name, node) for each top-level function and class
    and each method of a top-level class; dunder methods run implicitly."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def references(tree):
    """(name, line) of every Name and Attribute node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unused_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(LIBRARY.glob("*.py")) if path.name != "__init__.py"}
    outside = {name for path in sorted((ROOT / "perfbench").glob("*.py"))
               for name, _ in references(ast.parse(path.read_text(encoding="utf-8")))}
    refs = {module: list(references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for qualname, name, node in definitions(tree):
            used = name in outside or any(
                ref == name and (other != module
                                 or not node.lineno <= line <= node.end_lineno)
                for other, module_refs in refs.items() for ref, line in module_refs)
            if not used and f"{module}.{qualname}" not in ALLOWED:
                unused.append(f"{module}.{qualname}")
    return unused


def test_library_holds_no_code_only_tests_use():
    assert unused_names() == []
