"""Every function, class and method in the library is used by the program,
and so is every optional parameter of each.

A definition counts as used when a Name or Attribute node refers to it by name
somewhere in `src/graphspring` outside its own body and outside `__init__.py`,
or anywhere in `perfbench/`.  A parameter with a default counts as used when a
call of its function there, outside the function's own body, passes it by
keyword or by position; a call of a class passes its `__init__`'s.  A mention
in a docstring or a comment is not a use.  Code and arguments that only tests
pass belong in `tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "graphspring"
# library names, and parameters as "module.function(parameter)", that only
# tests may use, each with its reason
ALLOWED: dict[str, str] = {
    "cli.main(argv)": "the console script's entry for tests; the script passes none",
}


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


def library_trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(LIBRARY.glob("*.py")) if path.name != "__init__.py"}


def unused_names() -> list[str]:
    trees = library_trees()
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


def optional_parameters(node, bound: int):
    """(name, index among the arguments a call passes by position, or None
    for a keyword-only one) of each parameter of `node` with a default; a
    method's first `bound` parameters are not passed by the call."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((p.arg, i - bound) for i, p in enumerate(positional) if i >= first)
    yield from ((p.arg, None) for p, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None)


def calls(tree):
    """(callee name, line, positional count, keyword names) of every call; a
    starred argument passes every position and a ** argument every keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (name, node.lineno, float("inf") if starred else len(node.args),
                   keywords)


def callables(tree):
    """(qualified name, the name a call uses, node, the count of its first
    parameters that a call does not pass) for each top-level function, each
    method of a top-level class, and each class's `__init__`, which a call of
    the class runs."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            decorators = {d.id for d in item.decorator_list if isinstance(d, ast.Name)}
            bound = 0 if "staticmethod" in decorators else 1
            if item.name == "__init__":
                yield node.name, node.name, item, bound
            elif not item.name.startswith("__"):
                yield f"{node.name}.{item.name}", item.name, item, bound


def unpassed_parameters() -> list[str]:
    trees = library_trees()
    outside = [call for path in sorted((ROOT / "perfbench").glob("*.py"))
               for call in calls(ast.parse(path.read_text(encoding="utf-8")))]
    inside = {module: list(calls(tree)) for module, tree in trees.items()}
    unpassed = []
    for module, tree in trees.items():
        for qualname, name, node, bound in callables(tree):
            found = outside + [
                call for other, module_calls in inside.items() for call in module_calls
                if other != module or not node.lineno <= call[1] <= node.end_lineno]
            for param, index in optional_parameters(node, bound):
                passed = any(
                    callee == name and (param in keywords or None in keywords
                                        or (index is not None and n_args > index))
                    for callee, _, n_args, keywords in found)
                if not passed and f"{module}.{qualname}({param})" not in ALLOWED:
                    unpassed.append(f"{module}.{qualname}({param})")
    return unpassed


def test_library_holds_no_code_only_tests_use():
    assert unused_names() == []


def test_every_optional_parameter_is_passed_by_the_program():
    assert unpassed_parameters() == []
