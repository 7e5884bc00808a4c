"""Every public top-level function and public method of the package is
used.

A public (no leading underscore) top-level function must either be
exported from `graphifs/__init__.py` or be referenced by some code of the
package outside its own definition.  A public method of a package class
must be referenced by some code of the package or of the tests outside
its own definition.  Anything else is dead code.
"""

import ast
from pathlib import Path

import graphifs

PACKAGE_DIR = Path(graphifs.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent


def _names(node, skip=None) -> set[str]:
    """Every name that `node` reads, imports or reaches as an attribute,
    leaving out the subtree `skip`."""
    out = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        stack.extend(ast.iter_child_nodes(sub))
    return out


def test_every_public_function_is_exported_or_used():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    exported = _names(modules.pop("__init__"))
    # names referenced by each top-level statement, keyed by module
    statements = {
        name: [(stmt, _names(stmt)) for stmt in tree.body]
        for name, tree in modules.items()}
    unused = []
    for module, tree in modules.items():
        for func in tree.body:
            if (not isinstance(func, ast.FunctionDef)
                    or func.name.startswith("_") or func.name in exported):
                continue
            used = any(func.name in names
                       for stmts in statements.values()
                       for stmt, names in stmts if stmt is not func)
            if not used:
                unused.append(f"{module}.{func.name}")
    assert unused == [], f"public functions nothing uses: {unused}"


def test_every_public_method_is_used():
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    trees = list(package.values()) + [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(TESTS_DIR.glob("*.py"))]
    unused = []
    for module, tree in package.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if (isinstance(func, ast.FunctionDef)
                        and not func.name.startswith("_")
                        and not any(func.name in _names(other, skip=func)
                                    for other in trees)):
                    unused.append(f"{module}.{cls.name}.{func.name}")
    assert unused == [], f"public methods nothing uses: {unused}"
