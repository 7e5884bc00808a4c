"""Every public top-level function, public method and private name of the
package is used.

A public (no leading underscore) top-level function must either be
exported from `graphifs/__init__.py` or be referenced by some code of the
package outside its own definition.  A public method of a package class
must be referenced by some code of the package or of the tests outside
its own definition.  A private module-level function or constant, or a
private method, must be read by package code that is itself used.
Anything else is dead code.

Every function whose calls the benchmark's per-layer metrics count stays a
public function of its layer, so that a traced benchmark run finds it.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import graphifs

PACKAGE_DIR = Path(graphifs.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent


def _names(node, skip=()) -> set[str]:
    """Every name that `node` reads, imports or reaches as an attribute,
    leaving out the subtrees in `skip`."""
    out = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub in skip:
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
                        and not any(func.name in _names(other, skip={func})
                                    for other in trees)):
                    unused.append(f"{module}.{cls.name}.{func.name}")
    assert unused == [], f"public methods nothing uses: {unused}"


def _private_definitions(module, tree):
    """{node: (qualified name, name)} of every private module-level function
    and constant and every private method in `tree`, dunders left out."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    out = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out.update({func: (f"{module}.{node.name}.{func.name}", func.name)
                        for func in node.body
                        if isinstance(func, ast.FunctionDef)
                        and private(func.name)})
        elif isinstance(node, ast.FunctionDef) and private(node.name):
            out[node] = (f"{module}.{node.name}", node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            out.update({node: (f"{module}.{t.id}", t.id) for t in targets
                        if isinstance(t, ast.Name) and private(t.id)})
    return out


def test_every_private_name_is_used():
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    private = {}
    for module, tree in package.items():
        private.update(_private_definitions(module, tree))
    # names read by the package outside every private definition, then
    # grown by the names each private definition reached so far reads
    reached = set().union(*(_names(tree, skip=private)
                            for tree in package.values()))
    live = set()
    while True:
        new = {node for node, (_q, name) in private.items()
               if node not in live and name in reached}
        if not new:
            break
        live |= new
        for node in new:
            reached |= _names(node) - {private[node][1]}
    unused = sorted(q for node, (q, _n) in private.items() if node not in live)
    assert unused == [], f"private names nothing uses: {unused}"


def test_every_import_is_read():
    """Every module-level import of a package module other than
    `__init__`, `from __future__` left out, is read in that module."""
    unread = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in tree.body
                   if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom)
                   and node.module != "__future__"]
        read = _names(tree, skip=set(imports))
        unread += [f"{path.stem}: {alias.asname or alias.name.split('.')[0]}"
                   for node in imports for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in read]
    assert unread == [], f"imports nothing reads: {unread}"


def test_every_benchmark_traced_function_is_public():
    """Each per-layer metric `<layer>.<func>.calls` of BENCHMARK.json names
    a public function defined in graphifs.<layer> (for `GapCosets.<name>`,
    a method of that class): a traced run raises when one is missing."""
    spec = json.loads((TESTS_DIR.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    traced = [metric["name"].split(".")[:-1] for metric in spec["per_layer"]
              if metric["name"].endswith(".calls")]
    missing = []
    for layer, *names in traced:
        module = importlib.import_module(f"graphifs.{layer}")
        obj = module
        for name in names:
            obj = getattr(obj, name, None)
        if (any(name.startswith("_") for name in names)
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__):
            missing.append(".".join([layer, *names]))
    assert traced and missing == [], (
        f"traced functions no longer public: {missing}")
