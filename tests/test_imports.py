"""Every module-level import and every function of the package is used.

No linter runs on the package, so these scans stand in for the unused
import and dead code checks.  A name bound by a module-level import must
be read as a name somewhere in the module; __init__.py re-exports and is
skipped.  A module-level function or a method must be referred to
somewhere in the package, the tests or the benchmark, and so must a
name assigned at module level.

The scan matches names only, not the class a method belongs to: a
method counts as used as soon as any call names a method of the same
name, so a dead to_json_dict on one class hides behind the live
to_json_dict of another.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusdyn"


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [f"{path.name}: {name}" for name in imported if name not in used]


def test_no_unused_module_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [u for p in modules for u in unused_imports(p)]
    assert not unused, "unused imports: " + ", ".join(unused)


def defined_functions(tree) -> list:
    """Module-level functions and non-dunder methods."""
    names = []
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        names += [
            f.name for f in body
            if isinstance(f, ast.FunctionDef)
            and not (f.name.startswith("__") and f.name.endswith("__"))
        ]
    return names


def referenced_names(tree) -> set:
    """Names, attributes, imported names and string constants; the
    benchmark's tracer names the functions it wraps by string."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs.add(n.value)
    return refs


def test_no_unreferenced_functions():
    modules = sorted(PACKAGE.glob("*.py"))
    sources = [p for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert modules and sources
    refs = set()
    for p in sources:
        refs |= referenced_names(ast.parse(p.read_text(encoding="utf-8")))
    dead = [
        f"{p.name}: {name}"
        for p in modules
        for name in defined_functions(ast.parse(p.read_text(encoding="utf-8")))
        if name not in refs
    ]
    assert not dead, "unreferenced functions: " + ", ".join(dead)


def assigned_names(tree) -> list:
    """Non-dunder names bound by module-level assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names += [
            n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)
            and not (n.id.startswith("__") and n.id.endswith("__"))
        ]
    return names


def read_names(tree) -> set:
    """Names read as a name, an attribute or an import."""
    reads = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads.add(n.id)
        elif isinstance(n, ast.Attribute):
            reads.add(n.attr)
        elif isinstance(n, ast.alias):
            reads.add(n.name)
    return reads


def test_no_unread_module_names():
    modules = sorted(PACKAGE.glob("*.py"))
    sources = [p for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert modules and sources
    reads = set()
    for p in sources:
        reads |= read_names(ast.parse(p.read_text(encoding="utf-8")))
    dead = [
        f"{p.name}: {name}"
        for p in modules
        for name in assigned_names(ast.parse(p.read_text(encoding="utf-8")))
        if name not in reads
    ]
    assert not dead, "unread module-level names: " + ", ".join(dead)


def test_oracles_import_nothing_from_the_package():
    """The reference implementations share no code with the package."""
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    bad = [m for m in modules if m.split(".")[0] == "torusdyn"]
    assert not bad, "oracles.py imports " + ", ".join(bad)
