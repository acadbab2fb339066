"""Static checks over the package, the tests and the benchmark scripts.

Stdlib only. Each file is parsed once, and every rule reads names through
:func:`read_names`:

- an import in ``src/ppvf`` (but ``__init__.py``, whose imports re-export)
  or ``tests`` that its module never reads;
- a module-level private name in ``src/ppvf`` (a function, class or
  assigned name starting with one underscore) that no module in
  ``src/ppvf`` reads, by name, attribute or import;
- a name defined in ``src/ppvf`` (but ``__init__.py``) that only tests
  read: a module-level function, class or public assigned name that
  nothing in ``src/ppvf`` or ``bench`` reads by name, attribute, import or
  keyword argument, or a method, class-level annotated field or attribute
  a method assigns as ``self.<name> = ...`` that they read by attribute,
  import or keyword argument alone (a bare name that matches a member is a
  local or a global, not the member; dunder names are exempt);
- a parameter of a ``src/ppvf`` function or lambda that its body never
  reads (``self``, ``cls`` and names starting with an underscore are
  exempt);
- an exception class defined in ``src/ppvf`` that no ``except`` clause of
  ``cli.main`` names, so that it would end a command in a traceback, not
  in its exit code.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = {
    path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"), str(path))
    for pattern in ("src/ppvf/*.py", "tests/*.py", "bench/*.py")
    for path in sorted(ROOT.glob(pattern))
}
SRC = {path: tree for path, tree in TREES.items() if path.startswith("src/")}


def read_names(nodes, attributes=False, keywords=False, names=True) -> set[str]:
    """Every name loaded under ``nodes`` (unless not ``names``); with
    ``attributes``, also every attribute loaded and every imported name;
    with ``keywords``, also every keyword argument's name."""
    read = set()
    for node in nodes:
        for n in ast.walk(node):
            if names and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif attributes and isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif attributes and isinstance(n, ast.alias):
                read.add(n.name)
            elif keywords and isinstance(n, ast.keyword) and n.arg:
                read.add(n.arg)
    return read


def test_no_unused_imports():
    bad = []
    for path, tree in TREES.items():
        if path.startswith("bench/") or path.endswith("__init__.py"):
            continue
        read = read_names([tree])
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    bad.append(f"{path}:{node.lineno}: {name} is imported but never read")
    assert not bad, "\n".join(bad)


def test_no_unread_private_names():
    read = read_names(SRC.values(), attributes=True)
    bad = []
    for path, tree in SRC.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") and name not in read:
                    bad.append(f"{path}:{node.lineno}: {name} is defined but nothing in src/ppvf reads it")
    assert not bad, "\n".join(bad)


def _defined(body, in_class):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (isinstance(node, ast.ClassDef) and not in_class):
            yield node, node.name
            if in_class:  # a method: also each attribute it assigns as self.<name> = ...
                yield from (
                    (n, n.attr)
                    for n in ast.walk(node)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if in_class or not node.target.id.startswith("_"):
                yield node, node.target.id
        elif isinstance(node, ast.Assign) and not in_class:
            yield from ((node, t.id) for t in node.targets if isinstance(t, ast.Name) and not t.id.startswith("_"))


def test_no_names_only_tests_read():
    readers = [tree for path, tree in TREES.items() if not path.startswith("tests/")]
    members = read_names(readers, attributes=True, keywords=True, names=False)
    read = members | read_names(readers)
    bad = []
    for path, tree in SRC.items():
        if path.endswith("__init__.py"):
            continue
        found = list(_defined(tree.body, False))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                found += [(node, f"{cls.name}.{name}") for node, name in _defined(cls.body, True)]
        for node, qual in found:
            name = qual.rsplit(".", 1)[-1]
            if not (name.startswith("__") and name.endswith("__")) and name not in (members if "." in qual else read):
                bad.append(f"{path}:{node.lineno}: {qual} is defined but only tests read it")
    assert not bad, "\n".join(bad)


def test_no_unread_parameters():
    bad = []
    for path, tree in SRC.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            spec = fn.args
            params = spec.posonlyargs + spec.args + spec.kwonlyargs + [a for a in (spec.vararg, spec.kwarg) if a]
            read = read_names(fn.body if isinstance(fn.body, list) else [fn.body])
            for arg in params:
                if arg.arg not in ("self", "cls") and not arg.arg.startswith("_") and arg.arg not in read:
                    name = getattr(fn, "name", "lambda")
                    bad.append(f"{path}:{arg.lineno}: {name} never reads its parameter {arg.arg}")
    assert not bad, "\n".join(bad)


def test_every_exception_class_has_an_exit_code():
    classes = {
        node.name: (path, node) for path, tree in SRC.items() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }

    def is_exception(name):
        if name in classes:
            return any(is_exception(getattr(base, "attr", getattr(base, "id", ""))) for base in classes[name][1].bases)
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    main = next(n for n in SRC["src/ppvf/cli.py"].body if isinstance(n, ast.FunctionDef) and n.name == "main")
    caught = read_names([n.type for n in ast.walk(main) if isinstance(n, ast.ExceptHandler) and n.type], attributes=True)
    bad = [
        f"{path}:{node.lineno}: {name} is an exception class that no except clause of cli.main names"
        for name, (path, node) in classes.items()
        if is_exception(name) and name not in caught
    ]
    assert not bad, "\n".join(bad)
