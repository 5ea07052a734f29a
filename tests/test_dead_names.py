"""Every top-level name of the package is read somewhere in the package
besides its own definition: a function, class or constant that only the
tests, or nothing, still use fails here (ROADMAP aim 2)."""

import ast
from collections import Counter
from pathlib import Path

import marketpanel

PACKAGE = Path(marketpanel.__file__).parent


def defined_names(statement):
    """The names a top-level statement binds: a def's or class's, or an assignment's."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def names_read(statement):
    """How often each name is read, as a variable or an attribute, in ``statement``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(statement)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Attribute))


def dead_names(sources):
    """(module, name) of each top-level name of ``sources`` ({module: source text})
    that no module reads outside the statement defining it."""
    statements = [(module, statement) for module, text in sources.items()
                  for statement in ast.parse(text).body]
    reads = [names_read(statement) for _, statement in statements]
    total = sum(reads, Counter())
    return [(module, name) for (module, statement), own in zip(statements, reads)
            for name in defined_names(statement) if total[name] == own[name]]


def test_every_top_level_name_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 14
    assert dead_names(sources) == []


def test_an_unread_or_self_read_name_is_found():
    sources = {
        "a.py": ("LIMIT = 3\nUSED, SPARE = 1, 2\n"
                 "def _walk(n):\n    return _walk(n - 1) if n else LIMIT\n"
                 "class Kept:\n    pass\n"),
        "b.py": "from .a import SPARE\nfrom . import a\nx: int = a.USED\nprint(Kept, x)\n",
    }
    assert dead_names(sources) == [("a.py", "SPARE"), ("a.py", "_walk")]
