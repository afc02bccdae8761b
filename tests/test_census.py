"""Every public function, class and method in ``src/fdstab`` has a caller.

A public top-level ``def`` or ``class``, and a public method of a public
class, must be named in the code of ``src/`` or ``perfbench/`` outside
its own definition and outside ``__init__.py``, whose re-exports call
nothing.  Only code counts: a name, an attribute or a ``from ...
import``, never a mention in a docstring or a comment.  A name that only
its tests reach belongs in the tests.  The names in ``PENDING`` are the
exceptions, each waiting for the ROADMAP item that gives it a caller or
deletes it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fdstab"

# uncalled public names and the ROADMAP item that settles each
PENDING = {
    "functionals.best_match": 8,
    "functionals.normalization_map": 8,
    "profiles.eval_barenblatt": 8,
    "flow.reconstruct_delayed": 8,
}


def _names(node: ast.AST) -> set[str]:
    """The names that the code under ``node`` refers to."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _unreferenced(package: Path = SRC,
                  callers: tuple[Path, ...] = (ROOT / "perfbench",)) -> list[str]:
    modules = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    paths = modules + [path for folder in callers for path in sorted(folder.glob("*.py"))]
    bodies = {path: ast.parse(path.read_text()).body for path in paths}
    # the names each top-level statement of each file refers to
    refs = {(path, i): _names(node)
            for path, body in bodies.items() for i, node in enumerate(body)}
    missing = []
    for path in modules:
        for i, node in enumerate(bodies[path]):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            others = [names for key, names in refs.items() if key != (path, i)]
            if not any(node.name in names for names in others):
                missing.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.FunctionDef):
                continue
            # a method is also named by the other statements of its class
            members = [_names(sub) for sub in node.body]
            for j, sub in enumerate(node.body):
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_") \
                        and not any(sub.name in names for names in others
                                    + members[:j] + members[j + 1:]):
                    missing.append(f"{path.stem}.{node.name}.{sub.name}")
    return missing


def test_every_public_name_has_a_caller():
    # the pending names are still uncalled, so the set shrinks as they land
    assert sorted(_unreferenced()) == sorted(PENDING)


def test_a_docstring_mention_is_no_caller(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    callers.mkdir()
    (package / "__init__.py").write_text("from .a import Box, mentioned, recursive\n")
    (package / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def mentioned():\n    return 2\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Box:\n"
        "    def opened(self):\n        return self.sibling()\n\n"
        "    def sibling(self):\n        return used()\n\n"
        "    def uncalled(self, n):\n        return self.uncalled(n - 1) if n else 0\n")
    (package / "b.py").write_text(
        '"""See mentioned() and recursive."""\n'
        "# mentioned, recursive, Box.uncalled\n"
        "def helper():\n"
        '    """Unlike mentioned or Box.uncalled, this calls a.used."""\n'
        "    from . import a\n    return a.used() + a.Box().opened()\n")
    (callers / "run.py").write_text("from pkg.b import helper\n\nhelper()\n")
    assert sorted(_unreferenced(package, (callers,))) \
        == ["a.Box.uncalled", "a.mentioned", "a.recursive"]
