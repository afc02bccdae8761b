"""Every public function, class, method and dataclass field in
``src/fdstab`` has a reader.

A public top-level ``def`` or ``class`` must be reached from the code of
``src/`` or ``perfbench/`` outside its own definition and outside
``__init__.py``, whose re-exports call nothing.  Names are read as Python
binds them: a top-level name of module ``mod`` counts only through a
``from ... import`` of ``mod`` (or of the package, resolved through its
``__init__.py``), an attribute loaded from a name bound to ``mod`` by an
import (``C.build_ledger``, ``flow.solve_fdr``), or a name loaded in
``mod`` itself.  A public method of a public class counts when any code
there, another statement of its class included, loads an attribute of
its name.  Only loads count, never a store, nor a mention in a docstring
or a comment.  A name that only its tests reach belongs in the tests.
The names in ``PENDING`` are the exceptions, each waiting for the ROADMAP
item that gives it a caller or deletes it.

A public field of a public dataclass must be loaded as an attribute
somewhere in ``src/``, ``perfbench/`` or ``tests/``: a field that nothing
reads is not kept in a result.
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
    "functionals.deficit": 7,
}


def _loaded(node: ast.AST, kind: type) -> set[str]:
    """The names (kind ``ast.Name``) or attribute names (``ast.Attribute``)
    that the code under ``node`` loads."""
    return {sub.id if kind is ast.Name else sub.attr for sub in ast.walk(node)
            if isinstance(sub, kind) and isinstance(sub.ctx, ast.Load)}


def _imports(node: ast.AST, package: Path,
             exports: dict[str, str]) -> tuple[set[tuple[str, str]], dict[str, str]]:
    """The (module, name) pairs that the imports under ``node`` take from
    ``package`` by name, and the local names that they bind to its modules.

    ``exports`` maps a name imported from the package itself to the module
    its ``__init__.py`` takes it from.
    """
    pairs, aliases = set(), {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            for alias in sub.names:
                head, _, module = alias.name.partition(".")
                if head == package.name and module and alias.asname:
                    aliases[alias.asname] = module
        elif isinstance(sub, ast.ImportFrom):
            if sub.level == 1:
                source = sub.module or ""
            elif sub.level == 0 and (sub.module or "").split(".")[0] == package.name:
                source = sub.module[len(package.name) + 1:]
            else:
                continue
            for alias in sub.names:
                if source:
                    pairs.add((source, alias.name))
                elif (package / f"{alias.name}.py").is_file():
                    aliases[alias.asname or alias.name] = alias.name
                elif alias.name in exports:
                    pairs.add((exports[alias.name], alias.name))
    return pairs, aliases


def _unreferenced(package: Path = SRC,
                  callers: tuple[Path, ...] = (ROOT / "perfbench",)) -> list[str]:
    init = ast.parse((package / "__init__.py").read_text())
    exports = {alias.asname or alias.name: node.module for node in init.body
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
               for alias in node.names}
    modules = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    paths = modules + [path for folder in callers for path in sorted(folder.glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    # what each top-level statement of each file reaches: the (module,
    # name) pairs it resolves to, and the attribute names it loads
    refs = {}
    for path, tree in trees.items():
        aliases = _imports(tree, package, exports)[1]
        for i, node in enumerate(tree.body):
            pairs = _imports(node, package, exports)[0]
            pairs |= {(aliases[sub.value.id], sub.attr) for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                      and isinstance(sub.value, ast.Name) and sub.value.id in aliases}
            if path in modules:
                pairs |= {(path.stem, name) for name in _loaded(node, ast.Name)}
            refs[path, i] = pairs, _loaded(node, ast.Attribute)
    missing = []
    for path in modules:
        for i, node in enumerate(trees[path].body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            others = [ref for key, ref in refs.items() if key != (path, i)]
            if not any((path.stem, node.name) in pairs for pairs, _ in others):
                missing.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.FunctionDef):
                continue
            # a method is also reached from the other statements of its class
            members = [_loaded(sub, ast.Attribute) for sub in node.body]
            for j, sub in enumerate(node.body):
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_") \
                        and not any(sub.name in attrs for attrs in
                                    [attrs for _, attrs in others]
                                    + members[:j] + members[j + 1:]):
                    missing.append(f"{path.stem}.{node.name}.{sub.name}")
    return missing


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"


def _unread_fields(package: Path = SRC,
                   readers: tuple[Path, ...] = (SRC, ROOT / "perfbench",
                                                ROOT / "tests")) -> list[str]:
    """Public fields of public dataclasses in ``package`` that no code in
    ``readers`` loads as an attribute.

    Attributes are matched by name, not resolved to their class: a
    same-named field of another class, or any attribute of that name,
    satisfies the rule.  A ``lam0`` field of ``MoserChain`` would pass on
    the reads of ``GHPChain.lam0``, and an ``a_gap`` of
    ``CriticalStability`` on those of ``spectral.CriticalGap.a_gap``;
    such fields are found by hand.
    """
    loaded = set().union(*(_loaded(ast.parse(path.read_text()), ast.Attribute)
                           for folder in readers for path in sorted(folder.glob("*.py"))))
    return [f"{path.stem}.{node.name}.{sub.target.id}"
            for path in sorted(package.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and any(map(_is_dataclass, node.decorator_list))
            for sub in node.body
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
            and not sub.target.id.startswith("_") and sub.target.id not in loaded]


def test_every_public_name_has_a_caller():
    # the pending names are still uncalled, so the set shrinks as they land
    assert sorted(_unreferenced()) == sorted(PENDING)


def test_every_public_field_is_read():
    assert _unread_fields() == []


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


def test_names_resolve_through_imports_and_fields_must_be_loaded(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    callers.mkdir()
    (package / "__init__.py").write_text("from .a import Report, aliased, shadowed\n")
    (package / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "def aliased():\n    return 1\n\n\n"
        "def shadowed():\n    return 2\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n    read: float\n    stored: float\n    unread: float\n")
    # shadowed is reached only as an attribute of an object, never of its
    # module; stored is only ever assigned
    (callers / "run.py").write_text(
        "from pkg import a as A\n"
        "from pkg.a import Report\n\n\n"
        "def run(obj):\n"
        "    obj.stored = obj.shadowed()\n"
        "    return A.aliased() + Report(1.0, 2.0, 3.0).read\n")
    assert _unreferenced(package, (callers,)) == ["a.shadowed"]
    assert _unread_fields(package, (package, callers)) \
        == ["a.Report.stored", "a.Report.unread"]
