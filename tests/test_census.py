"""Every public function and class in ``src/fdstab`` has a caller.

A public top-level ``def`` or ``class`` must be named in ``src/`` or
``perfbench/`` outside its own definition and outside ``__init__.py``,
whose re-exports call nothing.  A name that only its tests reach belongs
in the tests.  The names in ``PENDING`` are the exceptions, each waiting
for the ROADMAP item that gives it a caller or deletes it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fdstab"

# uncalled public names and the ROADMAP item that settles each
PENDING = {
    "functionals.best_match": 8,
    "functionals.normalization_map": 8,
    "profiles.eval_barenblatt": 8,
    "functionals.rigidity_residual": 9,
}


def _unreferenced() -> list[str]:
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    paths = modules + sorted((ROOT / "perfbench").glob("*.py"))
    texts = {path: path.read_text() for path in paths}
    missing = []
    for path in modules:
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = texts[path].splitlines()
            rest = "\n".join(own[:node.lineno - 1] + own[node.end_lineno:])
            if not word.search(rest) and not any(
                    word.search(text) for other, text in texts.items() if other != path):
                missing.append(f"{path.stem}.{node.name}")
    return missing


def test_every_public_name_has_a_caller():
    # the pending names are still uncalled, so the set shrinks as they land
    assert sorted(_unreferenced()) == sorted(PENDING)
