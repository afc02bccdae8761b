"""Every public function and class in ``src/fdstab`` has a caller.

A public top-level ``def`` or ``class`` must be named in ``src/`` or
``perfbench/`` outside its own definition, or be exported through
``fdstab.__all__``.  A name that only its tests reach belongs in the tests.
"""

import ast
import re
from pathlib import Path

import fdstab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fdstab"


def _unreferenced() -> list[str]:
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    texts = {path: path.read_text() for path in paths}
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") or node.name in fdstab.__all__:
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = texts[path].splitlines()
            rest = "\n".join(own[:node.lineno - 1] + own[node.end_lineno:])
            if not word.search(rest) and not any(
                    word.search(text) for other, text in texts.items() if other != path):
                missing.append(f"{path.stem}.{node.name}")
    return missing


def test_every_public_name_has_a_caller():
    assert _unreferenced() == []
