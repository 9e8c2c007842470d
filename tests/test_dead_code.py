"""No function, method or class under ``src/`` goes unnamed.

The check counts every ``\\w+`` token in the project's Python files
(``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and
``perfbench/``), then fails on any function, method or class defined
under ``src/`` (dunders aside) whose name occurs exactly once: at its
own definition.  Such a name has no caller, no test, no re-export and
no mention in any docstring, so nothing can reach it.

Its blind spot: it counts names, not bindings, so a dead name defined
twice (in two classes, say) occurs twice and is never flagged.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples", "perfbench")
TOKEN = re.compile(r"\w+")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_definition_under_src_is_named_elsewhere():
    sources = {
        path: path.read_text(encoding="utf-8")
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    counts = Counter()
    for text in sources.values():
        counts.update(TOKEN.findall(text))
    unnamed = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path, text in sources.items()
        if path.is_relative_to(ROOT / "src")
        for node in ast.walk(ast.parse(text, filename=str(path)))
        if isinstance(node, DEFINITIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and counts[node.name] == 1
    ]
    assert not unnamed, (
        "defined under src/ but named nowhere else:\n" + "\n".join(unnamed)
    )
