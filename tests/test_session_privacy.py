"""The serving layer and the CLI use only the session's public API.

``ReasoningSession``'s underscore names (``_coerce``, ``_dispatch``,
``_unary_cache``, ...) are its own business.  This check parses
``serve/`` and ``cli.py`` and fails on any attribute access to one of
those names on anything but ``self``: a caller that needs one is
restating what a public method already does.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CALLERS = sorted((SRC / "serve").glob("*.py")) + [SRC / "cli.py"]


def _private_session_names() -> set[str]:
    tree = ast.parse((SRC / "engine" / "session.py").read_text("utf-8"))
    [session] = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ReasoningSession"
    ]
    names = set()
    for node in ast.walk(session):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Store
        ):
            names.add(node.attr)
    return {
        name for name in names
        if name.startswith("_") and not name.endswith("__")
    }


def test_the_session_defines_private_names():
    assert {"_coerce", "_coerce_many", "_unary_cache"} <= (
        _private_session_names()
    )


def test_no_caller_reaches_into_the_session():
    private = _private_session_names()
    offenders = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}: .{node.attr}"
        for path in CALLERS
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in private
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert not offenders, (
        "private ReasoningSession names used outside it:\n"
        + "\n".join(offenders)
    )
