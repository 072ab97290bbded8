"""Guard: every name a library module imports is read somewhere in it."""

import ast
from pathlib import Path

import selfext

SOURCES = sorted(p for p in Path(selfext.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ re-exports


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    assert len(SOURCES) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in SOURCES}
    assert {k: v for k, v in found.items() if v} == {}


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from math import gcd, lcm\n"
              "print(os.sep, lcm)\n")
    assert unused_imports(source) == [(2, "system"), (3, "gcd")]
