"""Guards on the library's names: every name a module (or test module)
imports is read in it, every top-level definition is used or exported, only
exported functions validate partitions, only the p checks compare p with a
literal, every function the benchmark tracer wraps exists, and `import
selfext` loads no process pool."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import selfext

PACKAGE = Path(selfext.__file__).parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")  # __init__ re-exports
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
    assert len(SOURCES) >= 10 and len(TESTS) >= 10
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text())
             for p in SOURCES + TESTS}
    assert {k: v for k, v in found.items() if v} == {}


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from math import gcd, lcm\n"
              "print(os.sep, lcm)\n")
    assert unused_imports(source) == [(2, "system"), (3, "gcd")]


def read_names(node, skip=None) -> set:
    """Names loaded and attributes read anywhere under node, except under
    the subtree skip."""
    names = set()
    stack = [node]
    while stack:
        here = stack.pop()
        if here is skip:
            continue
        if isinstance(here, ast.Name) and isinstance(here.ctx, ast.Load):
            names.add(here.id)
        elif isinstance(here, ast.Attribute):
            names.add(here.attr)
        stack.extend(ast.iter_child_nodes(here))
    return names


def exported_names(trees: dict) -> set:
    return {alias.asname or alias.name
            for node in ast.walk(trees["__init__.py"])
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def defined_names(node) -> list:
    """The names a top-level statement defines: a function's or class's
    name, or each plain name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]


def unused_definitions(trees: dict) -> list:
    """(module, name) of each top-level function, class or assigned name
    that no module reads outside its own definition and __init__.py does not
    import."""
    exported = exported_names(trees)
    out = []
    for module, tree in sorted(trees.items()):
        if module in ("__init__.py", "__main__.py"):
            continue
        for node in tree.body:
            for defined in defined_names(node):
                if (defined not in exported
                        and not any(defined in read_names(other, node)
                                    for name, other in trees.items()
                                    if name != "__init__.py")):
                    out.append((module, defined))
    return out


def test_every_src_name_is_used_or_exported():
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert unused_definitions(trees) == []


def test_definition_guard_flags_a_test_only_helper():
    trees = {
        "__init__.py": ast.parse("from .a import public\n"),
        "a.py": ast.parse("def public():\n    return helper()\n"
                          "def helper():\n    return 1\n"
                          "def orphan(n):\n    return orphan(n - 1)\n"),
        "b.py": ast.parse("class Spare:\n    pass\n"),
        "c.py": ast.parse("LIMIT = 3\nAlias = tuple\nLOW, HIGH = 0, 9\n"
                          "SEEN: int = 1\nSPARE: int = 2\n"
                          "print(LIMIT, HIGH, SEEN)\n"),
    }
    assert unused_definitions(trees) == [("a.py", "orphan"), ("b.py", "Spare"),
                                         ("c.py", "Alias"), ("c.py", "LOW"),
                                         ("c.py", "SPARE")]


CHECKS = {"check_partition", "check_regular"}


def unexported_checks(trees: dict) -> list:
    """(module, function) of each function, method or module-level statement
    that calls check_partition or check_regular although __init__.py does
    not export it.  A dataclass __post_init__ takes user data and may check
    it."""
    exported = exported_names(trees)
    out = []
    for module, tree in sorted(trees.items()):
        for top in tree.body:
            units = [top]
            if isinstance(top, ast.ClassDef):
                units = [node for node in top.body
                         if isinstance(node, ast.FunctionDef)]
            for unit in units:
                name = getattr(unit, "name", "<module>")
                if name in exported or name == "__post_init__":
                    continue
                called = {node.func.id for node in ast.walk(unit)
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)}
                if called & CHECKS:
                    out.append((module, name))
    return out


def test_only_exported_functions_validate_partitions():
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert unexported_checks(trees) == []


def test_boundary_guard_flags_a_checking_helper():
    trees = {
        "__init__.py": ast.parse("from .a import public\n"),
        "a.py": ast.parse(
            "def public(la):\n    return helper(check_partition(la))\n"
            "def helper(la):\n    return check_regular(la, 3)\n"
            "class Config:\n"
            "    def __post_init__(self):\n        check_partition(())\n"
            "    def scale(self):\n        return check_partition(())\n"
            "def parse_word(text):\n    return check_partition(text)\n"
            "TABLE = {1: lambda la: check_partition(la)}\n"),
    }
    assert unexported_checks(trees) == [("a.py", "helper"), ("a.py", "scale"),
                                        ("a.py", "parse_word"),
                                        ("a.py", "<module>")]


# The functions that decide what a valid p is; every other function asks them.
P_CHECKS = {"check_p", "check_prime", "is_p_regular"}


def is_p(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "p")
            or (isinstance(node, ast.Attribute) and node.attr == "p"))


def p_literal_comparisons(trees: dict) -> list:
    """(module, line) of each comparison of p (a name, or an attribute such
    as self.p) with a literal outside the functions of P_CHECKS."""
    out = []
    for module, tree in sorted(trees.items()):
        exempt = {id(node) for top in ast.walk(tree)
                  if isinstance(top, ast.FunctionDef) and top.name in P_CHECKS
                  for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in exempt:
                operands = [node.left, *node.comparators]
                if (any(map(is_p, operands))
                        and any(isinstance(x, ast.Constant) for x in operands)):
                    out.append((module, node.lineno))
    return out


def test_only_the_p_checks_compare_p_with_a_literal():
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert p_literal_comparisons(trees) == []


def test_p_guard_flags_a_hand_written_check():
    trees = {"a.py": ast.parse(
        "def check_p(p, least=2):\n    return p < 2 or p < least\n"
        "def public(la, p):\n    if p <= 2:\n        raise ValueError\n"
        "    return a % p == 0 or p < least\n"
        "class Block:\n    def __post_init__(self):\n        3 > self.p\n"
        "TABLE = {1: lambda p: p == 2}\n")}
    assert p_literal_comparisons(trees) == [("a.py", 4), ("a.py", 9),
                                            ("a.py", 10)]


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) >= 10
    for name, _ in tracer.TARGETS:
        module_name, func_name = name.rsplit(".", 1)
        module = importlib.import_module(f"selfext.{module_name}")
        assert callable(getattr(module, func_name, None)), name


def test_import_selfext_loads_no_process_pool():
    # Only a survey with workers > 1 pays for the pool module's import.
    src = str(PACKAGE.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, selfext, selfext.certifier; "
         "print(sorted(m for m in sys.modules if 'concurrent' in m))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
