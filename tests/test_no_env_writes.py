"""No code under ``src/repro`` writes the process environment, and
only the process hooks rebind module globals.

Run options travel as arguments, not as environment variables that
worker processes happen to inherit or module globals a caller sets and
restores.  This walks the AST of every module in the package and fails
on any write to ``os.environ`` (item assignment or ``del``, or a
mutating method), on ``os.putenv`` / ``os.unsetenv``, and on a
``global`` statement outside :data:`GLOBAL_ALLOWLIST`.  Reads
(``os.environ.get``) are fine.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``os.environ`` methods that change the environment.
ENVIRON_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear"}
#: ``os`` functions that change the environment.
OS_WRITERS = {"putenv", "unsetenv"}
#: The functions that may rebind a module global: the run-memo and
#: tracer hooks (``module path:function``).
GLOBAL_ALLOWLIST = {
    "pipeline/sim.py:install_run_memo",
    "obs/trace.py:install",
    "obs/trace.py:install_env_tracer",
}


def environment_writes(source: str) -> list[int]:
    """Line numbers of every environment write in ``source``."""
    tree = ast.parse(source)
    os_names = {"os"}
    environ_names: set[str] = set()
    writer_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_names.add(alias.asname or "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name == "environ":
                    environ_names.add(bound)
                elif alias.name in OS_WRITERS:
                    writer_names.add(bound)

    def is_os(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in os_names

    def is_environ(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in environ_names
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "environ"
            and is_os(node.value)
        )

    def writes_item(target: ast.expr) -> bool:
        return isinstance(target, ast.Subscript) and is_environ(
            target.value
        )

    def writes(node: ast.AST) -> bool:
        if isinstance(node, (ast.Assign, ast.Delete)):
            return any(writes_item(target) for target in node.targets)
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return writes_item(node.target)
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in writer_names
        return isinstance(func, ast.Attribute) and (
            (func.attr in ENVIRON_MUTATORS and is_environ(func.value))
            or (func.attr in OS_WRITERS and is_os(func.value))
        )

    return [node.lineno for node in ast.walk(tree) if writes(node)]


def test_src_writes_no_environment():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in environment_writes(path.read_text(encoding="utf-8"))
    ]
    assert not found, "environment writes under src/repro:\n  " + (
        "\n  ".join(found)
    )


@pytest.mark.parametrize(
    "snippet",
    [
        'import os\nos.environ["A"] = "1"',
        'import os\ndel os.environ["A"]',
        'import os\nos.environ["A"] += "1"',
        'import os\nos.environ.update(A="1")',
        'import os\nos.environ.setdefault("A", "1")',
        'import os\nos.environ.pop("A", None)',
        'import os\nos.environ.popitem()',
        'import os\nos.environ.clear()',
        'import os\nos.putenv("A", "1")',
        'import os\nos.unsetenv("A")',
        'import os as _os\n_os.environ["A"] = "1"',
        'from os import environ\nenviron["A"] = "1"',
        'from os import environ as env\nenv.update(A="1")',
        'from os import putenv\nputenv("A", "1")',
    ],
)
def test_detects_writes(snippet):
    assert environment_writes(snippet) == [2]


@pytest.mark.parametrize(
    "snippet",
    [
        'import os\nvalue = os.environ.get("A")',
        'import os\nvalue = os.environ["A"]',
        'import os\nenv = dict(os.environ)\nenv["A"] = "1"',
        'import os\nvalue = os.getenv("A")',
    ],
)
def test_ignores_reads(snippet):
    assert environment_writes(snippet) == []


def global_statements(source: str) -> list[str]:
    """The enclosing function of every ``global`` statement in
    ``source`` (``<module>`` at top level)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.append(scope)
            inner = (
                child.name
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
                else scope
            )
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_globals_rebound_only_in_process_hooks():
    found = {
        f"{path.relative_to(SRC).as_posix()}:{scope}"
        for path in sorted(SRC.rglob("*.py"))
        for scope in global_statements(path.read_text(encoding="utf-8"))
    }
    assert found <= GLOBAL_ALLOWLIST, "global outside the hooks:\n  " + (
        "\n  ".join(sorted(found - GLOBAL_ALLOWLIST))
    )


def test_global_statements_named_by_function():
    source = (
        "global a\n"
        "def f():\n"
        "    global b\n"
        "class C:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            global c\n"
    )
    assert global_statements(source) == ["<module>", "f", "h"]
