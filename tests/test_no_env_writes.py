"""No code under ``src/repro`` writes the process environment, it
reads only the variables in :data:`ENV_READ_ALLOWLIST`, and only the
process hooks rebind module globals.

Run options travel as arguments, not as environment variables that
worker processes happen to inherit or module globals a caller sets and
restores.  This walks the AST of every module in the package and fails
on any write to ``os.environ`` (item assignment or ``del``, or a
mutating method), on ``os.putenv`` / ``os.unsetenv``, on a read
(``os.environ[...]``, ``os.environ.get``, ``os.getenv``) of a variable
outside :data:`ENV_READ_ALLOWLIST`, and on a ``global`` statement
outside :data:`GLOBAL_ALLOWLIST`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``os.environ`` methods that change the environment.
ENVIRON_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear"}
#: ``os`` functions that change the environment.
OS_WRITERS = {"putenv", "unsetenv"}
#: The environment variables code under ``src/repro`` may read: the
#: process tracing hook and the disk cache directory.
ENV_READ_ALLOWLIST = {"REPRO_TRACE", "REPRO_CACHE_DIR"}
#: The functions that may rebind a module global: the run-memo and
#: tracer hooks (``module path:function``).
GLOBAL_ALLOWLIST = {
    "pipeline/sim.py:install_run_memo",
    "obs/trace.py:install",
    "obs/trace.py:install_env_tracer",
}


def os_matchers(tree: ast.Module):
    """``(is_os_member(node, member), is_environ(node))`` predicates
    that see through ``import os as ...`` and ``from os import ...``."""
    os_names = {"os"}
    #: ``from os import ...`` bindings: bound name -> member.
    members: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_names.add(alias.asname or "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                members[alias.asname or alias.name] = alias.name

    def is_os_member(node: ast.expr, member: str) -> bool:
        if isinstance(node, ast.Name):
            return members.get(node.id) == member
        return (
            isinstance(node, ast.Attribute)
            and node.attr == member
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        )

    return is_os_member, lambda node: is_os_member(node, "environ")


def environment_writes(source: str) -> list[int]:
    """Line numbers of every environment write in ``source``."""
    tree = ast.parse(source)
    is_os_member, is_environ = os_matchers(tree)

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
        if any(is_os_member(func, writer) for writer in OS_WRITERS):
            return True
        return (
            isinstance(func, ast.Attribute)
            and func.attr in ENVIRON_MUTATORS
            and is_environ(func.value)
        )

    return [node.lineno for node in ast.walk(tree) if writes(node)]


def environment_reads(source: str) -> list[tuple[int, "str | None"]]:
    """``(line, variable)`` of every environment read in ``source``:
    ``os.environ[...]``, ``os.environ.get(...)`` and ``os.getenv(...)``.
    The variable is the key's string literal or the literal a
    module-level name is bound to, else ``None``."""
    tree = ast.parse(source)
    is_os_member, is_environ = os_matchers(tree)
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def variable(key: "ast.expr | None") -> "str | None":
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return key.value
        if isinstance(key, ast.Name):
            return constants.get(key.id)
        return None

    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and is_environ(node.value)
        ):
            found.append((node.lineno, variable(node.slice)))
        elif isinstance(node, ast.Call) and (
            is_os_member(node.func, "getenv")
            or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and is_environ(node.func.value)
            )
        ):
            key = node.args[0] if node.args else None
            found.append((node.lineno, variable(key)))
    return found


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


def test_src_reads_only_allowlisted_environment():
    reads = [
        (f"{path.relative_to(SRC.parent)}:{line}", variable)
        for path in sorted(SRC.rglob("*.py"))
        for line, variable in environment_reads(
            path.read_text(encoding="utf-8")
        )
    ]
    unlisted = [
        f"{where} reads {variable}"
        for where, variable in reads
        if variable not in ENV_READ_ALLOWLIST
    ]
    assert not unlisted, "unlisted environment reads:\n  " + (
        "\n  ".join(unlisted)
    )
    # The allowlist shrinks with the code: no entry outlives its read.
    assert {variable for _, variable in reads} == ENV_READ_ALLOWLIST


@pytest.mark.parametrize(
    "snippet",
    [
        'import os\nvalue = os.environ.get("OTHER")',
        'import os\nvalue = os.getenv("OTHER", "")',
        'import os\nvalue = os.environ["OTHER"]',
        'import os as _os\nvalue = _os.environ.get("OTHER")',
        'from os import getenv\nvalue = getenv("OTHER")',
        'from os import environ as env\nvalue = env.get("OTHER")',
        'NAME = "OTHER"\nimport os\nvalue = os.environ.get(NAME)',
    ],
)
def test_flags_unlisted_reads(snippet):
    reads = environment_reads(snippet)
    assert [line for line, _ in reads] == [len(snippet.splitlines())]
    assert [variable for _, variable in reads] == ["OTHER"]


def test_unresolved_read_key_is_unlisted():
    source = "import os\ndef f(name):\n    return os.environ.get(name)"
    assert environment_reads(source) == [(3, None)]
    assert None not in ENV_READ_ALLOWLIST


def test_listed_reads_resolve():
    source = (
        'import os\n'
        'ENV = "REPRO_CACHE_DIR"\n'
        'a = os.environ.get("REPRO_TRACE")\n'
        'b = os.environ.get(ENV, "").strip()\n'
    )
    assert environment_reads(source) == [
        (3, "REPRO_TRACE"), (4, "REPRO_CACHE_DIR")
    ]


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
