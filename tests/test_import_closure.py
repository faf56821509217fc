"""Every module under ``src/repro`` is reached by an entry point, or is
kept for a named benchmark or test.

The static check walks every ``import``/``from`` statement, at module
level and inside functions, from ``repro.cli`` and ``repro.__main__``.
A module outside that closure must be listed in :data:`KEPT_OFF_PATH`
with a file that imports it, so a module that nothing reaches fails
here instead of lingering.

The runtime probe checks that ``import repro.cli`` loads none of the
kept modules and no scipy, and that a full exhibit pass then loads
nothing new: ``run_exhibits`` forks a fresh pool on every call, so a
module first imported during a run is imported again by every worker
of every pass. It runs in a fresh interpreter, because this process
has already imported modules through other tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules outside the entry points' import closure, each with a
#: benchmark or test file that imports it.
KEPT_OFF_PATH = {
    # Benchmarks and tests report these modules' numbers.
    "repro.analysis.vega": "tests/analysis/test_figures.py",
    "repro.core.capture": "benchmarks/bench_extensions.py",
    "repro.display.dsc": "benchmarks/bench_extensions.py",
    "repro.core.fallback": "tests/integration/test_failure_injection.py",
    "repro.soc.registers": "tests/integration/test_failure_injection.py",
    "repro.workloads.scenario": "benchmarks/bench_scenario.py",
    # The functional device models, each kept for its own tests.
    "repro.display.controller": "tests/display/test_controller.py",
    "repro.display.edp": "tests/display/test_edp.py",
    "repro.display.panel": "tests/display/test_panel.py",
    "repro.display.pixel_formatter": "tests/display/test_pixel_formatter.py",
    "repro.display.psr": "tests/display/test_psr.py",
    "repro.display.rfb": "tests/display/test_rfb.py",
    "repro.dram.framebuffer": "tests/dram/test_framebuffer.py",
    "repro.soc.interconnect": "tests/soc/test_interconnect.py",
    "repro.video.bitstream": "tests/video/test_bitstream.py",
    "repro.video.codec": "tests/video/test_codec.py",
    "repro.video.decoder": "tests/video/test_decoder.py",
    "repro.video.gpu": "tests/video/test_gpu.py",
    "repro.video.metrics": "tests/video/test_metrics.py",
}

ENTRY_POINTS = ("repro.cli", "repro.__main__")


def _source_modules() -> dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported_names(path: Path, package: str) -> set[str]:
    """Every dotted name an ``import``/``from`` statement anywhere in
    ``path`` may load, relative imports resolved against ``package``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            names.add(base)
            # ``from pkg import name`` loads ``pkg.name`` if it is a
            # module.
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _with_parents(name: str) -> list[str]:
    parts = name.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def _import_closure(modules: dict[str, Path]) -> set[str]:
    seen: set[str] = set()
    todo = list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        path = modules[name]
        package = name if path.name == "__init__.py" else (
            name.rpartition(".")[0]
        )
        for imported in _imported_names(path, package):
            todo.extend(_with_parents(imported))
        todo.extend(_with_parents(name))
    return seen


def test_every_module_is_reached_or_kept_for_a_named_file():
    modules = _source_modules()
    closure = _import_closure(modules)
    assert set(ENTRY_POINTS) <= closure
    off_path = sorted(set(modules) - closure)
    assert off_path == sorted(KEPT_OFF_PATH)


def test_each_kept_module_is_imported_by_its_named_file():
    for module, user in KEPT_OFF_PATH.items():
        imported = _imported_names(ROOT / user, package="")
        assert module in imported, f"{user} does not import {module}"


_PROBE = """
import json, sys
import repro.cli
at_import = sorted(sys.modules)
from repro.analysis.runner import run_exhibits
before = set(sys.modules)
run_exhibits(jobs=1)
print(json.dumps({
    "at_import": at_import,
    "added_by_run": sorted(set(sys.modules) - before),
}))
"""


def _probe() -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_and_exhibit_pass_load_only_the_evaluation_path():
    probe = _probe()
    loaded = probe["at_import"]
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert [m for m in loaded if m in KEPT_OFF_PATH] == []
    assert probe["added_by_run"] == []
