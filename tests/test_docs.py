"""Documentation integrity: the markdown files must reference modules,
files, and commands that actually exist."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "docs" / "ARCHITECTURE.md",
    ROOT / "docs" / "FLEET.md",
    ROOT / "docs" / "MODEL.md",
    ROOT / "docs" / "OBSERVABILITY.md",
    ROOT / "docs" / "STATS.md",
]


class TestFilesExist:
    def test_all_docs_present(self):
        for doc in DOCS:
            assert doc.exists(), doc

    def test_license_present(self):
        assert (ROOT / "LICENSE").exists()

    def test_referenced_bench_modules_exist(self):
        pattern = re.compile(r"benchmarks/(bench_\w+\.py)")
        for doc in DOCS:
            for name in pattern.findall(doc.read_text()):
                assert (ROOT / "benchmarks" / name).exists(), (
                    f"{doc.name} references missing benchmarks/{name}"
                )

    def test_referenced_example_scripts_exist(self):
        pattern = re.compile(r"examples/(\w+\.py)")
        for doc in DOCS:
            for name in pattern.findall(doc.read_text()):
                assert (ROOT / "examples" / name).exists(), (
                    f"{doc.name} references missing examples/{name}"
                )


class TestModuleReferences:
    def test_referenced_repro_modules_import(self):
        pattern = re.compile(r"`(repro(?:\.\w+)+)`")
        seen = set()
        for doc in DOCS:
            for dotted in pattern.findall(doc.read_text()):
                seen.add(dotted)
        assert seen, "docs should reference repro modules"
        for dotted in sorted(seen):
            # A dotted name may be a module or a module attribute.
            parts = dotted.split(".")
            for split in range(len(parts), 0, -1):
                module_name = ".".join(parts[:split])
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                remainder = parts[split:]
                obj = module
                for attribute in remainder:
                    assert hasattr(obj, attribute), (
                        f"{dotted} (from docs) does not resolve"
                    )
                    obj = getattr(obj, attribute)
                break
            else:
                pytest.fail(f"{dotted} (from docs) does not import")


class TestCliCommandsInDocs:
    def test_documented_cli_commands_parse(self):
        """Every `python -m repro <cmd>` in the docs must be a real
        subcommand."""
        from repro.cli import build_parser

        parser = build_parser()
        subcommands = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                subcommands |= set(action.choices)
        pattern = re.compile(r"python -m repro ([\w-]+)")
        for doc in DOCS:
            for command in pattern.findall(doc.read_text()):
                assert command in subcommands, (
                    f"{doc} documents unknown command {command!r}"
                )

    def test_module_entrypoint_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert result.returncode == 0
        assert "validate" in result.stdout
