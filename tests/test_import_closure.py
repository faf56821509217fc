"""Every entry point loads what the evaluation path runs, and no more.

The functional device models (codec, decoder IP, GPU, display and SoC
datapath models) are not on any documented command's path, and the codec
and quality metrics pull in scipy. ``import repro.cli`` must not load
them. A full exhibit pass must then load nothing new: ``run_exhibits``
forks a fresh pool on every call, so a module first imported during a
run is imported again by every worker of every pass.

The checks run in a fresh interpreter, because this process has already
imported scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

#: Modules no entry point may load: each is imported only by its own
#: tests, the examples and the other modules listed here.
OFF_PATH = (
    "repro.core.capture",
    "repro.core.fallback",
    "repro.display.composition",
    "repro.display.controller",
    "repro.display.dsc",
    "repro.display.edp",
    "repro.display.panel",
    "repro.display.pixel_formatter",
    "repro.display.psr",
    "repro.display.rfb",
    "repro.dram.bandwidth",
    "repro.dram.framebuffer",
    "repro.soc.dvfs",
    "repro.soc.interconnect",
    "repro.soc.registers",
    "repro.video.bitstream",
    "repro.video.codec",
    "repro.video.decoder",
    "repro.video.gpu",
    "repro.video.metrics",
    "repro.workloads.capture",
    "repro.workloads.scenario",
)

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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = src
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_and_exhibit_pass_load_only_the_evaluation_path():
    probe = _probe()
    loaded = probe["at_import"]
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert [m for m in loaded if m in OFF_PATH] == []
    assert probe["added_by_run"] == []
