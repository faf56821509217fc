"""Test set-up for the benchmark's own tests: import the benchmark
modules and the checkout's sources, free of developer settings."""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for name in (
    "REPRO_CACHE_DIR",
    "REPRO_SIM_ENGINE",
    "REPRO_PLAN_CACHE",
    "REPRO_TRACE",
    "REPRO_HEARTBEAT_DIR",
):
    os.environ.pop(name, None)
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
