"""The benchmark's smoke run, in a fresh interpreter.

``perfbench/run.py --smoke`` runs every workload at its smallest size: the gate passes on
the real outputs, one flipped output fails it, and two traced rounds give the same counts.
Inside the suite's process, what earlier tests leave behind (a cached null, a kept draw)
can make two traced rounds agree where a fresh process sees them differ, so the run gets
its own interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_smoke_run_passes():
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0 and result.stdout.splitlines()[-1] == "smoke: ok", result.stdout + result.stderr
