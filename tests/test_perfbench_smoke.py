"""The benchmark harness still runs against this source tree.

perfbench/smoke.py runs every workload of BENCHMARK.json on a tiny
config, untraced and traced, and checks the last-line JSON result:
every declared metric present and finite, no failed operation, traced
counts repeating across two runs. A renamed function or option it
reads, or a stray line on stdout, makes it exit nonzero.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
