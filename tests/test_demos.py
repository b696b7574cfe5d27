"""The demos run end to end: each exits 0 on a one-epoch run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("transport_walkthrough.py", []),
    ("train_synthetic.py", ["--epochs", "1", "--out"]),
    ("attention_maps.py", ["--epochs", "1", "--out"]),
], ids=["transport_walkthrough", "train_synthetic", "attention_maps"])
def test_demo_exits_cleanly(script, args, tmp_path):
    if args:  # the artifacts go to the test's own directory
        args = [*args, str(tmp_path / "out")]
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
