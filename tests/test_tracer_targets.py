"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` names the library functions it times
(``TARGETS``) and the two ``Tape`` methods it hooks. A target the
library no longer has drops its per-layer metrics, which the
benchmark's smoke check reports only after whole workload runs; this
check builds the tracer against the imported library and reads its
``missing`` list instead.
"""

import importlib.util
from pathlib import Path

import sarl.training  # noqa: F401  (imports every module the targets name)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracer.py imports costs
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().missing == []
