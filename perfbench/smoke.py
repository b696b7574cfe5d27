"""Smoke check of the benchmark itself on a tiny config.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with ``--tiny``, untraced and
traced, and checks the result line: exactly the four top-level keys,
every declared metric present with its declared unit and a finite
value, the output checks passing, and the traced counts repeating
exactly across two runs. It sets no timing bounds. Exits 1 on the first
failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "flop", "B")


def run(workload, trace, seed=7):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, declared, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: top-level keys {sorted(result)}"
    assert result["correct"] is True, f"{label}: output checks failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, f"{label}: {result['failed']} failed ops"
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(metrics) == set(want), \
        f"{label}: metrics differ: {sorted(set(metrics) ^ set(want))}"
    for name, unit in want.items():
        entry = metrics[name]
        assert entry["unit"] == unit, f"{label}: {name} unit {entry['unit']}"
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{label}: {name} = {value!r}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        name = wl["name"]
        check_result(run(name, 0), spec["end_to_end"], f"{name} trace=0")
        first = run(name, 1)
        check_result(first, spec["per_layer"], f"{name} trace=1")
        again = run(name, 1)
        for m in spec["per_layer"]:
            if m["unit"] in COUNT_UNITS:
                a = first["metrics"][m["name"]]["value"]
                b = again["metrics"][m["name"]]["value"]
                assert a == b, f"{name}: count {m['name']} {a} then {b}"
        print(f"ok {name}")
    print("smoke check passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as exc:
        sys.exit(f"smoke check failed: {exc}")
