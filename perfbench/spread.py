"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per (seed, workload), seed-major so that slow
drift of the machine lands on every workload alike, with the
``run_seconds`` of BENCHMARK.json. For each end-to-end metric it prints
the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound. ``--out`` writes every run's result as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    chosen = args.workload or names

    results = {w: [] for w in chosen}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in chosen:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results[w].append(result)
            print(f"{w} seed {seed} correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)

    print(f"\n{'workload':<12} {'metric':<14} {'median':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in chosen:
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results[w]]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med
            flag = "" if spread <= m["bound"] / 3 else "  > bound/3"
            print(f"{w:<12} {m['name']:<14} {med:>12.6g} {spread:>8.4f} "
                  f"{m['bound']:>6}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
