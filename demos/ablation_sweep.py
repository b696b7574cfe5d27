#!/usr/bin/env python3
"""Measure what each architectural piece contributes.

Trains three variants on the same synthetic task across several seeds:
the full model, the model without transport alignment (classifying raw
patch features), and additionally without self-attention. The mean test
mAP should fall in that order.

The full sweep (3 seeds x 3 variants x 50 epochs) takes a few minutes;
--quick cuts it to one seed and 15 epochs for a rough picture, and
--epochs sets the epochs of either.

Run: python3 demos/ablation_sweep.py --quick
"""

import argparse
from dataclasses import replace

import numpy as np

from sarl.data import generate
from sarl.training import TrainConfig, synthetic_config, train

VARIANTS = [
    ("full model", {}),
    ("no transport", dict(disable_ot=True)),
    ("no transport, no self-attn", dict(disable_ot=True,
                                        disable_self_attn=True)),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--epochs", type=int, default=None,
                    help="epochs per run (default 15 with --quick, else 50)")
    args = ap.parse_args()
    seeds = (0,) if args.quick else (0, 1, 2)
    epochs = args.epochs if args.epochs is not None else 15 if args.quick else 50

    scores = {name: [] for name, _ in VARIANTS}
    for seed in seeds:
        base = TrainConfig(seed=seed, epochs=epochs)
        train_ds, test_ds = generate(synthetic_config(base))
        for name, flags in VARIANTS:
            cfg = replace(base, **flags)
            res = train(cfg, train_ds, test_ds)
            scores[name].append(res.report.mean_ap)
            print(f"seed {seed}  {name:<28s} mAP {res.report.mean_ap:.4f}")

    print(f"\nmean over {len(seeds)} seed(s):")
    for name, _ in VARIANTS:
        print(f"  {name:<28s} {np.mean(scores[name]):.4f}")


if __name__ == "__main__":
    main()
