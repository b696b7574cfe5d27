#!/usr/bin/env python3
"""Walk one sample through the alignment pipeline, printing every stage.

A tiny model (4 patches, 3 classes) is built from a fixed seed, a single
synthetic image is pushed through it in training mode, and each
intermediate quantity is printed together with the invariant it should
satisfy: distributions on the simplex, plan marginals matching them,
costs inside [0, 2], attention rows summing to one.

Run: python3 demos/transport_walkthrough.py
"""

import numpy as np

from sarl.data import SyntheticConfig, generate
from sarl.head import ModelConfig, build_model, forward, sample_losses
from sarl.losses import AslConfig, LossWeights
from sarl.representation import EncoderConfig

np.set_printoptions(precision=4, suppress=True)


def show(name, arr, note=""):
    arr = np.asarray(arr)
    print(f"\n{name}  shape {arr.shape}  {note}")
    print(arr)


def main():
    data_cfg = SyntheticConfig(seed=12, n_train=4, n_test=1, num_classes=3,
                               height=8, width=8, channels=2,
                               cardinality=1.5)
    train_ds, _ = generate(data_cfg)
    image = train_ds.payload[0]
    labels = train_ds.labels[0].astype(float)
    print(f"sample labels: {labels.astype(int)}")

    encoder = EncoderConfig(in_channels=2, grid_h=2, grid_w=2, conv_blocks=2)
    cfg = ModelConfig(num_classes=3, feature_dim=8, label_dim=6,
                      bilinear_dim=8, bilinear_out=4, n_heads=2,
                      encoder=encoder)
    model = build_model(cfg, seed=12)
    out = forward(image, model, labels=labels, train=True)

    show("patch features F", out.features.f.data,
         "(4 patches from a 2x2 grid)")
    show("semantic features F_S", out.semantic_features.data,
         "(one row per class)")

    show("semantic map M", out.semantic_map.data,
         "(patch-class evidence logits)")
    theta = out.theta.data
    beta = out.beta.data
    show("source distribution theta", theta,
         f"sum = {theta.sum():.12f}, min = {theta.min():.4f}")
    show("target distribution beta", beta,
         f"sum = {beta.sum():.12f}")

    co = out.cost.data
    show("cost matrix CO", co,
         f"range [{co.min():.4f}, {co.max():.4f}] inside [0, 2]")

    fwd, bwd = out.plans
    show("forward plan", fwd.data,
         "rows should sum to theta")
    print("row sums  :", fwd.data.sum(axis=1))
    print("theta     :", theta)
    show("backward plan", bwd.data,
         "columns should sum to beta")
    print("column sums:", bwd.data.sum(axis=0))
    print("beta       :", beta)

    attn = out.attention.data
    show("attention B", attn,
         f"every row sums to one: {attn.sum(axis=1)}")
    show("aligned representation F_R", out.aligned.data,
         "(rows are convex mixes of F_S rows)")
    show("logits z", out.logits.data)

    total, l_cls, l_m, l_ot = sample_losses(
        out, labels, AslConfig(), LossWeights(lambda1=0.04, lambda2=0.5))
    print(f"\nlosses: total {total.item():.4f} = cls {l_cls.item():.4f}"
          f" + 0.04 * map {l_m.item():.4f}"
          f" + 0.5 * transport {l_ot.item():.4f}")


if __name__ == "__main__":
    main()
