"""Acceptance gate: one test per headline requirement.

Each test prints a single PASS/FAIL line straight to the terminal
(bypassing capture) so a full run reads as a checklist. The oracles
here are deliberately re-derived from scratch rather than imported from
the other test modules, so this file alone cross-checks the library.

The heavyweight training runs are cached in-module: the end-to-end
learning run doubles as the seed-0 full-model cell of the ablation
grid.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sarl.data import generate, load_dataset, save_dataset
from sarl.gradcheck import run_suite
from sarl.head import load_checkpoint, save_checkpoint
from sarl.losses import AslConfig, asl
from sarl.metrics import PredictionSet, average_precision, mean_ap
from sarl.tensor import Tensor
from sarl.training import (TrainConfig, evaluate, synthetic_config, train,
                           write_pgm)
from sarl.transport import (bilinear_mass, cost_matrix, ct_loss,
                            init_bilinear, semantic_attention, semantic_map,
                            source_distribution, target_distribution)


def criterion(capsys, label, body):
    """Run one acceptance check and print its verdict uncaptured."""
    try:
        detail = body()
    except BaseException as exc:
        with capsys.disabled():
            print(f"acceptance {label}: FAIL ({type(exc).__name__})")
        raise
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"acceptance {label}: PASS{suffix}")


_RUNS = {}


def training_map(seed, **flags):
    key = (seed, tuple(sorted(flags.items())))
    if key not in _RUNS:
        cfg = TrainConfig(seed=seed, **flags)
        train_ds, test_ds = generate(synthetic_config(cfg))
        _RUNS[key] = train(cfg, train_ds, test_ds).report.mean_ap
    return _RUNS[key]


def attention_oracle(f, w_q, w_k, w_v, n_heads):
    p, d_v = f.shape
    d = d_v // n_heads
    out = np.zeros((p, d_v))
    for h in range(n_heads):
        s = slice(h * d, (h + 1) * d)
        q, k, v = f @ w_q[:, s], f @ w_k[:, s], f @ w_v[:, s]
        for i in range(p):
            logits = np.array([q[i] @ k[j] / math.sqrt(d) for j in range(p)])
            w = np.exp(logits - logits.max())
            w = w / w.sum()
            out[i, s] = sum(w[j] * v[j] for j in range(p))
    return out


def bilinear_oracle(f, s, params):
    p, c = f.shape[0], s.shape[0]
    u, v = params.u.data, params.v.data
    mix, score = params.mix.data, params.score.data
    a = np.zeros((p, c))
    for i in range(p):
        for j in range(c):
            hidden = np.tanh((f[i] @ u) * (s[j] @ v))
            a[i, j] = float(hidden @ mix @ score[:, 0])
    return a


def ap_oracle(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, precs = 0, []
    for rank, i in enumerate(order, 1):
        if labels[i]:
            hits += 1
            precs.append(hits / rank)
    return math.fsum(precs) / hits


def bce_oracle(p, y):
    p = np.clip(p, 1e-7, 1.0 - 1e-7)
    return -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


class TestAcceptance:
    def test_gradient_suite(self, capsys):
        def body():
            t0 = time.monotonic()
            ok = run_suite(verbose=False)
            dt = time.monotonic() - t0
            assert ok, "a finite-difference check failed"
            assert dt < 120.0, f"suite took {dt:.0f}s"
            return f"all checks under 1e-4/1e-3 in {dt:.1f}s"
        criterion(capsys, "gradient-suite", body)

    def test_transport_invariants(self, capsys):
        def body():
            rng = np.random.default_rng(123)
            for trial in range(500):
                p = int(rng.integers(2, 7))
                c = int(rng.integers(2, 6))
                d_v = 2 * int(rng.integers(2, 5))
                f = Tensor(rng.normal(size=(p, d_v)))
                f_s = Tensor(rng.normal(size=(c, d_v)))
                w_m = Tensor(rng.normal(size=(d_v, c)))
                y = rng.integers(0, 2, size=c).astype(float)
                if y.sum() == 0:
                    y[int(rng.integers(c))] = 1.0
                theta = source_distribution(semantic_map(f, w_m), y)
                beta = target_distribution(y)
                for dist in (theta, beta):
                    assert dist.data.min() >= 0.0
                    assert abs(dist.data.sum() - 1.0) < 1e-9
                mass = bilinear_mass(f, f_s, init_bilinear(rng, d_v, 5, 4))
                co = cost_matrix(f, f_s)
                # the plans training uses
                _, (fwd, bwd) = ct_loss(mass, semantic_attention(mass),
                                        theta, beta, co)
                assert_allclose(fwd.data.sum(axis=1), theta.data,
                                atol=1e-9)
                assert_allclose(bwd.data.sum(axis=0), beta.data,
                                atol=1e-9)
                assert co.data.min() >= 0.0 and co.data.max() <= 2.0
            return "500 instances, marginals and simplex at 1e-9"
        criterion(capsys, "transport-invariants", body)

    def test_oracle_equivalence(self, capsys):
        def body():
            rng = np.random.default_rng(7)
            from sarl.representation import (FeatureMap, SelfAttentionParams,
                                             self_attention)
            worst_attn = 0.0
            for trial in range(5):
                p, heads, d = 5, 2, 4
                d_v = heads * d
                f = Tensor(rng.normal(size=(p, d_v)))
                params = SelfAttentionParams(
                    Tensor(rng.normal(size=(d_v, d_v))),
                    Tensor(rng.normal(size=(d_v, d_v))),
                    Tensor(rng.normal(size=(d_v, d_v))),
                    n_heads=heads)
                got = self_attention(FeatureMap(f, p, 1), params).f.data
                want = attention_oracle(f.data, params.w_q.data,
                                        params.w_k.data, params.w_v.data,
                                        heads)
                worst_attn = max(worst_attn, np.abs(got - want).max())
            assert worst_attn < 1e-10

            worst_mass = 0.0
            for trial in range(5):
                f = Tensor(rng.normal(size=(4, 8)))
                s = Tensor(rng.normal(size=(3, 8)))
                params = init_bilinear(rng, 8, 5, 4)
                got = bilinear_mass(f, s, params).data
                want = bilinear_oracle(f.data, s.data, params)
                worst_mass = max(worst_mass, np.abs(got - want).max())
            assert worst_mass < 1e-10

            for trial in range(600):
                n = int(rng.integers(2, 21))
                scores = np.round(rng.random(n), 2)
                labels = rng.integers(0, 2, size=n)
                if labels.sum() == 0:
                    labels[int(rng.integers(n))] = 1
                assert average_precision(scores, labels) == \
                    ap_oracle(scores, labels)
            for trial in range(400):
                n = int(rng.integers(2, 21))
                c = int(rng.integers(2, 7))
                scores = np.round(rng.random((n, c)), 2)
                labels = rng.integers(0, 2, size=(n, c))
                labels[0] = 1
                per_class = [ap_oracle(scores[:, j], labels[:, j])
                             for j in range(c)]
                got = mean_ap(PredictionSet(scores, labels))
                assert got == math.fsum(per_class) / c
            worst_asl = 0.0
            flat = AslConfig(gamma_pos=0.0, gamma_neg=0.0, clip=0.0)
            for trial in range(200):
                n = int(rng.integers(1, 30))
                probs = rng.uniform(0.01, 0.99, size=n)
                y = rng.integers(0, 2, size=n).astype(float)
                got = asl(Tensor(probs), y, flat).item()
                worst_asl = max(worst_asl, abs(got - bce_oracle(probs, y)))
            assert worst_asl < 1e-12
            return (f"attention {worst_attn:.1e}, mass {worst_mass:.1e}, "
                    f"1000 ranking instances exact, asl-bce {worst_asl:.1e}")
        criterion(capsys, "oracle-equivalence", body)

    def test_closed_form_values(self, capsys):
        def body():
            cfg = AslConfig(gamma_pos=0.0, gamma_neg=2.0, clip=0.05)
            got = asl(Tensor(np.array([0.5])), np.array([1.0]), cfg).item()
            assert abs(got - math.log(2.0)) < 1e-12

            rng = np.random.default_rng(1)
            f = Tensor(rng.normal(size=(4, 6)))
            s = Tensor(rng.normal(size=(3, 6)))
            mass = bilinear_mass(f, s, init_bilinear(rng, 6, 4, 4))
            y = np.array([1.0, 0.0, 1.0])
            theta = source_distribution(semantic_map(
                f, Tensor(rng.normal(size=(6, 3)))), y)
            ones = Tensor(np.ones((4, 3)))
            got_ct = ct_loss(mass, semantic_attention(mass), theta,
                             target_distribution(y), ones)[0].item()
            assert abs(got_ct - 2.0) < 1e-12

            beta = target_distribution(np.array([1.0, 0.0, 0.0])).data
            assert_allclose(beta, [0.5761, 0.2119, 0.2119], atol=1e-4)
            return "ln 2, unit-cost transport 2, one-hot softmax"
        criterion(capsys, "closed-forms", body)

    def test_end_to_end_learning(self, capsys):
        def body():
            t0 = time.monotonic()
            score = training_map(0)
            dt = time.monotonic() - t0
            assert score >= 0.90, f"test mAP {score:.4f} below 0.90"
            assert dt < 600.0, f"run took {dt:.0f}s"
            return f"test mAP {score:.4f} in {dt:.0f}s, 50 epochs"
        criterion(capsys, "end-to-end-learning", body)

    def test_ablation_direction(self, capsys):
        def body():
            seeds = (0, 1, 2)
            full = np.mean([training_map(s) for s in seeds])
            no_ot = np.mean([training_map(s, disable_ot=True)
                             for s in seeds])
            neither = np.mean([training_map(s, disable_ot=True,
                                            disable_self_attn=True)
                               for s in seeds])
            assert full >= no_ot + 0.01, f"{full:.4f} vs {no_ot:.4f}"
            assert no_ot >= neither + 0.01, f"{no_ot:.4f} vs {neither:.4f}"
            return (f"full {full:.4f} >= no-transport {no_ot:.4f} >= "
                    f"plain {neither:.4f}, margins >= 0.01")
        criterion(capsys, "ablation-direction", body)

    def test_gsp_fusion_direction(self, capsys):
        # the label features without the pooled image row: 0.926 against
        # 0.413 mean test mAP when measured, so a 0.10 margin leaves room
        def body():
            seeds = (0, 1, 2)
            full = np.mean([training_map(s) for s in seeds])
            no_fusion = np.mean([training_map(s, disable_gsp_fusion=True)
                                 for s in seeds])
            assert full >= no_fusion + 0.10, f"{full:.4f} vs {no_fusion:.4f}"
            return (f"full {full:.4f} >= no-gsp-fusion {no_fusion:.4f}, "
                    f"margin >= 0.10")
        criterion(capsys, "gsp-fusion-direction", body)

    def test_determinism(self, capsys, tmp_path):
        def body():
            cfg = TrainConfig(seed=9, n_train=60, n_test=30, num_classes=4,
                              channels=2, feature_dim=8, label_dim=4,
                              bilinear_dim=8, bilinear_out=4, n_heads=2,
                              epochs=3)
            train_ds, test_ds = generate(synthetic_config(cfg))
            logs = []
            for run in ("a", "b"):
                lines = []
                train(cfg, train_ds, test_ds, log=lines.append,
                      out_dir=tmp_path / run)
                logs.append("\n".join(lines))
            assert logs[0] == logs[1]
            bytes_a = (tmp_path / "a" / "model.ckpt").read_bytes()
            bytes_b = (tmp_path / "b" / "model.ckpt").read_bytes()
            assert bytes_a == bytes_b
            return "logs and checkpoints bit-identical across two runs"
        criterion(capsys, "determinism", body)

    def test_format_fixtures(self, capsys, tmp_path):
        def body():
            cfg = TrainConfig(seed=4, n_train=30, n_test=15, num_classes=4,
                              channels=2, feature_dim=8, label_dim=4,
                              bilinear_dim=8, bilinear_out=4, n_heads=2,
                              epochs=1)
            train_ds, test_ds = generate(synthetic_config(cfg))
            path = tmp_path / "train.bin"
            save_dataset(path, train_ds)
            loaded = load_dataset(path)
            assert_array_equal(loaded.payload, train_ds.payload)
            assert_array_equal(loaded.labels, train_ds.labels)
            save_dataset(tmp_path / "again.bin", loaded)
            assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

            pgm = tmp_path / "fixture.pgm"
            write_pgm(pgm, np.array([[0.0, 0.5], [1.0, 0.25]]))
            assert pgm.read_bytes() == \
                b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])

            res = train(cfg, train_ds, test_ds)
            before, _ = evaluate(res.model, test_ds)
            save_checkpoint(tmp_path / "m.ckpt", res.model)
            after, preds = evaluate(load_checkpoint(tmp_path / "m.ckpt"),
                                    test_ds)
            assert before.mean_ap == after.mean_ap
            assert_array_equal(preds.scores, res.predictions.scores)
            return "dataset bit-exact, PGM byte-exact, checkpoint identical"
        criterion(capsys, "format-fixtures", body)
