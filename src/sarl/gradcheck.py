"""Finite-difference gradient checking.

``check_gradients`` compares tape gradients against central differences.
The same checks back the ``sarl gradcheck`` CLI verb via ``run_suite``,
which exercises every loss and a full tiny model.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tape, Tensor

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


def numeric_gradient(fn, tensors, index):
    """Central-difference d(fn)/d(tensors[index]), elementwise."""
    target = tensors[index]
    base = target.data.copy()
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        bumped = base.reshape(-1).copy()
        bumped[i] = base.reshape(-1)[i] + DEFAULT_STEP
        target.data = bumped.reshape(base.shape)
        hi = float(fn().data)
        bumped[i] = base.reshape(-1)[i] - DEFAULT_STEP
        target.data = bumped.reshape(base.shape)
        lo = float(fn().data)
        flat[i] = (hi - lo) / (2.0 * DEFAULT_STEP)
    target.data = base
    return grad


def gradient_error(analytic, numeric):
    """Worst-case elementwise error, relative for large entries."""
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def check_gradients(fn, tensors, tol=DEFAULT_TOL):
    """Check d(fn)/d(t) for every tensor in ``tensors``.

    ``fn`` must build a scalar loss from the given leaf tensors from
    scratch on each call. Returns the worst error seen; raises
    AssertionError when any leaf exceeds ``tol``.
    """
    for t in tensors:  # a leaf fn never reaches keeps no stale gradient
        t.grad = None
    with Tape() as tape:
        loss = fn()
        tape.backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else np.array(t.grad)
                for t in tensors]
    worst = 0.0
    for i, t in enumerate(tensors):
        numeric = numeric_gradient(fn, tensors, i)
        err = gradient_error(analytic[i], numeric)
        worst = max(worst, err)
        if err > tol:
            raise AssertionError(
                f"gradient mismatch on tensor {i} (shape {t.data.shape}): "
                f"error {err:.3e} > {tol:.1e}")
    return worst


def run_suite(verbose=True):
    """Run the full finite-difference suite; returns True when all pass.

    Covers every primitive op, every loss, and the composite model on a
    tiny configuration, one image with labels and a 3-image stack
    without. Imported lazily so the CLI can expose this as a
    standalone verb.
    """
    from . import losses, transport
    from . import tensor as T
    from .head import (ClassifierParams, ModelConfig, build_model, forward,
                       region_score_aggregate, sample_losses)
    from .representation import EncoderConfig

    rng = np.random.default_rng(7)
    results = []

    def check(name, fn, tensors, tol=DEFAULT_TOL):
        try:
            err = check_gradients(fn, tensors, tol=tol)
            results.append((name, True, err))
        except AssertionError as exc:
            results.append((name, False, str(exc)))

    def rt(*shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale)

    # primitives
    a, b = rt(3, 4), rt(3, 4)
    check("add", lambda: T.sum_(T.mul(T.add(a, b), T.add(a, b))), [a, b])
    check("sub/mul", lambda: T.sum_(T.mul(T.sub(a, b), a)), [a, b])
    d = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)))
    check("div", lambda: T.sum_(T.div(a, d)), [a, d])
    m1, m2 = rt(3, 4), rt(4, 2)
    check("matmul", lambda: T.sum_(T.mul(T.matmul(m1, m2), T.matmul(m1, m2))), [m1, m2])
    check("transpose", lambda: T.sum_(T.mul(T.transpose(m1), T.transpose(m1))), [m1])
    check("reshape", lambda: T.sum_(T.pow_const(T.reshape(a, (4, 3)), 2)), [a])
    check("concat", lambda: T.sum_(T.pow_const(T.concat([a, b], axis=1), 2)), [a, b])
    p = Tensor(rng.uniform(0.1, 0.9, size=(3, 4)))
    check("log", lambda: T.sum_(T.log(p)), [p])
    check("sqrt", lambda: T.sum_(T.sqrt(d)), [d])
    check("tanh", lambda: T.sum_(T.tanh(a)), [a])
    check("sigmoid", lambda: T.sum_(T.sigmoid(a)), [a])
    shifted = Tensor(rng.normal(size=(3, 4)) + 0.05)  # keep entries off the kink
    check("relu", lambda: T.sum_(T.relu(shifted)), [shifted])
    check("pow", lambda: T.sum_(T.pow_const(d, 2.0)), [d])
    check("clamp", lambda: T.sum_(T.pow_const(T.clamp(a, -0.5, 0.5), 2)), [a])
    check("softmax", lambda: T.sum_(T.pow_const(T.softmax(a, axis=1), 2)), [a])
    for num_p, n_heads in ((5, 1), (5, 4), (1, 4)):
        q, k, v = rt(num_p, 8), rt(num_p, 8), rt(num_p, 8)
        check(f"attention_p{num_p}_h{n_heads}",
              lambda: T.sum_(T.pow_const(T.attention(q, k, v, n_heads), 2)),
              [q, k, v])
    for num_p, num_c in ((5, 3), (1, 3), (5, 1)):
        fu, sv, w = rt(num_p, 4), rt(num_c, 4), rt(4, 1)
        check(f"bilinear_scores_p{num_p}_c{num_c}",
              lambda: T.sum_(T.pow_const(T.bilinear_scores(fu, sv, w), 2)),
              [fu, sv, w])
    check("mean", lambda: T.mean(T.pow_const(a, 2)), [a])
    check("max", lambda: T.sum_(T.pow_const(T.max_reduce(a, axis=0), 2)), [a])
    img = rt(6, 6, 2)
    kern, kb = rt(18, 3, scale=0.5), rt(3, scale=0.1)
    check("conv2d", lambda: T.sum_(T.pow_const(T.conv2d(img, kern, kb), 2)),
          [img, kern, kb])

    # losses
    cfg = losses.AslConfig(gamma_pos=1.0, gamma_neg=2.0, clip=0.05)
    y = np.array([1.0, 0.0, 1.0, 0.0])
    probs = Tensor(np.array([0.7, 0.3, 0.4, 0.6]))
    check("asl", lambda: losses.asl(probs, y, cfg), [probs])
    logits = rt(4)
    check("classification_loss",
          lambda: losses.classification_loss(logits, y, cfg), [logits])
    m = rt(5, 4)
    check("semantic_map_loss",
          lambda: losses.semantic_map_loss(m, y, cfg), [m])

    feats = rt(4, 6)
    sem = rt(3, 6)
    u, v2 = rt(6, 4, scale=0.5), rt(6, 4, scale=0.5)
    mix, score = rt(4, 4, scale=0.5), rt(4, 1, scale=0.5)
    wmap = rt(6, 3, scale=0.5)
    y3 = np.array([1.0, 0.0, 1.0])

    def ct():
        params = transport.BilinearParams(u, v2, mix, score)
        mass = transport.bilinear_mass(feats, sem, params)
        smap = T.matmul(feats, wmap)
        theta = transport.source_distribution(smap, y3)
        beta = transport.target_distribution(y3)
        fwd = transport.forward_plan(mass, theta)
        bwd = transport.backward_plan(mass, beta)
        cost = transport.cost_matrix(feats, sem)
        return transport.ct_loss(fwd, bwd, cost)

    check("ct_loss", ct, [feats, sem, u, v2, mix, score, wmap])

    cls_w, cls_b = rt(6, 3, scale=0.5), rt(3, scale=0.1)

    def total():
        params = transport.BilinearParams(u, v2, mix, score)
        mass = transport.bilinear_mass(feats, sem, params)
        smap = T.matmul(feats, wmap)
        theta = transport.source_distribution(smap, y3)
        beta = transport.target_distribution(y3)
        fwd = transport.forward_plan(mass, theta)
        bwd = transport.backward_plan(mass, beta)
        cost = transport.cost_matrix(feats, sem)
        l_ot = transport.ct_loss(fwd, bwd, cost)
        attn = transport.semantic_attention(mass)
        aligned = transport.semantic_repr(attn, sem)
        z = region_score_aggregate(aligned, ClassifierParams(cls_w, cls_b))
        l_cls = losses.classification_loss(z, y3, cfg)
        l_m = losses.semantic_map_loss(smap, y3, cfg)
        return losses.total_loss(l_cls, l_m, l_ot, losses.LossWeights(0.3, 0.7))

    check("total_loss", total,
          [feats, sem, u, v2, mix, score, wmap, cls_w, cls_b])

    # full model, tiny config, 8x8 image -> 2x2 patch grid
    enc = EncoderConfig(in_channels=2, grid_h=2, grid_w=2, conv_blocks=2)
    mcfg = ModelConfig(num_classes=3, feature_dim=8, label_dim=8,
                       bilinear_dim=4, bilinear_out=4, n_heads=2, encoder=enc)
    model = build_model(mcfg, seed=11)
    image = Tensor(rng.normal(size=(8, 8, 2)))
    y_full = np.array([1.0, 0.0, 1.0])
    weights = losses.LossWeights(0.3, 0.7)
    acfg = losses.AslConfig(gamma_pos=1.0, gamma_neg=2.0, clip=0.05)

    def full():
        out = forward(image, model, labels=y_full)
        return sample_losses(out, y_full, acfg, weights)[0]

    check("full_model", full, [image] + list(model.parameters().values()),
          tol=1e-3)

    stack = Tensor(rng.normal(size=(3, 8, 8, 2)))
    check("full_model_stack3",
          lambda: T.sum_(T.pow_const(forward(stack, model).logits, 2)),
          [stack] + list(model.parameters().values()), tol=1e-3)

    ok = True
    for name, passed, info in results:
        ok = ok and passed
        if verbose:
            status = "ok" if passed else "FAIL"
            detail = f"max err {info:.2e}" if passed else info
            print(f"  gradcheck {name:<22s} {status}  ({detail})")
    return ok
