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
    """Central-difference d(fn)/d(tensors[index]), elementwise, bumping
    each entry of one copy of its data in place."""
    target = tensors[index]
    base = target.data
    target.data = base.copy()
    bumped = target.data.reshape(-1)
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(bumped.size):
        value = bumped[i]
        bumped[i] = value + DEFAULT_STEP
        hi = float(fn().data)
        bumped[i] = value - DEFAULT_STEP
        lo = float(fn().data)
        bumped[i] = value
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
                       label_terms, region_score_aggregate, sample_losses)
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
    m1, m2 = rt(3, 4), rt(4, 2)
    check("matmul", lambda: T.sum_(T.mul(T.matmul(m1, m2), T.matmul(m1, m2))), [m1, m2])
    check("reshape", lambda: T.sum_(T.pow_const(T.reshape(a, (4, 3)), 2)), [a])
    check("sigmoid", lambda: T.sum_(T.sigmoid(a)), [a])
    d = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)))
    check("pow", lambda: T.sum_(T.pow_const(d, 2.0)), [d])
    check("softmax", lambda: T.sum_(T.pow_const(T.softmax(a, axis=1), 2)), [a])
    # each fused op on one sample and on a stack of samples; 12 rows: the
    # reductions over keys sum more than numpy's 8-row block
    for lead, num_p, n_heads in (((), 5, 1), ((), 5, 4), ((), 1, 4),
                                 ((), 12, 4), ((3,), 5, 4)):
        att = [rt(*lead, num_p, 6)] + [rt(6, 8, scale=0.4) for _ in range(3)]
        check(f"attention_{'stack3_' * bool(lead)}p{num_p}_h{n_heads}",
              lambda: T.sum_(T.pow_const(T.attention(*att, n_heads), 2)), att)
    for lead, num_p, num_c in (((), 5, 3), ((), 1, 3), ((), 5, 1), ((3,), 5, 3)):
        bil = [rt(*lead, num_p, 4), rt(*lead, num_c, 4), rt(4, 3), rt(4, 3),
               rt(3, 2), rt(2, 1)]
        check(f"bilinear_scores_{'stack3_' * bool(lead)}p{num_p}_c{num_c}",
              lambda: T.sum_(T.pow_const(T.bilinear_scores(*bil), 2)), bil)
    for lead in ((), (3,)):
        tag = "_stack3" if lead else ""
        pool = [rt(*lead, 5, 4), rt(4, 3), rt(3)]
        check("softmax_pool" + tag,
              lambda: T.sum_(T.pow_const(T.softmax_pool(*pool), 2)), pool)
        fuse = [rt(*lead, 1, 4), rt(3, 2), rt(6, 5), rt(5)]
        check("concat_linear" + tag,
              lambda: T.sum_(T.pow_const(T.concat_linear(*fuse), 2)), fuse)
    # fused label-side ops; the loss at a fractional gamma_neg, with clip 0
    # so p_m = p stays off its kink at 0
    p = Tensor(rng.uniform(0.1, 0.9, size=(3, 4)))
    y34 = (rng.random((3, 4)) < 0.5).astype(float)
    check("asymmetric_loss",
          lambda: T.asymmetric_loss(p, y34, 1.0, 0.5, 0.0, losses.PROB_FLOOR),
          [p])
    f_rows, s_rows = rt(4, 6), rt(3, 6)
    check("cosine_cost",
          lambda: T.sum_(T.pow_const(T.cosine_cost(f_rows, s_rows, 1e-8), 2)),
          [f_rows, s_rows])
    r3, r4 = rt(3), rt(4)
    check("forward_plan",
          lambda: T.sum_(T.pow_const(transport.forward_plan(a, r3), 2)), [a, r3])
    check("backward_plan",
          lambda: T.sum_(T.pow_const(transport.backward_plan(a, r4), 2)), [a, r4])
    # both plans and their cost; the row softmax is the caller's, a value
    c = rt(3, 4)
    check("transport_cost",
          lambda: T.pow_const(T.transport_cost(a, T.softmax(a.data, axis=1),
                                               r3, r4, c)[0], 2),
          [a, r3, r4, c])
    pool_w = np.array([0.5, 0.0, 0.25, 0.25])
    check("matvec_softmax",
          lambda: T.sum_(T.pow_const(T.matvec_softmax(a, pool_w), 2)), [a])
    # logits and map off the probability floor and the clip, at a
    # fractional gamma_neg; the map's column maxima are distinct
    z4, m34, cost = rt(4), rt(3, 4), Tensor(rng.uniform(0.5, 1.5))
    check("asl_objective",
          lambda: T.asl_objective(z4, m34, cost, y34[0], 1.0, 0.5, 0.0,
                                  losses.PROB_FLOOR, 0.3, 0.7)[0],
          [z4, m34, cost])
    check("mean", lambda: T.mean(T.pow_const(a, 2)), [a])
    check("max", lambda: T.sum_(T.pow_const(T.max_reduce(a, axis=0), 2)), [a])
    # along one axis of an (N, P, d) stack, as global_spatial_pool reduces
    st = rt(2, 3, 4)
    check("mean_axis-2_keepdims",
          lambda: T.sum_(T.pow_const(T.mean(st, axis=-2, keepdims=True), 2)), [st])
    check("sum_axis1", lambda: T.sum_(T.pow_const(T.sum_(st, axis=1), 2)), [st])
    # two conv blocks, so the ReLU between them too
    enc = [rt(18, 3, scale=0.5), rt(27, 3, scale=0.5)]
    enc_b = [rt(3, scale=0.1), rt(3, scale=0.1)]
    for tag, img in (("", rt(6, 6, 2)), ("_stack2", rt(2, 5, 6, 2))):
        check("conv_encoder" + tag,
              lambda: T.sum_(T.pow_const(T.conv_encoder(img, enc, enc_b), 2)),
              [img] + enc + enc_b)

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
        """(attention, map, transport loss) of feats against sem."""
        params = transport.BilinearParams(u, v2, mix, score)
        mass = transport.bilinear_mass(feats, sem, params)
        attn = transport.semantic_attention(mass)
        smap = T.matmul(feats, wmap)
        theta = transport.source_distribution(smap, y3)
        beta = transport.target_distribution(y3)
        cost = transport.cost_matrix(feats, sem)
        return attn, smap, transport.ct_loss(mass, attn, theta, beta, cost)[0]

    check("ct_loss", lambda: ct()[2], [feats, sem, u, v2, mix, score, wmap])

    cls_w, cls_b = rt(6, 3, scale=0.5), rt(3, scale=0.1)

    def total():
        attn, smap, l_ot = ct()
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
        out = forward(image, model)
        return sample_losses(out.logits, label_terms(out, y_full, model),
                             y_full, acfg, weights)[0]

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
            print(f"  gradcheck {name:<28s} {status}  ({detail})")
    return ok
