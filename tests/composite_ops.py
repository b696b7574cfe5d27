"""Test-side oracles: the label-side terms as chains of primitive ops,
and the earlier forms of the attention and convolution kernels.

The library computes the asymmetric loss, the cosine cost, each
transport plan, and both plans with the transport loss as one
closed-form tape op each (:mod:`sarl.tensor`). These are the same terms
written the long way, one tape record per primitive, so the tape's own
chain rule is the oracle for each closed-form backward. The primitives
the library no longer needs (log, sqrt, tanh, division, negation,
transpose, clamp, concat) live here with the gradient rules they had in
the library, kinks included: a clamp passes gradient on both edges, and
powers follow :func:`sarl.tensor.pow_const`.

:func:`attention` is the queries-major kernel that the keys-major one
(:func:`attention_kernel`, now inside :func:`sarl.tensor.attention`)
replaced, :func:`conv2d_columns` the nine-slice window columns that
:func:`conv2d` and :func:`sarl.tensor.conv_encoder` take from one
strided view, and :func:`matmul_shared` the three records (reshape, 2-D
product, reshape) that :func:`sarl.tensor.matmul` made for an
``(..., m, k) @ (k, n)`` product before it became one: the references
the rewritten kernels are held to.

:func:`sum_`, :func:`mean`, :func:`max_reduce`, :func:`asymmetric_loss`
and :func:`scaled_softmax` are those ops as the library wrote them with
numpy's Python-level helpers (``np.clip``, ``np.expand_dims``,
``np.broadcast_to``, ``np.take_along_axis``, ``np.put_along_axis``,
``ndarray.mean``). The library now calls only C-level numpy on the tape
path, and its outputs and gradients must be bit-identical to these.
The library no longer has the scaled softmax, a plan as one record:
:func:`sarl.transport.forward_plan` and
:func:`sarl.transport.backward_plan` are the chain it fused (reshape,
softmax, product), and must give its bits.

:data:`HEAD_STAGES` holds six stages of the head as the chains of tape
records they were before each became one fused op: the encoder
(:func:`conv_encoder`: :func:`conv2d` per block, :func:`relu` between
blocks, a reshape to rows; the library's own ops until the encoder
became one), self-attention (three projections and
:func:`attention_kernel`), the bilinear scores (three products and
:func:`bilinear_kernel`), the semantic fusion (concat, product, bias),
the region score aggregation (product, bias, softmax, product, sum) and
the total loss (two products, two sums). The fused ops must give the
same bits, values and gradients alike. The total loss is no longer
fused: the library writes it as this chain, and the gate holds it there.

:data:`LABEL_CHAINS` holds the three label-side stages that became one
fused op each, as the chains they were: the transport loss with both
plans (:func:`transport_cost`: a scaled softmax per plan and
:func:`plan_cost`, the library's own ops until they became one), the
source distribution (product, reshape, softmax) and a training sample's
losses (the classification loss, the semantic-map loss and the total
loss through :mod:`sarl.losses`: max, two sigmoids, two asymmetric
losses, weighted sum). The fused ops must give the same bits, values and
gradients alike.

:func:`train_by_parameter` is the training loop as it was before the
parameters shared one flat buffer: a dict of per-parameter gradient
sums, a finiteness check and an AdamW update that loop over the
parameters by name (:func:`adamw_step_by_parameter`,
:func:`first_non_finite_by_parameter`).
:func:`sarl.training.train` must give its bits.
"""

import math

import numpy as np

from sarl import losses
from sarl import tensor as T
from sarl import training as Tr
from sarl.head import build_model, forward, label_terms
from sarl.losses import PROB_FLOOR
from sarl.representation import FeatureMap
from sarl.transport import NORM_EPS


def _unary(name, forward, slope):
    """An elementwise op whose gradient is g * slope(input, output)."""
    def op(a):
        ad, at = T._lift(a)
        out = forward(ad)

        def backward_fn(g):
            T._accumulate(at, g * slope(ad, out))

        return T._make(out, name, (at,), backward_fn)

    return op


log = _unary("log", np.log, lambda x, out: 1.0 / x)
sqrt = _unary("sqrt", np.sqrt, lambda x, out: 0.5 / out)
tanh = _unary("tanh", np.tanh, lambda x, out: 1.0 - out * out)
neg = _unary("neg", np.negative, lambda x, out: -1.0)


def clamp(a, lo, hi):
    return _unary("clamp", lambda x: np.clip(x, lo, hi),
                  lambda x, out: (x >= lo) & (x <= hi))(a)


def transpose(a):
    ad, at = T._lift(a)

    def backward_fn(g):
        T._accumulate(at, g.T)

    return T._make(ad.T.copy(), "transpose", (at,), backward_fn)


def div(a, b):
    ad, at = T._lift(a)
    bd, bt = T._lift(b)

    def backward_fn(g):
        if at is not None:
            T._accumulate(at, T._unbroadcast(g / bd, ad.shape))
        if bt is not None:
            T._accumulate(bt, T._unbroadcast(-g * ad / (bd * bd), bd.shape))

    return T._make(ad / bd, "div", (at, bt), backward_fn)


def asl(p, y, cfg):
    """sarl.losses.asl as sixteen records."""
    y = np.asarray(y)
    p = clamp(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    pos = T.mul(T.pow_const(T.sub(1.0, p), cfg.gamma_pos), log(p))
    p_m = clamp(T.sub(p, cfg.clip), 0.0, 1.0)
    negative = T.mul(T.pow_const(p_m, cfg.gamma_neg), log(T.sub(1.0, p_m)))
    per_class = T.add(T.mul(pos, y), T.mul(negative, 1.0 - y))
    return neg(T.mean(per_class))


def cost_matrix(f, f_s):
    """sarl.transport.cost_matrix as fifteen records."""
    sim = T.matmul(f, transpose(f_s))
    fn = sqrt(T.sum_(T.pow_const(f, 2), axis=1))
    sn = sqrt(T.sum_(T.pow_const(f_s, 2), axis=1))
    denom = T.mul(T.reshape(T.add(fn, NORM_EPS), (f.shape[0], 1)),
                  T.reshape(T.add(sn, NORM_EPS), (1, f_s.shape[0])))
    return T.sub(1.0, div(sim, denom))


def forward_plan(mass, theta):
    return T.mul(T.reshape(theta, (mass.shape[0], 1)), T.softmax(mass, axis=1))


def backward_plan(mass, beta):
    return T.mul(T.reshape(beta, (1, mass.shape[1])), T.softmax(mass, axis=0))


def ct_loss(mass, attention, theta, beta, co):
    fwd, bwd = forward_plan(mass, theta), backward_plan(mass, beta)
    return T.add(T.sum_(T.mul(fwd, co)), T.sum_(T.mul(bwd, co))), (fwd, bwd)


def attention(q, k, v, n_heads):
    """sarl.tensor.attention with (..., H, P_queries, P_keys) logits: the
    max and sum over keys reduce along each row, and dP is a product
    over V followed by a separate rowsum(dO * O) subtraction."""
    qd, qt = T._lift(q)
    kd, kt = T._lift(k)
    vd, vt = T._lift(v)
    *lead, num_p, d_v = qd.shape
    d = d_v // n_heads
    scale = 1.0 / math.sqrt(d)

    def heads(x):
        return x.reshape(*lead, num_p, n_heads, d).swapaxes(-2, -3)

    def merge(x):
        return x.swapaxes(-2, -3).reshape(*lead, num_p, d_v)

    qh, kh, vh = heads(qd * scale), heads(kd), heads(vd)
    e = qh @ kh.swapaxes(-1, -2)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    s = e.sum(axis=-1, keepdims=True)
    o = e @ vh
    o /= s

    def backward_fn(g):
        go = heads(g) / s
        if vt is not None:
            T._accumulate(vt, merge(e.swapaxes(-1, -2) @ go))
        dp = go @ vh.swapaxes(-1, -2)
        dp -= (go * o).sum(axis=-1, keepdims=True)
        dp *= e
        if qt is not None:
            T._accumulate(qt, merge(dp @ kh) * scale)
        if kt is not None:
            T._accumulate(kt, merge(dp.swapaxes(-1, -2) @ qh))

    return T._make(merge(o), "attention", (qt, kt, vt), backward_fn)


def relu(a):
    ad, at = T._lift(a)

    def backward_fn(g):
        T._accumulate(at, g * (ad > 0))

    return T._make(np.maximum(ad, 0.0), "relu", (at,), backward_fn)


def conv2d(image, kernel, bias):
    """One block of sarl.tensor.conv_encoder as its own record: a
    convolution over (..., H, W, Cin) images with the CONV_* geometry,
    output (..., Hout, Wout, Cout). Its backward scatters the nine taps
    one by one, the order the encoder's four-step scatter keeps."""
    xd, xt = T._lift(image)
    kd, kt = T._lift(kernel)
    bd, bt = T._lift(bias)
    ks, stride, padding = T.CONV_KERNEL, T.CONV_STRIDE, T.CONV_PADDING
    *lead, h, w, cin = xd.shape
    cout = kd.shape[1]
    hout, wout = T.conv_output_size(h), T.conv_output_size(w)
    xp = np.zeros((*lead, h + 2 * padding, w + 2 * padding, cin), dtype=xd.dtype)
    inner = (..., slice(padding, padding + h), slice(padding, padding + w), slice(None))
    xp[inner] = xd
    *lead_strides, s_row, s_col, s_chan = xp.strides
    windows = np.ndarray((*lead, hout, wout, ks, ks, cin), dtype=xp.dtype, buffer=xp,
                         strides=(*lead_strides, stride * s_row, stride * s_col,
                                  s_row, s_col, s_chan))
    cols = windows.reshape(-1, ks * ks * cin)
    out_data = (cols @ kd + bd).reshape(*lead, hout, wout, cout)

    def backward_fn(g):
        gf = g.reshape(-1, cout)
        if bt is not None:
            T._accumulate(bt, gf.sum(axis=0))
        if kt is not None:
            T._accumulate(kt, cols.T @ gf)
        if xt is not None:
            taps = [(..., slice(dy, dy + stride * hout, stride),
                     slice(dx, dx + stride * wout, stride), slice(None))
                    for dy in range(ks) for dx in range(ks)]
            gcols = (gf @ kd.T).reshape(*lead, hout, wout, ks * ks, cin)
            gpad = np.zeros(xp.shape, xp.dtype)
            for i, t in enumerate(taps):
                gpad[t] += gcols[..., i, :]
            T._accumulate(xt, gpad[inner].copy())

    return T._make(out_data, "conv2d", (xt, kt, bt), backward_fn)


def conv_encoder(image, kernels, biases):
    """sarl.tensor.conv_encoder as the records it replaced: conv2d per
    block, relu between blocks, and a reshape to (..., P, Cout) rows."""
    h = image
    for i, (kernel, bias) in enumerate(zip(kernels, biases)):
        if i:
            h = relu(h)
        h = conv2d(h, kernel, bias)
    return T.reshape(h, (*h.shape[:-3], -1, h.shape[-1]))


def plan_cost(fwd, bwd, cost):
    fd, ft = T._lift(fwd)
    bd, bt = T._lift(bwd)
    cd, ct = T._lift(cost)

    def backward_fn(g):
        if ft is not None:
            T._accumulate(ft, g * cd)
        if bt is not None:
            T._accumulate(bt, g * cd)
        if ct is not None:
            T._accumulate(ct, g * bd + g * fd)

    return T._make((fd * cd).sum() + (bd * cd).sum(), "plan_cost",
                   (ft, bt, ct), backward_fn)


def transport_cost(mass, soft, theta, beta, cost):
    """sarl.tensor.transport_cost as the records it replaced: a scaled
    softmax per plan and plan_cost; soft goes unused, as the forward
    plan takes its own softmax."""
    fwd = scaled_softmax(mass, theta, axis=1)
    bwd = scaled_softmax(mass, beta, axis=0)
    return plan_cost(fwd, bwd, cost), fwd.data, bwd.data


def conv2d_columns(x, kernel, bias):
    """:func:`conv2d`'s forward with its window columns built as one
    strided slice of the padded image per tap, joined by np.stack."""
    ks, stride, pad = T.CONV_KERNEL, T.CONV_STRIDE, T.CONV_PADDING
    *lead, h, w, cin = x.shape
    hout, wout = T.conv_output_size(h), T.conv_output_size(w)
    xp = np.zeros((*lead, h + 2 * pad, w + 2 * pad, cin), dtype=x.dtype)
    xp[..., pad:pad + h, pad:pad + w, :] = x
    taps = [xp[..., dy:dy + stride * hout:stride, dx:dx + stride * wout:stride, :]
            for dy in range(ks) for dx in range(ks)]
    cols = np.stack(taps, axis=-2).reshape(-1, ks * ks * cin)
    return (cols @ kernel + bias).reshape(*lead, hout, wout, kernel.shape[1])


def matmul_shared(a, b):
    """a (..., m, k) times one weight b (k, n) as three records."""
    lead = a.shape[:-1]
    rows = T.matmul(T.reshape(a, (-1, a.shape[-1])), b)
    return T.reshape(rows, lead + b.shape[1:])


def sum_(a, axis=None):
    ad, at = T._lift(a)

    def backward_fn(g):
        if axis is None:
            T._accumulate(at, np.broadcast_to(g, ad.shape).copy())
        else:
            T._accumulate(at, np.broadcast_to(np.expand_dims(g, axis), ad.shape).copy())

    return T._make(ad.sum(axis=axis), "sum", (at,), backward_fn)


def mean(a, axis=None, keepdims=False):
    ad, at = T._lift(a)
    n = ad.size if axis is None else ad.shape[axis]

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        T._accumulate(at, np.broadcast_to(g / n, ad.shape).copy())

    return T._make(ad.mean(axis=axis, keepdims=keepdims), "mean", (at,), backward_fn)


def max_reduce(a, axis, keepdims=False):
    ad, at = T._lift(a)
    idx = np.expand_dims(np.argmax(ad, axis=axis), axis)
    out_data = np.take_along_axis(ad, idx, axis=axis)

    def backward_fn(g):
        gz = np.zeros_like(ad)
        np.put_along_axis(gz, idx, g if keepdims else np.expand_dims(g, axis),
                          axis=axis)
        T._accumulate(at, gz)

    return T._make(out_data if keepdims else out_data.squeeze(axis=axis), "max",
                   (at,), backward_fn)


def asymmetric_loss(p, y, gamma_pos, gamma_neg, clip, floor):
    pd, pt = T._lift(p)
    yd = np.asarray(y, dtype=pd.dtype)
    gamma_pos, gamma_neg = float(gamma_pos), float(gamma_neg)
    lo, hi = floor, 1.0 - floor
    pc = np.clip(pd, lo, hi)
    q = 1.0 - pc
    log_p = np.log(pc)
    shifted = pc - clip
    pm = np.clip(shifted, 0.0, 1.0)
    qm = 1.0 - pm
    log_qm = np.log(qm)
    focus_pos = q ** gamma_pos
    focus_neg = pm ** gamma_neg
    y_neg = 1.0 - yd
    per = (focus_pos * log_p) * yd + (focus_neg * log_qm) * y_neg

    def backward_fn(g):
        w = -g / pd.size
        d_pos, d_neg = w * yd, w * y_neg
        dpc = d_pos * focus_pos / pc
        if gamma_pos != 0.0:
            dpc -= d_pos * log_p * T._pow_slope(q, gamma_pos)
        dpm = -(d_neg * focus_neg / qm)
        if gamma_neg != 0.0:
            dpm += d_neg * log_qm * T._pow_slope(pm, gamma_neg)
        dpc += dpm * ((shifted >= 0.0) & (shifted <= 1.0))
        T._accumulate(pt, dpc * ((pd >= lo) & (pd <= hi)))

    return T._make(-per.mean(), "asymmetric_loss", (pt,), backward_fn)


def scaled_softmax(a, scale, axis):
    ad, at = T._lift(a)
    sd, st = T._lift(scale)
    axis %= ad.ndim
    soft = ad - ad.max(axis=axis, keepdims=True)
    np.exp(soft, out=soft)
    soft /= soft.sum(axis=axis, keepdims=True)
    sdx = np.expand_dims(sd, axis)

    def backward_fn(g):
        if st is not None:
            T._accumulate(st, (g * soft).sum(axis=axis))
        if at is not None:
            d = g * sdx
            d -= (d * soft).sum(axis=axis, keepdims=True)
            d *= soft
            T._accumulate(at, d)

    return T._make(sdx * soft, "scaled_softmax", (at, st), backward_fn)


# the library functions each oracle stands for, by module attribute
LABEL_SIDE = {
    ("sarl.losses", "asl"): asl,
    ("sarl.transport", "cost_matrix"): cost_matrix,
    ("sarl.transport", "ct_loss"): ct_loss,
}


def attention_kernel(q, k, v, n_heads):
    """sarl.tensor.attention on projected q, k, v: the keys-major kernel
    before the projections joined it."""
    qd, qt = T._lift(q)
    kd, kt = T._lift(k)
    vd, vt = T._lift(v)
    *lead, num_p, d_v = qd.shape
    d = d_v // n_heads
    scale = 1.0 / math.sqrt(d)

    def heads(x):
        return x.reshape(*lead, num_p, n_heads, d).swapaxes(-2, -3)

    def merge(x):
        return x.swapaxes(-2, -3).reshape(*lead, num_p, d_v)

    qh, kh, vh = heads(qd * scale), heads(kd), heads(vd)
    et = kh @ qh.swapaxes(-1, -2)
    et -= et.max(axis=-2, keepdims=True)
    np.exp(et, out=et)
    s = et.sum(axis=-2, keepdims=True).swapaxes(-1, -2)
    o = et.swapaxes(-1, -2) @ vh
    o /= s

    def backward_fn(g):
        go = heads(g) / s
        if vt is not None:
            T._accumulate(vt, merge(et @ go))
        gx = np.empty((*go.shape[:-1], d + 1), go.dtype)
        gx[..., :d] = go
        gx[..., d] = -(go * o).sum(axis=-1)
        v1 = np.empty(gx.shape, vh.dtype)
        v1[..., :d] = vh
        v1[..., d] = 1.0
        dpt = v1 @ gx.swapaxes(-1, -2)
        dpt *= et
        if qt is not None:
            T._accumulate(qt, merge(dpt.swapaxes(-1, -2) @ kh) * scale)
        if kt is not None:
            T._accumulate(kt, merge(dpt @ qh))

    return T._make(merge(o), "attention", (qt, kt, vt), backward_fn)


def bilinear_kernel(fu, sv, w):
    """sarl.tensor.bilinear_scores on projected rows fu, sv and the
    score weights w = mix score: the kernel before the products joined
    it."""
    fd, ft = T._lift(fu)
    sd, st = T._lift(sv)
    wd, wt = T._lift(w)
    t = fd[..., :, None, :] * sd[..., None, :, :]
    np.tanh(t, out=t)
    flat = t.reshape(-1, t.shape[-1])

    def backward_fn(g):
        if wt is not None:
            T._accumulate(wt, flat.T @ g.reshape(-1, 1))
        dp = t * t
        np.subtract(1.0, dp, out=dp)
        dp *= g[..., None]
        dp *= wd[:, 0]
        if ft is not None:
            T._accumulate(ft, np.einsum("...pcd,...cd->...pd", dp, sd))
        if st is not None:
            T._accumulate(st, np.einsum("...pcd,...pd->...cd", dp, fd))

    return T._make((flat @ wd).reshape(t.shape[:-1]), "bilinear_scores",
                   (ft, st, wt), backward_fn)


def encode(x, cfg, params):
    return FeatureMap(conv_encoder(x, params.kernels, params.biases),
                      cfg.grid_h, cfg.grid_w)


def self_attention(fm, p):
    f = fm.f
    heads = attention_kernel(T.matmul(f, p.w_q), T.matmul(f, p.w_k),
                             T.matmul(f, p.w_v), p.n_heads)
    return FeatureMap(heads, fm.h, fm.w)


def bilinear_mass(f, f_s, p):
    return bilinear_kernel(T.matmul(f, p.u), T.matmul(f_s, p.v),
                           T.matmul(p.mix, p.score))


def concat(parts, axis=0):
    """Join along ``axis`` of the widest part; the other axes broadcast as
    in numpy arithmetic, so one table can be joined to every sample of a
    stack."""
    lifted = [T._lift(p) for p in parts]
    ndim = max(d.ndim for d, _ in lifted)
    axis %= ndim
    shapes = [(1,) * (ndim - d.ndim) + d.shape for d, _ in lifted]
    rest = []
    for sizes in zip(*(s[:axis] + s[axis + 1:] for s in shapes)):
        wide = set(sizes) - {1}
        if len(wide) > 1:
            raise T.DimensionError(
                f"concat cannot broadcast {[d.shape for d, _ in lifted]} "
                f"along axis {axis}")
        rest.append(wide.pop() if wide else 1)
    # one slice of the output per part, in order along axis
    cuts, lo = [], 0
    for s in shapes:
        cuts.append((slice(None),) * axis + (slice(lo, lo + s[axis]),))
        lo += s[axis]
    out = np.empty((*rest[:axis], lo, *rest[axis:]),
                   dtype=np.result_type(*(d for d, _ in lifted)))
    for (d, _), s, cut in zip(lifted, shapes, cuts):
        out[cut] = d.reshape(s)

    def backward_fn(g):
        for (d, t), cut in zip(lifted, cuts):
            if t is not None:
                T._accumulate(t, T._unbroadcast(g[cut], d.shape))

    return T._make(out, "concat", [t for _, t in lifted], backward_fn)


def fuse_semantic(f_g, table, p):
    stacked = concat([f_g, table], axis=-1)
    return T.add(T.matmul(stacked, p.weight), p.bias)


def region_score_aggregate(f_r, cls):
    scores = T.add(T.matmul(f_r, cls.weights), cls.bias)
    weights = T.softmax(scores, axis=-2)
    return T.sum_(T.mul(weights, scores), axis=-2)


def total_loss(l_cls, l_m, l_ot, w):
    return T.add(l_cls, T.add(T.mul(l_m, w.lambda1), T.mul(l_ot, w.lambda2)))


# the library functions each chain stands for, by module attribute
HEAD_STAGES = {
    ("sarl.representation", "self_attention"): self_attention,
    ("sarl.representation", "fuse_semantic"): fuse_semantic,
    ("sarl.transport", "bilinear_mass"): bilinear_mass,
    ("sarl.head", "region_score_aggregate"): region_score_aggregate,
    ("sarl.losses", "total_loss"): total_loss,
    ("sarl.representation", "encode"): encode,
}


def source_distribution(m, y):
    y = np.asarray(y)
    total = y.sum()
    if total <= 0:
        raise ValueError("source distribution needs at least one positive label")
    pooled = T.matmul(m, (y / total).reshape(-1, 1))
    return T.softmax(T.reshape(pooled, (m.shape[0],)), axis=0)


def sample_losses(logits, terms, labels, asl_cfg, weights):
    l_cls = losses.classification_loss(logits, labels, asl_cfg)
    if terms is None:
        zero = T.Tensor(np.zeros((), dtype=logits.dtype))
        return l_cls, l_cls, zero, zero
    l_m = losses.semantic_map_loss(terms.semantic_map, labels, asl_cfg)
    total = losses.total_loss(l_cls, l_m, terms.transport_cost, weights)
    return total, l_cls, l_m, terms.transport_cost


def transport_plans(mass, attention, theta, beta, co):
    total, fwd, bwd = transport_cost(mass, attention, theta, beta, co)
    return total, (T.Tensor(fwd), T.Tensor(bwd))


# the label-side library functions each chain stands for, by module attribute
LABEL_CHAINS = {
    ("sarl.transport", "ct_loss"): transport_plans,
    ("sarl.transport", "source_distribution"): source_distribution,
    ("sarl.head", "sample_losses"): sample_losses,
}


def adamw_step_by_parameter(params, grads, state, lr, weight_decay=0.0):
    """AdamW one parameter at a time; state is {"m": {}, "v": {}, "step": 0}
    with zero moments per name."""
    b1, b2 = Tr.ADAM_BETAS
    state["step"] += 1
    bias1 = 1.0 - b1 ** state["step"]
    bias2 = 1.0 - b2 ** state["step"]
    m, v = state["m"], state["v"]
    for name, p in params.items():
        g = grads[name]
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        m_hat = m[name] / bias1
        v_hat = v[name] / bias2
        update = m_hat / (np.sqrt(v_hat) + Tr.ADAM_EPS) + weight_decay * p.data
        p.data = (p.data - lr * update).astype(p.data.dtype, copy=False)


def first_non_finite_by_parameter(grads):
    """The first name, in dict order, whose gradient holds a non-finite
    value, or None."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            return name
    return None


def train_by_parameter(cfg, train_ds, test_ds):
    """sarl.training.train's loop with the per-parameter bookkeeping:
    returns the trained parameters, the per-epoch loss history and the
    test scores."""
    model = build_model(Tr.model_config(cfg), seed=cfg.seed, dtype=np.float32)
    params = model.parameters()
    state = {"m": {name: np.zeros_like(p.data) for name, p in params.items()},
             "v": {name: np.zeros_like(p.data) for name, p in params.items()},
             "step": 0}
    acfg, weights = Tr.asl_config(cfg), Tr.loss_weights(cfg)
    shuffle_rng = np.random.default_rng([cfg.seed, 0x5EED])
    labels = train_ds.labels.astype(np.float32)
    n = len(train_ds)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        sums = {"total": 0.0, "cls": 0.0, "map": 0.0, "ot": 0.0}
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            grad_sum = {name: np.zeros(p.data.shape, p.data.dtype)
                        for name, p in params.items()}
            for i in batch:
                with T.Tape() as tape:
                    out = forward(train_ds.payload[i], model)
                    terms = label_terms(out, labels[i], model)
                    losses = sample_losses(out.logits, terms, labels[i], acfg,
                                           weights)
                    tape.backward(losses[0])
                for name, p in params.items():
                    if p.grad is not None:
                        grad_sum[name] += p.grad
                for key, loss in zip(sums, losses):
                    sums[key] += loss.item()
            assert first_non_finite_by_parameter(grad_sum) is None
            grads = {name: g / len(batch) for name, g in grad_sum.items()}
            adamw_step_by_parameter(params, grads, state, cfg.lr,
                                    weight_decay=cfg.weight_decay)
        history.append({"epoch": epoch,
                        **{key: value / n for key, value in sums.items()}})
    _, preds = Tr.evaluate(model, test_ds)
    return ({name: p.data for name, p in params.items()}, history,
            preds.scores)
