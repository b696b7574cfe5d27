"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy arrays. Gradients are obtained by recording every
primitive operation on an explicit :class:`Tape` and replaying the records
in reverse order. With no tape active, ops are plain forward computations.

Float64 is the default dtype and is what all tests and numeric oracles
use; float32 is supported for faster training. Ops never write to an
input's ``.data``, and a tape's records keep references to it. The
optimizer (:func:`sarl.training.adamw_step`) does update the parameters
in place: their ``.data`` are views of one flat buffer that it rewrites
once per step. That is safe because no tape outlives its step, and the
update runs only after every backward of the batch has finished.

Training records 13 ops per sample at the default shape, on arrays of
a few dozen entries, so a call's cost is its Python dispatch, not its
arithmetic. That is why the conv encoder, each stage of the head, the
source distribution, both transport plans with their cost and the
sample's whole loss are each one fused op that computes the chain of
primitives it stands for, in the same order. The ops share one softmax
(``_softmax``, ``_softmax_back``) and one shared-weight product
(``_rows_times``, ``_rows_times_back``).
At larger shapes the attention's (H, P, P) arrays set the cost, so it
runs on blocks of heads whose (P, P) arrays hold at most
``BLOCK_ELEMENTS`` entries, a size that stays in a core's L2 cache,
with the same float operations on every entry; the default shape's
heads form one block.
On the tape path, call only C-level numpy: ufuncs, array methods,
``np.zeros``/``np.empty`` and indexing. A Python-level helper
(``np.clip``, ``np.expand_dims``, ``np.broadcast_to``,
``np.take_along_axis``, ``np.zeros_like``, ``ndarray.mean``, ...) costs
several µs on a 4x32 array, more than the arithmetic it wraps. The
``.sum()``/``.max()`` methods stay: their shims cost little.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DimensionError",
    "Tensor",
    "Tape",
    "add",
    "sub",
    "mul",
    "matmul",
    "reshape",
    "unstack",
    "stack",
    "sigmoid",
    "pow_const",
    "softmax",
    "matvec_softmax",
    "attention",
    "bilinear_scores",
    "softmax_pool",
    "concat_linear",
    "asymmetric_loss",
    "asl_objective",
    "cosine_cost",
    "transport_cost",
    "sum_",
    "mean",
    "max_reduce",
    "conv_output_size",
    "conv_encoder",
]


# the dtypes a Tensor keeps; any other is cast to float64
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
# attention's budget, in entries, for the (P, P) arrays of one block of
# heads: 256 KB in float32, so that a block's passes stay in a core's L2.
# At 121 patches 2^16 beat 2^15 and 2^17 (one block there, and 1.6x
# slower); at 256 patches 2^17 was about as fast
BLOCK_ELEMENTS = 2 ** 16


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class Tensor:
    """Dense n-dimensional real array, optionally recorded on a tape.

    ``data`` is the value, ``grad`` the same-shape gradient buffer filled
    by :meth:`Tape.backward`, and ``op`` the name of the primitive that
    produced this tensor (``None`` for leaves).
    """

    __slots__ = ("data", "grad", "op")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.op = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of primitive ops for reverse-mode replay.

    Records are appended in creation order, so parents always precede the
    ops that consume them and a single reversed pass distributes gradients
    to every recorded node. A tape is single-owner: enter it as a context
    manager around the forward pass, then call :meth:`backward`.
    """

    def __init__(self):
        self._records = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def __len__(self):
        return len(self._records)

    def record(self, out, parents, backward_fn):
        self._records.append((out, parents, backward_fn))

    def tensors(self):
        """All tensors recorded on this tape, in creation order."""
        for out, _, _ in self._records:
            yield out

    def backward(self, loss: Tensor):
        """Fill ``grad`` with d(loss)/d(node) for every node on the tape."""
        if not isinstance(loss, Tensor) or loss.data.shape != ():
            raise ValueError("backward expects a scalar loss tensor")
        recorded = False
        for out, parents, _ in self._records:
            recorded = recorded or out is loss
            out.grad = None
            for p in parents:
                p.grad = None
        if not recorded:
            raise ValueError("loss was not recorded on this tape")
        loss.grad = np.array(1.0, dtype=loss.data.dtype)
        for out, _, backward_fn in reversed(self._records):
            if out.grad is None:
                continue
            backward_fn(out.grad)


def _lift(x):
    """Split an operand into (value, Tensor-or-None).

    Python scalars stay scalars so they never upcast float32 operands.
    """
    if isinstance(x, Tensor):
        return x.data, x
    if isinstance(x, (bool, int, float)):
        return x, None
    return np.asarray(x), None


def _accumulate(t: Tensor, g):
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    """Sum a gradient back down to the pre-broadcast shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if squeezed:
        g = g.sum(axis=squeezed, keepdims=True)
    return g.reshape(shape)


def _spread(g, kept, shape):
    """g, the gradient of a reduction whose keepdims shape is ``kept``,
    copied along the reduced axes into a new buffer of ``shape``."""
    out = np.empty(shape, g.dtype)
    out[...] = g.reshape(kept)
    return out


def _make(data, op, parents, backward_fn):
    out = Tensor(data)
    out.op = op
    live = [p for p in parents if p is not None]
    if live and _TAPES:
        _TAPES[-1].record(out, tuple(live), backward_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules apply)

def add(a, b):
    ad, at = _lift(a)
    bd, bt = _lift(b)

    def backward_fn(g):
        if at is not None:
            _accumulate(at, _unbroadcast(g, ad.shape))
        if bt is not None:
            _accumulate(bt, _unbroadcast(g, bd.shape))

    return _make(ad + bd, "add", (at, bt), backward_fn)


def sub(a, b):
    ad, at = _lift(a)
    bd, bt = _lift(b)

    def backward_fn(g):
        if at is not None:
            _accumulate(at, _unbroadcast(g, ad.shape))
        if bt is not None:
            _accumulate(bt, _unbroadcast(-g, bd.shape))

    return _make(ad - bd, "sub", (at, bt), backward_fn)


def mul(a, b):
    ad, at = _lift(a)
    bd, bt = _lift(b)

    def backward_fn(g):
        if at is not None:
            _accumulate(at, _unbroadcast(g * bd, ad.shape))
        if bt is not None:
            _accumulate(bt, _unbroadcast(g * ad, bd.shape))

    return _make(ad * bd, "mul", (at, bt), backward_fn)


# ---------------------------------------------------------------------------
# linear algebra and shape ops

def matmul(a, b):
    """(..., m, k) x (k, n) or (..., m, k) x (..., k, n) -> (..., m, n).

    A 2-D right operand is shared by every leading index, so the product
    is one record of one 2-D product over all rows; otherwise the
    leading axes must be equal and each index multiplies its own pair.
    """
    ad, at = _lift(a)
    bd, bt = _lift(b)
    if (ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]
            or bd.ndim > 2 and bd.shape[:-2] != ad.shape[:-2]):
        raise DimensionError(f"matmul needs (...,m,k)x(k,n) or "
                             f"(...,m,k)x(...,k,n), got {ad.shape} x {bd.shape}")
    if bd.ndim < ad.ndim:
        return _make(_rows_times(ad, bd), "matmul", (at, bt),
                     lambda g: _rows_times_back(g, ad, at, bd, bt))

    stacked = ad.ndim > 2

    def backward_fn(g):
        if at is not None:
            _accumulate(at, g @ (bd.swapaxes(-1, -2) if stacked else bd.T))
        if bt is not None:
            _accumulate(bt, (ad.swapaxes(-1, -2) if stacked else ad.T) @ g)

    return _make(ad @ bd, "matmul", (at, bt), backward_fn)


def reshape(a, shape):
    ad, at = _lift(a)

    def backward_fn(g):
        _accumulate(at, g.reshape(ad.shape))

    return _make(ad.reshape(shape).copy(), "reshape", (at,), backward_fn)


def unstack(a):
    """The slices a[0], a[1], ... along the first axis, one record each."""
    ad, at = _lift(a)

    def part(i):
        def backward_fn(g):
            whole = np.zeros(ad.shape, ad.dtype)
            whole[i] = g
            _accumulate(at, whole)

        return _make(ad[i], "unstack", (at,), backward_fn)

    return [part(i) for i in range(ad.shape[0])]


def stack(parts):
    """Equal-shape parts joined along a new first axis."""
    lifted = [_lift(p) for p in parts]

    def backward_fn(g):
        for piece, (_, t) in zip(g, lifted):
            if t is not None:
                _accumulate(t, piece)

    return _make(np.stack([d for d, _ in lifted]), "stack",
                 [t for _, t in lifted], backward_fn)


# ---------------------------------------------------------------------------
# pointwise nonlinearities

def sigmoid(a):
    ad, at = _lift(a)
    out_data = 1.0 / (1.0 + np.exp(-ad))

    def backward_fn(g):
        _accumulate(at, g * out_data * (1.0 - out_data))

    return _make(out_data, "sigmoid", (at,), backward_fn)


def pow_const(a, exponent):
    """Elementwise power with a constant exponent."""
    ad, at = _lift(a)
    e = float(exponent)

    def backward_fn(g):
        if e != 0.0:
            _accumulate(at, g * _pow_slope(ad, e))

    return _make(ad ** e, "pow", (at,), backward_fn)


def _pow_slope(x, e):
    """d(x ** e)/dx for a constant e != 0; subgradient 0 at x == 0 keeps
    fractional powers finite."""
    if e == 1.0:
        return 1.0
    if e < 1.0:
        safe = np.where(x == 0.0, 1.0, x)
        return np.where(x == 0.0, 0.0, e * safe ** (e - 1.0))
    # x ** 1.0 == x, so a square's slope skips the power
    return e * (x if e == 2.0 else x ** (e - 1.0))


# ---------------------------------------------------------------------------
# softmax and reductions

def _softmax(x, axis):
    """softmax(x) along ``axis``, in a new buffer."""
    s = x - x.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return s


def _softmax_back(g, s, axis):
    """Upstream g through s = softmax(x) along ``axis``: (g - sum(g s)) s."""
    d = g - (g * s).sum(axis=axis, keepdims=True)
    d *= s
    return d


def softmax(a, axis):
    """Numerically stable softmax: each slice along ``axis`` sums to 1."""
    ad, at = _lift(a)
    out_data = _softmax(ad, axis)

    def backward_fn(g):
        _accumulate(at, _softmax_back(g, out_data, axis))

    return _make(out_data, "softmax", (at,), backward_fn)


def matvec_softmax(a, v):
    """softmax(a @ v) over the rows of a (P, k) and a constant vector v
    (k,). One tape record that computes the chain it stands for (product
    with v as a column, reshape, softmax) in the same order."""
    ad, at = _lift(a)
    col = np.asarray(v).reshape(-1, 1)
    if ad.ndim != 2 or col.shape[0] != ad.shape[1]:
        raise DimensionError(f"matvec_softmax needs (P,k) and (k,), got "
                             f"{ad.shape}, {np.shape(v)}")
    out_data = _softmax((ad @ col).reshape(ad.shape[0]), 0)

    def backward_fn(g):
        _accumulate(at, _softmax_back(g, out_data, 0).reshape(-1, 1) @ col.T)

    return _make(out_data, "matvec_softmax", (at,), backward_fn)


def _rows(a):
    """a's rows as one 2-D array: a itself when it is 2-D, so skipping
    the reshapes, which cost as much as a product at 4x32."""
    return a if a.ndim == 2 else a.reshape(-1, a.shape[-1])


def _rows_times(xd, wd):
    """x's rows times w, (..., k) x (k, n) -> (..., n): one 2-D product
    over every row, as :func:`matmul` computes it."""
    out = _rows(xd) @ wd
    return out if xd.ndim == 2 else out.reshape(xd.shape[:-1] + wd.shape[1:])


def _rows_times_back(g, xd, xt, wd, wt):
    """:func:`matmul`'s backward for ``_rows_times(xd, wd)``: x's
    gradient, then w's."""
    g2 = _rows(g)
    if xt is not None:
        gx = g2 @ wd.T
        _accumulate(xt, gx if xd.ndim == 2 else gx.reshape(xd.shape))
    if wt is not None:
        _accumulate(wt, _rows(xd).T @ g2)


def _by_head_blocks(block, step, *arrays):
    """block(*arrays) on ``step`` heads at a time, every array's head
    axis being its third last: one call on the whole arrays if they hold
    no more heads than that."""
    n_heads = arrays[0].shape[-3]
    if step >= n_heads:
        return block(*arrays)
    for h in range(0, n_heads, step):
        b = slice(h, h + step)
        block(*[a[..., b, :, :] for a in arrays])


def _attention_forward(kh, qh, v1, ov, et=None):
    """exp(K Q^T minus its max over keys), keys-major, into et if given,
    and its product with [V, 1] into ov."""
    # in place on buffers this op owns: et is (..., H, P_keys, P_queries)
    et = np.matmul(kh, qh.swapaxes(-1, -2), et)
    et -= et.max(axis=-2, keepdims=True)
    np.exp(et, out=et)
    np.matmul(et.swapaxes(-1, -2), v1, ov)
    return et


def _attention_backward(et, go, go1, v1, kh, qh, gv, gk, gq):
    """V's, K's and Q's gradients per head, Q's before the 1/sqrt(d),
    into gv, gk and gq."""
    np.matmul(et, go, gv)
    # dP^T = [V, 1] [dO, -rowsum(dO * O)]^T, one product of depth d + 1
    dpt = v1 @ go1.swapaxes(-1, -2)
    dpt *= et
    np.matmul(dpt, qh, gk)
    np.matmul(dpt.swapaxes(-1, -2), kh, gq)


def attention(x, w_q, w_k, w_v, n_heads):
    """Multi-head scaled dot-product self-attention over the rows of x.

    x is (..., P, d_in): each leading index, one sample of a stack,
    attends over its own P rows. The projections Q = x W_q, K = x W_k
    and V = x W_v take (d_in, d_v) weights. Head h owns columns h*d to
    (h+1)*d with d = d_v / n_heads and computes softmax(Q_h K_h^T /
    sqrt(d)) V_h. The (..., P, d_v) result holds the heads side by side.
    One tape record: the backward uses rowsum(dA * A) = rowsum(dO * O)
    (FlashAttention), so the only (..., H, P, P) array kept is the
    unnormalised exp(logits). x's gradient sums its three projections'
    contributions in the order V, K, Q.

    That array is keys-major, (..., H, P_keys, P_queries), so the
    softmax's max over keys runs across rows, combining whole contiguous
    rows elementwise, which numpy does faster than a reduction along
    each row. One product with [V, 1] gives O's numerator and, in its
    last column, the softmax's sums over keys, one pass fewer over the
    (..., H, P, P) array. The ones column adds the keys in the order a
    sum over the rows does, so the op gives the bits of its chain of
    primitives only while the BLAS adds every key in one pass: OpenBLAS
    as numpy bundles it did so up to 448 keys in float32 and 447 in
    float64. Past that it adds by blocks, which rounds differently, and
    the op matches the chain within rounding (at 529 keys in float64,
    value and gradients within 1e-12). The backward gets dP^T, its
    rowsum(dO * O) term included, from one product of the same [V, 1]
    and [dO, -rowsum(dO * O)]. These (d + 1)-wide arrays are laid out
    (..., P, H, d + 1), and the products write the head gradients into
    (..., P, d_v) arrays, so no head is copied back into place.

    Both passes run on one block of heads at a time, every sample of a
    stack in each block, so that a block's (P, P) arrays hold at most
    BLOCK_ELEMENTS entries (or one head's, if more) and its passes over
    them stay in cache (FlashAttention's tiling, by whole heads). The
    backward's dP^T is then one block's, small enough that the allocator
    reuses its memory rather than mapping fresh pages each call. Each
    entry sees the same float operations whatever the blocks. At the
    default shape all heads form one block, and the op runs on the
    whole arrays.
    """
    xd, xt = _lift(x)
    qw, qwt = _lift(w_q)
    kw, kwt = _lift(w_k)
    vw, vwt = _lift(w_v)
    if (xd.ndim < 2 or qw.ndim != 2 or qw.shape[0] != xd.shape[-1]
            or kw.shape != qw.shape or vw.shape != qw.shape):
        raise DimensionError(
            f"attention needs (...,P,d_in) x and equal (d_in,d_v) weights, "
            f"got {xd.shape}, {qw.shape}, {kw.shape}, {vw.shape}")
    lead, num_p = xd.shape[:-2], xd.shape[-2]
    d_v = qw.shape[1]
    if n_heads < 1 or d_v % n_heads:
        raise DimensionError(f"n_heads={n_heads} must be >= 1 and divide d_v={d_v}")
    d = d_v // n_heads
    scale = 1.0 / math.sqrt(d)
    # heads per block, at least one (an empty x makes one block)
    step = BLOCK_ELEMENTS // (math.prod(lead) * num_p * num_p or 1) or 1
    by_head = lead + (num_p, n_heads, d)  # (..., P, d_v) split by head

    def heads(a):  # (..., P, d_v) -> (..., H, P, d) view
        return a.reshape(by_head).swapaxes(-2, -3)

    rows = _rows(xd)
    qh, kh, v = heads(rows @ qw * scale), heads(rows @ kw), rows @ vw
    # [V, 1], and its product with exp(logits), [O's numerator, s], by
    # (patch, head): O divides out in the result's layout
    v1 = np.empty(lead + (num_p, n_heads, d + 1), v.dtype)
    v1[..., :d] = v.reshape(by_head)
    v1[..., d] = 1.0
    v1h, ov = v1.swapaxes(-2, -3), np.empty(v1.shape, v.dtype)
    if step >= n_heads:  # one block: matmul allocates et
        et = _attention_forward(kh, qh, v1h, ov.swapaxes(-2, -3))
    else:
        et = np.empty(lead + (n_heads, num_p, num_p), v.dtype)
        _by_head_blocks(_attention_forward, step, kh, qh, v1h,
                        ov.swapaxes(-2, -3), et)
    s = ov[..., d:]
    o = ov[..., :d] / s

    def backward_fn(g):
        go1 = np.empty(ov.shape, g.dtype)
        go = go1[..., :-1]
        np.divide(g.reshape(by_head), s, go)
        go1[..., -1] = -(go * o).sum(axis=-1)
        # V's, K's and Q's gradients, filled per head
        gv, gk, gq = grads = np.empty((3,) + g.shape, g.dtype)
        blocks = (et, go.swapaxes(-2, -3), go1.swapaxes(-2, -3), v1h, kh, qh,
                  *grads.reshape((3,) + by_head).swapaxes(-2, -3))
        _by_head_blocks(_attention_backward, step, *blocks)
        gq *= scale
        _rows_times_back(gv, xd, xt, vw, vwt)
        _rows_times_back(gk, xd, xt, kw, kwt)
        _rows_times_back(gq, xd, xt, qw, qwt)

    return _make(o.reshape(lead + (num_p, d_v)), "attention",
                 (xt, qwt, kwt, vwt), backward_fn)


def bilinear_scores(f, s, u, v, mix, score):
    """Score every (row of f, row of s) pair:
    A[p, c] = tanh((f_p u) * (s_c v)) (mix score).

    f is (..., P, d), s is (..., C, d) with the same leading axes; u and
    v are (d, d1), mix (d1, d2) and score (d2, 1). The result is
    (..., P, C), each leading index pairing only its own rows. One tape
    record that keeps only the (..., P, C, d1) tanh; the backward reaches
    the weights of the score, then s's projection, then f's.
    """
    fd, ft = _lift(f)
    sd, st = _lift(s)
    ud, ut = _lift(u)
    vd, vt = _lift(v)
    md, mt = _lift(mix)
    cd, ct = _lift(score)
    if (fd.ndim < 2 or sd.ndim != fd.ndim or sd.shape[:-2] != fd.shape[:-2]
            or sd.shape[-1] != fd.shape[-1] or ud.ndim != 2
            or ud.shape[0] != fd.shape[-1] or vd.shape != ud.shape
            or md.ndim != 2 or md.shape[0] != ud.shape[1]
            or cd.shape != (md.shape[1], 1)):
        raise DimensionError(
            f"bilinear_scores needs (...,P,d), (...,C,d), (d,d1), (d,d1), "
            f"(d1,d2), (d2,1), got {fd.shape}, {sd.shape}, {ud.shape}, "
            f"{vd.shape}, {md.shape}, {cd.shape}")
    fu, sv, wd = _rows_times(fd, ud), _rows_times(sd, vd), md @ cd
    # in place on a buffer this op owns: t is (..., P, C, d1)
    t = fu[..., :, None, :] * sv[..., None, :, :]
    np.tanh(t, out=t)
    flat = t.reshape(-1, t.shape[-1])

    def backward_fn(g):
        gw = flat.T @ g.reshape(-1, 1)
        dp = t * t
        np.subtract(1.0, dp, out=dp)
        dp *= g[..., None]
        dp *= wd[:, 0]
        if mt is not None:
            _accumulate(mt, gw @ cd.T)
        if ct is not None:
            _accumulate(ct, md.T @ gw)
        if st is not None or vt is not None:
            _rows_times_back(np.einsum("...pcd,...pd->...cd", dp, fu),
                             sd, st, vd, vt)
        if ft is not None or ut is not None:
            _rows_times_back(np.einsum("...pcd,...cd->...pd", dp, sv),
                             fd, ft, ud, ut)

    return _make((flat @ wd).reshape(t.shape[:-1]), "bilinear_scores",
                 (ft, st, ut, vt, mt, ct), backward_fn)


def softmax_pool(x, weight, bias):
    """Pool each sample's rows into one row of scores, every row weighted
    by its own softmax over the rows.

    x is (..., P, d), weight (d, C) and bias (C,). With row scores
    s = x weight + bias, (..., P, C), the result is
    z[c] = sum_p softmax_p(s)[p, c] * s[p, c], shaped (..., C). One tape
    record that computes the chain it stands for (product, bias,
    softmax over the rows, product, sum) in the same order.
    """
    xd, xt = _lift(x)
    wd, wt = _lift(weight)
    bd, bt = _lift(bias)
    if (xd.ndim < 2 or wd.ndim != 2 or wd.shape[0] != xd.shape[-1]
            or bd.shape != wd.shape[1:]):
        raise DimensionError(f"softmax_pool needs (...,P,d), (d,C), (C,), got "
                             f"{xd.shape}, {wd.shape}, {bd.shape}")
    scores = _rows_times(xd, wd) + bd
    soft = _softmax(scores, -2)
    kept = (soft * scores).sum(axis=-2, keepdims=True)

    def backward_fn(g):
        gp = _spread(g, kept.shape, scores.shape)
        gs = gp * soft
        gs += _softmax_back(gp * scores, soft, -2)
        if bt is not None:
            _accumulate(bt, _unbroadcast(gs, bd.shape))
        _rows_times_back(gs, xd, xt, wd, wt)

    return _make(kept.squeeze(-2), "softmax_pool", (xt, wt, bt), backward_fn)


def concat_linear(a, table, weight, bias):
    """An affine map of every table row with a's row prepended: row c of
    the result is concat(a, table_c) weight + bias.

    a is (..., 1, d_a), one row per sample shared by every row of the
    (C, d_t) table; weight is (d_a + d_t, n) and bias (n,), so the result
    is (..., C, n). One tape record that computes the chain it stands for
    (concat, product, bias) in the same order.
    """
    ad, at = _lift(a)
    td, tt = _lift(table)
    wd, wt = _lift(weight)
    bd, bt = _lift(bias)
    if (ad.ndim < 2 or ad.shape[-2] != 1 or td.ndim != 2
            or wd.ndim != 2 or wd.shape[0] != ad.shape[-1] + td.shape[1]
            or bd.shape != wd.shape[1:]):
        raise DimensionError(f"concat_linear needs (...,1,d_a), (C,d_t), "
                             f"(d_a+d_t,n), (n,), got {ad.shape}, "
                             f"{td.shape}, {wd.shape}, {bd.shape}")
    d_a = ad.shape[-1]
    joined = np.empty((*ad.shape[:-2], td.shape[0], wd.shape[0]),
                      np.promote_types(ad.dtype, td.dtype))
    joined[..., :d_a] = ad
    joined[..., d_a:] = td

    def backward_fn(g):
        if bt is not None:
            _accumulate(bt, _unbroadcast(g, bd.shape))
        g2 = _rows(g)
        if wt is not None:
            _accumulate(wt, _rows(joined).T @ g2)
        if at is not None or tt is not None:
            gj = (g2 @ wd.T).reshape(joined.shape)
            if at is not None:
                _accumulate(at, _unbroadcast(gj[..., :d_a], ad.shape))
            if tt is not None:
                _accumulate(tt, _unbroadcast(gj[..., d_a:], td.shape))

    return _make(_rows_times(joined, wd) + bd, "concat_linear",
                 (at, tt, wt, bt), backward_fn)


def sum_(a, axis=None):
    ad, at = _lift(a)
    kept = ad.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        _accumulate(at, _spread(g, kept.shape, ad.shape))

    return _make(kept.squeeze(axis), "sum", (at,), backward_fn)


def mean(a, axis=None, keepdims=False):
    """Mean along ``axis`` (of every entry when None) as sum / n: the
    ufunc calls ``ndarray.mean`` makes, so the same bits."""
    ad, at = _lift(a)
    n = ad.size if axis is None else ad.shape[axis]
    kept = ad.sum(axis=axis, keepdims=True) / n

    def backward_fn(g):
        _accumulate(at, _spread(g / n, kept.shape, ad.shape))

    return _make(kept if keepdims else kept.squeeze(axis), "mean", (at,),
                 backward_fn)


def _to_first_argmax(g, ad, axis):
    """The gradient of ad's max along ``axis`` for upstream g: g at the
    first argmax and exact zeros elsewhere, copied through a one-hot,
    never multiplied by it (0 * inf is NaN)."""
    idx = ad.argmax(axis=axis, keepdims=True)
    n = ad.shape[axis]
    first = idx == np.arange(n).reshape((n,) + (1,) * (ad.ndim - 1 - axis))
    gz = np.zeros(ad.shape, g.dtype)
    np.copyto(gz, g.reshape(idx.shape), where=first)
    return gz


def max_reduce(a, axis):
    """Max along an axis; gradient routes to the first argmax on ties."""
    ad, at = _lift(a)
    axis %= ad.ndim

    def backward_fn(g):
        _accumulate(at, _to_first_argmax(g, ad, axis))

    return _make(ad.max(axis=axis), "max", (at,), backward_fn)


# ---------------------------------------------------------------------------
# fused label-side ops: the training losses and the transport terms, one
# tape record each with a closed-form backward

def _asl_terms(pd, yd, gamma_pos, gamma_neg, clip, floor):
    """The asymmetric loss of every entry of probabilities pd against
    labels yd, before the sign and the mean, and ``back``: given w, each
    entry's weight in the loss (-g / n for a mean over n entries), the
    gradient with respect to pd. pd may hold several rows against one
    row of labels, and w one weight per row: every entry goes through the
    same numpy calls either way."""
    gamma_pos, gamma_neg = float(gamma_pos), float(gamma_neg)
    pc = np.minimum(np.maximum(pd, floor), 1.0 - floor)
    log_p = np.log(pc)
    shifted = pc - clip
    pm = np.minimum(np.maximum(shifted, 0.0), 1.0)
    qm = 1.0 - pm
    log_qm = np.log(qm)
    # a power 0 is 1 everywhere and x * 1.0 == x, so the default
    # gamma_pos 0 skips its power and their product
    pos = log_p
    if gamma_pos != 0.0:
        q = 1.0 - pc
        focus_pos = q ** gamma_pos
        pos = focus_pos * log_p
    focus_neg = pm ** gamma_neg
    neg = focus_neg * log_qm
    y_neg = 1.0 - yd
    per = pos * yd + neg * y_neg

    def back(w):
        d_pos, d_neg = w * yd, w * y_neg
        if gamma_pos != 0.0:
            dpc = d_pos * focus_pos / pc
            dpc -= d_pos * log_p * _pow_slope(q, gamma_pos)
        else:
            dpc = d_pos / pc
        dpm = -(d_neg * focus_neg / qm)
        if gamma_neg != 0.0:
            dpm += d_neg * log_qm * _pow_slope(pm, gamma_neg)
        # a clamp passes gradient where it leaves its input as it is:
        # inside its range or on an edge, never at NaN
        dpc += dpm * (pm == shifted)
        return dpc * (pc == pd)

    return per, back


def asymmetric_loss(p, y, gamma_pos, gamma_neg, clip, floor):
    """Mean asymmetric loss (Ridnik et al., ICCV 2021) over probabilities p.

    p is clamped to [floor, 1 - floor] and p_m = clamp(p - clip, 0, 1).
    A positive label (y = 1) scores -(1 - p)^gamma_pos log p, a negative
    one -(p_m)^gamma_neg log(1 - p_m); y weighs the two, and the result
    is the mean over every entry. One tape record: both clamps pass
    gradient where p lies inside them or on an edge, and the powers
    follow :func:`pow_const` (no gradient for exponent 0, subgradient 0
    at p_m == 0 for a fractional one).
    """
    pd, pt = _lift(p)
    yd = np.asarray(y, dtype=pd.dtype)
    if yd.shape != pd.shape:
        raise DimensionError(f"asymmetric_loss needs labels shaped like p, "
                             f"got {yd.shape} for {pd.shape}")
    per, back = _asl_terms(pd, yd, gamma_pos, gamma_neg, clip, floor)

    def backward_fn(g):
        _accumulate(pt, back(-g / pd.size))

    return _make(-(per.sum() / per.size), "asymmetric_loss", (pt,), backward_fn)


def asl_objective(z, m, cost, y, gamma_pos, gamma_neg, clip, floor,
                  w_map, w_cost):
    """One training sample's loss from its logits z (C,), its semantic
    map m (P, C) and its transport cost (a scalar):
    asl(sigmoid(z)) + (asl(sigmoid(max_p m)) * w_map + cost * w_cost),
    each asl the mean :func:`asymmetric_loss` against labels y (C,).

    Returns the loss and, off the tape, the (2,) array of the two
    asymmetric losses, classification first. One tape record that
    computes the chain it stands for (max over the patches, two sigmoids,
    two losses, weighted sum) in the same order, with the two losses as
    the rows of one (2, C) array; the max passes gradient to the first
    argmax.
    """
    zd, zt = _lift(z)
    md, mt = _lift(m)
    cd, ct = _lift(cost)
    yd = np.asarray(y, dtype=zd.dtype)
    if (zd.ndim != 1 or md.ndim != 2 or md.shape[1:] != zd.shape
            or yd.shape != zd.shape or getattr(cd, "shape", ()) != ()):
        raise DimensionError(f"asl_objective needs (C,) logits, a (P,C) map, "
                             f"a scalar cost and (C,) labels, got {zd.shape}, "
                             f"{md.shape}, {getattr(cd, 'shape', ())}, "
                             f"{yd.shape}")
    num_c = zd.shape[0]
    # in place on a buffer this op owns: rows sigmoid(z), sigmoid(max_p m)
    sig = np.empty((2, num_c), np.promote_types(zd.dtype, md.dtype))
    sig[0] = zd
    md.max(axis=0, out=sig[1])
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    per, back = _asl_terms(sig, yd, gamma_pos, gamma_neg, clip, floor)
    terms = -(per.sum(axis=1) / num_c)

    def backward_fn(g):
        if ct is not None:
            _accumulate(ct, (g * w_cost).reshape(cd.shape))
        w = np.empty((2, 1), g.dtype)
        w[0] = g
        w[1] = g * w_map
        gs = back(-w / num_c) * sig * (1.0 - sig)
        if mt is not None:
            _accumulate(mt, _to_first_argmax(gs[1], md, 0))
        if zt is not None:
            _accumulate(zt, gs[0])

    total = terms[0] + (terms[1] * w_map + cd * w_cost)
    return _make(total, "asl_objective", (zt, mt, ct), backward_fn), terms


def cosine_cost(f, s, eps):
    """Cosine distance of every row of f (P, d) to every row of s (C, d).

    co[p, c] = 1 - <f_p, s_c> / ((|f_p| + eps)(|s_c| + eps)). One tape
    record. A zero row has no direction: it costs exactly 1 against
    every row and the cost passes it no gradient (likewise for a zero
    row of s).
    """
    fd, ft = _lift(f)
    sd, st = _lift(s)
    if fd.ndim != 2 or sd.ndim != 2 or fd.shape[1] != sd.shape[1]:
        raise DimensionError(f"cosine_cost needs (P,d) and (C,d) rows, got "
                             f"{fd.shape}, {sd.shape}")
    sim = fd @ sd.T
    fn = np.sqrt((fd * fd).sum(axis=1))
    sn = np.sqrt((sd * sd).sum(axis=1))
    # fe as a column: the denominator and s's backward take it as it is
    fe, se = (fn + eps)[:, None], sn + eps
    denom = fe * se

    def norm_grad(rows, norms, any_zero, d_norm):
        # d|x|/dx = x / |x|, taken as 0 for a zero row
        if any_zero:
            d_norm = np.divide(d_norm, norms, where=norms != 0.0,
                               out=np.zeros(norms.shape, norms.dtype))
        else:
            d_norm = d_norm / norms
        return d_norm[:, None] * rows

    def backward_fn(g):
        # `in` tests for a zero row in C; most samples have none
        f_zero, s_zero = 0.0 in fn, 0.0 in sn
        d_sim = -g / denom
        if f_zero or s_zero:
            # no gradient through a zero row's cosine; its norm term is 0 too
            np.copyto(d_sim, 0.0, where=(fn == 0.0)[:, None] | (sn == 0.0))
        d_den = g * sim / (denom * denom)
        if ft is not None:
            _accumulate(ft, norm_grad(fd, fn, f_zero, (d_den * se).sum(axis=1))
                        + d_sim @ sd)
        if st is not None:
            _accumulate(st, norm_grad(sd, sn, s_zero, (d_den * fe).sum(axis=0))
                        + d_sim.T @ fd)

    return _make(1.0 - sim / denom, "cosine_cost", (ft, st), backward_fn)


def transport_cost(mass, soft, theta, beta, cost):
    """One sample's two transport plans and their transported cost.

    mass is the (P, C) scores and soft their softmax along each row,
    which the caller already holds; theta (P,) and beta (C,) are the
    marginals and cost is (P, C). The forward plan is theta_p soft[p, c],
    the backward plan beta_c softmax_p(mass)[p, c], and the result is
    sum(fwd * cost) + sum(bwd * cost). Returns the result and, off the
    tape, the two plans. One tape record that computes the chain it
    stands for (each plan's softmax times its marginal, the plans'
    cost) in the same order; soft is a value, and mass's gradient
    through the forward plan is the softmax's closed form on it.
    """
    ad, at = _lift(mass)
    soft_f = _lift(soft)[0]
    td, tt = _lift(theta)
    bd, bt = _lift(beta)
    cd, ct = _lift(cost)
    if (ad.ndim != 2 or soft_f.shape != ad.shape or cd.shape != ad.shape
            or td.shape != ad.shape[:1] or bd.shape != ad.shape[1:]):
        raise DimensionError(f"transport_cost needs (P,C) mass, softmax and "
                             f"cost, (P,) theta and (C,) beta, got {ad.shape}, "
                             f"{soft_f.shape}, {cd.shape}, {td.shape}, "
                             f"{bd.shape}")
    num_p, num_c = ad.shape
    theta_col = td.reshape(num_p, 1)
    fwd = theta_col * soft_f
    soft_b = _softmax(ad, 0)
    beta_row = bd.reshape(1, num_c)
    bwd = beta_row * soft_b

    def backward_fn(g):
        gp = g * cd  # either plan's gradient
        if ct is not None:
            _accumulate(ct, g * bwd + g * fwd)
        if bt is not None:
            _accumulate(bt, (gp * soft_b).sum(axis=0))
        if at is not None:
            _accumulate(at, _softmax_back(gp * beta_row, soft_b, 0))
        if tt is not None:
            _accumulate(tt, (gp * soft_f).sum(axis=1))
        if at is not None:
            _accumulate(at, _softmax_back(gp * theta_col, soft_f, 1))

    total = (fwd * cd).sum() + (bwd * cd).sum()
    return (_make(total, "transport_cost", (at, tt, bt, ct), backward_fn),
            fwd, bwd)


# ---------------------------------------------------------------------------
# convolution

# the encoder's one convolution geometry: 3x3 windows, stride 2, zero padding 1
CONV_KERNEL, CONV_STRIDE, CONV_PADDING = 3, 2, 1


def conv_output_size(n):
    """Length of one convolution output axis for an input axis of length n."""
    return (n + 2 * CONV_PADDING - CONV_KERNEL) // CONV_STRIDE + 1


def conv_encoder(image, kernels, biases):
    """The conv encoder over (..., H, W, Cin) images: one convolution with
    the CONV_* geometry per (kernel, bias) pair, a ReLU between blocks,
    and the last block's (..., Hout, Wout, Cout) output as
    (..., Hout * Wout, Cout) rows, one image per leading index.

    Kernel i is flattened to (CONV_KERNEL**2 * c_in, c_out) with rows in
    (dy, dx, channel) order and bias i is (c_out,). One tape record that
    makes the float operations of the chain it stands for (conv, ReLU,
    ..., conv, reshape) in the same order, so the same bits. Each block
    keeps its zero-padded input, which the ReLU before it writes, and its
    window columns.
    """
    xd, xt = _lift(image)
    blocks = [(_lift(k), _lift(b)) for k, b in zip(kernels, biases)]
    if xd.ndim < 3 or not blocks or len(kernels) != len(biases):
        raise DimensionError(
            f"conv_encoder expects (..., H, W, C) images and as many biases "
            f"as kernels, at least one, got shape {xd.shape}, "
            f"{len(kernels)} kernels, {len(biases)} biases")
    ks, stride, pad = CONV_KERNEL, CONV_STRIDE, CONV_PADDING
    lead = xd.shape[:-3]
    h, w, cin = xd.shape[-3:]
    if conv_output_size(h) < 1 or conv_output_size(w) < 1:
        raise DimensionError(f"image {xd.shape} too small for kernel {ks}")
    # with no tape, nothing reads a block's buffers once the next block
    # has them, so evaluate's chunks hold one block's at a time
    kept, keep = [], bool(_TAPES)
    for i, ((kd, kt), (bd, bt)) in enumerate(blocks):
        if kd.shape[0] != ks * ks * cin:
            raise DimensionError(
                f"kernel {i} has {kd.shape[0]} rows, expected {ks * ks * cin}")
        hout, wout = conv_output_size(h), conv_output_size(w)
        xp = np.zeros(lead + (h + 2 * pad, w + 2 * pad, cin),
                      xd.dtype if i == 0 else out.dtype)
        crop = (..., slice(pad, pad + h), slice(pad, pad + w), slice(None))
        if i == 0:
            xp[crop] = xd
        else:
            np.maximum(out.reshape(lead + (h, w, cin)), 0.0, out=xp[crop])
        # every window at once as one (..., Hout, Wout, ks, ks, Cin) view
        # of xp, then one copy into rows in the kernel's (dy, dx, channel)
        # order
        *lead_strides, s_row, s_col, s_chan = xp.strides
        windows = np.ndarray(lead + (hout, wout, ks, ks, cin), dtype=xp.dtype,
                             buffer=xp,
                             strides=(*lead_strides, stride * s_row,
                                      stride * s_col, s_row, s_col, s_chan))
        cols = windows.reshape(-1, ks * ks * cin)
        out = cols @ kd + bd
        if keep:
            kept.append((xp, crop, cols, kd, kt, bt, hout, wout))
        h, w, cin = hout, wout, kd.shape[1]

    def backward_fn(g):
        g = g.reshape(-1, g.shape[-1])
        for i in range(len(kept) - 1, -1, -1):
            xp, crop, cols, kd, kt, bt, hout, wout = kept[i]
            if bt is not None:
                _accumulate(bt, g.sum(axis=0))
            if kt is not None:
                _accumulate(kt, cols.T @ g)
            if i == 0 and xt is None:
                break
            # the padded input's gradient: 0 plus the taps' shares in tap
            # order. At stride 2, tap (dy, dx) of window (y, x) lands on
            # padded row 2 (y + dy // 2) + dy % 2, so with rows and columns
            # split as (Hout + 1, 2) and (Wout + 1, 2) the 3x3 taps add
            # in four steps that each reach a position at most once:
            # dy, dx < 2, then dx = 2, then dy = 2, then both.
            c_in = xp.shape[-1]
            taps = (g @ kd.T).reshape(lead + (hout, wout, ks, ks, c_in))
            taps = taps.swapaxes(-4, -3)  # (..., Hout, dy, Wout, dx, Cin)
            gpad = np.zeros(lead + (hout + 1, 2, wout + 1, 2, c_in), xp.dtype)
            gpad[..., :hout, :, :wout, :, :] += taps[..., :2, :, :2, :]
            gpad[..., :hout, :, 1:, 0, :] += taps[..., :2, :, 2, :]
            gpad[..., 1:, 0, :wout, :, :] += taps[..., 2, :, :2, :]
            gpad[..., 1:, 0, 1:, 0, :] += taps[..., 2, :, 2, :]
            gpad = gpad.reshape(lead + (2 * hout + 2, 2 * wout + 2, c_in))
            if i == 0:
                _accumulate(xt, gpad[crop].copy())
            else:  # the ReLU's output, in xp, is > 0 where its input is
                g = (gpad[crop] * (xp[crop] > 0)).reshape(-1, c_in)

    params = [t for pair in blocks for _, t in pair]
    return _make(out.reshape(lead + (h * w, cin)), "conv_encoder",
                 [xt] + params, backward_fn)
