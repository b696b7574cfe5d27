"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy arrays. Gradients are obtained by recording every
primitive operation on an explicit :class:`Tape` and replaying the records
in reverse order. With no tape active, ops are plain forward computations.

Float64 is the default dtype and is what all tests and numeric oracles
use; float32 is supported for faster training. Tensors are treated as
immutable once recorded on a tape: optimizers replace ``.data`` wholesale
between steps instead of mutating buffers in place.
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
    "div",
    "neg",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "relu",
    "pow_const",
    "clamp",
    "softmax",
    "attention",
    "bilinear_scores",
    "sum_",
    "mean",
    "max_reduce",
    "conv_output_size",
    "conv2d",
]


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
        if arr.dtype not in (np.float32, np.float64):
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
        recorded = set()
        for out, parents, _ in self._records:
            recorded.add(id(out))
            out.grad = None
            for p in parents:
                p.grad = None
        if id(loss) not in recorded:
            raise ValueError("loss was not recorded on this tape")
        loss.grad = np.ones((), dtype=loss.data.dtype)
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


def div(a, b):
    ad, at = _lift(a)
    bd, bt = _lift(b)

    def backward_fn(g):
        if at is not None:
            _accumulate(at, _unbroadcast(g / bd, ad.shape))
        if bt is not None:
            _accumulate(bt, _unbroadcast(-g * ad / (bd * bd), bd.shape))

    return _make(ad / bd, "div", (at, bt), backward_fn)


def neg(a):
    ad, at = _lift(a)

    def backward_fn(g):
        _accumulate(at, -g)

    return _make(-ad, "neg", (at,), backward_fn)


# ---------------------------------------------------------------------------
# linear algebra and shape ops

def matmul(a, b):
    ad, at = _lift(a)
    bd, bt = _lift(b)
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise DimensionError(f"matmul needs (m,k)x(k,n), got {ad.shape} x {bd.shape}")

    def backward_fn(g):
        if at is not None:
            _accumulate(at, g @ bd.T)
        if bt is not None:
            _accumulate(bt, ad.T @ g)

    return _make(ad @ bd, "matmul", (at, bt), backward_fn)


def transpose(a):
    ad, at = _lift(a)
    if ad.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {ad.shape}")

    def backward_fn(g):
        _accumulate(at, g.T)

    return _make(ad.T.copy(), "transpose", (at,), backward_fn)


def reshape(a, shape):
    ad, at = _lift(a)

    def backward_fn(g):
        _accumulate(at, g.reshape(ad.shape))

    return _make(ad.reshape(shape).copy(), "reshape", (at,), backward_fn)


def concat(parts, axis=0):
    lifted = [_lift(p) for p in parts]
    datas = [d for d, _ in lifted]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        for piece, (_, t) in zip(np.split(g, splits, axis=axis), lifted):
            if t is not None:
                _accumulate(t, piece)

    return _make(np.concatenate(datas, axis=axis), "concat",
                 [t for _, t in lifted], backward_fn)


# ---------------------------------------------------------------------------
# pointwise nonlinearities

def log(a):
    ad, at = _lift(a)

    def backward_fn(g):
        _accumulate(at, g / ad)

    return _make(np.log(ad), "log", (at,), backward_fn)


def sqrt(a):
    ad, at = _lift(a)
    out_data = np.sqrt(ad)

    def backward_fn(g):
        _accumulate(at, g * 0.5 / out_data)

    return _make(out_data, "sqrt", (at,), backward_fn)


def tanh(a):
    ad, at = _lift(a)
    out_data = np.tanh(ad)

    def backward_fn(g):
        _accumulate(at, g * (1.0 - out_data * out_data))

    return _make(out_data, "tanh", (at,), backward_fn)


def sigmoid(a):
    ad, at = _lift(a)
    out_data = 1.0 / (1.0 + np.exp(-ad))

    def backward_fn(g):
        _accumulate(at, g * out_data * (1.0 - out_data))

    return _make(out_data, "sigmoid", (at,), backward_fn)


def relu(a):
    ad, at = _lift(a)

    def backward_fn(g):
        _accumulate(at, g * (ad > 0))

    return _make(np.maximum(ad, 0.0), "relu", (at,), backward_fn)


def pow_const(a, exponent):
    """Elementwise power with a constant exponent."""
    ad, at = _lift(a)
    e = float(exponent)

    def backward_fn(g):
        if e == 0.0:
            return
        if e == 1.0:
            _accumulate(at, g)
            return
        if e < 1.0:
            # subgradient 0 at x == 0 keeps fractional powers finite
            safe = np.where(ad == 0.0, 1.0, ad)
            d = np.where(ad == 0.0, 0.0, e * safe ** (e - 1.0))
        else:
            d = e * ad ** (e - 1.0)
        _accumulate(at, g * d)

    return _make(ad ** e, "pow", (at,), backward_fn)


def clamp(a, lo, hi):
    ad, at = _lift(a)

    def backward_fn(g):
        _accumulate(at, g * ((ad >= lo) & (ad <= hi)))

    return _make(np.clip(ad, lo, hi), "clamp", (at,), backward_fn)


# ---------------------------------------------------------------------------
# softmax and reductions

def softmax(a, axis):
    """Numerically stable softmax: each slice along ``axis`` sums to 1."""
    ad, at = _lift(a)
    # in place on buffers this op owns
    out_data = ad - ad.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        d = g - inner
        d *= out_data
        _accumulate(at, d)

    return _make(out_data, "softmax", (at,), backward_fn)


def attention(q, k, v, n_heads):
    """Multi-head scaled dot-product attention over the rows of q, k, v.

    q, k and v are (P, d_v); head h owns columns h*d to (h+1)*d with
    d = d_v / n_heads and computes softmax(Q_h K_h^T / sqrt(d)) V_h. The
    (P, d_v) result holds the heads side by side. One tape record: the
    backward uses rowsum(dA * A) = rowsum(dO * O) (FlashAttention), so the
    only (H, P, P) array kept is the unnormalised exp(logits).
    """
    qd, qt = _lift(q)
    kd, kt = _lift(k)
    vd, vt = _lift(v)
    if qd.ndim != 2 or kd.shape != qd.shape or vd.shape != qd.shape:
        raise DimensionError(
            f"attention needs equal (P,d_v) q, k, v, got "
            f"{qd.shape}, {kd.shape}, {vd.shape}")
    num_p, d_v = qd.shape
    if n_heads < 1 or d_v % n_heads:
        raise DimensionError(f"n_heads={n_heads} must be >= 1 and divide d_v={d_v}")
    d = d_v // n_heads
    scale = 1.0 / math.sqrt(d)

    def heads(x):  # (P, d_v) -> (H, P, d) view
        return x.reshape(num_p, n_heads, d).transpose(1, 0, 2)

    def merge(x):  # (H, P, d) -> (P, d_v) copy
        return x.transpose(1, 0, 2).reshape(num_p, d_v)

    qh, kh, vh = heads(qd * scale), heads(kd), heads(vd)
    # in place on buffers this op owns: e is (H, P, P)
    e = qh @ kh.transpose(0, 2, 1)
    e -= e.max(axis=2, keepdims=True)
    np.exp(e, out=e)
    s = e.sum(axis=2, keepdims=True)
    o = e @ vh
    o /= s

    def backward_fn(g):
        go = heads(g) / s
        if vt is not None:
            _accumulate(vt, merge(e.transpose(0, 2, 1) @ go))
        dp = go @ vh.transpose(0, 2, 1)
        dp -= (go * o).sum(axis=2, keepdims=True)
        dp *= e
        if qt is not None:
            _accumulate(qt, merge(dp @ kh) * scale)
        if kt is not None:
            _accumulate(kt, merge(dp.transpose(0, 2, 1) @ qh))

    return _make(merge(o), "attention", (qt, kt, vt), backward_fn)


def bilinear_scores(fu, sv, w):
    """Score every (row of fu, row of sv) pair: A[p, c] = tanh(fu_p * sv_c) w.

    fu is (P, d), sv is (C, d) and w is (d, 1); the result is (P, C). One
    tape record that keeps only the (P, C, d) tanh.
    """
    fd, ft = _lift(fu)
    sd, st = _lift(sv)
    wd, wt = _lift(w)
    if (fd.ndim != 2 or sd.ndim != 2 or sd.shape[1] != fd.shape[1]
            or wd.shape != (fd.shape[1], 1)):
        raise DimensionError(
            f"bilinear_scores needs (P,d), (C,d), (d,1), got "
            f"{fd.shape}, {sd.shape}, {wd.shape}")
    num_p, d = fd.shape
    num_c = sd.shape[0]
    # in place on a buffer this op owns: t is (P, C, d)
    t = fd[:, None, :] * sd[None, :, :]
    np.tanh(t, out=t)
    flat = t.reshape(num_p * num_c, d)

    def backward_fn(g):
        if wt is not None:
            _accumulate(wt, flat.T @ g.reshape(-1, 1))
        dp = t * t
        np.subtract(1.0, dp, out=dp)
        dp *= g[:, :, None]
        dp *= wd[:, 0]
        if ft is not None:
            _accumulate(ft, np.einsum("pcd,cd->pd", dp, sd))
        if st is not None:
            _accumulate(st, np.einsum("pcd,pd->cd", dp, fd))

    return _make((flat @ wd).reshape(num_p, num_c), "bilinear_scores",
                 (ft, st, wt), backward_fn)


def sum_(a, axis=None):
    ad, at = _lift(a)

    def backward_fn(g):
        if axis is None:
            _accumulate(at, np.broadcast_to(g, ad.shape).copy())
        else:
            _accumulate(at, np.broadcast_to(np.expand_dims(g, axis), ad.shape).copy())

    return _make(ad.sum(axis=axis), "sum", (at,), backward_fn)


def mean(a, axis=None):
    ad, at = _lift(a)
    n = ad.size if axis is None else ad.shape[axis]

    def backward_fn(g):
        if axis is None:
            _accumulate(at, np.broadcast_to(g / n, ad.shape).copy())
        else:
            _accumulate(at, np.broadcast_to(np.expand_dims(g, axis) / n, ad.shape).copy())

    return _make(ad.mean(axis=axis), "mean", (at,), backward_fn)


def max_reduce(a, axis):
    """Max along an axis; gradient routes to the first argmax on ties."""
    ad, at = _lift(a)
    idx = np.expand_dims(np.argmax(ad, axis=axis), axis)
    out_data = np.take_along_axis(ad, idx, axis=axis).squeeze(axis=axis)

    def backward_fn(g):
        gz = np.zeros_like(ad)
        np.put_along_axis(gz, idx, np.expand_dims(g, axis), axis=axis)
        _accumulate(at, gz)

    return _make(out_data, "max", (at,), backward_fn)


# ---------------------------------------------------------------------------
# convolution

# conv2d's one geometry, the encoder's: 3x3 windows, stride 2, zero padding 1
CONV_KERNEL, CONV_STRIDE, CONV_PADDING = 3, 2, 1


def conv_output_size(n):
    """Length of one conv2d output axis for an input axis of length n."""
    return (n + 2 * CONV_PADDING - CONV_KERNEL) // CONV_STRIDE + 1


def conv2d(image, kernel, bias):
    """2-D convolution over an (H, W, Cin) image with the CONV_* geometry.

    ``kernel`` is flattened to (CONV_KERNEL**2 * Cin, Cout) with rows in
    (dy, dx, channel) order; output is (Hout, Wout, Cout).
    """
    xd, xt = _lift(image)
    kd, kt = _lift(kernel)
    bd, bt = _lift(bias)
    if xd.ndim != 3:
        raise DimensionError(f"conv2d expects an (H, W, C) image, got shape {xd.shape}")
    ks, stride, padding = CONV_KERNEL, CONV_STRIDE, CONV_PADDING
    h, w, cin = xd.shape
    if kd.shape[0] != ks * ks * cin:
        raise DimensionError(
            f"kernel has {kd.shape[0]} rows, expected {ks * ks * cin}")
    cout = kd.shape[1]
    hout, wout = conv_output_size(h), conv_output_size(w)
    if hout < 1 or wout < 1:
        raise DimensionError(f"image {xd.shape} too small for kernel {ks}")

    xp = np.zeros((h + 2 * padding, w + 2 * padding, cin), dtype=xd.dtype)
    xp[padding:padding + h, padding:padding + w] = xd
    # one (Hout, Wout) strided view per window tap, in the kernel's row order
    taps = [(slice(dy, dy + stride * hout, stride),
             slice(dx, dx + stride * wout, stride))
            for dy in range(ks) for dx in range(ks)]
    cols = np.stack([xp[t] for t in taps], axis=2).reshape(hout * wout, ks * ks * cin)
    out_data = (cols @ kd + bd).reshape(hout, wout, cout)

    def backward_fn(g):
        gf = g.reshape(hout * wout, cout)
        if bt is not None:
            _accumulate(bt, gf.sum(axis=0))
        if kt is not None:
            _accumulate(kt, cols.T @ gf)
        if xt is not None:
            gcols = (gf @ kd.T).reshape(hout, wout, ks * ks, cin)
            gpad = np.zeros_like(xp)
            for i, t in enumerate(taps):
                gpad[t] += gcols[:, :, i]
            _accumulate(xt, gpad[padding:padding + h, padding:padding + w].copy())

    return _make(out_data, "conv2d", (xt, kt, bt), backward_fn)
