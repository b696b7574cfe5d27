"""Forward FLOPs and bytes of the two arithmetic cost centres, from shapes.

Both counts are computed, not measured: they follow the primitive ops
that ``sarl.representation.self_attention`` and
``sarl.transport.bilinear_mass`` record for one sample. Conventions:
a matmul of (m, k) by (k, n) costs 2mkn flops; every other elementwise
op costs one flop per output element (softmax five: max, subtract, exp,
sum, divide). Bytes count each op's operands read plus its result
written, at the array itemsize, so they are a floor on memory traffic
that ignores caches and numpy temporaries.
"""

from __future__ import annotations


def _matmul(m, k, n):
    return 2 * m * k * n, m * k + k * n + m * n


def _copy(n):
    return 0, 2 * n


def _total(ops, itemsize):
    flops = sum(f for f, _ in ops)
    elems = sum(e for _, e in ops)
    return flops, elems * itemsize


def self_attention_cost(fm, p):
    """(flops, bytes) of one ``self_attention(fm, p)`` call."""
    num_p, d_v = fm.f.shape
    d = d_v // p.n_heads
    sq = num_p * num_p
    ops = [_matmul(num_p, d_v, d_v)] * 3
    for _ in range(p.n_heads):
        ops += [_copy(num_p * d)] * 4          # three slices, one transpose
        ops.append(_matmul(num_p, d, num_p))   # Q K^T
        ops.append((sq, 2 * sq))               # / sqrt(d)
        ops.append((5 * sq, 2 * sq))           # softmax
        ops.append(_matmul(num_p, num_p, d))   # attn V
    if p.n_heads > 1:
        ops.append(_copy(num_p * d_v))         # concat
    return _total(ops, fm.f.data.dtype.itemsize)


def bilinear_mass_cost(f, f_s, p):
    """(flops, bytes) of one ``bilinear_mass(f, f_s, p)`` call."""
    rows = getattr(f, "f", f)
    num_p, d_v = rows.shape
    num_c = f_s.shape[0]
    d1 = p.u.shape[1]
    d2 = p.mix.shape[1]
    pair = num_p * num_c
    ops = [
        _matmul(num_p, d_v, d1),
        _matmul(num_c, d_v, d1),
        _copy(num_p * d1),
        _copy(num_c * d1),
        (pair * d1, num_p * d1 + num_c * d1 + pair * d1),  # broadcast product
        (pair * d1, 2 * pair * d1),                        # tanh
        _copy(pair * d1),
        _matmul(pair, d1, d2),
        (pair * d2, 2 * pair * d2 + d2),                   # + bias
        _matmul(pair, d2, 1),
        _copy(pair),
    ]
    return _total(ops, rows.data.dtype.itemsize)
