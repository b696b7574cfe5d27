"""Bidirectional conditional transport between patches and class features.

Patch features F (P x d_v) are aligned with the semantic-related
features F_S (C x d_v) by treating patches as source points and classes
as targets. A learnable semantic map M reweights the source mass toward
patches that look label-relevant, the normalized label vector supplies
the target mass, and a low-rank bilinear form scores every (patch,
class) pair in one fused tape op (:func:`sarl.tensor.bilinear_scores`).
Softmax-normalizing those scores row- or column-wise and scaling by the
marginals yields the two transport plans; contracting the plans against
a cosine cost gives the transport loss. The same bilinear scores,
row-normalized, serve as attention weights that rebuild each patch as a
mixture of class features (F_R), which is the only part the inference
path needs: everything involving labels runs at train time only. The
scores carry no bias: a constant added to every score would cancel in
each of these softmaxes.

The inference path also takes a stack of N samples: F as the (N*P, d_v)
patch rows of all of them and F_S as (N, C, d_v); the scores, the
attention and F_R then carry the leading N axis. The label-side terms
take one sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .representation import xavier_uniform
from .tensor import Tensor

__all__ = [
    "BilinearParams",
    "init_bilinear",
    "semantic_map",
    "cost_matrix",
    "source_distribution",
    "target_distribution",
    "bilinear_mass",
    "forward_plan",
    "backward_plan",
    "ct_loss",
    "semantic_attention",
    "semantic_repr",
]

NORM_EPS = 1e-8


@dataclass
class BilinearParams:
    """Low-rank bilinear scorer for (patch, class) pairs.

    u: (d_v, d1), v: (d_v, d1), mix: (d1, d2), score: (d2, 1). Pair
    (p, c) scores tanh((f_p u) * (s_c v)) mix score. mix and score stay
    two factors because AdamW steps each on its own.
    """

    u: Tensor
    v: Tensor
    mix: Tensor
    score: Tensor


def init_bilinear(rng, d_v, d1, d2) -> BilinearParams:
    return BilinearParams(
        xavier_uniform(rng, d_v, d1),
        xavier_uniform(rng, d_v, d1),
        xavier_uniform(rng, d1, d2),
        xavier_uniform(rng, d2, 1),
    )


def semantic_map(f: Tensor, weights: Tensor) -> Tensor:
    """Patch-level class logits M = F W, shape (P x C)."""
    return T.matmul(f, weights)


def cost_matrix(f: Tensor, f_s: Tensor) -> Tensor:
    """Cosine distance between every patch row and every class row.

    co[p, c] = 1 - <f_p, s_c> / ((|f_p| + eps)(|s_c| + eps)), always in
    [0, 2]; the eps keeps zero rows finite (their cost is near 1).
    """
    sim = T.matmul(f, T.transpose(f_s))
    fn = T.sqrt(T.sum_(T.pow_const(f, 2), axis=1))
    sn = T.sqrt(T.sum_(T.pow_const(f_s, 2), axis=1))
    denom = T.mul(T.reshape(T.add(fn, NORM_EPS), (f.shape[0], 1)),
                  T.reshape(T.add(sn, NORM_EPS), (1, f_s.shape[0])))
    return T.sub(1.0, T.div(sim, denom))


def source_distribution(m: Tensor, y) -> Tensor:
    """Patch mass theta = softmax_p(M (y / sum y)), shape (P,).

    The label vector steers mass toward patches whose map logits support
    the positive classes, so theta needs at least one positive label.
    """
    y = np.asarray(y)
    total = y.sum()
    if total <= 0:
        raise ValueError("source distribution needs at least one positive label")
    pooled = T.matmul(m, (y / total).reshape(-1, 1))
    return T.softmax(T.reshape(pooled, (m.shape[0],)), axis=0)


def target_distribution(y) -> Tensor:
    """Class mass beta = softmax(y), shape (C,)."""
    return T.softmax(Tensor(np.asarray(y)), axis=0)


def bilinear_mass(f: Tensor, f_s: Tensor, p: BilinearParams) -> Tensor:
    """Transport scores A (P x C), one bilinear form per (patch, class).

    For f_s with a leading sample axis, (N, C, d_v), f holds the N
    samples' patch rows in turn and A is (N, P, C).
    """
    fu = T.matmul(f, p.u)
    fu = T.reshape(fu, (*f_s.shape[:-2], -1, fu.shape[1]))
    return T.bilinear_scores(fu, T.matmul(f_s, p.v), T.matmul(p.mix, p.score))


def forward_plan(mass: Tensor, theta) -> Tensor:
    """Plan rows: t[p, :] = theta_p * softmax_c(A[p, :]).

    The (P x C) plan is nonnegative and its row sums equal theta.
    """
    num_p = mass.shape[0]
    return T.mul(T.reshape(theta, (num_p, 1)), T.softmax(mass, axis=1))


def backward_plan(mass: Tensor, beta) -> Tensor:
    """Plan columns: t[:, c] = beta_c * softmax_p(A[:, c]).

    The (P x C) plan is nonnegative and its column sums equal beta.
    """
    num_c = mass.shape[1]
    return T.mul(T.reshape(beta, (1, num_c)), T.softmax(mass, axis=0))


def ct_loss(fwd: Tensor, bwd: Tensor, co: Tensor) -> Tensor:
    """Total transported cost, summed over both directions.

    Nonnegative because plans are nonnegative and costs sit in [0, 2];
    each plan carries total mass 1, so constant cost k gives exactly 2k.
    """
    return T.add(T.sum_(T.mul(fwd, co)), T.sum_(T.mul(bwd, co)))


def semantic_attention(mass: Tensor) -> Tensor:
    """Row-softmax of the transport scores: each patch row on the simplex."""
    return T.softmax(mass, axis=-1)


def semantic_repr(attn: Tensor, f_s) -> Tensor:
    """Rebuild patches from class features: F_R = B F_S (P x d_v), per
    sample for a stack.

    Every output row is a convex combination of F_S rows.
    """
    return T.matmul(attn, f_s)
