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

The inference path also takes a stack of N samples: F as (N, P, d_v)
and F_S as (N, C, d_v); the scores, the attention and F_R then carry the
leading N axis. The label-side terms take one sample, each as one
closed-form tape op: the source distribution
(:func:`sarl.tensor.matvec_softmax`), the cosine cost
(:func:`sarl.tensor.cosine_cost`), and both plans with the transport
loss (:func:`sarl.tensor.transport_cost`), whose forward plan reuses the
attention's row softmax; the target distribution records nothing.
:func:`forward_plan` and :func:`backward_plan` build one plan each as
the chain of primitive ops that op fuses: the marginal as a column or
a row (a reshape) times the scores' softmax along rows or columns (a
product). Training takes both plans from :func:`ct_loss`.
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
    [0, 2]. A zero row (an all-black image's patches at init) has no
    direction: it costs exactly 1 and the cost passes it no gradient.
    One tape record (:func:`sarl.tensor.cosine_cost`).
    """
    return T.cosine_cost(f, f_s, NORM_EPS)


def source_distribution(m: Tensor, y) -> Tensor:
    """Patch mass theta = softmax_p(M (y / sum y)), shape (P,).

    The label vector steers mass toward patches whose map logits support
    the positive classes, so theta needs at least one positive label.
    One tape record (:func:`sarl.tensor.matvec_softmax`).
    """
    y = np.asarray(y)
    total = y.sum()
    if total <= 0:
        raise ValueError("source distribution needs at least one positive label")
    return T.matvec_softmax(m, y / total)


def target_distribution(y) -> Tensor:
    """Class mass beta = softmax(y), shape (C,).

    Nothing differentiates the labels, so the softmax takes their array,
    not a leaf tensor, and no tape records it.
    """
    return T.softmax(Tensor(y).data, axis=0)


def bilinear_mass(f: Tensor, f_s: Tensor, p: BilinearParams) -> Tensor:
    """Transport scores A (P x C), one bilinear form per (patch, class).

    For a stack, f (N, P, d_v) and f_s (N, C, d_v), A is (N, P, C). One
    tape record (:func:`sarl.tensor.bilinear_scores`, projections
    included).
    """
    return T.bilinear_scores(f, f_s, p.u, p.v, p.mix, p.score)


def forward_plan(mass: Tensor, theta) -> Tensor:
    """Plan rows: t[p, :] = theta_p * softmax_c(A[p, :]).

    The (P x C) plan is nonnegative and its row sums equal theta. Three
    records: theta as a (P, 1) column times A's row softmax; a theta of
    another length is refused by the reshape.
    """
    col = T.reshape(theta, (mass.shape[0], 1))
    return T.mul(col, T.softmax(mass, axis=1))


def backward_plan(mass: Tensor, beta) -> Tensor:
    """Plan columns: t[:, c] = beta_c * softmax_p(A[:, c]).

    The (P x C) plan is nonnegative and its column sums equal beta.
    Three records: beta as a (1, C) row times A's column softmax; a beta
    of another length is refused by the reshape.
    """
    row = T.reshape(beta, (1, mass.shape[1]))
    return T.mul(row, T.softmax(mass, axis=0))


def ct_loss(mass: Tensor, attention, theta, beta, co: Tensor):
    """Both plans of the transport scores A and their total transported
    cost, sum(fwd * co) + sum(bwd * co), with fwd as :func:`forward_plan`
    and bwd as :func:`backward_plan` build them from theta and beta.
    attention is A's row softmax (:func:`semantic_attention`), the
    forward plan's own softmax, taken as it is.

    Returns the cost and the (fwd, bwd) plans, off the tape. The cost is
    nonnegative because plans are nonnegative and costs sit in [0, 2];
    each plan carries total mass 1, so constant cost k gives exactly 2k.
    One tape record (:func:`sarl.tensor.transport_cost`).
    """
    total, fwd, bwd = T.transport_cost(mass, attention, theta, beta, co)
    return total, (Tensor(fwd), Tensor(bwd))


def semantic_attention(mass: Tensor) -> Tensor:
    """Row-softmax of the transport scores: each patch row on the simplex."""
    return T.softmax(mass, axis=-1)


def semantic_repr(attn: Tensor, f_s) -> Tensor:
    """Rebuild patches from class features: F_R = B F_S (P x d_v), per
    sample for a stack.

    Every output row is a convex combination of F_S rows.
    """
    return T.matmul(attn, f_s)
