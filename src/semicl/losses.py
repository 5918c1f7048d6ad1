"""The three training losses and their weighted hybrid.

All contrastive similarities are cosine similarities of the raw embeddings
(the cosine makes every loss invariant to positive rescaling). Each loss's
softmax-style rows are one recorded op, `_row_logsumexp`: a masked log-sum-exp
with max-subtraction, minus the picked positive score; its backward is closed form.

Conventions pinned by the tests:

  * `unsup_contrastive` defaults to the SimCLR convention: both augmented
    views act as anchors (2N of them) and each anchor's denominator sums over
    the other 2N-2 embeddings, excluding itself and its positive. With all
    embeddings equal at N=2 the loss is ln 2. The alternative
    ``denominator="paired_only"`` keeps only the N first-view anchors and sums
    the denominator over the other samples' second-view embeddings (N-1
    terms), for A/B comparison.
  * `sup_contrastive` is the literal ratio-of-sums form
    -log(sum_pos e^{s/tau} / sum_neg e^{s/tau}) averaged over anchors that
    have at least one positive and one negative; it can be negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DegenerateBatchError, DegenerateLabelError, LabelError

DENOMINATOR_MODES = ("simclr", "paired_only")


@dataclass(frozen=True)
class LossWeights:
    """Hybrid-loss weights and the contrastive temperature."""

    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    tau: float = 0.5

    def __post_init__(self):
        if self.tau <= 0:
            raise ContractError(f"tau must be positive, got {self.tau}")
        lams = (self.lambda1, self.lambda2, self.lambda3)
        if any(l < 0 for l in lams):
            raise ContractError(f"loss weights must be nonnegative, got {lams}")
        if all(l == 0 for l in lams):
            raise ContractError("at least one loss weight must be positive")


def _row_logsumexp(scores: Tensor, mask: np.ndarray, minus: np.ndarray | None = None) -> Tensor:
    """Per row, log sum_{k in mask} e^{s_ak}, minus sum_k minus[a, k] s_ak if given.

    Max-subtracted; masked-out entries go to -inf, as they may exceed the masked
    max by 2/tau. Empty-mask rows get an all-ones mask; callers must drop them.
    """
    mask = mask.astype(np.float64)
    mask[mask.sum(axis=1) == 0, :] = 1.0
    s = scores.data
    shift = np.where(mask > 0, s, -np.inf).max(axis=1, keepdims=True)
    e = np.exp(s - np.where(mask > 0, shift, np.inf))
    arg = (e * mask).sum(axis=1) + ad.EPS
    out = np.log(arg) + shift[:, 0]
    if minus is not None:
        out = out - (s * minus).sum(axis=1)

    def bwd(g):
        ds = (g / arg)[:, None] * mask * e
        return (ds if minus is None else ds - g[:, None] * minus,)

    return ad._apply(out, (scores,), bwd)


def unsup_contrastive(zi: Tensor, zj: Tensor, tau: float,
                      denominator: str = "simclr") -> Tensor:
    """Temperature-scaled contrastive loss over two augmented-view batches.

    Rows of `zi` and `zj` are embeddings of the two views in matched order;
    row k of each is the positive of the other.
    """
    zi, zj = ad.as_tensor(zi), ad.as_tensor(zj)
    if tau <= 0:
        raise ContractError(f"tau must be positive, got {tau}")
    if denominator not in DENOMINATOR_MODES:
        raise ContractError(f"unknown denominator mode {denominator!r}; use one of {DENOMINATOR_MODES}")
    if zi.ndim != 2 or zi.shape != zj.shape:
        raise ContractError(
            f"view batches must be matched (N, D) tensors, got {zi.shape} and {zj.shape}"
        )
    n = zi.shape[0]
    if n < 2:
        raise DegenerateBatchError(f"need at least 2 samples for negatives, got {n}")

    if denominator == "paired_only":
        a, b = zi, zj
        pos_mask = np.eye(n)
    else:
        a = b = ad.concat([zi, zj], axis=0)
        idx = np.arange(2 * n)
        pos_mask = np.zeros((2 * n, 2 * n))
        pos_mask[idx, (idx + n) % (2 * n)] = 1.0
    neg_mask = 1.0 - pos_mask
    np.fill_diagonal(neg_mask, 0.0)
    sim = ad.mul_scalar(ad.cosine_similarity_matrix(a, b), 1.0 / tau)
    return ad.mean(_row_logsumexp(sim, neg_mask, pos_mask))


def sup_contrastive(z: Tensor, labels, tau: float) -> Tensor:
    """Label-driven contrastive loss, literal ratio-of-sums form.

    Per anchor a: -log( sum_{p!=a, y_p=y_a} e^{s_ap/tau} /
    sum_{y_n!=y_a} e^{s_an/tau} ), averaged over anchors with a nonempty
    positive and negative set. Raises when every anchor is degenerate.
    """
    z = ad.as_tensor(z)
    labels = np.asarray(labels, dtype=np.int64)
    if tau <= 0:
        raise ContractError(f"tau must be positive, got {tau}")
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise ContractError(f"need (M, D) embeddings and M labels, got {z.shape} and {labels.shape}")
    m = z.shape[0]
    if m < 2:
        raise DegenerateBatchError(f"need at least 2 labeled samples, got {m}")

    same = labels[:, None] == labels[None, :]
    pos_mask = same.astype(np.float64)
    np.fill_diagonal(pos_mask, 0.0)
    neg_mask = (~same).astype(np.float64)
    valid = (pos_mask.sum(axis=1) > 0) & (neg_mask.sum(axis=1) > 0)
    if not valid.any():
        raise DegenerateLabelError(
            "no anchor has both a positive and a negative; labels: "
            + ",".join(str(l) for l in labels)
        )

    sim = ad.mul_scalar(ad.cosine_similarity_matrix(z, z), 1.0 / tau)
    per_anchor = ad.sub(_row_logsumexp(sim, neg_mask), _row_logsumexp(sim, pos_mask))
    weights = valid.astype(np.float64) / valid.sum()
    return ad.sum(ad.mul(per_anchor, Tensor(weights)))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of integer labels against raw logits."""
    logits = ad.as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ContractError(
            f"need (M, C) logits and M labels, got {logits.shape} and {labels.shape}"
        )
    m, c = logits.shape
    if m < 1:
        raise ContractError("cross_entropy: empty batch")
    if labels.min() < 0 or labels.max() >= c:
        raise LabelError(
            f"labels must lie in [0, {c}), got range [{labels.min()}, {labels.max()}]"
        )
    onehot = np.zeros((m, c))
    onehot[np.arange(m), labels] = 1.0
    return ad.mean(_row_logsumexp(logits, np.ones((m, c)), onehot))


def hybrid(loss_u: Tensor | None, loss_s: Tensor | None, loss_c: Tensor | None,
           weights: LossWeights) -> Tensor:
    """lambda1*L_u + lambda2*L_s + lambda3*L_c; absent components contribute 0."""
    parts = [
        (loss_u, weights.lambda1),
        (loss_s, weights.lambda2),
        (loss_c, weights.lambda3),
    ]
    total = None
    for loss, lam in parts:
        if loss is None:
            continue
        term = ad.mul_scalar(loss, lam)
        total = term if total is None else ad.add(total, term)
    if total is None:
        raise ContractError("hybrid: all loss components absent")
    return total
