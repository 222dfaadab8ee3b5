"""Training objective: sampled-contrast sequence loss and L2 penalty.

The per-step loss contrasts the target's combined score against uniformly
sampled negatives through log-sigmoid terms; it is negated so a single
minimizer drives training. log(sigmoid(x)) is computed as -softplus(-x) to
avoid saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class NonFiniteScoreError(ValueError):
    """A candidate score reached the loss as NaN or infinity."""


@dataclass
class ScoredStep:
    """One prediction step's scores: the target and its sampled negatives."""

    user: int
    step: int
    positive: Tensor     # shape (1,)
    negatives: Tensor    # shape (n_s,)


def scored_step_from(scores: Tensor, user: int, step: int) -> ScoredStep:
    """Split a (1 + n_s,) candidate score vector (target first) into a step."""
    n = scores.data.shape[0]
    return ScoredStep(user, step,
                      positive=ad.slice_rows(scores, 0, 1),
                      negatives=ad.slice_rows(scores, 1, n))


def sequence_loss(batch: list[ScoredStep], n_s: int) -> Tensor:
    """Mean over steps of -[log sig(pos) + sum_k log sig(-neg_k)].

    Reduction order is the batch order, which callers keep deterministic.
    """
    if not batch:
        raise ValueError("sequence_loss: empty batch")
    for s in batch:
        if s.negatives.data.shape != (n_s,):
            raise ValueError(
                f"step ({s.user},{s.step}) has {s.negatives.data.shape[0]} "
                f"negative scores, expected {n_s}")
        if not (np.isfinite(s.positive.data).all()
                and np.isfinite(s.negatives.data).all()):
            raise NonFiniteScoreError(f"non-finite score at step ({s.user},{s.step})")
    positives = ad.concat([s.positive for s in batch])
    negatives = ad.concat([s.negatives for s in batch])
    # -log sig(x) = softplus(-x);  -log sig(-x) = softplus(x)
    pos_term = ad.total_sum(ad.softplus(ad.scale(positives, -1.0)))
    neg_term = ad.total_sum(ad.softplus(negatives))
    return ad.scale(ad.add(pos_term, neg_term), 1.0 / len(batch))


def total_loss(crf_loss: Tensor, params: Iterable[tuple[str, Tensor]],
               gamma: float = 5e-4) -> Tensor:
    """crf_loss + gamma * sum of squared entries over all trainable tensors.

    Callers pass each tensor once; the shared embedding tables must not be
    double-counted just because both score functions use them.
    """
    if gamma == 0.0:
        return crf_loss
    terms = [ad.total_sum(ad.mul(t, t)) for _, t in params]
    reg = terms[0]
    for t in terms[1:]:
        reg = ad.add(reg, t)
    return ad.add(crf_loss, ad.scale(reg, gamma))
