"""Training objective: the sampled-contrast sequence loss.

The per-step loss contrasts the target's combined score against uniformly
sampled negatives through log-sigmoid terms; it is negated so a single
minimizer drives training. log(sigmoid(x)) is computed as -softplus(-x) to
avoid saturation. The objective's L2 term, gamma times the sum of squared
entries of every trainable tensor, is not taped: `autodiff.adam_step` adds
its gradient 2 gamma theta and returns the sum of squares for the logged
loss.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class NonFiniteScoreError(ValueError):
    """A candidate score reached the loss as NaN or infinity."""


def sequence_loss(scores: Tensor, keys: Sequence[tuple[int, int]], n_s: int) -> Tensor:
    """Mean over steps of -[log sig(pos) + sum_k log sig(-neg_k)].

    `scores` is the (N, 1 + n_s) matrix of candidate scores, the target in
    column 0; `keys[i]` is row i's (user, step), used to name a bad row.
    """
    n = len(keys)
    if n == 0:
        raise ValueError("sequence_loss: empty batch")
    if scores.data.ndim != 2 or scores.data.shape[0] != n:
        raise ValueError(f"scores of shape {scores.data.shape} for {n} steps")
    if scores.data.shape[1] != 1 + n_s:
        user, step = keys[0]
        raise ValueError(
            f"step ({user},{step}) has {scores.data.shape[1] - 1} "
            f"negative scores, expected {n_s}")
    finite = np.isfinite(scores.data).all(axis=1)
    if not finite.all():
        user, step = keys[int(np.flatnonzero(~finite)[0])]
        raise NonFiniteScoreError(f"non-finite score at step ({user},{step})")
    # -log sig(x) = softplus(-x) for the target; -log sig(-x) = softplus(x) else.
    signs = np.ones((1, 1 + n_s))
    signs[0, 0] = -1.0
    terms = ad.softplus(ad.mul(scores, ad.Tensor(signs)))
    return ad.scale(ad.total_sum(terms), 1.0 / n)

