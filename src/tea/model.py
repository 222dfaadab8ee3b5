"""End-to-end candidate scoring: f + g as one program per minibatch.

A UserContext holds everything the scorers may look at for one user and
split: the observed items, the neighbor-item buckets feeding the temporal
GRU, the co-interactor walk set of each observed event, and the social
neighborhood. Step s predicts the event after `items[:s]`; it sees
`buckets[:s]`, the walk set `walks[s - 1]` anchored at `items[s - 1]`, and
the neighbors. Contexts for held-out targets are built from pre-target
data only.

`score_user_steps` is the only scorer: training passes a minibatch of
users with all their steps, evaluation a chunk of users with the held-out
step each. It fixes each user's windows and adds the two potentials, the
transition score g (`transition.transition_scores`) and the unary score f
(`unary.unary_scores`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import transition, unary
from .autodiff import Tensor
from .data import PreparedDataset
from .params import ModelParams


@dataclass
class UserContext:
    user: int
    items: list[int]            # observed item ids, chronological
    buckets: list[list[int]]    # buckets[t]: neighbor items after items[t]
    walks: list[list[int]]      # walks[t]: co-interactors of items[t]
    neighbors: list[int]


def user_context(ds: PreparedDataset, user: int, split: str) -> UserContext:
    """Context for the user's training steps or held-out target.

    "train" holds the training sequence; steps 1..len(items)-1 predict the
    user's own next events. "val" adds the bucket up to the validation
    timestamp; "test" additionally sees the validation event (it happened
    before the test timestamp). For both, step len(items) predicts the
    held-out item. Held-out events of *other* users are never visible:
    buckets and walks are built from training events only.
    """
    rec = ds.users[user]
    neighbors = ds.social.of(user)
    if split == "train":
        return UserContext(user, rec.seq_items, rec.buckets, rec.walks, neighbors)
    if split == "val":
        return UserContext(user, rec.seq_items, rec.buckets + [rec.bucket_val],
                           rec.walks, neighbors)
    if split != "test":
        raise ValueError(f"split must be 'train', 'val' or 'test', got {split!r}")
    return UserContext(user, rec.seq_items + [rec.val_item],
                       rec.buckets + [rec.bucket_val, rec.bucket_gap],
                       rec.walks + [rec.walks_val], neighbors)


def positive_target(ds: PreparedDataset, user: int, step: int) -> int:
    return ds.users[user].seq_items[step]


def score_user_steps(params: ModelParams, ctxs: list[UserContext],
                     steps: list[list[int]], candidates, training: bool = False,
                     rngs: list | None = None, p_drop: float = 0.5) -> Tensor:
    """f + g for a minibatch of (user, step) rows, one (N, C) score matrix.

    `steps[b]` lists the steps scored for `ctxs[b]`; rows run user by user,
    each user's steps in the order given, and `candidates` is the (N, C)
    int array of each row's candidate items. Windows follow each user's
    largest step s: attention runs over `items[max(0, s - (l_s - 1)):s]`
    with positions counted from 0 (the candidate takes the next position),
    the temporal GRU over `buckets[max(0, s - l_s):s]` from a zero state.
    Steps below l_s all share the window that starts at 0; a user whose
    steps would need windows with different starts raises ValueError. In
    training mode row i's dropout masks come from rngs[i], g's mask before
    f's. No row's scores depend on the other users in the batch.
    """
    if len(steps) != len(ctxs) or not ctxs:
        raise ValueError(f"{len(ctxs)} contexts need as many step lists, got {len(steps)}")
    l_s = params.l_s
    lo, lo_gru = [], []
    for ctx, user_steps in zip(ctxs, steps):
        if not user_steps or min(user_steps) < 1 or max(user_steps) > len(ctx.buckets):
            raise IndexError(f"steps {user_steps} out of range for user {ctx.user}")
        s_max = max(user_steps)
        start = max(0, s_max - (l_s - 1))
        if any(max(0, s - (l_s - 1)) != start for s in user_steps):
            raise ValueError(f"steps {user_steps} of user {ctx.user} need more than "
                             f"one attention window (l_s={l_s}); score them in "
                             f"separate calls")
        lo.append(start)
        lo_gru.append(max(0, s_max - l_s))
    cands = np.asarray(candidates, dtype=np.intp)
    n_rows = sum(len(st) for st in steps)
    if cands.ndim != 2 or cands.shape[0] != n_rows:
        raise ValueError(f"candidates of shape {cands.shape} for {n_rows} steps")
    if training and p_drop > 0.0 and (rngs is None or len(rngs) != n_rows):
        raise ValueError(f"training mode needs one rng per step ({n_rows})")
    cand_embs = ad.gather_rows(params.shared.item, cands)
    g = transition.transition_scores(params.transition, ctxs, steps, lo, cand_embs,
                                     training, rngs, p_drop)
    f = unary.unary_scores(params.unary, ctxs, steps, lo_gru, cand_embs,
                           training, rngs, p_drop)
    return ad.add(f, g)
