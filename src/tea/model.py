"""End-to-end candidate scoring: f + g as one program per minibatch.

A UserContext holds everything the scorers may look at for one user and
split: the observed items, the neighbor-item buckets feeding the temporal
GRU, the has-walk bit of each observed event, and the social
neighborhood. Step s predicts the event after `items[:s]`; it sees
`buckets[:s]`, the bit `walks[s - 1]` of the walk anchored at
`items[s - 1]`, and the neighbors. Contexts for held-out targets are built from pre-target
data only.

`score_user_steps` is the only scorer: training passes a minibatch of
users with all their steps, evaluation a chunk of users with the held-out
step each. It fixes each user's windows and the row layout, takes f's user
vector from `unary.user_vectors` and scores f + g in g's candidate head
(`transition.transition_scores`). In training mode each user brings one
random stream, keyed on (seed, epoch, user), that draws the dropout masks
of all the user's rows.
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
    walks: list[int]            # walks[t]: 1 if items[t] has a co-interactor, else 0
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
    training mode `rngs[b]` is user b's stream, keyed on (seed, epoch, user)
    by `train`; it draws g's (R_b, C, d) keep-mask for all of the user's R_b
    rows, then f's (R_b, d). No row's scores depend on the other users in
    the batch.
    """
    if len(steps) != len(ctxs) or not ctxs:
        raise ValueError(f"{len(ctxs)} contexts need as many step lists, got {len(steps)}")
    for ctx, user_steps in zip(ctxs, steps):
        if not user_steps or min(user_steps) < 1 or max(user_steps) > len(ctx.buckets):
            raise IndexError(f"steps {user_steps} out of range for user {ctx.user}")
    rows = ad.Segments([len(st) for st in steps])  # each user's rows, consecutive
    row_step = np.concatenate([np.asarray(st, dtype=np.intp) for st in steps])
    s_max = np.maximum.reduceat(row_step, rows.starts)
    l_s = params.l_s
    lo = np.maximum(s_max - (l_s - 1), 0)        # attention windows
    lo_gru = np.maximum(s_max - l_s, 0)           # temporal GRU windows
    split = np.flatnonzero(np.maximum(row_step - (l_s - 1), 0) != lo[rows.ids])
    if split.size:
        b = rows.ids[split[0]]
        raise ValueError(f"steps {steps[b]} of user {ctxs[b].user} need more than "
                         f"one attention window (l_s={l_s}); score them in "
                         f"separate calls")
    cands = np.asarray(candidates, dtype=np.intp)
    n_rows = row_step.size
    if cands.ndim != 2 or cands.shape[0] != n_rows:
        raise ValueError(f"candidates of shape {cands.shape} for {n_rows} steps")
    keep_g = keep_f = None
    if training and p_drop > 0.0:
        if rngs is None or len(rngs) != len(ctxs):
            raise ValueError(f"training mode needs one rng per context ({len(ctxs)})")
        d = params.shared.item.data.shape[1]
        keep_g = np.empty(cands.shape + (d,), dtype=bool)
        keep_f = np.empty((n_rows, d), dtype=bool)
        for rng, a, n in zip(rngs, rows.starts.tolist(), rows.counts.tolist()):
            keep_g[a:a + n] = rng.random((n,) + keep_g.shape[1:]) >= p_drop
            keep_f[a:a + n] = rng.random((n, d)) >= p_drop
    h_f = unary.user_vectors(params.unary, ctxs, rows, row_step, lo_gru, s_max,
                             keep_f, p_drop)
    return transition.transition_scores(params.transition, ctxs, rows, row_step, lo, s_max,
                                        cands, h_f, keep_g, p_drop)
