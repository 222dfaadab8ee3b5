"""End-to-end candidate scoring: f + g as one program per minibatch.

Step s of a user predicts the event after its first s items; it sees the
first s neighbor-item buckets feeding the temporal GRU, the has-walk bit
of item s - 1 (the walk is anchored there), and the social neighborhood.
The prepared arrays keep each user's segment in time order, so the context
of every split is a prefix of that segment, and the split only bounds the
step: training steps run to n - 1, validation adds step n (its bucket ends
at the validation timestamp) and test step n + 1 (it also sees the
validation event). No step reads an event at or after its own target, and
buckets and walks hold training events only.

`score_user_steps` is the only scorer: training passes a minibatch of
users with all their steps, evaluation a chunk of users with the held-out
step each. It fixes each user's windows and the row layout, takes f's user
vector from `unary.user_vectors` and scores f + g in g's candidate head
(`transition.transition_scores`). In training mode each user brings one
random stream, keyed on (seed, epoch, user), that draws the dropout masks
of all the user's rows.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import transition, unary
from .autodiff import Tensor
from .data import PreparedDataset
from .params import ModelParams


def last_steps(ds: PreparedDataset, split: str) -> np.ndarray:
    """Every user's last step under `split`, with n its training events: n - 1
    for training, n for validation and n + 1 for test, the held-out steps."""
    splits = ("train", "val", "test")
    if split not in splits:
        raise ValueError(f"split must be 'train', 'val' or 'test', got {split!r}")
    return ds.seq_len.astype(np.intp) + splits.index(split) - 1


def score_user_steps(params: ModelParams, ds: PreparedDataset, split: str, users,
                     steps, candidates, training: bool = False, rngs: list | None = None,
                     p_drop: float = 0.5) -> Tensor:
    """f + g for a minibatch of (user, step) rows, one (N, C) score matrix.

    `steps[b]` lists the steps scored for user `users[b]` under `split`;
    a step below 1 or past the split's last one (`last_steps`) raises
    IndexError. Rows run user by user, each user's steps in the order
    given, and `candidates` is the (N, C) int array of each row's candidate
    items. Windows follow each user's largest step s: attention runs over
    its items [max(0, s - (l_s - 1)), s) with positions counted from 0 (the
    candidate takes the next position), the temporal GRU over its buckets
    [max(0, s - l_s), s) from a zero state. Steps below l_s all share the
    window that starts at 0; a user whose steps would need windows with
    different starts raises ValueError. In training mode `rngs[b]` is user
    b's stream, keyed on (seed, epoch, user) by `train`; it draws g's
    (R_b, C, d) keep-mask for all of the user's R_b rows, then f's (R_b, d).
    No row's scores depend on the other users in the batch.
    """
    last = last_steps(ds, split)
    users = np.asarray(users, dtype=np.intp)
    if len(steps) != users.size or not users.size:
        raise ValueError(f"{users.size} users need as many step lists, got {len(steps)}")
    rows = ad.Segments([len(st) for st in steps])  # each user's rows, consecutive
    row_step = np.concatenate([np.asarray(st, dtype=np.intp) for st in steps])
    outside = ~rows.nonempty
    outside[rows.ids[(row_step < 1) | (row_step > last[users[rows.ids]])]] = True
    if outside.any():
        b = int(np.argmax(outside))
        raise IndexError(f"steps {row_step[rows.ids == b].tolist()} out of range for "
                         f"user {users[b]} in split {split!r}")
    s_max = np.maximum.reduceat(row_step, rows.starts)
    l_s = params.l_s
    lo = np.maximum(s_max - (l_s - 1), 0)        # attention windows
    lo_gru = np.maximum(s_max - l_s, 0)           # temporal GRU windows
    cut = np.flatnonzero(np.maximum(row_step - (l_s - 1), 0) != lo[rows.ids])
    if cut.size:
        b = rows.ids[cut[0]]
        raise ValueError(f"steps {row_step[rows.ids == b].tolist()} of user {users[b]} "
                         f"need more than one attention window (l_s={l_s}); score "
                         f"them in separate calls")
    cands = np.asarray(candidates, dtype=np.intp)
    n_rows = row_step.size
    if cands.ndim != 2 or cands.shape[0] != n_rows:
        raise ValueError(f"candidates of shape {cands.shape} for {n_rows} steps")
    keep_g = keep_f = None
    if training and p_drop > 0.0:
        if rngs is None or len(rngs) != users.size:
            raise ValueError(f"training mode needs one rng per user ({users.size})")
        d = params.shared.item.data.shape[1]
        keep_g = np.empty(cands.shape + (d,), dtype=bool)
        keep_f = np.empty((n_rows, d), dtype=bool)
        for rng, a, n in zip(rngs, rows.starts.tolist(), rows.counts.tolist()):
            keep_g[a:a + n] = rng.random((n,) + keep_g.shape[1:]) >= p_drop
            keep_f[a:a + n] = rng.random((n, d)) >= p_drop
    h_f = unary.user_vectors(params.unary, ds, users, rows, row_step, lo_gru, s_max,
                             keep_f, p_drop)
    return transition.transition_scores(params.transition, ds, users, rows, row_step, lo,
                                        s_max, cands, h_f, keep_g, p_drop)
