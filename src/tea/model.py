"""End-to-end candidate scoring: f + g through one route.

A UserContext holds everything the scorers may look at for one user and
split: the observed items, the neighbor-item buckets feeding the temporal
GRU, the co-interactor walk set of each observed event, and the social
neighborhood. Step s predicts the event after `items[:s]`; it sees
`buckets[:s]`, the walk set `walks[s - 1]` anchored at `items[s - 1]`, and
the neighbors. Contexts for held-out targets are built from pre-target
data only.

`score_user_steps` is the only scorer: training passes all of a user's
steps, evaluation the single held-out step. It fixes the windows and adds
the two potentials, the transition score g (`transition.transition_scores`)
and the unary score f (`unary.unary_scores`).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def score_user_steps(params: ModelParams, ctx: UserContext, steps: list[int],
                     candidate_lists: list[list[int]], training: bool = False,
                     rngs: list | None = None, p_drop: float = 0.5) -> list[Tensor]:
    """f + g for the candidate set of each step, shape (len(candidates),) each.

    Everything that does not depend on the step or the candidate is
    computed once per call by the two scorers. Windows follow the largest
    step s: attention runs over `items[max(0, s - (l_s - 1)):s]` with
    positions counted from 0 (the candidate takes the next position), the
    temporal GRU over `buckets[max(0, s - l_s):s]` from a zero state. Steps
    below l_s all share the window that starts at 0; a call whose steps
    would need windows with different starts raises ValueError. Each step's
    rng draws g's dropout mask before f's.
    """
    l_s = params.l_s
    s_max = max(steps)
    if min(steps) < 1 or s_max > len(ctx.buckets):
        raise IndexError(f"steps {steps} out of range for user {ctx.user}")
    lo = max(0, s_max - (l_s - 1))
    if any(max(0, s - (l_s - 1)) != lo for s in steps):
        raise ValueError(f"steps {steps} need more than one attention window "
                         f"(l_s={l_s}); score them in separate calls")
    lo_gru = max(0, s_max - l_s)
    if rngs is None:
        rngs = [None] * len(steps)
    cand_embs = [ad.gather_rows(params.shared.item, cands) for cands in candidate_lists]
    gs = transition.transition_scores(params.transition, ctx, steps, lo, cand_embs,
                                      training, rngs, p_drop)
    fs = unary.unary_scores(params.unary, ctx, steps, lo_gru, cand_embs,
                            training, rngs, p_drop)
    return [ad.add(f, g) for f, g in zip(fs, gs)]
