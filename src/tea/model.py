"""End-to-end candidate scoring: f + g through one route.

A UserContext holds everything the scorers may look at for one user and
split: the observed items, the neighbor-item buckets feeding the temporal
GRU, the co-interactor walk set of each observed event, and the social
neighborhood. Step s predicts the event after `items[:s]`; it sees
`buckets[:s]`, the walk set `walks[s - 1]` anchored at `items[s - 1]`, and
the neighbors. Contexts for held-out targets are built from pre-target
data only.

`score_user_steps` is the only production scorer: training passes all of
a user's steps, evaluation the single held-out step.
`score_candidates_single_route` recomputes the same scores one candidate
at a time and exists as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import transition, unary
from .autodiff import Tensor
from .data import PreparedDataset
from .params import ModelParams, embedding_row
from .transition import WalkAggregate


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
    computed once: the social aggregate, the temporal GRU states, attention
    keys and values, and the walk GRU's first stage. Windows follow the
    largest step s: attention runs over `items[max(0, s - (l_s - 1)):s]`
    with positions counted from 0 (the candidate takes the next position),
    the temporal GRU over `buckets[max(0, s - l_s):s]` from a zero state.
    Steps below l_s all share the window that starts at 0; a call whose
    steps would need windows with different starts raises ValueError.
    """
    l_s, d = params.l_s, params.d
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

    trans, un = params.transition, params.unary
    sh = params.shared
    items = ctx.items

    h_social = unary.social_aggregate(un, ctx.neighbors)
    h_states = [ad.zeros(d)]
    for t in range(lo_gru, s_max):
        if un.aggregator == "attention":
            summary = unary.bipartite_aggregate_attention(un, items[t], ctx.buckets[t])
        else:
            summary = unary.bipartite_aggregate_sage(un, ctx.buckets[t])
        h_states.append(ad.gru_cell(summary, h_states[-1], un.temporal_gru))

    p_user = embedding_row(sh.user, ctx.user)
    walk_h1 = None
    if params.use_walks and any(ctx.walks[s - 1] for s in steps):
        walk_h1 = ad.gru_cell(p_user, ad.zeros(d), trans.walk_gru)

    if s_max > lo:
        e_hist = ad.add(ad.gather_rows(sh.item, items[lo:s_max]),
                        ad.gather_rows(sh.position, list(range(s_max - lo))))
        keys = ad.matmul(e_hist, ad.transpose(trans.w_k))
        values = ad.matmul(e_hist, ad.transpose(trans.w_v))
    w3_h = ad.slice_cols(trans.w_g3, 0, d)
    w3_wu = ad.slice_cols(trans.w_g3, d, 2 * d)
    w3_wi = ad.slice_cols(trans.w_g3, 2 * d, 3 * d)
    w3_pu = ad.slice_cols(trans.w_g3, 3 * d, 4 * d)
    pu_part = ad.matmul(w3_pu, p_user)

    out = []
    inv_sqrt_d = 1.0 / np.sqrt(d)
    for s, cands, rng in zip(steps, candidate_lists, rngs):
        q_cands = ad.gather_rows(sh.item, cands)
        n = s - lo
        if n:
            e_cands = ad.add(q_cands, embedding_row(sh.position, n))
            queries = ad.matmul(e_cands, ad.transpose(trans.w_q))
            logits = ad.scale(
                ad.matmul(queries, ad.transpose(ad.slice_rows(keys, 0, n))), inv_sqrt_d)
            attn = ad.masked_softmax(logits, np.ones((len(cands), n), dtype=bool))
            z = ad.matmul(attn, ad.slice_rows(values, 0, n))
        else:
            z = ad.zeros(len(cands), d)  # empty window (l_s = 1): cold start
        hidden = ad.relu(ad.add(ad.matmul(z, ad.transpose(trans.w_g1)), trans.b_g1))
        h = ad.add(ad.add(ad.matmul(hidden, ad.transpose(trans.w_g2)), trans.b_g2),
                   p_user)
        if training:
            h = ad.dropout(h, p_drop, rng)
        if walk_h1 is not None and ctx.walks[s - 1]:
            h_wi = ad.gru_cell(embedding_row(sh.item, items[s - 1]), walk_h1,
                               trans.walk_gru)
            shared_part = ad.add(ad.add(ad.matmul(w3_wu, walk_h1),
                                        ad.matmul(w3_wi, h_wi)), pu_part)
        else:
            shared_part = pu_part
        g = ad.row_sum(ad.mul(ad.add(ad.matmul(h, ad.transpose(w3_h)), shared_part),
                              q_cands))
        h_user = unary.fuse_context(un, h_states[s - lo_gru], h_social, training,
                                    rng, p_drop)
        f = ad.matmul(q_cands, h_user)
        out.append(ad.add(f, g))
    return out


def score_candidates_single_route(params: ModelParams, ctx: UserContext, step: int,
                                  candidates: list[int]) -> np.ndarray:
    """Reference scoring through the one-candidate-at-a-time functions.

    The slow twin of `score_user_steps` for tests; evaluation mode only.
    The history keeps the last l_s - 1 items before the step and the
    temporal GRU its last l_s buckets.
    """
    l_s = params.l_s
    history = ctx.items[max(0, step - (l_s - 1)):step]
    if params.use_walks:
        walk = transition.walk_aggregate(params.transition, ctx.user,
                                         ctx.items[step - 1], ctx.walks[step - 1])
    else:
        walk = WalkAggregate(ad.zeros(params.d), ad.zeros(params.d), [])
    h_temporal = unary.aggregate_steps(params.unary, ctx.buckets[:step],
                                       ctx.items[:step], l_s)
    h_social = unary.social_aggregate(params.unary, ctx.neighbors)
    out = []
    for cand in candidates:
        g = transition.transition_score(params.transition, ctx.user, history,
                                        cand, walk)
        f = unary.unary_score(params.unary, h_temporal, h_social, cand)
        out.append(g.item() + f.item())
    return np.asarray(out)
