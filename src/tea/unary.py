"""Graph-context unary score f.

Scores candidate items against the user's temporally evolving graph
neighborhood: per-step aggregation of the items the user's social
neighbors touched (mean-pooled or attention-weighted), a temporal GRU over
those per-step summaries, a static social aggregate, and a dot-product
head against the candidate embeddings. `unary_scores` is the only
implementation and scores a whole minibatch at once; the single-candidate
reference lives with the tests.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import UnaryParams


def _segments(lists: list[list[int]]) -> tuple[np.ndarray, ad.Segments]:
    """The concatenated ids of `lists` and the segment each came from."""
    flat = np.fromiter(chain.from_iterable(lists), dtype=np.intp)
    return flat, ad.Segments([len(ids) for ids in lists])


def bipartite_aggregate_sage(params: UnaryParams, buckets: list[list[int]]) -> Tensor:
    """relu(w_agg @ mean of bucket item embeddings) per bucket, shape (K, d).

    An empty bucket yields zeros.
    """
    flat, seg = _segments(buckets)
    pooled = ad.segment_mean(ad.gather_rows(params.shared.item, flat), seg)
    return ad.relu(ad.linear(pooled, params.w_agg))


def bipartite_aggregate_attention(params: UnaryParams, anchors: list[int],
                                  buckets: list[list[int]]) -> Tensor:
    """Attention-weighted sum of bucket item embeddings per bucket, shape (K, d).

    Bucket k is anchored on `anchors[k]`, the user's own item at that step.
    Weights are a softmax within the bucket over leaky-relu scores of the
    attention vector against [w_agg q_anchor (+) w_agg q_j]; an empty bucket
    yields zeros.
    """
    d = params.shared.item.data.shape[1]
    flat, seg = _segments(buckets)
    q_bucket = ad.gather_rows(params.shared.item, flat)                # (M, d)
    a_anchor = ad.slice_rows(params.attn_vec, 0, d)
    a_item = ad.slice_rows(params.attn_vec, d, 2 * d)
    q_anchor = ad.gather_rows(params.shared.item, anchors)             # (K, d)
    anchor_term = ad.matmul(ad.linear(q_anchor, params.w_agg), a_anchor)   # (K,)
    logits = ad.leaky_relu(ad.add(ad.matmul(ad.linear(q_bucket, params.w_agg), a_item),
                                  ad.gather_rows(anchor_term, seg.ids)))
    weights = ad.reshape(ad.segment_softmax(logits, seg), (seg.size, 1))
    return ad.relu(ad.segment_sum(ad.mul(weights, q_bucket), seg))


def social_aggregate(params: UnaryParams, neighbor_lists: list[list[int]]) -> Tensor:
    """relu(w_soc @ mean of neighbor user embeddings) per user, shape (B, d).

    A user without neighbors gets zeros.
    """
    flat, seg = _segments(neighbor_lists)
    pooled = ad.segment_mean(ad.gather_rows(params.shared.user, flat), seg)
    return ad.relu(ad.linear(pooled, params.w_soc))


def fuse_context(params: UnaryParams, h_temporal: Tensor, h_social: Tensor,
                 training: bool = False, rngs=None, p_drop: float = 0.5) -> Tensor:
    """Two-layer head over [h_temporal (+) h_social], one (N, d) row each.

    Dropout in training mode, row i's mask drawn from rngs[i].
    """
    joint = ad.concat([h_temporal, h_social], axis=1)
    hidden = ad.relu(ad.linear(joint, params.w_f1, params.b_f1))
    h_user = ad.linear(hidden, params.w_f2, params.b_f2)
    if training:
        h_user = ad.dropout(h_user, p_drop, rngs)
    return h_user


def unary_scores(params: UnaryParams, ctxs, steps: list[list[int]],
                 lo_gru: list[int], cand_embs: Tensor, training: bool, rngs,
                 p_drop: float) -> Tensor:
    """f for every (user, step) row of a minibatch, shape (N, C).

    Row order is user by user, each user's steps in the order given. User
    b's temporal GRU runs from a zero state over `ctxs[b].buckets[lo_gru[b]:s]`
    for its largest step s, each bucket aggregated against the user's own
    item at that step. All users step in lockstep over (B, d) states; a user
    with fewer buckets is padded with empty ones at the end, which only move
    states no step reads. Step s reads the state after bucket s - 1, fuses
    it with the social aggregate of the user's neighbors and dots it with
    the rows of `cand_embs` (N, C, d).
    """
    d = params.shared.item.data.shape[1]
    n_users = len(ctxs)
    counts = [len(st) for st in steps]
    row_user = np.repeat(np.arange(n_users), counts)
    row_cell = (np.concatenate([np.asarray(st, dtype=np.intp) for st in steps])
                - np.repeat(np.asarray(lo_gru, dtype=np.intp), counts))
    depths = [max(st) - lo for st, lo in zip(steps, lo_gru)]

    # Step-major layout: bucket k = t * B + b is user b's t-th bucket.
    buckets, anchors = [], []
    for t in range(max(depths)):
        for ctx, lo, depth in zip(ctxs, lo_gru, depths):
            if t < depth:
                buckets.append(ctx.buckets[lo + t])
                anchors.append(ctx.items[lo + t])
            else:
                buckets.append([])
                anchors.append(0)
    if params.aggregator == "attention":
        summaries = bipartite_aggregate_attention(params, anchors, buckets)
    else:
        summaries = bipartite_aggregate_sage(params, buckets)
    h = ad.zeros(n_users, d)
    states = []
    for t in range(max(depths)):
        x = ad.slice_rows(summaries, t * n_users, (t + 1) * n_users)
        h = ad.gru_cell(x, h, params.temporal_gru)
        states.append(h)
    h_temporal = ad.gather_rows(ad.concat(states), (row_cell - 1) * n_users + row_user)
    h_social = ad.gather_rows(social_aggregate(params, [ctx.neighbors for ctx in ctxs]),
                              row_user)
    h_user = fuse_context(params, h_temporal, h_social, training, rngs, p_drop)
    n_rows, n_cands = cand_embs.data.shape[:2]
    scores = ad.matmul(cand_embs, ad.reshape(h_user, (n_rows, d, 1)))   # (N, C, 1)
    return ad.reshape(scores, (n_rows, n_cands))
