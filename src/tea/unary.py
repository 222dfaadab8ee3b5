"""Graph-context unary score f.

Scores candidate items against the user's temporally evolving graph
neighborhood: per-step aggregation of the items the user's social
neighbors touched (mean-pooled or attention-weighted), a temporal GRU over
those per-step summaries, a static social aggregate, and a dot-product
head against the candidate embeddings. `unary_scores` is the only
implementation; the single-candidate reference lives with the tests.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import UnaryParams, embedding_row


def bipartite_aggregate_sage(params: UnaryParams, bucket: list[int]) -> Tensor:
    """relu(w_agg @ mean of bucket item embeddings); empty bucket -> zeros."""
    d = params.shared.item.data.shape[1]
    if not bucket:
        return ad.zeros(d)
    pooled = ad.mean_pool(ad.gather_rows(params.shared.item, bucket))
    return ad.relu(ad.matmul(params.w_agg, pooled))


def bipartite_aggregate_attention(params: UnaryParams, anchor: int,
                                  bucket: list[int]) -> Tensor:
    """Attention-weighted sum of bucket item embeddings, anchored on the
    user's own item at that step.

    Weights are a softmax over leaky-relu scores of the attention vector
    against [w_agg q_anchor (+) w_agg q_j]; an empty bucket yields zeros.
    """
    d = params.shared.item.data.shape[1]
    if not bucket:
        return ad.zeros(d)
    q_bucket = ad.gather_rows(params.shared.item, bucket)
    projected = ad.matmul(q_bucket, ad.transpose(params.w_agg))
    a_anchor = ad.slice_rows(params.attn_vec, 0, d)
    a_item = ad.slice_rows(params.attn_vec, d, 2 * d)
    q_anchor = embedding_row(params.shared.item, anchor)
    anchor_term = ad.matmul(a_anchor, ad.matmul(params.w_agg, q_anchor))
    logits = ad.leaky_relu(ad.add(ad.matmul(projected, a_item), anchor_term))
    weights = ad.masked_softmax(logits, np.ones(len(bucket), dtype=bool))
    return ad.relu(ad.matmul(weights, q_bucket))


def social_aggregate(params: UnaryParams, neighbors: list[int]) -> Tensor:
    """relu(w_soc @ mean of neighbor user embeddings); no neighbors -> zeros."""
    d = params.shared.user.data.shape[1]
    if not neighbors:
        return ad.zeros(d)
    pooled = ad.mean_pool(ad.gather_rows(params.shared.user, neighbors))
    return ad.relu(ad.matmul(params.w_soc, pooled))


def fuse_context(params: UnaryParams, h_temporal: Tensor, h_social: Tensor,
                 training: bool = False, rng: np.random.Generator | None = None,
                 p_drop: float = 0.5) -> Tensor:
    """Two-layer head over [h_temporal (+) h_social]; dropout in training mode."""
    joint = ad.concat([h_temporal, h_social])
    hidden = ad.relu(ad.add(ad.matmul(params.w_f1, joint), params.b_f1))
    h_user = ad.add(ad.matmul(params.w_f2, hidden), params.b_f2)
    if training:
        h_user = ad.dropout(h_user, p_drop, rng)
    return h_user


def unary_scores(params: UnaryParams, ctx, steps: list[int], lo_gru: int,
                 cand_embs: list[Tensor], training: bool, rngs: list,
                 p_drop: float) -> list[Tensor]:
    """f for each step's candidates, shape (len(candidates),) each.

    The temporal GRU runs from a zero state over `ctx.buckets[lo_gru:s]`,
    each bucket aggregated against the user's own item at that step; the
    state after step s - 1 is fused with the social aggregate of
    `ctx.neighbors` and dotted with the rows of `cand_embs[i]`, step i's
    candidate embeddings. The GRU runs once up to the largest step, so every
    step in one call must share lo_gru.
    """
    d = params.shared.item.data.shape[1]
    h_social = social_aggregate(params, ctx.neighbors)
    h_states = [ad.zeros(d)]
    for t in range(lo_gru, max(steps)):
        if params.aggregator == "attention":
            summary = bipartite_aggregate_attention(params, ctx.items[t], ctx.buckets[t])
        else:
            summary = bipartite_aggregate_sage(params, ctx.buckets[t])
        h_states.append(ad.gru_cell(summary, h_states[-1], params.temporal_gru))

    out = []
    for s, q_cands, rng in zip(steps, cand_embs, rngs):
        h_user = fuse_context(params, h_states[s - lo_gru], h_social, training,
                              rng, p_drop)
        out.append(ad.matmul(q_cands, h_user))
    return out
