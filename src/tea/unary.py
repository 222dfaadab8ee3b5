"""Graph-context unary score.

Scores a candidate item against the user's temporally evolving graph
neighborhood: per-step aggregation of the items the user's social
neighbors touched (mean-pooled or attention-weighted), a temporal GRU over
those per-step summaries, a static social aggregate, and a dot-product
head against the candidate embedding.
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


def bipartite_aggregate_attention(params: UnaryParams, anchor: int | None,
                                  bucket: list[int]) -> Tensor:
    """Attention-weighted sum of bucket item embeddings, anchored on the
    user's own item at that step.

    Weights are a softmax over leaky-relu scores of the attention vector
    against [w_agg q_anchor (+) w_agg q_j]. With no anchor available the
    mean-pooled path is used instead; an empty bucket yields zeros.
    """
    d = params.shared.item.data.shape[1]
    if not bucket:
        return ad.zeros(d)
    if anchor is None or params.attn_vec is None:
        return bipartite_aggregate_sage(params, bucket)
    q_bucket = ad.gather_rows(params.shared.item, bucket)
    projected = ad.matmul(q_bucket, ad.transpose(params.w_agg))
    a_anchor = ad.slice_rows(params.attn_vec, 0, d)
    a_item = ad.slice_rows(params.attn_vec, d, 2 * d)
    anchor_term = ad.dot(a_anchor,
                         ad.matmul(params.w_agg, embedding_row(params.shared.item, anchor)))
    logits = ad.leaky_relu(ad.add(ad.matmul(projected, a_item), anchor_term))
    weights = ad.masked_softmax(logits, np.ones(len(bucket), dtype=bool))
    return ad.relu(ad.matmul(weights, q_bucket))


def temporal_recurrence(params: UnaryParams, step_summaries: list[Tensor]) -> Tensor:
    """Fold the per-step aggregates through the temporal GRU from a zero state."""
    d = params.shared.item.data.shape[1]
    h = ad.zeros(d)
    for summary in step_summaries:
        h = ad.gru_cell(summary, h, params.temporal_gru)
    return h


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


def unary_score(params: UnaryParams, h_temporal: Tensor, h_social: Tensor,
                candidate: int, training: bool = False,
                rng: np.random.Generator | None = None,
                p_drop: float = 0.5) -> Tensor:
    """Scalar unary score: fused user context dotted with the candidate."""
    h_user = fuse_context(params, h_temporal, h_social, training, rng, p_drop)
    return ad.dot(h_user, embedding_row(params.shared.item, candidate))


def aggregate_steps(params: UnaryParams, buckets: list[list[int]],
                    anchors: list[int | None], l_s: int) -> Tensor:
    """Per-step bipartite aggregation followed by the temporal GRU.

    Consumes at most the last l_s steps. Aggregator choice follows the
    params' variant.
    """
    buckets = buckets[-l_s:]
    anchors = anchors[-l_s:]
    summaries = []
    for bucket, anchor in zip(buckets, anchors):
        if params.aggregator == "attention":
            summaries.append(bipartite_aggregate_attention(params, anchor, bucket))
        else:
            summaries.append(bipartite_aggregate_sage(params, bucket))
    return temporal_recurrence(params, summaries)
