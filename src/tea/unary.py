"""Graph-context unary score f.

Scores candidate items against the user's temporally evolving graph
neighborhood: per-step aggregation of the items the user's social
neighbors touched (mean-pooled or attention-weighted), a temporal GRU over
those per-step summaries, a static social aggregate, and a dot-product
head against the candidate embeddings. `user_vectors` is the only
implementation: it builds the user side of that dot product for a whole
minibatch, and g's candidate head (`transition.transition_scores`) takes
the product with each candidate. Its dropout mask comes from the caller,
drawn from each user's (seed, epoch, user) stream after g's. The
single-candidate reference lives with the tests.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import PreparedDataset, _ragged_arange
from .params import UnaryParams


def bipartite_aggregate_sage(params: UnaryParams, items: np.ndarray,
                             buckets: ad.Segments) -> Tensor:
    """relu(w_agg @ mean of bucket item embeddings) per bucket, shape (K, d).

    `items` holds the buckets' item ids one bucket after another, cut by
    `buckets`. An empty bucket yields zeros.
    """
    pooled = ad.segment_mean(ad.gather_rows(params.shared.item, items), buckets)
    return ad.relu(ad.linear(pooled, params.w_agg))


def bipartite_aggregate_attention(params: UnaryParams, anchors: np.ndarray,
                                  items: np.ndarray, buckets: ad.Segments) -> Tensor:
    """Attention-weighted sum of bucket item embeddings per bucket, shape (K, d).

    `items` holds the buckets' item ids one bucket after another, cut by
    `buckets`; bucket k is anchored on `anchors[k]`, the user's own item at
    that step. Weights are a softmax within the bucket over leaky-relu
    scores of the attention vector against [w_agg q_anchor (+) w_agg q_j];
    an empty bucket yields zeros.
    """
    d = params.shared.item.data.shape[1]
    q_bucket = ad.gather_rows(params.shared.item, items)               # (M, d)
    a_anchor = ad.slice_rows(params.attn_vec, 0, d)
    a_item = ad.slice_rows(params.attn_vec, d, 2 * d)
    q_anchor = ad.gather_rows(params.shared.item, anchors)             # (K, d)
    anchor_term = ad.matmul(ad.linear(q_anchor, params.w_agg), a_anchor)   # (K,)
    logits = ad.leaky_relu(ad.add(ad.matmul(ad.linear(q_bucket, params.w_agg), a_item),
                                  ad.gather_rows(anchor_term, buckets.ids)))
    weights = ad.reshape(ad.segment_softmax(logits, buckets), (buckets.size, 1))
    return ad.relu(ad.segment_sum(ad.mul(weights, q_bucket), buckets))


def social_aggregate(params: UnaryParams, neighbors: np.ndarray,
                     users: ad.Segments) -> Tensor:
    """relu(w_soc @ mean of neighbor user embeddings) per user, shape (B, d).

    `neighbors` holds the users' neighbor ids one user after another, cut by
    `users`; a user without neighbors gets zeros.
    """
    pooled = ad.segment_mean(ad.gather_rows(params.shared.user, neighbors), users)
    return ad.relu(ad.linear(pooled, params.w_soc))


def fuse_context(params: UnaryParams, h_temporal: Tensor, h_social: Tensor,
                 keep: np.ndarray | None = None, p_drop: float = 0.5) -> Tensor:
    """Two-layer head over [h_temporal (+) h_social], one (N, d) row each.

    Inverted dropout where `keep`, the (N, d) bool keep-mask, is given.
    """
    joint = ad.concat([h_temporal, h_social], axis=1)
    hidden = ad.relu(ad.linear(joint, params.w_f1, params.b_f1))
    h_user = ad.linear(hidden, params.w_f2, params.b_f2)
    if keep is not None:
        h_user = ad.mul(h_user, Tensor(keep / (1.0 - p_drop)))
    return h_user


def user_vectors(params: UnaryParams, ds: PreparedDataset, users: np.ndarray,
                 rows: ad.Segments, row_step: np.ndarray, lo_gru: np.ndarray,
                 s_max: np.ndarray, keep: np.ndarray | None, p_drop: float) -> Tensor:
    """f's user vector h_f for every (user, step) row of a minibatch, shape (N, d).

    f for row i and candidate c is `h_f[i] . e_c`, e_c the candidate's item
    embedding; g's candidate head takes that product together with g's.
    Row i belongs to user `users[rows.ids[i]]` and predicts step `row_step[i]`.
    User b's temporal GRU runs from a zero state over its buckets
    [lo_gru[b], s_max[b]), each aggregated against the user's own item at
    that step. All users step in lockstep over (B, d) states, as one
    `ad.gru_sequence` record; a user with fewer buckets is padded with empty
    ones at the end, which only move states no step reads. Step s reads the
    state after bucket s - 1 and fuses it with the social aggregate of the
    user's neighbors (`fuse_context`, dropout by `keep` included).
    """
    n_users = users.size
    row_user = rows.ids
    row_cell = row_step - lo_gru[row_user]
    depths = s_max - lo_gru
    n_steps = int(depths.max())

    # Step-major layout: bucket k = t * B + b is user b's t-th bucket; past a
    # user's last one, an empty bucket anchored on item 0.
    t = np.arange(n_steps)[:, None]
    real = t < depths                                       # (T, B)
    offset = lo_gru + t * real                              # a real step where not real
    step = (ds.step_start[users] + offset).ravel()
    buckets = ad.Segments(np.where(real.ravel(), ds.bucket_len[step], 0))
    items = ds.buckets[_ragged_arange(ds.bucket_start[step], buckets.counts)]
    if params.aggregator == "attention":
        anchors = np.where(real, ds.items[ds.item_start[users] + offset], 0).ravel()
        summaries = bipartite_aggregate_attention(params, anchors, items, buckets)
    else:
        summaries = bipartite_aggregate_sage(params, items, buckets)
    states = ad.gru_sequence(summaries, params.temporal_gru, n_steps)
    h_temporal = ad.gather_rows(states, (row_cell - 1) * n_users + row_user)
    counts = ds.social.counts[users]
    neighbors = ds.social.ids[_ragged_arange(ds.social.start[users], counts)]
    h_social = social_aggregate(params, neighbors, ad.Segments(counts))
    return fuse_context(params, h_temporal, ad.gather_rows(h_social, row_user), keep, p_drop)
