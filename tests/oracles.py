"""Single-candidate reference scorers for the tests.

Each function scores one candidate at a time and mirrors the score formula
term by term: the transition score g (causal attention, walk GRU, bilinear
head), the unary score f (per-bucket aggregation, temporal GRU, fused
head) and their sum through `score_candidates_single_route`. The
production route, `tea.model.score_user_steps`, computes the same scores
for whole minibatches of users, steps and candidate sets, and the tests
assert the two agree. The oracles share only the engine's primitives and
GRU cell with it, not its batched aggregators.
`exact_conditional` enumerates the per-step softmax over a small item set,
and `predict_probability` is sigmoid(f + g).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tea import autodiff as ad
from tea.autodiff import Tensor
from tea.model import UserContext
from tea.params import ModelParams, TransitionParams, UnaryParams


def embedding_row(table: Tensor, index: int) -> Tensor:
    """One row of an embedding table as a flat d-vector (differentiable)."""
    d = table.data.shape[1]
    return ad.reshape(ad.gather_rows(table, [index]), (d,))


def _mean_rows(rows: Tensor) -> Tensor:
    n = rows.data.shape[0]
    return ad.scale(ad.matmul(ad.Tensor(np.ones(n)), rows), 1.0 / n)


def bipartite_aggregate_sage(params: UnaryParams, bucket: list[int]) -> Tensor:
    """relu(w_agg @ mean of bucket item embeddings); empty bucket -> zeros."""
    d = params.shared.item.data.shape[1]
    if not bucket:
        return ad.zeros(d)
    pooled = _mean_rows(ad.gather_rows(params.shared.item, bucket))
    return ad.relu(ad.matmul(params.w_agg, pooled))


def bipartite_aggregate_attention(params: UnaryParams, anchor: int,
                                  bucket: list[int]) -> Tensor:
    """Softmax over leaky-relu(attn . [w_agg q_anchor (+) w_agg q_j]) weights
    of the bucket item embeddings, then relu; empty bucket -> zeros."""
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
    pooled = _mean_rows(ad.gather_rows(params.shared.user, neighbors))
    return ad.relu(ad.matmul(params.w_soc, pooled))


def fuse_context(params: UnaryParams, h_temporal: Tensor, h_social: Tensor,
                 training: bool = False, rng: np.random.Generator | None = None,
                 p_drop: float = 0.5) -> Tensor:
    """Two-layer head over [h_temporal (+) h_social]; dropout in training mode."""
    joint = ad.concat([h_temporal, h_social])
    hidden = ad.relu(ad.add(ad.matmul(params.w_f1, joint), params.b_f1))
    h_user = ad.add(ad.matmul(params.w_f2, hidden), params.b_f2)
    if training and p_drop > 0.0:
        keep = rng.random(h_user.data.shape) >= p_drop
        h_user = ad.mul(h_user, ad.Tensor(keep / (1.0 - p_drop)))
    return h_user


class EmptyHistoryError(ValueError):
    """Attention was asked for weights over an empty history."""


def _history_embeddings(params: TransitionParams, history: list[int]) -> Tensor:
    """Item-plus-position embeddings for the history window, one row per step."""
    sh = params.shared
    positions = list(range(len(history)))
    return ad.add(ad.gather_rows(sh.item, history),
                  ad.gather_rows(sh.position, positions))


def _candidate_embedding(params: TransitionParams, candidate: int,
                         position: int) -> Tensor:
    sh = params.shared
    return ad.add(embedding_row(sh.item, candidate),
                  embedding_row(sh.position, position))


def causal_attention_weights(params: TransitionParams, history: list[int],
                             candidate: int) -> Tensor:
    """Softmax over history steps of scaled query-key scores.

    The query is the candidate's (item + position) embedding projected by
    w_q; keys are the historical embeddings projected by w_k. Only steps
    strictly before the candidate position participate, which is enforced
    structurally: `history` is exactly that prefix.
    """
    if not history:
        raise EmptyHistoryError("attention weights need a nonempty history")
    d = params.shared.item.data.shape[1]
    e_hist = _history_embeddings(params, history)
    e_cand = _candidate_embedding(params, candidate, len(history))
    query = ad.matmul(params.w_q, e_cand)
    keys = ad.matmul(e_hist, ad.transpose(params.w_k))
    logits = ad.scale(ad.matmul(keys, query), 1.0 / np.sqrt(d))
    return ad.masked_softmax(logits, np.ones(len(history), dtype=bool))


def aggregate_history(params: TransitionParams, weights: Tensor,
                      history: list[int]) -> Tensor:
    """Attention-weighted sum of value-projected history embeddings."""
    if weights.data.shape != (len(history),):
        raise ad.ShapeError("aggregate-history", weights.data.shape, (len(history),))
    e_hist = _history_embeddings(params, history)
    values = ad.matmul(e_hist, ad.transpose(params.w_v))
    return ad.matmul(weights, values)


@dataclass
class WalkAggregate:
    h_user: Tensor
    h_item: Tensor
    h_others: list[Tensor]  # per-walk third-step outputs, diagnostics only


def walk_aggregate(params: TransitionParams, user: int, anchor_item: int | None,
                   walk_users: list[int]) -> WalkAggregate:
    """Run the walk GRU over each (user, item, co-user) triple and average.

    Each walk feeds its three embeddings through the walk GRU from a zero
    state; the per-step outputs are read as the user, item and co-user
    representations. The user and item outputs are averaged over walks
    (they do not depend on the co-user, so the mean equals any single
    walk's value); the co-user outputs are returned for diagnostics. An
    empty walk set yields zero vectors.
    """
    d = params.shared.item.data.shape[1]
    if not walk_users or anchor_item is None or params.walk_gru is None:
        return WalkAggregate(ad.zeros(d), ad.zeros(d), [])
    sh = params.shared
    gru = params.walk_gru
    p_user = embedding_row(sh.user, user)
    q_item = embedding_row(sh.item, anchor_item)
    h_users, h_items, h_others = [], [], []
    for other in walk_users:
        h1 = ad.gru_cell(p_user, ad.zeros(d), gru)
        h2 = ad.gru_cell(q_item, h1, gru)
        h3 = ad.gru_cell(embedding_row(sh.user, other), h2, gru)
        h_users.append(h1)
        h_items.append(h2)
        h_others.append(h3)
    inv = 1.0 / len(walk_users)
    h_user = ad.scale(_sum(h_users), inv)
    h_item = ad.scale(_sum(h_items), inv)
    return WalkAggregate(h_user, h_item, h_others)


def _sum(tensors: list[Tensor]) -> Tensor:
    acc = tensors[0]
    for t in tensors[1:]:
        acc = ad.add(acc, t)
    return acc


def transition_score(params: TransitionParams, user: int, history: list[int],
                     candidate: int, walk: WalkAggregate,
                     training: bool = False, rng: np.random.Generator | None = None,
                     p_drop: float = 0.5) -> Tensor:
    """Scalar transition score for one candidate.

    h = p_user + w_g2 @ relu(w_g1 @ z + b_g1) + b_g2, with z the attention
    aggregate of the history (zero for an empty history, the cold-start
    convention); the score is (w_g3 [h (+) h_walk_user (+) h_walk_item (+)
    p_user]) . q_candidate. Dropout hits h only in training mode.
    """
    d = params.shared.item.data.shape[1]
    p_user = embedding_row(params.shared.user, user)
    if history:
        weights = causal_attention_weights(params, history, candidate)
        z = aggregate_history(params, weights, history)
    else:
        z = ad.zeros(d)
    hidden = ad.relu(ad.add(ad.matmul(params.w_g1, z), params.b_g1))
    h = ad.add(ad.add(p_user, ad.matmul(params.w_g2, hidden)), params.b_g2)
    if training and p_drop > 0.0:
        keep = rng.random(h.data.shape) >= p_drop
        h = ad.mul(h, ad.Tensor(keep / (1.0 - p_drop)))
    joint = ad.concat([h, walk.h_user, walk.h_item, p_user])
    projected = ad.matmul(params.w_g3, joint)
    return ad.matmul(projected, embedding_row(params.shared.item, candidate))


def temporal_recurrence(params: UnaryParams, step_summaries: list[Tensor]) -> Tensor:
    """Fold the per-step aggregates through the temporal GRU from a zero state."""
    d = params.shared.item.data.shape[1]
    h = ad.zeros(d)
    for summary in step_summaries:
        h = ad.gru_cell(summary, h, params.temporal_gru)
    return h


def unary_score(params: UnaryParams, h_temporal: Tensor, h_social: Tensor,
                candidate: int, training: bool = False,
                rng: np.random.Generator | None = None,
                p_drop: float = 0.5) -> Tensor:
    """Scalar unary score: fused user context dotted with the candidate."""
    h_user = fuse_context(params, h_temporal, h_social, training, rng, p_drop)
    return ad.matmul(h_user, embedding_row(params.shared.item, candidate))


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
        walk = walk_aggregate(params.transition, ctx.user, ctx.items[step - 1],
                              ctx.walks[step - 1])
    else:
        walk = WalkAggregate(ad.zeros(params.d), ad.zeros(params.d), [])
    h_temporal = aggregate_steps(params.unary, ctx.buckets[:step], ctx.items[:step],
                                 l_s)
    h_social = social_aggregate(params.unary, ctx.neighbors)
    out = []
    for cand in candidates:
        g = transition_score(params.transition, ctx.user, history, cand, walk)
        f = unary_score(params.unary, h_temporal, h_social, cand)
        out.append(g.item() + f.item())
    return np.asarray(out)


def exact_conditional(scores: np.ndarray) -> np.ndarray:
    """Softmax over the full item set's combined scores (max-subtracted).

    Enumeration oracle for small item sets; never used in training.
    """
    s = np.asarray(scores, dtype=np.float64)
    shifted = s - s.max()
    e = np.exp(shifted)
    return e / e.sum()


def predict_probability(f_score: float, g_score: float) -> float:
    """sigmoid(f + g): the inference-time probability of choosing the item."""
    x = float(f_score) + float(g_score)
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)
