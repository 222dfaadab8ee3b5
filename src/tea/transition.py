"""Behavior-sequence transition score.

Scores a candidate next item against the user's own history: causal
self-attention with position embeddings over the truncated sequence,
a co-interaction walk GRU, and a bilinear head against the candidate
embedding. The functions here score one candidate at a time and mirror
the score formula term by term; `model.score_user_steps` computes the
same scores for whole candidate sets, and tests assert the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import TransitionParams, embedding_row


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
    if training:
        h = ad.dropout(h, p_drop, rng)
    joint = ad.concat([h, walk.h_user, walk.h_item, p_user])
    projected = ad.matmul(params.w_g3, joint)
    return ad.dot(projected, embedding_row(params.shared.item, candidate))
