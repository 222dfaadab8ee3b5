"""Behavior-sequence transition score g.

Scores candidate next items against the user's own history: causal
self-attention with position embeddings over the step's window, a
co-interaction walk GRU, and a bilinear head against the candidate
embeddings. `transition_scores` is the only implementation and scores a
whole minibatch at once, with f's user vector folded into the same head;
the single-candidate reference that mirrors the formula term by term lives
with the tests.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import PreparedDataset
from .params import TransitionParams


def transition_scores(params: TransitionParams, ds: PreparedDataset, users: np.ndarray,
                      rows: ad.Segments, row_step: np.ndarray, lo: np.ndarray,
                      s_max: np.ndarray, cands: np.ndarray, h_f: Tensor, keep,
                      p_drop: float) -> Tensor:
    """f + g for every (user, step) row of a minibatch, shape (N, C).

    Row i belongs to user `users[rows.ids[i]]` and predicts step
    `row_step[i]`; `cands` (N, C) holds each row's candidate item ids and h_f
    (N, d) f's user vectors (`unary.user_vectors`). Attention for user b's
    step s runs over its items [lo[b], s) with positions counted from 0; the
    candidate takes position s - lo[b]. The hidden state is
    h = p_user + w_g2 relu(w_g1 z + b_g1) + b_g2 with z the attention
    aggregate (zero for an empty window, the cold-start convention); g is
    (w_g3 [h (+) h_walk_user (+) h_walk_item (+) p_user]) . q_candidate.
    f = h_f . q_candidate is linear in the candidate too, so h_f joins the
    part of the head's vector that all of a row's candidates share.
    Dropout hits h only where `keep`, the (N, C, d) keep-mask, is given.
    Everything from the attention to the score is one `ad.candidate_head`
    record, which reads the candidates' embeddings from the item table.
    """
    sh = params.shared
    d = sh.item.data.shape[1]
    row_user = rows.ids
    p_user = ad.gather_rows(sh.user, users)                             # (B, d)
    bias = ad.add(ad.gather_rows(p_user, row_user[:, None]), params.b_g2)  # (N, 1, d)

    w3 = params.w_g3
    shared_part = ad.gather_rows(ad.linear(p_user, ad.slice_cols(w3, 3 * d, 4 * d)),
                                 row_user[:, None])                      # (N, 1, d)
    if params.walk_gru is not None:
        # A row's walk is anchored on the user's event at step - 1.
        event = row_step - 1
        walk_rows = np.flatnonzero(ds.walks[ds.step_start[users][row_user] + event])
        if walk_rows.size:
            anchors = ds.items[ds.item_start[users][row_user[walk_rows]] + event[walk_rows]]
            walk_part = _walk_terms(params, p_user, row_user, anchors, walk_rows)
            shared_part = ad.add(walk_part, shared_part)
    shared_part = ad.add(shared_part, ad.reshape(h_f, (row_user.size, 1, d)))
    row_n = row_step - lo[row_user]
    keys, values = _history(params, ds, users, lo, s_max)
    # l_s = 1 leaves every window empty: one zero position stands in, whose
    # value is exactly b_g1 under a softmax weight of exactly 1.
    return ad.candidate_head(sh.item, cands, values, params.w_g2, bias,
                             ad.slice_cols(w3, 0, d), shared_part, keys=keys,
                             pos=ad.gather_rows(sh.position, row_n), rows=rows,
                             widths=np.maximum(row_n, 1), keep=keep, p_drop=p_drop)


def _history(params: TransitionParams, ds: PreparedDataset, users: np.ndarray,
             lo: np.ndarray, s_max: np.ndarray) -> tuple[Tensor, Tensor]:
    """Attention keys and values of every user's history window, each (B, T, d).

    User b's window is its items [lo[b], s_max[b]). Each window is padded
    at the end to T, the batch's widest; the head's per-row causal width
    hides the padding. When every window is empty, T = 1 and the one
    position's embedding is zero.
    """
    sh = params.shared
    d = sh.item.data.shape[1]
    width = int((s_max - lo).max())
    if width == 0:
        e_hist = ad.zeros(users.size, 1, d)
    else:
        cols = np.arange(width)
        pad = cols >= (s_max - lo)[:, None]                      # padded with item 0
        history = ds.items[np.where(pad, 0, (ds.item_start[users] + lo)[:, None] + cols)]
        history[pad] = 0
        e_hist = ad.add(ad.gather_rows(sh.item, history),
                        ad.gather_rows(sh.position, np.arange(width)))   # (B, T, d)
    # (w_q e_cand) . (w_k e_t) / sqrt(d) = e_cand . (w_q^T w_k e_t) / sqrt(d):
    # the query projection and the scale fold into the per-user keys.
    w_qk = ad.scale(ad.matmul(ad.transpose(params.w_q), params.w_k), 1.0 / np.sqrt(d))
    keys = ad.linear(e_hist, w_qk)
    # Attention weights sum to 1, so w_g1 z + b_g1 with z = sum_t a_t w_v e_t
    # equals sum_t a_t (w_g1 w_v e_t + b_g1): w_g1 and b_g1 fold into the values.
    values = ad.linear(e_hist, ad.matmul(params.w_g1, params.w_v), params.b_g1)
    return keys, values


def _walk_terms(params: TransitionParams, p_user: Tensor, row_user: np.ndarray,
                anchors: np.ndarray, walk_rows: np.ndarray) -> Tensor:
    """w_g3's walk blocks applied to [h_walk_user (+) h_walk_item], shape (N, 1, d).

    Each walk runs the walk GRU over (user, anchor item, co-user) from a
    zero state; the user and item outputs do not depend on the co-user, so
    the mean over a nonempty walk set equals any single walk and one unroll
    of the first two stages suffices: one batched cell over the users'
    embeddings `p_user`, one over the rows in `walk_rows`, those whose
    anchor event's has-walk bit is set, with `anchors` their anchor items.
    The other rows get zeros.
    """
    sh = params.shared
    d = sh.item.data.shape[1]
    w3 = params.w_g3
    h_wu = ad.gather_rows(ad.gru_cell(p_user, ad.zeros(p_user.data.shape[0], d),
                                      params.walk_gru), row_user[walk_rows])
    h_wi = ad.gru_cell(ad.gather_rows(sh.item, anchors), h_wu, params.walk_gru)
    walk_part = ad.add(ad.linear(h_wu, ad.slice_cols(w3, d, 2 * d)),
                       ad.linear(h_wi, ad.slice_cols(w3, 2 * d, 3 * d)))
    # Rows without a walk read the zero row in front of the walk terms.
    pick = np.zeros((len(row_user), 1), dtype=np.intp)
    pick[walk_rows, 0] = 1 + np.arange(walk_rows.size)
    return ad.gather_rows(ad.concat([ad.zeros(1, d), walk_part]), pick)
