"""Behavior-sequence transition score g.

Scores candidate next items against the user's own history: causal
self-attention with position embeddings over the step's window, a
co-interaction walk GRU, and a bilinear head against the candidate
embeddings. `transition_scores` is the only implementation and scores a
whole minibatch at once; the single-candidate reference that mirrors the
formula term by term lives with the tests.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import TransitionParams


def transition_scores(params: TransitionParams, ctxs, steps: list[list[int]],
                      lo: list[int], cand_embs: Tensor, training: bool, rngs,
                      p_drop: float) -> Tensor:
    """g for every (user, step) row of a minibatch, shape (N, C).

    Row order is user by user, each user's steps in the order given;
    `cand_embs` (N, C, d) holds each row's candidate item embeddings.
    Attention for user b's step s runs over `ctxs[b].items[lo[b]:s]` with
    positions counted from 0; the candidate takes position s - lo[b]. The
    hidden state is h = p_user + w_g2 relu(w_g1 z + b_g1) + b_g2 with z the
    attention aggregate (zero for an empty window, the cold-start
    convention); the score is
    (w_g3 [h (+) h_walk_user (+) h_walk_item (+) p_user]) . q_candidate.
    Dropout hits h only in training mode, row i's mask drawn from rngs[i].
    """
    sh = params.shared
    d = sh.item.data.shape[1]
    n_rows, n_cands = cand_embs.data.shape[:2]
    counts = [len(st) for st in steps]
    row_user = np.repeat(np.arange(len(ctxs)), counts)
    row_step = np.concatenate([np.asarray(st, dtype=np.intp) for st in steps])
    row_n = row_step - np.repeat(np.asarray(lo, dtype=np.intp), counts)
    p_user = ad.gather_rows(sh.user, [ctx.user for ctx in ctxs])         # (B, d)

    # The (N, C, d) stages reuse one name, so each frees its input.
    if row_n.max() > 0:
        h = _attention(params, ctxs, steps, lo, row_user, row_n, cand_embs)
    else:
        # empty window (l_s = 1): z = 0, the cold start, leaves b_g1
        h = ad.add(ad.zeros(n_rows, n_cands, d), params.b_g1)
    bias = ad.add(ad.gather_rows(p_user, row_user[:, None]), params.b_g2)  # (N, 1, d)
    h = ad.linear(ad.relu(h), params.w_g2, bias)
    if training:
        h = ad.dropout(h, p_drop, rngs)

    w3 = params.w_g3
    shared_part = ad.gather_rows(ad.linear(p_user, ad.slice_cols(w3, 3 * d, 4 * d)),
                                 row_user[:, None])                      # (N, 1, d)
    if params.walk_gru is not None:
        walk_rows = np.flatnonzero([bool(ctxs[b].walks[s - 1])
                                    for b, s in zip(row_user, row_step)])
        if walk_rows.size:
            walk_part = _walk_terms(params, ctxs, p_user, row_user, row_step, walk_rows)
            shared_part = ad.add(walk_part, shared_part)
    h = ad.linear(h, ad.slice_cols(w3, 0, d), shared_part)
    return ad.row_sum(ad.mul(h, cand_embs))


def _attention(params: TransitionParams, ctxs, steps, lo, row_user, row_n,
               cand_embs: Tensor) -> Tensor:
    """w_g1 z + b_g1 for every row and candidate, shape (N, C, d).

    Each user's history window is padded at the end to the batch's widest
    window and a per-row causal mask hides every position from row_n on.
    """
    sh = params.shared
    d = sh.item.data.shape[1]
    width = int(row_n.max())
    history = np.zeros((len(ctxs), width), dtype=np.intp)  # padded with item 0
    for b, (ctx, st) in enumerate(zip(ctxs, steps)):
        window = ctx.items[lo[b]:max(st)]
        history[b, :len(window)] = window
    e_hist = ad.add(ad.gather_rows(sh.item, history),
                    ad.gather_rows(sh.position, np.arange(width)))       # (B, T, d)
    # (w_q e_cand) . (w_k e_t) / sqrt(d) = e_cand . (w_q^T w_k e_t) / sqrt(d):
    # the query projection and the scale fold into the per-user keys.
    w_qk = ad.scale(ad.matmul(ad.transpose(params.w_q), params.w_k), 1.0 / np.sqrt(d))
    keys = ad.transpose(ad.linear(e_hist, w_qk))                         # (B, d, T)
    # Attention weights sum to 1, so w_g1 z + b_g1 with z = sum_t a_t w_v e_t
    # equals sum_t a_t (w_g1 w_v e_t + b_g1): w_g1 and b_g1 fold into the values.
    values = ad.linear(e_hist, ad.matmul(params.w_g1, params.w_v), params.b_g1)
    causal = np.arange(width)[None, None, :] < row_n[:, None, None]      # (N, 1, T)
    e_cands = ad.add(cand_embs, ad.gather_rows(sh.position, row_n[:, None]))
    weights = ad.masked_softmax(ad.matmul(e_cands, ad.gather_rows(keys, row_user)), causal)
    return ad.matmul(weights, ad.gather_rows(values, row_user))


def _walk_terms(params: TransitionParams, ctxs, p_user: Tensor, row_user, row_step,
                walk_rows) -> Tensor:
    """w_g3's walk blocks applied to [h_walk_user (+) h_walk_item], shape (N, 1, d).

    Each walk runs the walk GRU over (user, anchor item, co-user) from a
    zero state; the user and item outputs do not depend on the co-user, so
    the mean over a nonempty walk set equals any single walk and one unroll
    of the first two stages suffices: one batched cell over the users, one
    over the rows in `walk_rows`, those whose walk set is nonempty. The
    other rows get zeros.
    """
    sh = params.shared
    d = sh.item.data.shape[1]
    w3 = params.w_g3
    h_wu = ad.gather_rows(ad.gru_cell(p_user, ad.zeros(len(ctxs), d), params.walk_gru),
                          row_user[walk_rows])
    anchors = [ctxs[row_user[i]].items[row_step[i] - 1] for i in walk_rows]
    h_wi = ad.gru_cell(ad.gather_rows(sh.item, anchors), h_wu, params.walk_gru)
    walk_part = ad.add(ad.linear(h_wu, ad.slice_cols(w3, d, 2 * d)),
                       ad.linear(h_wi, ad.slice_cols(w3, 2 * d, 3 * d)))
    # Rows without a walk set read the zero row in front of the walk terms.
    pick = np.zeros((len(row_user), 1), dtype=np.intp)
    pick[walk_rows, 0] = 1 + np.arange(walk_rows.size)
    return ad.gather_rows(ad.concat([ad.zeros(1, d), walk_part]), pick)
