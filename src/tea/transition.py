"""Behavior-sequence transition score g.

Scores candidate next items against the user's own history: causal
self-attention with position embeddings over the step's window, a
co-interaction walk GRU, and a bilinear head against the candidate
embeddings. `transition_scores` is the only implementation; the
single-candidate reference that mirrors the formula term by term lives
with the tests.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import TransitionParams, embedding_row


def transition_scores(params: TransitionParams, ctx, steps: list[int], lo: int,
                      cand_embs: list[Tensor], training: bool, rngs: list,
                      p_drop: float) -> list[Tensor]:
    """g for each step's candidates, shape (len(candidates),) each.

    Attention for step s runs over `ctx.items[lo:s]` with positions counted
    from 0; the candidate takes position s - lo. `cand_embs[i]` holds the
    item embeddings of step i's candidates, one row each. The hidden state is
    h = p_user + w_g2 relu(w_g1 z + b_g1) + b_g2 with z the attention
    aggregate (zero for an empty window, the cold-start convention); the score
    is (w_g3 [h (+) h_walk_user (+) h_walk_item (+) p_user]) . q_candidate.
    Each walk runs the walk GRU over (user, anchor item, co-user) from a zero
    state; the user and item outputs do not depend on the co-user, so the mean
    over a nonempty walk set equals any single walk and one unroll of the
    first two stages suffices. Dropout hits h only in training mode.
    """
    sh = params.shared
    d = sh.item.data.shape[1]
    items = ctx.items
    s_max = max(steps)

    p_user = embedding_row(sh.user, ctx.user)
    walk_h1 = None
    if params.walk_gru is not None and any(ctx.walks[s - 1] for s in steps):
        walk_h1 = ad.gru_cell(p_user, ad.zeros(d), params.walk_gru)

    if s_max > lo:
        e_hist = ad.add(ad.gather_rows(sh.item, items[lo:s_max]),
                        ad.gather_rows(sh.position, list(range(s_max - lo))))
        keys = ad.matmul(e_hist, ad.transpose(params.w_k))
        values = ad.matmul(e_hist, ad.transpose(params.w_v))
        w_q_t = ad.transpose(params.w_q)
    w_g1_t = ad.transpose(params.w_g1)
    w_g2_t = ad.transpose(params.w_g2)
    w3_h_t = ad.transpose(ad.slice_cols(params.w_g3, 0, d))
    w3_wu = ad.slice_cols(params.w_g3, d, 2 * d)
    w3_wi = ad.slice_cols(params.w_g3, 2 * d, 3 * d)
    pu_part = ad.matmul(ad.slice_cols(params.w_g3, 3 * d, 4 * d), p_user)

    out = []
    inv_sqrt_d = 1.0 / np.sqrt(d)
    for s, q_cands, rng in zip(steps, cand_embs, rngs):
        n_cands = q_cands.data.shape[0]
        n = s - lo
        if n:
            e_cands = ad.add(q_cands, embedding_row(sh.position, n))
            queries = ad.matmul(e_cands, w_q_t)
            logits = ad.scale(
                ad.matmul(queries, ad.transpose(ad.slice_rows(keys, 0, n))), inv_sqrt_d)
            attn = ad.masked_softmax(logits, np.ones((n_cands, n), dtype=bool))
            z = ad.matmul(attn, ad.slice_rows(values, 0, n))
        else:
            z = ad.zeros(n_cands, d)  # empty window (l_s = 1): cold start
        hidden = ad.relu(ad.add(ad.matmul(z, w_g1_t), params.b_g1))
        h = ad.add(ad.add(ad.matmul(hidden, w_g2_t), params.b_g2), p_user)
        if training:
            h = ad.dropout(h, p_drop, rng)
        if walk_h1 is not None and ctx.walks[s - 1]:
            h_wi = ad.gru_cell(embedding_row(sh.item, items[s - 1]), walk_h1,
                               params.walk_gru)
            shared_part = ad.add(ad.add(ad.matmul(w3_wu, walk_h1),
                                        ad.matmul(w3_wi, h_wi)), pu_part)
        else:
            shared_part = pu_part
        out.append(ad.row_sum(ad.mul(ad.add(ad.matmul(h, w3_h_t), shared_part),
                                     q_cands)))
    return out
