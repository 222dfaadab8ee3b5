"""Single-candidate reference scorers for the tests.

Each function scores one candidate at a time and mirrors the score formula
term by term: the transition score g (causal attention, walk GRU, bilinear
head), the unary score f (per-bucket aggregation, temporal GRU, fused
head) and their sum through `score_candidates_single_route`. The
production route, `tea.model.score_user_steps`, computes the same scores
for whole minibatches of users, steps and candidate sets, and the tests
assert the two agree. The oracles share only the engine's elementary
primitives and the walk GRU's cell with it, not its batched aggregators,
its candidate head or its GRU over whole sequences: the temporal GRU runs
`gru_step`, a plain numpy GRU step. Each softmax is a one-segment
`segment_softmax`.
`exact_conditional` enumerates the per-step softmax over a small item set,
and `predict_probability` is sigmoid(f + g). `hr_at_k` and `ndcg_at_k`
score one user's rank; `tea.evaluation.evaluate_all` averages them over
all users' ranks at once, and the tests assert the two agree.

The optimizer's reference route is the whole-array one: `total_loss` tapes
the L2 penalty from `mul` and `total_sum`, `clip` scales every gradient by
one global-norm factor and `adam_update` applies the bias-corrected update
as whole-array expressions. `tea.autodiff.adam_step` computes the same
step block by block, with the penalty's gradient and the clip inside.

`build_neighbor_item_buckets` is the per-user reference for the bucket
windows: bisect over one user's neighbors' training events, sorted as
(ts, item) tuples. `tea.data.build_neighbor_item_buckets` cuts every
user's windows at once, and the tests assert the two agree.

`load_social_edges` is the reference parse of a social edge file: a set
of neighbors per user, each sorted at the end. `tea.data.load_social_edges`
builds the graph's two arrays with one np.unique, and the tests assert
they hold the same lists.

`co_interactors` is the brute-force walk set of one event: the distinct
users of the item's whole +-tau window, capped by the keyed draw.
`tea.data.extract_time_restricted_walks` keeps only whether that set is
nonempty, one bit per event, and the tests assert the bit equals
`bool(co_interactors(...))`. The bit is all the score needs: the walk
GRU's user and item outputs do not depend on the co-user, so
`walk_aggregate` over any nonempty set gives the single walk's values.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from tea import autodiff as ad
from tea.autodiff import Tensor
from tea.data import ParseError, PreparedDataset
from tea.params import ModelParams, TransitionParams, UnaryParams

from corpus import neighbors_of


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
    weights = ad.segment_softmax(logits, ad.Segments([len(bucket)]))
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
    return ad.segment_softmax(logits, ad.Segments([len(history)]))


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


def gru_step(x: np.ndarray, h: np.ndarray, g: ad.GruParams) -> np.ndarray:
    """One GRU step on raw (d,) arrays, gate by gate, independent of the engine."""
    sigmoid = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sigmoid(g.w_xz.data @ x + g.w_hz.data @ h + g.b_z.data)
    r = sigmoid(g.w_xr.data @ x + g.w_hr.data @ h + g.b_r.data)
    n = np.tanh(g.w_xn.data @ x + r * (g.w_hn.data @ h) + g.b_n.data)
    return (1.0 - z) * n + z * h


def temporal_recurrence(params: UnaryParams, step_summaries: list[Tensor]) -> Tensor:
    """Fold the per-step aggregates through the temporal GRU from a zero state.

    Values only: the recurrence runs `gru_step`, so no gradient flows back.
    """
    h = np.zeros(params.shared.item.data.shape[1])
    for summary in step_summaries:
        h = gru_step(summary.data, h, params.temporal_gru)
    return ad.Tensor(h)


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


def score_candidates_single_route(params: ModelParams, ds: PreparedDataset, user: int,
                                  step: int, candidates: list[int]) -> np.ndarray:
    """Reference scoring through the one-candidate-at-a-time functions.

    The slow twin of `score_user_steps` for tests; evaluation mode only.
    It reads the user's lists from `ds.users`: the step sees the first
    `step` of its items (the sequence, then the validation item), of its
    buckets (the step buckets, then the validation and the gap bucket) and
    the has-walk bit of item step - 1. The history keeps the last l_s - 1
    items before the step and the temporal GRU its last l_s buckets.
    """
    rec = ds.users[user]
    items = rec.seq_items + [rec.val_item, rec.test_item]
    buckets = rec.buckets + [rec.bucket_val, rec.bucket_gap]
    walks = rec.walks + [rec.walks_val]
    l_s = params.l_s
    history = items[max(0, step - (l_s - 1)):step]
    if params.transition.walk_gru is not None:
        # A set bit stands for a nonempty walk set; no score reads the
        # co-user, so one walk with any co-user represents the set.
        walk = walk_aggregate(params.transition, user, items[step - 1],
                              [0] if walks[step - 1] else [])
    else:
        walk = WalkAggregate(ad.zeros(params.d), ad.zeros(params.d), [])
    h_temporal = aggregate_steps(params.unary, buckets[:step], items[:step], l_s)
    h_social = social_aggregate(params.unary, neighbors_of(ds.social, user))
    out = []
    for cand in candidates:
        g = transition_score(params.transition, user, history, cand, walk)
        f = unary_score(params.unary, h_temporal, h_social, cand)
        out.append(g.item() + f.item())
    return np.asarray(out)


def hr_at_k(rank_value: int, k: int) -> float:
    """1 if the truth ranks within the top k, else 0."""
    return 1.0 if rank_value <= k else 0.0


def ndcg_at_k(rank_value: int, k: int) -> float:
    """1 / log2(rank + 1) within the top k, else 0 (one relevant item)."""
    if rank_value > k:
        return 0.0
    return 1.0 / np.log2(rank_value + 1.0)


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


def total_loss(crf_loss: Tensor, params, gamma: float) -> Tensor:
    """crf_loss + gamma * sum of squared entries, taped one tensor at a time."""
    if gamma == 0.0:
        return crf_loss
    reg = None
    for _, t in params:
        term = ad.total_sum(ad.mul(t, t))
        reg = term if reg is None else ad.add(reg, term)
    return ad.add(crf_loss, ad.scale(reg, gamma))


def clip(grads: dict[str, np.ndarray], clip_norm: float):
    """(gradients scaled to a global norm of at most clip_norm, the norm before)."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if 0 < clip_norm < norm:
        grads = {name: g * (clip_norm / norm) for name, g in grads.items()}
    return grads, norm


def adam_update(theta, m, v, g, t, lr, b1=0.9, b2=0.99, eps=1e-8) -> None:
    """The bias-corrected Adam update as whole-array expressions, in place."""
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def co_interactors(user: int, item: int, ts: int,
                   item_events: dict[int, list[tuple[int, int]]],
                   tau_seconds: int, cap: int, seed: int, tag: int) -> list[int]:
    """Users u' != user with a training event on `item` within tau of ts, sorted.

    More than `cap` of them are subsampled uniformly with a
    (seed, user, tag)-keyed stream.
    """
    events = item_events.get(item, [])
    lo = bisect.bisect_left(events, (ts - tau_seconds, -1))
    hi = bisect.bisect_right(events, (ts + tau_seconds, float("inf")))
    others = sorted({u for _, u in events[lo:hi] if u != user})
    if len(others) > cap:
        rng = np.random.default_rng(
            np.random.SeedSequence([seed & 0xFFFFFFFF, 0x57, user, tag]))
        others = sorted(rng.choice(others, size=cap, replace=False).tolist())
    return others


def bucket_items(neighbor_events: list[tuple[int, int]], lo: int, hi: int,
                 l_n: int) -> list[int]:
    """Items from a time-sorted (ts, item) list with ts in [lo, hi), newest l_n."""
    i = bisect.bisect_left(neighbor_events, (lo, -1))
    j = bisect.bisect_left(neighbor_events, (hi, -1))
    window = neighbor_events[i:j]
    return [item for _, item in window[-l_n:]]


def load_social_edges(path, user_index: dict[str, int]) -> dict[int, list[int]]:
    """user -> sorted distinct neighbors, for each user with any: tab-separated
    id pairs, both directions, self-loops and users not in user_index skipped."""
    adj: dict[int, set[int]] = defaultdict(set)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(path, line_no,
                                 f"expected 2 tab-separated fields, got {len(fields)}")
            a, b = fields
            if a == b or a not in user_index or b not in user_index:
                continue
            ua, ub = user_index[a], user_index[b]
            adj[ua].add(ub)
            adj[ub].add(ua)
    return {u: sorted(vs) for u, vs in adj.items()}


def build_neighbor_item_buckets(seq_ts: list[int], val_ts: int, test_ts: int,
                                neighbor_events: list[tuple[int, int]], l_n: int
                                ) -> tuple[list[list[int]], list[int], list[int]]:
    """Neighbor activity bucketed between the user's consecutive timestamps.

    buckets[t] covers [ts_t, ts_{t+1}); the final observed step gets one
    bucket per held-out target, upper-bounded by that target's timestamp:
    [ts_last, val_ts) when predicting the validation item and
    [val_ts, test_ts) when predicting the test item (whose context already
    contains the validation event).
    """
    buckets = [bucket_items(neighbor_events, seq_ts[t], seq_ts[t + 1], l_n)
               for t in range(len(seq_ts) - 1)]
    bucket_val = bucket_items(neighbor_events, seq_ts[-1], val_ts, l_n)
    bucket_gap = bucket_items(neighbor_events, val_ts, test_ts, l_n)
    return buckets, bucket_val, bucket_gap
