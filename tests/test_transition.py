"""Behavior-sequence score: attention, walk GRU, head composition."""

import numpy as np
import pytest

from tea import autodiff as ad
from tea.model import UserContext
from tea.params import init_params

import oracles
from gradcheck import assert_gradients_match
from scoring import score_steps


def _params(seed=11, variant="tea-s"):
    return init_params(n_users=3, n_items=5, d=4, l_s=4, variant=variant,
                       seed=seed).transition


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _np_gru(x, h, g):
    z = _sigmoid(g.w_xz.data @ x + g.w_hz.data @ h + g.b_z.data)
    r = _sigmoid(g.w_xr.data @ x + g.w_hr.data @ h + g.b_r.data)
    n = np.tanh(g.w_xn.data @ x + r * (g.w_hn.data @ h) + g.b_n.data)
    return (1.0 - z) * n + z * h


def _np_walk(params, user, anchor, walk_users):
    """Reference walk aggregation: per-walk GRU unroll, then means."""
    d = params.shared.item.data.shape[1]
    if not walk_users:
        return np.zeros(d), np.zeros(d)
    h1s, h2s = [], []
    for other in walk_users:
        h1 = _np_gru(params.shared.user.data[user], np.zeros(d), params.walk_gru)
        h2 = _np_gru(params.shared.item.data[anchor], h1, params.walk_gru)
        _ = _np_gru(params.shared.user.data[other], h2, params.walk_gru)
        h1s.append(h1)
        h2s.append(h2)
    return np.mean(h1s, axis=0), np.mean(h2s, axis=0)


def _np_attention(params, history, cand):
    sh = params.shared
    d = sh.item.data.shape[1]
    e_hist = sh.item.data[history] + sh.position.data[:len(history)]
    e_cand = sh.item.data[cand] + sh.position.data[len(history)]
    query = params.w_q.data @ e_cand
    logits = (e_hist @ params.w_k.data.T) @ query / np.sqrt(d)
    e = np.exp(logits)
    return e / e.sum(), e_hist


def _np_transition(params, user, history, cand, walk_users, walk_anchor):
    sh = params.shared
    d = sh.item.data.shape[1]
    if history:
        a, e_hist = _np_attention(params, history, cand)
        z = a @ (e_hist @ params.w_v.data.T)
    else:
        z = np.zeros(d)
    p_u = sh.user.data[user]
    h = p_u + params.w_g2.data @ np.maximum(
        params.w_g1.data @ z + params.b_g1.data, 0.0) + params.b_g2.data
    h_wu, h_wi = _np_walk(params, user, walk_anchor, walk_users)
    joint = np.concatenate([h, h_wu, h_wi, p_u])
    return (params.w_g3.data @ joint) @ sh.item.data[cand]


class TestAttentionWeights:
    def test_single_history_item(self):
        w = oracles.causal_attention_weights(_params(), [2], candidate=4)
        np.testing.assert_allclose(w.data, [1.0])

    def test_zero_projections_give_uniform(self):
        p = _params()
        p.w_q.data[...] = 0.0
        p.w_k.data[...] = 0.0
        w = oracles.causal_attention_weights(p, [0, 1, 3], candidate=4)
        np.testing.assert_allclose(w.data, [1 / 3] * 3, atol=1e-12)

    def test_matches_formula_oracle(self):
        p = _params(seed=5)
        # spread embeddings out so logits are non-trivial
        for t in (p.shared.item, p.shared.position, p.w_q, p.w_k):
            t.data *= 3.0
        history = [0, 2, 1]
        got = oracles.causal_attention_weights(p, history, candidate=3).data
        want, _ = _np_attention(p, history, 3)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_history_raises(self):
        with pytest.raises(oracles.EmptyHistoryError):
            oracles.causal_attention_weights(_params(), [], candidate=0)

    def test_probability_vector(self):
        p = _params(seed=8)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            history = rng.integers(0, 5, size=rng.integers(1, 4)).tolist()
            w = oracles.causal_attention_weights(p, history, int(rng.integers(0, 5))).data
            assert np.all(w >= 0)
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-9)

    def test_causality_by_recompute(self):
        # Changing an item's embedding only alters weights of prefixes that
        # contain it: the candidate attends to positions < its own only.
        p = _params(seed=3)
        history = [0, 1, 2]
        before = oracles.causal_attention_weights(p, history[:2], candidate=4).data.copy()
        z_before = oracles.aggregate_history(
            p, oracles.causal_attention_weights(p, history[:2], 4),
            history[:2]).data.copy()
        p.shared.item.data[2] += 10.0  # item only at position >= j
        after = oracles.causal_attention_weights(p, history[:2], candidate=4).data
        z_after = oracles.aggregate_history(
            p, oracles.causal_attention_weights(p, history[:2], 4), history[:2]).data
        np.testing.assert_array_equal(before, after)
        np.testing.assert_array_equal(z_before, z_after)


class TestAggregateHistory:
    def test_identity_projection_single_item(self):
        p = _params()
        p.w_v.data[...] = np.eye(4)
        p.shared.position.data[...] = 0.0
        z = oracles.aggregate_history(p, ad.Tensor([1.0]), [3])
        np.testing.assert_allclose(z.data, p.shared.item.data[3], atol=1e-15)

    def test_uniform_weights_mean(self):
        p = _params()
        p.w_v.data[...] = np.eye(4)
        p.shared.position.data[...] = 0.0
        z = oracles.aggregate_history(p, ad.Tensor([0.5, 0.5]), [1, 4])
        want = p.shared.item.data[[1, 4]].mean(axis=0)
        np.testing.assert_allclose(z.data, want, atol=1e-15)

    def test_matches_weighted_sum_oracle(self):
        p = _params(seed=21)
        rng = np.random.default_rng(0)
        history = [4, 0, 2]
        w = rng.random(3)
        w /= w.sum()
        z = oracles.aggregate_history(p, ad.Tensor(w), history).data
        e_hist = p.shared.item.data[history] + p.shared.position.data[:3]
        want = sum(w[i] * (p.w_v.data @ e_hist[i]) for i in range(3))
        np.testing.assert_allclose(z, want, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ad.ShapeError):
            oracles.aggregate_history(_params(), ad.Tensor([1.0]), [0, 1])


class TestWalkAggregate:
    def test_empty_walkset(self):
        out = oracles.walk_aggregate(_params(), 0, None, [])
        np.testing.assert_array_equal(out.h_user.data, np.zeros(4))
        np.testing.assert_array_equal(out.h_item.data, np.zeros(4))
        assert out.h_others == []

    def test_zero_gru_weights(self):
        p = _params()
        for _, t in p.walk_gru.named("g"):
            t.data[...] = 0.0
        out = oracles.walk_aggregate(p, 0, 2, [1, 2])
        # zero init + zero weights: z = 0.5 everywhere, candidate tanh(0) = 0,
        # so every step output stays at zero
        np.testing.assert_allclose(out.h_user.data, np.zeros(4), atol=1e-15)
        np.testing.assert_allclose(out.h_item.data, np.zeros(4), atol=1e-15)

    def test_two_walks_mean_of_single_walk_oracles(self):
        p = _params(seed=33)
        out = oracles.walk_aggregate(p, 1, 3, [0, 2])
        want_u, want_i = _np_walk(p, 1, 3, [0, 2])
        np.testing.assert_allclose(out.h_user.data, want_u, atol=1e-12)
        np.testing.assert_allclose(out.h_item.data, want_i, atol=1e-12)
        assert len(out.h_others) == 2

    def test_walk_order_irrelevant(self):
        p = _params(seed=13)
        a = oracles.walk_aggregate(p, 0, 1, [1, 2, 0])
        b = oracles.walk_aggregate(p, 0, 1, [0, 1, 2])
        np.testing.assert_allclose(a.h_user.data, b.h_user.data, atol=1e-15)
        np.testing.assert_allclose(a.h_item.data, b.h_item.data, atol=1e-15)


class TestTransitionScore:
    def test_zero_everything_scores_zero(self):
        p = _params()
        for _, t in p.named():
            t.data[...] = 0.0
        p.shared.item.data[...] = 0.0
        p.shared.user.data[...] = 0.0
        p.shared.position.data[...] = 0.0
        walk = oracles.walk_aggregate(p, 0, 1, [2])
        s = oracles.transition_score(p, 0, [1, 2], 3, walk)
        assert s.item() == 0.0

    def test_zero_head_scores_zero(self):
        p = _params(seed=2)
        p.w_g3.data[...] = 0.0
        walk = oracles.walk_aggregate(p, 0, 1, [2])
        s = oracles.transition_score(p, 0, [1, 2], 3, walk)
        assert s.item() == 0.0

    def test_matches_composition_oracle(self):
        for seed in range(5):
            p = _params(seed=60 + seed)
            walk_users = [0, 2]
            walk = oracles.walk_aggregate(p, 1, 2, walk_users)
            got = oracles.transition_score(p, 1, [0, 4, 2], 3, walk).item()
            want = _np_transition(p, 1, [0, 4, 2], 3, walk_users, 2)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_history_cold_start(self):
        p = _params(seed=4)
        walk = oracles.walk_aggregate(p, 0, None, [])
        got = oracles.transition_score(p, 0, [], 2, walk).item()
        want = _np_transition(p, 0, [], 2, [], None)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_deterministic_without_dropout(self):
        p = _params(seed=6)
        walk = oracles.walk_aggregate(p, 0, 1, [1])
        a = oracles.transition_score(p, 0, [1], 2, walk).item()
        b = oracles.transition_score(p, 0, [1], 2, walk).item()
        assert a == b


def _g_only(seed, l_s=4):
    """Full parameters with the unary head zeroed, so the one route scores g alone."""
    params = init_params(n_users=3, n_items=5, d=4, l_s=l_s, variant="tea-s",
                         seed=seed)
    params.unary.w_f2.data[...] = 0.0
    params.unary.b_f2.data[...] = 0.0
    return params


class TestBatchedRoute:
    def test_batched_equals_single(self):
        params = _g_only(seed=44)
        p = params.transition
        ctx = UserContext(2, [1, 0, 3], [[], [], []], [[], [], [0, 1]], [])
        walk = oracles.walk_aggregate(p, 2, 3, [0, 1])
        cands = [0, 1, 2, 3, 4]
        batched = score_steps(params, ctx, [3], [cands])[0].data
        singles = [oracles.transition_score(p, 2, [1, 0, 3], c, walk).item()
                   for c in cands]
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_batched_empty_history(self):
        # l_s = 1 leaves no position before the candidate: the window is empty
        params = _g_only(seed=45, l_s=1)
        p = params.transition
        ctx = UserContext(1, [2], [[]], [[]], [])
        walk = oracles.WalkAggregate(ad.zeros(4), ad.zeros(4), [])
        cands = [0, 4]
        batched = score_steps(params, ctx, [1], [cands])[0].data
        singles = [oracles.transition_score(p, 1, [], c, walk).item() for c in cands]
        np.testing.assert_allclose(batched, singles, atol=1e-12)


class TestTransitionGradients:
    def test_every_leaf_matches_finite_differences(self):
        params = _g_only(seed=71)
        p = params.transition
        ctx = UserContext(1, [0, 3, 2], [[], [], []], [[], [], [0, 2]], [])
        target = ad.Tensor(np.random.default_rng(0).normal(size=3))

        def build():
            scores = score_steps(params, ctx, [3], [[1, 2, 4]])[0]
            return ad.total_sum(ad.mul(scores, target))

        assert_gradients_match(build, p.named() + p.shared.named())
