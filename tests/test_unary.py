"""Graph-context score: bipartite aggregation, temporal GRU, social, head."""

import numpy as np
import pytest

from tea import autodiff as ad
from tea import unary as un
from tea.model import UserContext
from tea.params import init_params

import oracles
from gradcheck import assert_gradients_match
from scoring import score_steps


def _params(seed=11, variant="tea-s"):
    return init_params(n_users=3, n_items=5, d=4, l_s=4, variant=variant,
                       seed=seed).unary


def _f_only(seed, variant="tea-s"):
    """Full parameters with a zeroed transition head: the one route scores f alone."""
    params = init_params(n_users=3, n_items=5, d=4, l_s=4, variant=variant,
                         seed=seed)
    params.transition.w_g3.data[...] = 0.0
    return params


def _ctx(neighbors):
    return UserContext(0, [0, 2, 3], [[0, 1], [], [2, 4, 1]], [[], [], []],
                       neighbors)


def _np_sage(p, bucket):
    if not bucket:
        return np.zeros(4)
    pooled = p.shared.item.data[bucket].mean(axis=0)
    return np.maximum(p.w_agg.data @ pooled, 0.0)


def _np_attention_agg(p, anchor, bucket):
    if not bucket:
        return np.zeros(4)
    q = p.shared.item.data
    w = p.w_agg.data
    vec = p.attn_vec.data
    logits = []
    for j in bucket:
        catd = np.concatenate([w @ q[anchor], w @ q[j]])
        pre = vec @ catd
        logits.append(pre if pre > 0 else 0.2 * pre)
    logits = np.asarray(logits)
    e = np.exp(logits)
    alpha = e / e.sum()
    return np.maximum(sum(a * q[j] for a, j in zip(alpha, bucket)), 0.0)


def _np_unary(p, h_t, h_s, cand):
    joint = np.concatenate([h_t, h_s])
    hidden = np.maximum(p.w_f1.data @ joint + p.b_f1.data, 0.0)
    h_user = p.w_f2.data @ hidden + p.b_f2.data
    return h_user @ p.shared.item.data[cand]


class TestSageAggregation:
    def test_identity_projection(self):
        p = _params()
        p.w_agg.data[...] = np.eye(4)
        out = un.bipartite_aggregate_sage(p, [[1, 3]]).data[0]
        want = np.maximum(p.shared.item.data[[1, 3]].mean(axis=0), 0.0)
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_empty_bucket(self):
        np.testing.assert_array_equal(
            un.bipartite_aggregate_sage(_params(), [[]]).data[0], np.zeros(4))

    def test_matches_mean_project_oracle(self):
        p = _params(seed=9)
        out = un.bipartite_aggregate_sage(p, [[0, 2, 2, 4]]).data[0]
        np.testing.assert_allclose(out, _np_sage(p, [0, 2, 2, 4]), atol=1e-12)

    def test_permutation_invariant(self):
        p = _params(seed=3)
        a = un.bipartite_aggregate_sage(p, [[0, 1, 4]]).data[0]
        b = un.bipartite_aggregate_sage(p, [[4, 0, 1]]).data[0]
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_uniform_duplication_invariant(self):
        p = _params(seed=5)
        a = un.bipartite_aggregate_sage(p, [[1, 2]]).data[0]
        b = un.bipartite_aggregate_sage(p, [[1, 2, 1, 2]]).data[0]
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_batch_of_buckets_matches_each_alone(self):
        p = _params(seed=6)
        buckets = [[0, 2], [], [4], [1, 1, 3], []]
        got = un.bipartite_aggregate_sage(p, buckets).data
        assert got.shape == (5, 4)
        for row, bucket in zip(got, buckets):
            np.testing.assert_allclose(row, oracles.bipartite_aggregate_sage(p, bucket).data,
                                       atol=1e-12)


class TestAttentionAggregation:
    def test_single_item(self):
        p = _params(variant="tea-a")
        out = un.bipartite_aggregate_attention(p, anchors=[0], buckets=[[3]]).data[0]
        want = np.maximum(p.shared.item.data[3], 0.0)
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_zero_attention_vector_means_uniform(self):
        p = _params(variant="tea-a")
        p.attn_vec.data[...] = 0.0
        out = un.bipartite_aggregate_attention(p, anchors=[0], buckets=[[1, 4]]).data[0]
        want = np.maximum(p.shared.item.data[[1, 4]].mean(axis=0), 0.0)
        np.testing.assert_allclose(out, want, atol=1e-14)

    def test_matches_softmax_weighted_oracle(self):
        p = _params(seed=17, variant="tea-a")
        p.attn_vec.data *= 40.0  # sharpen so weights are far from uniform
        got = un.bipartite_aggregate_attention(p, [2], [[0, 1, 4]]).data[0]
        want = _np_attention_agg(p, 2, [0, 1, 4])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_bucket(self):
        p = _params(variant="tea-a")
        np.testing.assert_array_equal(
            un.bipartite_aggregate_attention(p, [0], [[]]).data[0], np.zeros(4))

    def test_weights_are_probability_vector(self):
        p = _params(seed=20, variant="tea-a")
        # recompute the weights the same way the aggregator does
        bucket = [0, 1, 3, 4]
        q = p.shared.item.data
        w = p.w_agg.data
        logits = []
        for j in bucket:
            pre = p.attn_vec.data @ np.concatenate([w @ q[2], w @ q[j]])
            logits.append(pre if pre > 0 else 0.2 * pre)
        e = np.exp(np.asarray(logits))
        alpha = e / e.sum()
        assert np.all(alpha >= 0)
        np.testing.assert_allclose(alpha.sum(), 1.0, atol=1e-9)

    def test_permutation_invariant(self):
        p = _params(seed=21, variant="tea-a")
        a = un.bipartite_aggregate_attention(p, [1], [[0, 3, 4]]).data[0]
        b = un.bipartite_aggregate_attention(p, [1], [[4, 0, 3]]).data[0]
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_batch_of_buckets_matches_each_alone(self):
        p = _params(seed=22, variant="tea-a")
        p.attn_vec.data *= 10.0
        anchors, buckets = [2, 0, 4, 1], [[0, 1, 4], [], [3], [2, 2, 0]]
        got = un.bipartite_aggregate_attention(p, anchors, buckets).data
        assert got.shape == (4, 4)
        for row, anchor, bucket in zip(got, anchors, buckets):
            want = oracles.bipartite_aggregate_attention(p, anchor, bucket).data
            np.testing.assert_allclose(row, want, atol=1e-12)


class TestTemporalRecurrence:
    def test_empty_sequence(self):
        np.testing.assert_array_equal(
            oracles.temporal_recurrence(_params(), []).data, np.zeros(4))

    def test_single_step_is_one_gru_cell(self):
        p = _params(seed=2)
        x = ad.Tensor(np.random.default_rng(0).normal(size=4))
        got = oracles.temporal_recurrence(p, [x]).data
        want = ad.gru_cell(x, ad.zeros(4), p.temporal_gru).data
        np.testing.assert_array_equal(got, want)

    def test_three_steps_match_unroll(self):
        p = _params(seed=14)
        rng = np.random.default_rng(1)
        xs = [ad.Tensor(rng.normal(size=4)) for _ in range(3)]
        got = oracles.temporal_recurrence(p, xs).data
        h = ad.zeros(4)
        for x in xs:
            h = ad.gru_cell(x, h, p.temporal_gru)
        np.testing.assert_array_equal(got, h.data)


class TestSocialAggregate:
    def test_identity_projection(self):
        p = _params()
        p.w_soc.data[...] = np.eye(4)
        out = un.social_aggregate(p, [[0, 2]]).data[0]
        want = np.maximum(p.shared.user.data[[0, 2]].mean(axis=0), 0.0)
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_no_neighbors(self):
        np.testing.assert_array_equal(un.social_aggregate(_params(), [[]]).data[0],
                                      np.zeros(4))

    def test_matches_oracle(self):
        p = _params(seed=31)
        got = un.social_aggregate(p, [[1, 2]]).data[0]
        pooled = p.shared.user.data[[1, 2]].mean(axis=0)
        np.testing.assert_allclose(got, np.maximum(p.w_soc.data @ pooled, 0.0),
                                   atol=1e-12)

    def test_batch_of_users_matches_each_alone(self):
        p = _params(seed=32)
        neighbor_lists = [[1, 2], [], [0], [0, 1, 2]]
        got = un.social_aggregate(p, neighbor_lists).data
        for row, neighbors in zip(got, neighbor_lists):
            np.testing.assert_allclose(row, oracles.social_aggregate(p, neighbors).data,
                                       atol=1e-12)


class TestUnaryScore:
    def test_zero_weights_zero_score(self):
        p = _params()
        for _, t in p.named():
            t.data[...] = 0.0
        s = oracles.unary_score(p, ad.zeros(4), ad.zeros(4), 2)
        assert s.item() == 0.0

    def test_bias_only_score_is_dimension(self):
        p = _params()
        for _, t in p.named():
            t.data[...] = 0.0
        p.b_f2.data[...] = 1.0
        p.shared.item.data[...] = 1.0
        s = oracles.unary_score(p, ad.zeros(4), ad.zeros(4), 0)
        assert s.item() == 4.0

    def test_matches_composition_oracle(self):
        p = _params(seed=42)
        rng = np.random.default_rng(2)
        h_t, h_s = rng.normal(size=4), rng.normal(size=4)
        got = oracles.unary_score(p, ad.Tensor(h_t), ad.Tensor(h_s), 3).item()
        np.testing.assert_allclose(got, _np_unary(p, h_t, h_s, 3), atol=1e-12)

    def test_deterministic_without_dropout(self):
        p = _params(seed=4)
        h_t = ad.Tensor(np.ones(4))
        a = oracles.unary_score(p, h_t, ad.zeros(4), 1).item()
        b = oracles.unary_score(p, h_t, ad.zeros(4), 1).item()
        assert a == b

    def test_batched_equals_single(self):
        params = _f_only(seed=50)
        p = params.unary
        ctx = _ctx(neighbors=[1, 2])
        h_t = oracles.aggregate_steps(p, ctx.buckets, ctx.items, 4)
        h_s = oracles.social_aggregate(p, ctx.neighbors)
        cands = [0, 1, 2, 3, 4]
        batched = score_steps(params, ctx, [3], [cands])[0].data
        singles = [oracles.unary_score(p, h_t, h_s, c).item() for c in cands]
        np.testing.assert_allclose(batched, singles, atol=1e-12)


class TestUnaryGradients:
    @pytest.mark.parametrize("variant", ["tea-s", "tea-a"])
    def test_every_leaf_matches_finite_differences(self, variant):
        params = _f_only(seed=77, variant=variant)
        p = params.unary
        ctx = _ctx(neighbors=[0, 2])
        target = ad.Tensor(np.random.default_rng(0).normal(size=3))

        def build():
            scores = score_steps(params, ctx, [3], [[1, 3, 4]])[0]
            return ad.total_sum(ad.mul(scores, target))

        assert_gradients_match(build, p.named() + p.shared.named())
