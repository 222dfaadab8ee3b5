"""Ranking metrics and the sampled-negative evaluation loop."""

import numpy as np
import pytest

from tea import evaluation
from tea.evaluation import (EvalConfig, build_candidates, evaluate_all,
                            hr_at_k, ndcg_at_k, rank)
from tea.model import score_user_steps
from tea.objective import NonFiniteScoreError
from tea.params import init_params


class TestBuildCandidates:
    def test_large_pool(self):
        out = build_candidates(7, 1000, 100, np.random.default_rng(0))
        assert len(out) == 101
        assert out[0] == 7 and out.count(7) == 1
        assert len(set(out)) == 101  # negatives drawn without replacement

    def test_small_pool_uses_everything(self):
        out = build_candidates(3, 50, 100, np.random.default_rng(0))
        assert len(out) == 50
        assert sorted(out) == list(range(50))

    def test_same_seed_identical(self):
        a = build_candidates(5, 200, 100, np.random.default_rng(9))
        b = build_candidates(5, 200, 100, np.random.default_rng(9))
        assert a == b

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            build_candidates(0, 1, 10, np.random.default_rng(0))


def _rank_sort_oracle(scores, truth_index):
    """Independent route: sort with ties ordered against the truth."""
    order = sorted(range(len(scores)),
                   key=lambda i: (-scores[i], 0 if i != truth_index else 1))
    return order.index(truth_index) + 1


class TestRank:
    def test_strictly_highest(self):
        assert rank(np.array([9.0, 1.0, 2.0]), 0) == 1

    def test_tied_with_three_others(self):
        scores = np.array([5.0, 5.0, 5.0, 5.0, 1.0])
        assert rank(scores, 0) == 4

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scores = rng.integers(0, 6, size=20).astype(float)  # force ties
            truth = int(rng.integers(0, 20))
            assert rank(scores, truth) == _rank_sort_oracle(scores, truth)

    def test_shift_invariance_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            scores = rng.normal(size=30)
            truth = int(rng.integers(0, 30))
            assert rank(scores, truth) == rank(scores + 1.7, truth)


class TestHrNdcg:
    @pytest.mark.parametrize("r,k,want", [(1, 5, 1.0), (11, 10, 0.0),
                                          (10, 10, 1.0), (5, 5, 1.0), (6, 5, 0.0)])
    def test_hr_units(self, r, k, want):
        assert hr_at_k(r, k) == want

    @pytest.mark.parametrize("r,k,want", [(1, 5, 1.0), (3, 10, 0.5),
                                          (21, 20, 0.0), (1, 1, 1.0)])
    def test_ndcg_units(self, r, k, want):
        np.testing.assert_allclose(ndcg_at_k(r, k), want, atol=1e-12)

    def test_ndcg_never_exceeds_hr(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            r = int(rng.integers(1, 102))
            for k in (5, 10, 20):
                hr, nd = hr_at_k(r, k), ndcg_at_k(r, k)
                assert 0.0 <= nd <= hr <= 1.0
                if r == 1:
                    assert nd == hr == 1.0

    def test_monotone_in_k(self):
        for r in range(1, 30):
            hrs = [hr_at_k(r, k) for k in (1, 5, 10, 20)]
            nds = [ndcg_at_k(r, k) for k in (1, 5, 10, 20)]
            assert hrs == sorted(hrs) and nds == sorted(nds)


class TestEvaluateAll:
    def test_perfect_scorer(self, toy_dataset, tiny_params):
        def perfect(params, ctx, cands):
            scores = np.zeros(len(cands))
            scores[0] = 1.0  # truth is always first in the candidate list
            return scores

        report = evaluate_all(tiny_params, toy_dataset, "test",
                              EvalConfig(ks=(5, 10)), scorer=perfect)
        assert report.hr[5] == 1.0 and report.ndcg[5] == 1.0

    def test_constant_scorer_with_pessimistic_ties(self, toy_dataset, tiny_params):
        def constant(params, ctx, cands):
            return np.zeros(len(cands))

        report = evaluate_all(tiny_params, toy_dataset, "test",
                              EvalConfig(ks=(10,), n_neg=15), scorer=constant)
        # 16 candidates all tied: truth ranks 16, HR@10 must be 0
        assert report.hr[10] == 0.0

    def test_random_scorer_calibration(self):
        # Under uniform random scores with 101 candidates the truth's rank
        # is uniform on 1..101, so E[HR@10] = 10/101.
        rng = np.random.default_rng(2024)
        hits = [hr_at_k(rank(rng.normal(size=101), 0), 10) for _ in range(2000)]
        assert abs(np.mean(hits) - 10 / 101) < 0.02

    def test_report_bounds_and_sizes(self, toy_dataset, tiny_params):
        rng_holder = np.random.default_rng(5)

        def random_scorer(params, ctx, cands):
            return rng_holder.normal(size=len(cands))

        report = evaluate_all(tiny_params, toy_dataset, "val",
                              EvalConfig(ks=(5, 10, 20), n_neg=100),
                              scorer=random_scorer)
        assert report.n_users == toy_dataset.n_users
        for k in (5, 10, 20):
            assert 0.0 <= report.ndcg[k] <= report.hr[k] <= 1.0
        # 20 items -> 19 negatives + truth
        assert all(size == 20 for size in report.candidate_sizes.values())

    def test_candidates_fixed_given_seed(self, toy_dataset, tiny_params):
        seen = []

        def spy(params, ctx, cands):
            seen.append(tuple(cands))
            return np.zeros(len(cands))

        for _ in range(2):
            evaluate_all(tiny_params, toy_dataset, "test",
                         EvalConfig(ks=(5,), seed=7), scorer=spy)
        half = len(seen) // 2
        assert seen[:half] == seen[half:]

    @pytest.mark.parametrize("bad", [0, 3], ids=["truth", "negative"])
    def test_nan_score_raises(self, toy_dataset, tiny_params, bad):
        # a NaN truth would rank first and a NaN negative would never count
        # against the truth: both must fail instead of inflating HR/NDCG
        def nan_for_user_two(params, ctx, cands):
            scores = np.zeros(len(cands))
            scores[0] = 1.0
            if ctx.user == 2:
                scores[bad] = np.nan
            return scores

        with pytest.raises(NonFiniteScoreError, match="test ranking of user 2"):
            evaluate_all(tiny_params, toy_dataset, "test", EvalConfig(ks=(10,)),
                         scorer=nan_for_user_two)

    def test_chunked_default_equals_scoring_each_user_alone(self, toy_dataset,
                                                            monkeypatch):
        params = init_params(toy_dataset.n_users, toy_dataset.n_items, d=4,
                             l_s=toy_dataset.config["l_s"], variant="tea-a", seed=12)

        def alone(p, ctx, cands):
            return score_user_steps(p, [ctx], [[len(ctx.items)]], [cands]).data[0]

        cfg = EvalConfig(ks=(5, 10), n_neg=15, seed=4)
        want = evaluate_all(params, toy_dataset, "val", cfg, scorer=alone)
        monkeypatch.setattr(evaluation, "EVAL_CHUNK", 3)  # 10 users: 4 chunks
        got = evaluate_all(params, toy_dataset, "val", cfg)
        assert got.ranks == want.ranks
        assert (got.hr, got.ndcg) == (want.hr, want.ndcg)
