"""Ranking metrics and the sampled-negative evaluation loop."""

import tracemalloc

import numpy as np
import pytest

from tea import evaluation
from tea.evaluation import EvalConfig, evaluate_all, rank
from tea.model import score_user_steps
from tea.objective import NonFiniteScoreError
from tea.params import init_params

from corpus import synthetic_dataset
from oracles import hr_at_k, ndcg_at_k
from scoring import candidate_list, rank_one


class TestBuildCandidates:
    def test_large_pool(self):
        out = candidate_list(7, 1000, 100, np.random.default_rng(0))
        assert len(out) == 101
        assert out[0] == 7 and out.count(7) == 1
        assert len(set(out)) == 101  # negatives drawn without replacement

    def test_small_pool_uses_everything(self):
        out = candidate_list(3, 50, 100, np.random.default_rng(0))
        assert len(out) == 50
        assert sorted(out) == list(range(50))

    def test_same_seed_identical(self):
        a = candidate_list(5, 200, 100, np.random.default_rng(9))
        b = candidate_list(5, 200, 100, np.random.default_rng(9))
        assert a == b

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            candidate_list(0, 1, 10, np.random.default_rng(0))

    def test_equals_the_per_draw_shift(self):
        """The same draws, shifted past the truth one by one, as Python ints."""
        for seed, (truth, n_items, n_neg) in enumerate([(0, 500, 100), (499, 500, 100),
                                                        (37, 60, 100), (5, 2, 3)]):
            draws = np.random.default_rng(seed).choice(n_items - 1, size=min(n_neg, n_items - 1),
                                                       replace=False)
            want = [truth] + [int(x) + (1 if x >= truth else 0) for x in draws]
            got = candidate_list(truth, n_items, n_neg, np.random.default_rng(seed))
            assert got == want
            assert all(type(x) is int for x in got)


class TestEvalCandidates:
    @pytest.mark.parametrize("n_items, n_neg", [(300, 100), (40, 100), (2, 5)])
    @pytest.mark.parametrize("split", ["val", "test"])
    @pytest.mark.parametrize("seed", [0, 11, -3])
    def test_equals_the_list_built_rows(self, split, seed, n_items, n_neg):
        """One row per user, drawn from SeedSequence([seed, tag, user]) built
        from a list, exactly as build_candidates fills it; a pool smaller
        than n_neg is used whole."""
        ds = synthetic_dataset(n_users=9, n_items=n_items, seq_len=4, seed=5, l_s=4)
        cfg = EvalConfig(ks=(10,), n_neg=n_neg, seed=seed)
        tag = 0xE1 if split == "val" else 0xE2
        want = np.array([candidate_list(
            ds.users[u].val_item if split == "val" else ds.users[u].test_item,
            n_items, n_neg,
            np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, tag, u])))
            for u in range(2, 9)], dtype=np.intp)
        got = evaluation.eval_candidates(ds, split, cfg, range(2, 9))
        assert got.dtype == want.dtype and got.shape == (7, 1 + min(n_neg, n_items - 1))
        assert got.tobytes() == want.tobytes()


def _rank_sort_oracle(scores, truth_index):
    """Independent route: sort with ties ordered against the truth."""
    order = sorted(range(len(scores)),
                   key=lambda i: (-scores[i], 0 if i != truth_index else 1))
    return order.index(truth_index) + 1


class TestRank:
    def test_strictly_highest(self):
        assert rank_one(np.array([9.0, 1.0, 2.0]), 0) == 1

    def test_tied_with_three_others(self):
        scores = np.array([5.0, 5.0, 5.0, 5.0, 1.0])
        assert rank_one(scores, 0) == 4

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scores = rng.integers(0, 6, size=20).astype(float)  # force ties
            truth = int(rng.integers(0, 20))
            assert rank_one(scores, truth) == _rank_sort_oracle(scores, truth)

    def test_matrix_ranks_each_row(self):
        rng = np.random.default_rng(13)
        scores = rng.integers(0, 4, size=(40, 12)).astype(float)   # ties at the truth
        scores[:3] = 2.0                                           # every entry tied
        for truth in (0, 5):
            got = rank(scores, truth)
            assert got.shape == (40,)
            assert got.tolist() == [_rank_sort_oracle(row, truth) for row in scores]
        assert got[:3].tolist() == [12, 12, 12]
        assert rank(scores[:1], 0).tolist() == [rank_one(scores[0], 0)]

    def test_shift_invariance_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            scores = rng.normal(size=30)
            truth = int(rng.integers(0, 30))
            assert rank_one(scores, truth) == rank_one(scores + 1.7, truth)


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


def _alone(ds, split):
    """A scorer that scores the user's held-out step in a call of its own."""
    def scorer(params, user, cands):
        step = int(ds.seq_len[user]) + (split == "test")
        return score_user_steps(params, ds, split, [user], [[step]], [cands]).data[0]
    return scorer


def _spy_calls(monkeypatch) -> list:
    """Record each scoring call's users and candidate shape."""
    calls = []

    def spy(p, ds, split, users, steps, cands, *args, **kwargs):
        calls.append((list(users), np.shape(cands)))
        return score_user_steps(p, ds, split, users, steps, cands, *args, **kwargs)

    monkeypatch.setattr(evaluation, "score_user_steps", spy)
    return calls


def _user_rows(ds, split, user, l_s, cand_rows):
    """A user's eval rows from its record: the last l_s buckets before its
    held-out step and their items, plus its candidate rows."""
    rec = ds.users[user]
    buckets = rec.buckets + [rec.bucket_val] + ([rec.bucket_gap] if split == "test" else [])
    window = buckets[-l_s:]
    return len(window) + sum(len(b) for b in window) + cand_rows


class TestEvaluateAll:
    def test_perfect_scorer(self, toy_dataset, tiny_params):
        def perfect(params, user, cands):
            scores = np.zeros(len(cands))
            scores[0] = 1.0  # truth is always first in the candidate list
            return scores

        report = evaluate_all(tiny_params, toy_dataset, "test",
                              EvalConfig(ks=(5, 10)), scorer=perfect)
        assert report.hr[5] == 1.0 and report.ndcg[5] == 1.0

    @pytest.mark.parametrize("ks, n_neg, field", [
        ((0, 10), 0, "n_neg"), ((5, 10), -1, "n_neg"), ((5, 10), 2.5, "n_neg"),
        ((0, 10), 5, "ks"), ((), 5, "ks"), ((10, -3), 5, "ks"), ((5.0,), 5, "ks"),
    ])
    def test_meaningless_counts_raise_naming_the_field(self, toy_dataset, tiny_params,
                                                       ks, n_neg, field):
        """evaluate_all checks its config as the CLI does: before any scoring,
        a count that would make HR/NDCG meaningless raises naming the field."""
        cfg = EvalConfig(ks=ks, n_neg=n_neg)
        with pytest.raises(ValueError, match=rf"^{field} "):
            cfg.validate()
        calls = []
        with pytest.raises(ValueError, match=rf"^{field} "):
            evaluate_all(tiny_params, toy_dataset, "test", cfg,
                         scorer=lambda *args: calls.append(args))
        assert calls == []

    def test_constant_scorer_with_pessimistic_ties(self, toy_dataset, tiny_params):
        def constant(params, user, cands):
            return np.zeros(len(cands))

        report = evaluate_all(tiny_params, toy_dataset, "test",
                              EvalConfig(ks=(10,), n_neg=15), scorer=constant)
        # 16 candidates all tied: truth ranks 16, HR@10 must be 0
        assert report.hr[10] == 0.0

    def test_random_scorer_calibration(self):
        # Under uniform random scores with 101 candidates the truth's rank
        # is uniform on 1..101, so E[HR@10] = 10/101.
        rng = np.random.default_rng(2024)
        hits = [hr_at_k(rank_one(rng.normal(size=101), 0), 10) for _ in range(2000)]
        assert abs(np.mean(hits) - 10 / 101) < 0.02

    def test_report_bounds_and_sizes(self, toy_dataset, tiny_params):
        rng_holder = np.random.default_rng(5)

        def random_scorer(params, user, cands):
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

        def spy(params, user, cands):
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
        def nan_for_user_two(params, user, cands):
            scores = np.zeros(len(cands))
            scores[0] = 1.0
            if user == 2:
                scores[bad] = np.nan
            return scores

        with pytest.raises(NonFiniteScoreError, match="test ranking of user 2"):
            evaluate_all(tiny_params, toy_dataset, "test", EvalConfig(ks=(10,)),
                         scorer=nan_for_user_two)

    def test_chunked_default_equals_scoring_each_user_alone(self, toy_dataset,
                                                            monkeypatch):
        """Ranks, HR and NDCG are the same with one user per call (EVAL_ROWS
        of 1), a few per call, the default budget, and all users in one."""
        params = init_params(toy_dataset.n_users, toy_dataset.n_items, d=4,
                             l_s=toy_dataset.config["l_s"], variant="tea-a", seed=12)
        cfg = EvalConfig(ks=(5, 10), n_neg=15, seed=4)
        want = evaluate_all(params, toy_dataset, "val", cfg, scorer=_alone(toy_dataset, "val"))
        for rows in (1, 50, evaluation.EVAL_ROWS, 1 << 62):
            monkeypatch.setattr(evaluation, "EVAL_ROWS", rows)
            got = evaluate_all(params, toy_dataset, "val", cfg)
            assert got.ranks == want.ranks, rows
            assert (got.hr, got.ndcg) == (want.hr, want.ndcg), rows

    def test_calls_hold_at_most_eval_rows(self, monkeypatch):
        """Calls take the users once and in order, each filled while its rows
        stay within EVAL_ROWS; a user over the budget alone gets a call of its
        own. Ranks, HR and NDCG equal scoring each user alone."""
        ds = synthetic_dataset(n_users=14, n_items=60, seq_len=6, seed=21, l_s=4,
                               max_bucket=5)
        params = init_params(ds.n_users, ds.n_items, d=4, l_s=4, variant="tea-s", seed=13)
        cfg = EvalConfig(ks=(10,), n_neg=15, seed=3)       # 16 candidates: 4 rows of d
        default = evaluation.EVAL_ROWS
        for split in ("val", "test"):
            want = evaluate_all(params, ds, split, cfg, scorer=_alone(ds, split))
            sizes = [_user_rows(ds, split, user, l_s=4, cand_rows=4)
                     for user in range(ds.n_users)]
            for budget in (1, 24, 60, default):
                monkeypatch.setattr(evaluation, "EVAL_ROWS", budget)
                calls = _spy_calls(monkeypatch)
                got = evaluate_all(params, ds, split, cfg)
                assert [u for users, _ in calls for u in users] == list(range(ds.n_users))
                for (users, shape), after in zip(calls, calls[1:] + [None]):
                    assert shape == (len(users), 16)
                    used = sum(sizes[u] for u in users)
                    assert used <= budget or len(users) == 1, (budget, users)
                    if after is not None:              # the next user did not fit
                        assert used + sizes[after[0][0]] > budget, (budget, users)
                if budget == 24:                       # user 0 alone is over 24 rows
                    assert sizes[0] > budget and calls[0][0] == [0]
                if budget == 60:
                    assert any(len(users) > 1 for users, _ in calls)
                assert got.ranks == want.ranks
                assert (got.hr, got.ndcg) == (want.hr, want.ndcg)
                monkeypatch.undo()

    def test_one_call_peaks_below_one_candidate_embedding_array(self, monkeypatch):
        """At n_neg = 1000 a call never holds its users' whole (users, C, d)
        candidate embeddings: the head gathers them piece by piece."""
        ds = synthetic_dataset(n_users=6, n_items=1200, seq_len=4, seed=21, l_s=4)
        d = 32
        params = init_params(ds.n_users, ds.n_items, d=d, l_s=4, variant="tea-s", seed=13)
        cfg = EvalConfig(ks=(10,), n_neg=1000, seed=3)
        calls = _spy_calls(monkeypatch)
        evaluate_all(params, ds, "test", cfg)
        assert len(calls) == 1                  # every user in one call
        tracemalloc.start()
        try:
            report = evaluate_all(params, ds, "test", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(report.candidate_sizes.values()) == {1001}
        embeddings = ds.n_users * 1001 * d * 8
        assert peak < embeddings, f"peak {peak / embeddings:.2f} embedding arrays"

    def test_metrics_equal_the_per_user_means(self, toy_dataset, tiny_params):
        """HR@k and NDCG@k come from one pass over all users' ranks per k and
        equal the means of hr_at_k and ndcg_at_k over the users bit for bit:
        ranks repeat across users, reach 1, pass the largest k, and come from
        tied scores as well as greater ones."""
        wanted = [1, 1, 3, 3, 16, 11, 2, 5, 5, 16]             # 16 candidates

        def scorer(params, user, cands):
            r = wanted[user]
            scores = np.zeros(len(cands))
            scores[0] = 0.5
            scores[1:r] = 0.5 if user % 2 else 1.0              # tied, or above
            return scores

        ks = (1, 5, 10, 50)
        report = evaluate_all(tiny_params, toy_dataset, "test",
                              EvalConfig(ks=ks, n_neg=15), scorer=scorer)
        assert report.ranks == dict(enumerate(wanted))
        for k in ks:
            assert report.hr[k] == np.mean([hr_at_k(r, k) for r in wanted])
            assert report.ndcg[k] == np.mean([ndcg_at_k(r, k) for r in wanted])
