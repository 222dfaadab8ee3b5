"""Context assembly and end-to-end scoring across both score functions."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from tea import autodiff as ad
from tea import unary
from tea.data import _ragged_arange, prepare_dataset
from tea.model import score_user_steps
from tea.objective import sequence_loss
from tea.params import init_params

from corpus import (context_record, cycle_corpus, dataset_of, follower_corpus,
                    synthetic_dataset, write_corpus)
from oracles import score_candidates_single_route, total_loss
from gradcheck import assert_gradients_match, dense_backward, gradients
from scoring import score_steps

VARIANTS = ["tea-s", "tea-a", "tea-rs", "tea-ra"]


def _segment(ds, user):
    """The user's items, buckets and walk bits, read from the arrays by its starts."""
    e, w, n = ds.item_start[user], ds.step_start[user], int(ds.seq_len[user])
    buckets = [ds.buckets[ds.bucket_start[k]:ds.bucket_start[k + 1]].tolist()
               for k in range(w, w + n + 1)]
    return ds.items[e:e + n + 2].tolist(), buckets, ds.walks[w:w + n + 1].tolist()


def _toy_params(ds, seed=90):
    return init_params(ds.n_users, ds.n_items, d=4, l_s=ds.config["l_s"],
                       variant="tea-s", seed=seed)


class TestContexts:
    """Every split's context is a prefix of the user's segment in the arrays;
    the split only bounds the step."""

    def test_training_context_shape(self, toy_dataset):
        items, buckets, walks = _segment(toy_dataset, 0)
        rec = toy_dataset.users[0]
        # step 3 sees the first three events and the has-walk bit of the third
        assert items[:3] == rec.seq_items[:3]
        assert buckets[:3] == rec.buckets[:3]
        assert items[2] == rec.seq_items[2]
        assert walks[2] == rec.walks[2]

    def test_training_context_bounds(self, toy_dataset):
        params = _toy_params(toy_dataset)
        n = int(toy_dataset.seq_len[0])
        with pytest.raises(IndexError):
            score_user_steps(params, toy_dataset, "train", [0], [[0]], [[1]])
        with pytest.raises(IndexError):
            score_user_steps(params, toy_dataset, "train", [0], [[n]], [[1]])
        with pytest.raises(IndexError):
            score_user_steps(params, toy_dataset, "train", [0], [[]], np.zeros((0, 1)))
        score_user_steps(params, toy_dataset, "train", [0], [[1, n - 1]], [[1], [1]])

    def test_val_context(self, toy_dataset):
        items, buckets, walks = _segment(toy_dataset, 1)
        rec = toy_dataset.users[1]
        n = len(rec.seq_items)
        assert items[:n] == rec.seq_items
        assert buckets[n - 1] == rec.bucket_val
        assert items[n - 1] == rec.seq_items[-1]
        assert walks[n - 1] == rec.walks[-1]
        params = _toy_params(toy_dataset)
        score_user_steps(params, toy_dataset, "val", [1], [[n]], [[1]])
        with pytest.raises(IndexError):
            score_user_steps(params, toy_dataset, "val", [1], [[n + 1]], [[1]])

    def test_test_context_sees_validation_event(self, toy_dataset):
        items, buckets, walks = _segment(toy_dataset, 1)
        rec = toy_dataset.users[1]
        n = len(rec.seq_items)
        assert items[:n + 1] == rec.seq_items + [rec.val_item]
        assert buckets[n - 1:n + 1] == [rec.bucket_val, rec.bucket_gap]
        assert items[n] == rec.val_item
        assert walks[n] == rec.walks_val
        params = _toy_params(toy_dataset)
        score_user_steps(params, toy_dataset, "test", [1], [[n + 1]], [[1]])
        with pytest.raises(IndexError):
            score_user_steps(params, toy_dataset, "test", [1], [[n + 2]], [[1]])

    def test_no_context_contains_the_target(self, toy_dataset):
        # The target item may legitimately appear in history (revisits), but
        # the *event* must not: every bucket/walk timestamp source is train
        # data, checked in test_data; here we check the history cutoff. The
        # segment ends with the test item, which no split's last step reads.
        params = _toy_params(toy_dataset)
        for user in range(toy_dataset.n_users):
            rec = toy_dataset.users[user]
            n = len(rec.seq_items)
            items, buckets, walks = _segment(toy_dataset, user)
            assert items[n + 1] == rec.test_item
            assert len(buckets) == len(walks) == len(items) - 1 == n + 1
            for split, last in (("val", n), ("test", n + 1)):
                with pytest.raises(IndexError):
                    score_user_steps(params, toy_dataset, split, [user], [[last + 1]],
                                     [[1]])

    def test_unknown_split_rejected(self, toy_dataset):
        with pytest.raises(ValueError, match="split"):
            score_user_steps(_toy_params(toy_dataset), toy_dataset, "holdout", [0], [[1]],
                             [[1]])


_BLANK = ([0], [[]], [0])


def _ds(items=(0, 2, 3), walks=(1, 0, 1)):
    """User 1 of three: `items` with buckets [[1, 2], [], [0, 4]], `walks` and
    neighbors [0, 2], held out at its validation step len(items)."""
    user = context_record(items, [[1, 2], [], [0, 4]], walks)
    return dataset_of([context_record(*_BLANK), user, context_record(*_BLANK)], n_items=5,
                      neighbors={1: [0, 2]})


def _score(params, ds, cands, **kwargs):
    """Scores of user 1's held-out step."""
    return score_steps(params, ds, "val", 1, [int(ds.seq_len[1])], [cands], **kwargs)[0]


class TestScoring:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batched_equals_single_route(self, variant):
        params = init_params(3, 5, 4, 6, variant, seed=19)
        ds = _ds()
        cands = [0, 1, 2, 3, 4]
        batched = _score(params, ds, cands).data
        single = score_candidates_single_route(params, ds, 1, 3, cands)
        np.testing.assert_allclose(batched, single, atol=1e-12)

    def test_eval_mode_deterministic(self):
        params = init_params(3, 5, 4, 6, "tea-s", seed=7)
        a = _score(params, _ds(), [0, 1]).data
        b = _score(params, _ds(), [0, 1]).data
        np.testing.assert_array_equal(a, b)

    def test_training_mode_dropout_changes_scores(self):
        params = init_params(3, 5, 4, 6, "tea-s", seed=7)
        eval_scores = _score(params, _ds(), [0, 1]).data
        train_scores = _score(params, _ds(), [0, 1], training=True,
                              rngs=[np.random.default_rng(0)], p_drop=0.5).data
        assert not np.allclose(eval_scores, train_scores)

    def test_same_dropout_stream_reproduces(self):
        params = init_params(3, 5, 4, 6, "tea-s", seed=7)
        a = _score(params, _ds(), [0, 1], training=True,
                   rngs=[np.random.default_rng(3)]).data
        b = _score(params, _ds(), [0, 1], training=True,
                   rngs=[np.random.default_rng(3)]).data
        np.testing.assert_array_equal(a, b)

    def test_reduced_variant_equals_full_with_zeroed_walks(self):
        """The -R variants' score path is the full path with walk vectors zeroed."""
        full = init_params(3, 5, 4, 6, "tea-s", seed=23)
        reduced = init_params(3, 5, 4, 6, "tea-rs", seed=23)
        # named init streams: every shared tensor must match exactly
        for (name_f, t_f), (name_r, t_r) in zip(
                full.shared.named() + full.unary.named(),
                reduced.shared.named() + reduced.unary.named()):
            assert name_f == name_r
            np.testing.assert_array_equal(t_f.data, t_r.data)
        got_reduced = _score(reduced, _ds(), [0, 1, 2]).data
        got_full_zeroed = _score(full, _ds(walks=(0, 0, 0)), [0, 1, 2]).data
        np.testing.assert_allclose(got_reduced, got_full_zeroed, atol=1e-15)

    def test_attention_reduced_variant(self):
        full = init_params(3, 5, 4, 6, "tea-a", seed=29)
        reduced = init_params(3, 5, 4, 6, "tea-ra", seed=29)
        np.testing.assert_allclose(
            _score(reduced, _ds(), [1, 4]).data,
            _score(full, _ds(walks=(0, 0, 0)), [1, 4]).data, atol=1e-15)


@pytest.fixture(scope="module")
def truncated_dataset(tmp_path_factory):
    """Cycle corpus prepared with l_s=8: every sequence is cut to exactly l_s."""
    tmp = tmp_path_factory.mktemp("truncated_corpus")
    rows, pairs = cycle_corpus(n_users=10, n_items=20, length=16, stride=2)
    ds = prepare_dataset(*write_corpus(str(tmp), rows, pairs), l_s=8, l_n=5,
                         seed=0)
    assert all(len(rec.seq_items) == 8 for rec in ds.users)
    return ds


class TestWindows:
    """Window rule of the one route, checked against the single-candidate oracle."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_training_steps_at_l_s(self, truncated_dataset, variant):
        ds = truncated_dataset
        params = init_params(ds.n_users, ds.n_items, d=4, l_s=8,
                             variant=variant, seed=94)
        rng = np.random.default_rng(4)
        for user in range(ds.n_users):
            steps = list(range(1, int(ds.seq_len[user])))
            cand_lists = [rng.integers(0, ds.n_items, size=6).tolist()
                          for _ in steps]
            got = score_steps(params, ds, "train", user, steps, cand_lists)
            for step, cands, scores in zip(steps, cand_lists, got):
                want = score_candidates_single_route(params, ds, user, step, cands)
                np.testing.assert_allclose(scores.data, want, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seq_len", [4, 5, 6])
    def test_held_out_steps_around_l_s(self, variant, seq_len):
        # with l_s=5, val scores step seq_len and test step seq_len + 1:
        # together they cover s = l_s and s = l_s + 1 for both splits
        l_s = 5
        ds = synthetic_dataset(n_users=4, n_items=9, seq_len=seq_len,
                               seed=300 + seq_len, l_s=l_s)
        params = init_params(4, 9, d=4, l_s=l_s, variant=variant, seed=95)
        cands = list(range(9))
        for user in range(ds.n_users):
            for split, step in (("val", seq_len), ("test", seq_len + 1)):
                got = score_steps(params, ds, split, user, [step], [cands])[0].data
                want = score_candidates_single_route(params, ds, user, step, cands)
                np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_sees_only_its_window(self, variant):
        """Step s of a long context scores as step s - cut of a user whose
        events are the context's [cut, s), cut = max(0, s - l_s)."""
        l_s = 4
        ds = synthetic_dataset(n_users=3, n_items=9, seq_len=14, seed=310,
                               l_s=l_s)
        params = init_params(3, 9, d=4, l_s=l_s, variant=variant, seed=96)
        cands = [0, 3, 5, 8]
        for user in range(ds.n_users):
            rec = ds.users[user]
            for s in range(1, len(rec.seq_items)):
                cut = max(0, s - l_s)
                records = list(ds.users)
                records[user] = context_record(rec.seq_items[cut:s], rec.buckets[cut:s],
                                               rec.walks[cut:s])
                short = dataset_of(records, ds.n_items, ds.social.neighbors, l_s=l_s)
                got = score_steps(params, ds, "train", user, [s], [cands])[0].data
                want = score_steps(params, short, "val", user, [s - cut], [cands])[0].data
                np.testing.assert_allclose(got, want, atol=1e-12)
                np.testing.assert_allclose(
                    got, score_candidates_single_route(params, ds, user, s, cands),
                    atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_steps_spanning_two_windows_rejected(self, variant):
        l_s = 4
        ds = synthetic_dataset(n_users=2, n_items=9, seq_len=8, seed=320, l_s=l_s)
        params = init_params(2, 9, d=4, l_s=l_s, variant=variant, seed=97)
        for steps in ([l_s - 1, l_s], [l_s, l_s + 1], [1, 6]):
            with pytest.raises(ValueError, match="window"):
                score_user_steps(params, ds, "train", [0], [steps], [[0, 1]] * len(steps))
        # every step below l_s shares the window that starts at 0
        score_user_steps(params, ds, "train", [0], [[1, l_s - 1]], [[0, 1], [2, 3]])


@pytest.fixture(scope="module")
def leak_corpora(tmp_path_factory):
    """A random synthetic dataset whose windows slide (seq_len past l_s) and the
    prepared follower corpus, whose gap buckets hold the leaders' last items."""
    rows, pairs = follower_corpus(n_followers=20, n_items=15, length=8, seed=3)
    follower = prepare_dataset(*write_corpus(str(tmp_path_factory.mktemp("follower")),
                                             rows, pairs), min_actions=1, seed=0)
    return {"synthetic": synthetic_dataset(n_users=6, n_items=12, seq_len=7, seed=41,
                                           l_s=4, max_bucket=4),
            "follower": follower}


def _overwrite_from(ds, first: np.ndarray, rng):
    """A copy of `ds` whose items, bucket items and walk bits from segment
    step first[u] on hold other values, for every user u."""
    n = ds.seq_len.astype(np.intp)
    items, buckets, walks = ds.items.copy(), ds.buckets.copy(), ds.walks.copy()
    at = _ragged_arange(ds.item_start + first, n + 2 - first)        # items past the prefix
    items[at] = (items[at] + rng.integers(1, ds.n_items, at.size)) % ds.n_items
    steps = _ragged_arange(ds.step_start + first, np.maximum(n + 1 - first, 0))
    walks[steps] ^= 1
    at = _ragged_arange(ds.bucket_start[steps], ds.bucket_len[steps])
    buckets[at] = (buckets[at] + rng.integers(1, ds.n_items, at.size)) % ds.n_items
    return dataclasses.replace(ds, items=items, buckets=buckets, walks=walks)


class TestHeldOutLeak:
    """A split's steps read a prefix of each user's segment: overwriting every
    event past the split's last step changes no score of its steps by a bit.
    For validation (last step n) that is the validation and the test item,
    the gap bucket and the validation walk bit; for training (last step
    n - 1) also the last training item and its walk bit and the validation
    bucket; for test (n + 1) the test item."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("corpus", ["synthetic", "follower"])
    @pytest.mark.parametrize("split, last", [("train", -1), ("val", 0), ("test", 1)])
    def test_scores_ignore_what_follows_the_last_step(self, leak_corpora, corpus, variant,
                                                      split, last):
        ds = leak_corpora[corpus]
        rng = np.random.default_rng(5)
        last = ds.seq_len.astype(np.intp) + last
        changed = _overwrite_from(ds, last, rng)
        assert (changed.items != ds.items).sum() == (ds.seq_len + 2 - last).sum()
        if split != "test":
            assert (changed.buckets != ds.buckets).any()
        params = init_params(ds.n_users, ds.n_items, d=4, l_s=ds.config["l_s"],
                             variant=variant, seed=6)
        # one call per step, so a call's steps never need two windows
        for step in range(1, int(last.max()) + 1):
            users = np.flatnonzero(last >= step)
            cands = rng.integers(0, ds.n_items, size=(users.size, 8))
            scores = [score_user_steps(params, data, split, users, [[step]] * users.size,
                                       cands).data.tobytes() for data in (ds, changed)]
            assert scores[0] == scores[1], step


class TestGroupedScoring:
    """A multi-step call must match one call per step exactly."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_grouped_equals_per_step(self, toy_dataset, variant):
        params = init_params(toy_dataset.n_users, toy_dataset.n_items, d=4,
                             l_s=toy_dataset.config["l_s"], variant=variant,
                             seed=91)
        user = 2
        steps = list(range(1, int(toy_dataset.seq_len[user])))
        rng = np.random.default_rng(0)
        cand_lists = [rng.integers(0, toy_dataset.n_items, size=6).tolist()
                      for _ in steps]
        grouped = score_steps(params, toy_dataset, "train", user, steps, cand_lists)
        for step, cands, got in zip(steps, cand_lists, grouped):
            want = score_steps(params, toy_dataset, "train", user, [step], [cands])[0]
            np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    def test_grouped_gradients(self, toy_dataset):
        params = init_params(toy_dataset.n_users, toy_dataset.n_items, d=4,
                             l_s=toy_dataset.config["l_s"], variant="tea-s",
                             seed=93)
        target = ad.Tensor(np.random.default_rng(2).normal(size=3))

        def build():
            outs = score_steps(params, toy_dataset, "train", 1, [1, 3],
                               [[0, 2, 4], [1, 3, 5]])
            both = ad.add(ad.mul(outs[0], target), ad.mul(outs[1], target))
            return ad.total_sum(both)

        # spot-check a representative subset of leaves (full FD runs in the
        # acceptance suite)
        named = [(n, t) for n, t in params.trainable()
                 if n in ("emb.item", "emb.user", "g.w_q", "g.w_3",
                          "f.gru.w_hz", "g.gru.w_xn", "f.w_1")]
        assert_gradients_match(build, named)


def _batch_contexts(l_s, seed=0, n_items=9):
    """Five users of different lengths with empty buckets, walks and neighbors,
    each held out at its validation step.

    Returns (dataset, step lists for the "val" split): user 0 holds exactly
    l_s events and scores its training steps; users 1 and 2 score held-out
    steps l_s and l_s + 1; user 3 is short, with empty buckets, no walks and
    no neighbors; user 4 scores two training steps.
    """
    rng = np.random.default_rng(seed)

    def ctx(n, empty=False):
        items = rng.integers(0, n_items, size=n).tolist()
        buckets = [[] if empty or rng.random() < 0.3
                   else rng.integers(0, n_items, size=rng.integers(1, 4)).tolist()
                   for _ in range(n)]
        def has_walk():
            if empty or rng.random() < 0.4:
                return 0
            rng.integers(0, 5)   # the co-user's draw, kept so later contexts stay the same
            return 1

        walks = [has_walk() for _ in range(n)]
        return context_record(items, buckets, walks)

    records = [ctx(l_s), ctx(l_s), ctx(l_s + 1), ctx(3, empty=True), ctx(5)]
    neighbors = {0: [0, 2], 1: [0, 2], 2: [0, 2], 3: [], 4: [1]}
    steps = [list(range(1, l_s)), [l_s], [l_s + 1], [1, 2], [1, 2]]
    return dataset_of(records, n_items, neighbors, l_s=l_s), steps


_USERS = list(range(5))


def _candidate_rows(steps, seed, n_items=9, n_cands=6):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_items, size=(sum(map(len, steps)), n_cands))


class TestBatchedProgram:
    """One score_user_steps call over several users against the oracles."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_single_candidate_oracle(self, variant):
        l_s = 4
        ds, steps = _batch_contexts(l_s, seed=1)
        params = init_params(5, 9, d=4, l_s=l_s, variant=variant, seed=101)
        cands = _candidate_rows(steps, seed=2)
        got = score_user_steps(params, ds, "val", _USERS, steps, cands).data
        assert got.shape == cands.shape
        rows = [(user, s) for user, st in zip(_USERS, steps) for s in st]
        for (user, s), row, want_cands in zip(rows, got, cands):
            want = score_candidates_single_route(params, ds, user, s, want_cands.tolist())
            np.testing.assert_allclose(row, want, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_oracle_at_l_s_one(self, variant):
        # l_s = 1: every window is empty and each user scores one step
        ds, _ = _batch_contexts(4, seed=3)
        steps = [[4], [2], [5], [1], [3]]
        params = init_params(5, 9, d=4, l_s=1, variant=variant, seed=102)
        cands = _candidate_rows(steps, seed=4)
        got = score_user_steps(params, ds, "val", _USERS, steps, cands).data
        for user, st, row, want_cands in zip(_USERS, steps, got, cands):
            want = score_candidates_single_route(params, ds, user, st[0], want_cands.tolist())
            np.testing.assert_allclose(row, want, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_do_not_depend_on_batch_mates(self, variant):
        l_s = 4
        ds, steps = _batch_contexts(l_s, seed=5)
        params = init_params(5, 9, d=4, l_s=l_s, variant=variant, seed=103)
        cands = _candidate_rows(steps, seed=6)

        def rngs(subset):
            return [np.random.default_rng([7, user]) for user in subset]

        together = score_user_steps(params, ds, "val", _USERS, steps, cands, training=True,
                                    rngs=rngs(_USERS)).data
        first = 0
        for user, st in zip(_USERS, steps):
            rows = slice(first, first + len(st))
            alone = score_user_steps(params, ds, "val", [user], [st], cands[rows],
                                     training=True, rngs=rngs([user])).data
            np.testing.assert_allclose(together[rows], alone, atol=1e-12)
            first += len(st)
        # the pairing is not trivial: dropout is on and draws differ per user
        eval_mode = score_user_steps(params, ds, "val", _USERS, steps, cands).data
        assert not np.allclose(together, eval_mode)

    def test_rejects_mismatched_candidates(self):
        ds, steps = _batch_contexts(4, seed=8)
        params = init_params(5, 9, d=4, l_s=4, variant="tea-s", seed=104)
        with pytest.raises(ValueError, match="candidates"):
            score_user_steps(params, ds, "val", _USERS, steps,
                             _candidate_rows(steps[:-1], seed=9))

    @pytest.mark.parametrize("variant", ["tea-s", "tea-a"])
    def test_batched_loss_gradients(self, variant):
        """The training loss over a multi-user batch, every leaf by finite differences."""
        l_s = 3
        ds, _ = _batch_contexts(l_s, seed=10)
        steps = [[1, 2], [3], [4], [1, 2], [2]]
        params = init_params(5, 9, d=3, l_s=l_s, variant=variant, seed=105)
        cands = _candidate_rows(steps, seed=11, n_cands=3)
        keys = [(user, s) for user, st in zip(_USERS, steps) for s in st]

        def build():
            rngs = [np.random.default_rng([12, user]) for user in _USERS]
            scores = score_user_steps(params, ds, "val", _USERS, steps, cands,
                                      training=True, rngs=rngs)
            return total_loss(sequence_loss(scores, keys, n_s=2),
                              params.trainable(), gamma=5e-3)

        assert_gradients_match(build, params.trainable())


class TestComposedGradients:
    @pytest.mark.parametrize("variant", ["tea-s", "tea-a"])
    def test_full_score_gradients(self, variant):
        params = init_params(3, 5, 4, 6, variant, seed=37)
        ds = _ds()
        target = ad.Tensor(np.random.default_rng(1).normal(size=3))

        def build():
            return ad.total_sum(ad.mul(_score(params, ds, [0, 2, 4]), target))

        assert_gradients_match(build, params.trainable())

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("gamma", [0.0, 5e-4])
    def test_batch_gradients_equal_the_dense_reference(self, variant, gamma):
        """Every table is gathered several times; merged rows change no bit."""
        l_s = 4
        ds, steps = _batch_contexts(l_s, seed=6)
        params = init_params(5, 9, d=4, l_s=l_s, variant=variant, seed=104)
        named = params.trainable()
        cands = _candidate_rows(steps, seed=7)
        n_rows, n_s = cands.shape[0], cands.shape[1] - 1
        rngs = [np.random.default_rng(user) for user in _USERS]
        with ad.Tape() as tape:
            scores = score_user_steps(params, ds, "val", _USERS, steps, cands, training=True,
                                      rngs=rngs, p_drop=0.3)
            keys = [(0, row) for row in range(n_rows)]
            loss = total_loss(sequence_loss(scores, keys, n_s), named, gamma)
        want = dense_backward(loss, tape)
        for (name, t), got in zip(named, gradients(loss, tape, [t for _, t in named])):
            assert np.array_equal(got, want.get(id(t), np.zeros_like(t.data))), name


class TestTapeLength:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_records_do_not_grow_with_the_number_of_buckets(self, variant):
        """The temporal GRU is one record: a training batch of users with 5
        buckets each and one of users with 30 each record as many ops."""
        lengths = []
        for n_steps in (5, 30):
            ds = synthetic_dataset(n_users=3, n_items=40, seq_len=n_steps + 1, seed=4,
                                   l_s=50)
            params = init_params(3, 40, d=4, l_s=50, variant=variant, seed=5)
            steps = [list(range(1, n_steps + 1))] * 3
            n_rows = 3 * n_steps
            cands = np.random.default_rng(6).integers(0, 40, size=(n_rows, 6))
            rngs = [np.random.default_rng(user) for user in range(3)]
            with ad.Tape() as tape:
                scores = score_user_steps(params, ds, "train", range(3), steps, cands,
                                          training=True, rngs=rngs, p_drop=0.3)
                sequence_loss(scores, [(0, row) for row in range(n_rows)], 5)
            lengths.append(len(tape))
        assert lengths[0] == lengths[1], lengths


def _spy_masks(monkeypatch) -> dict:
    """Record g's keep-mask ("g") and f's ("f") as score_user_steps passes them."""
    seen = {}
    head, fuse = ad.candidate_head, unary.fuse_context

    def spy_head(*args, **kwargs):
        seen["g"] = kwargs["keep"]
        return head(*args, **kwargs)

    def spy_fuse(params, h_temporal, h_social, keep, p_drop):
        seen["f"] = keep
        return fuse(params, h_temporal, h_social, keep, p_drop)

    monkeypatch.setattr(ad, "candidate_head", spy_head)
    monkeypatch.setattr(unary, "fuse_context", spy_fuse)
    return seen


class TestCandidateHeadInTheModel:
    """g's head is one record: folded in eval mode, masks drawn as before."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_eval_mode_equals_training_without_dropout(self, variant):
        l_s = 4
        ds, steps = _batch_contexts(l_s, seed=12)
        params = init_params(5, 9, d=4, l_s=l_s, variant=variant, seed=106)
        named = params.trainable()
        cands = _candidate_rows(steps, seed=13)
        keys = [(0, row) for row in range(cands.shape[0])]
        runs = []
        for training in (False, True):
            with ad.Tape() as tape:
                scores = score_user_steps(params, ds, "val", _USERS, steps, cands,
                                          training=training,
                                          rngs=None, p_drop=0.0)
                loss = total_loss(sequence_loss(scores, keys, cands.shape[1] - 1), named,
                                  5e-4)
            runs.append([scores.data] + gradients(loss, tape, [t for _, t in named]))
        for evaluated, trained in zip(*runs):
            np.testing.assert_allclose(evaluated, trained, atol=1e-12, rtol=0)

    def test_g_mask_is_drawn_per_user_before_f_mask(self, monkeypatch):
        l_s, d, p_drop = 4, 4, 0.3
        ds, steps = _batch_contexts(l_s, seed=14)
        params = init_params(5, 9, d=d, l_s=l_s, variant="tea-a", seed=107)
        cands = _candidate_rows(steps, seed=15)
        n_cands = cands.shape[1]
        seen = _spy_masks(monkeypatch)
        rngs = [np.random.default_rng([16, user]) for user in _USERS]
        score_user_steps(params, ds, "val", _USERS, steps, cands, training=True, rngs=rngs,
                         p_drop=p_drop)
        first = 0
        for user, st, rng in zip(_USERS, steps, rngs):
            rows = slice(first, first + len(st))
            replay = np.random.default_rng([16, user])
            np.testing.assert_array_equal(seen["g"][rows],
                                          replay.random((len(st), n_cands, d)) >= p_drop)
            np.testing.assert_array_equal(seen["f"][rows],       # f's mask comes next
                                          replay.random((len(st), d)) >= p_drop)
            assert rng.bit_generator.state == replay.bit_generator.state
            first += len(st)

    def test_keep_rate_of_both_masks(self, monkeypatch):
        """Both masks keep each entry with probability 1 - p_drop (4 sigma)."""
        n_users, n_steps, d, p_drop = 4, 29, 16, 0.3
        ds = synthetic_dataset(n_users=n_users, n_items=50, seq_len=n_steps + 1,
                               seed=2, l_s=50)
        params = init_params(n_users, 50, d=d, l_s=50, variant="tea-s", seed=2)
        steps = [list(range(1, n_steps + 1))] * n_users
        cands = np.random.default_rng(3).integers(0, 50, size=(n_users * n_steps, 11))
        seen = _spy_masks(monkeypatch)
        rngs = [np.random.default_rng([21, u]) for u in range(n_users)]
        score_user_steps(params, ds, "train", range(n_users), steps, cands, training=True,
                         rngs=rngs, p_drop=p_drop)
        assert seen["g"].shape == cands.shape + (d,)
        assert seen["f"].shape == (cands.shape[0], d)
        for mask in (seen["g"], seen["f"]):
            sigma = np.sqrt(p_drop * (1 - p_drop) / mask.size)
            assert abs(mask.mean() - (1 - p_drop)) < 4 * sigma, mask.mean()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_candidate_embeddings_feed_one_record(self, variant):
        """f and g score in one head, which reads the candidates' embeddings
        from the item table itself: in a training batch with dropout no
        record outputs an (N, C, d) candidate array, and the record that
        outputs the scores takes params.shared.item as an input."""
        l_s = 4
        ds, steps = _batch_contexts(l_s, seed=18)
        params = init_params(5, 9, d=4, l_s=l_s, variant=variant, seed=108)
        cands = _candidate_rows(steps, seed=19)
        rngs = [np.random.default_rng([20, user]) for user in _USERS]
        with ad.Tape() as tape:
            scores = score_user_steps(params, ds, "val", _USERS, steps, cands, training=True,
                                      rngs=rngs, p_drop=0.3)
        shapes = [rec.out.data.shape for rec in tape.records]
        assert cands.shape + (4,) not in shapes
        (head,) = [rec for rec in tape.records if rec.out is scores]
        assert head.inputs[0] is params.shared.item

    def test_training_batch_memory(self):
        """Forward, loss and backward of a short-seq-sized batch: 3 users x 28 steps,
        51 candidates, d = 32. The head built from a dozen primitives peaked at
        18.2 candidate-sized (N, C, d) arrays under tracemalloc; one record that
        keeps about five of them, and scores f + g, stays at 9, and at 8 when it
        gathers the candidates' embeddings piece by piece itself."""
        n_users, n_steps, n_cands, d = 3, 28, 51, 32
        ds = synthetic_dataset(n_users=n_users, n_items=300, seq_len=n_steps + 1,
                               seed=1, l_s=50)
        params = init_params(n_users, 300, d=d, l_s=50, variant="tea-s", seed=1)
        steps = [list(range(1, n_steps + 1))] * n_users
        n_rows = n_users * n_steps
        cands = np.random.default_rng(0).integers(0, 300, size=(n_rows, n_cands))
        keys = [(0, row) for row in range(n_rows)]

        grad = np.empty_like(params.flat)
        grad_views = list(zip((t for _, t in params.trainable()), params.views(grad)))

        def batch():
            rngs = [np.random.default_rng([17, user]) for user in range(n_users)]
            with ad.Tape() as tape:
                scores = score_user_steps(params, ds, "train", range(n_users), steps, cands,
                                          training=True, rngs=rngs, p_drop=0.5)
                loss = sequence_loss(scores, keys, n_cands - 1)
            ad.backward(loss, tape, grad_views)

        batch()
        tracemalloc.start()
        try:
            batch()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cand_bytes = n_rows * n_cands * d * 8
        assert peak <= 8 * cand_bytes, f"peak {peak / cand_bytes:.2f} candidate arrays"
