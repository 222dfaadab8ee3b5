"""Context assembly and end-to-end scoring across both score functions."""

import numpy as np
import pytest

from tea import autodiff as ad
from tea.data import prepare_dataset
from tea.model import UserContext, score_user_steps, user_context
from tea.objective import sequence_loss, total_loss
from tea.params import init_params

from corpus import cycle_corpus, synthetic_dataset, write_corpus
from oracles import score_candidates_single_route
from gradcheck import assert_gradients_match
from scoring import score_steps

VARIANTS = ["tea-s", "tea-a", "tea-rs", "tea-ra"]


class TestContexts:
    def test_training_context_shape(self, toy_dataset):
        ctx = user_context(toy_dataset, user=0, split="train")
        rec = toy_dataset.users[0]
        # step 3 sees the first three events and the walk set of the third
        assert ctx.items[:3] == rec.seq_items[:3]
        assert ctx.buckets[:3] == rec.buckets[:3]
        assert ctx.items[2] == rec.seq_items[2]
        assert ctx.walks[2] == rec.walks[2]
        assert ctx.neighbors == toy_dataset.social.of(0)

    def test_training_context_bounds(self, toy_dataset):
        params = init_params(toy_dataset.n_users, toy_dataset.n_items, d=4,
                             l_s=toy_dataset.config["l_s"], variant="tea-s",
                             seed=90)
        ctx = user_context(toy_dataset, 0, "train")
        with pytest.raises(IndexError):
            score_user_steps(params, [ctx], [[0]], [[1]])
        with pytest.raises(IndexError):
            score_user_steps(params, [ctx], [[len(toy_dataset.users[0].seq_items)]],
                             [[1]])

    def test_val_context(self, toy_dataset):
        ctx = user_context(toy_dataset, 1, "val")
        rec = toy_dataset.users[1]
        assert ctx.items == rec.seq_items
        assert ctx.buckets[-1] == rec.bucket_val
        assert ctx.items[-1] == rec.seq_items[-1]
        assert ctx.walks[-1] == rec.walks[-1]

    def test_test_context_sees_validation_event(self, toy_dataset):
        ctx = user_context(toy_dataset, 1, "test")
        rec = toy_dataset.users[1]
        assert ctx.items == rec.seq_items + [rec.val_item]
        assert ctx.buckets[-2:] == [rec.bucket_val, rec.bucket_gap]
        assert ctx.items[-1] == rec.val_item
        assert ctx.walks[-1] == rec.walks_val

    def test_no_context_contains_the_target(self, toy_dataset):
        # The target item may legitimately appear in history (revisits), but
        # the *event* must not: every bucket/walk timestamp source is train
        # data, checked in test_data; here we check the history cutoff.
        for user in range(toy_dataset.n_users):
            rec = toy_dataset.users[user]
            ctx_val = user_context(toy_dataset, user, "val")
            assert len(ctx_val.items) == len(rec.seq_items)
            ctx_test = user_context(toy_dataset, user, "test")
            assert len(ctx_test.items) == len(rec.seq_items) + 1
            # the held-out step len(items) is the last one the context can score
            for ctx in (ctx_val, ctx_test):
                assert len(ctx.buckets) == len(ctx.walks) == len(ctx.items)

    def test_unknown_split_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            user_context(toy_dataset, 0, "holdout")


def _ctx(user=1, items=(0, 2, 3), walks=(2, 0)):
    return UserContext(user=user, items=list(items),
                       buckets=[[1, 2], [], [0, 4]],
                       walks=[[1], [], list(walks)], neighbors=[0, 2])


def _score(params, ctx, cands, **kwargs):
    """Scores of the held-out step len(ctx.items)."""
    return score_steps(params, ctx, [len(ctx.items)], [cands], **kwargs)[0]


class TestScoring:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batched_equals_single_route(self, variant):
        params = init_params(3, 5, 4, 6, variant, seed=19)
        ctx = _ctx()
        cands = [0, 1, 2, 3, 4]
        batched = _score(params, ctx, cands).data
        single = score_candidates_single_route(params, ctx, 3, cands)
        np.testing.assert_allclose(batched, single, atol=1e-12)

    def test_eval_mode_deterministic(self):
        params = init_params(3, 5, 4, 6, "tea-s", seed=7)
        a = _score(params, _ctx(), [0, 1]).data
        b = _score(params, _ctx(), [0, 1]).data
        np.testing.assert_array_equal(a, b)

    def test_training_mode_dropout_changes_scores(self):
        params = init_params(3, 5, 4, 6, "tea-s", seed=7)
        eval_scores = _score(params, _ctx(), [0, 1]).data
        train_scores = _score(params, _ctx(), [0, 1], training=True,
                              rngs=[np.random.default_rng(0)], p_drop=0.5).data
        assert not np.allclose(eval_scores, train_scores)

    def test_same_dropout_stream_reproduces(self):
        params = init_params(3, 5, 4, 6, "tea-s", seed=7)
        a = _score(params, _ctx(), [0, 1], training=True,
                   rngs=[np.random.default_rng(3)]).data
        b = _score(params, _ctx(), [0, 1], training=True,
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
        ctx = _ctx()
        no_walk_ctx = UserContext(ctx.user, ctx.items, ctx.buckets,
                                  [[] for _ in ctx.walks], ctx.neighbors)
        got_reduced = _score(reduced, ctx, [0, 1, 2]).data
        got_full_zeroed = _score(full, no_walk_ctx, [0, 1, 2]).data
        np.testing.assert_allclose(got_reduced, got_full_zeroed, atol=1e-15)

    def test_attention_reduced_variant(self):
        full = init_params(3, 5, 4, 6, "tea-a", seed=29)
        reduced = init_params(3, 5, 4, 6, "tea-ra", seed=29)
        ctx = _ctx()
        no_walk_ctx = UserContext(ctx.user, ctx.items, ctx.buckets,
                                  [[] for _ in ctx.walks], ctx.neighbors)
        np.testing.assert_allclose(
            _score(reduced, ctx, [1, 4]).data,
            _score(full, no_walk_ctx, [1, 4]).data, atol=1e-15)


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
            ctx = user_context(ds, user, "train")
            steps = list(range(1, len(ctx.items)))
            cand_lists = [rng.integers(0, ds.n_items, size=6).tolist()
                          for _ in steps]
            got = score_steps(params, ctx, steps, cand_lists)
            for step, cands, scores in zip(steps, cand_lists, got):
                want = score_candidates_single_route(params, ctx, step, cands)
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
            for split in ("val", "test"):
                ctx = user_context(ds, user, split)
                step = len(ctx.items)
                got = _score(params, ctx, cands).data
                want = score_candidates_single_route(params, ctx, step, cands)
                np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_sees_only_its_window(self, variant):
        """Step s of a long context scores as the context cut at max(0, s - l_s)."""
        l_s = 4
        ds = synthetic_dataset(n_users=3, n_items=9, seq_len=14, seed=310,
                               l_s=l_s)
        params = init_params(3, 9, d=4, l_s=l_s, variant=variant, seed=96)
        cands = [0, 3, 5, 8]
        for user in range(ds.n_users):
            ctx = user_context(ds, user, "train")
            for s in range(1, len(ctx.items)):
                cut = max(0, s - l_s)
                short = UserContext(ctx.user, ctx.items[cut:], ctx.buckets[cut:],
                                    ctx.walks[cut:], ctx.neighbors)
                got = score_steps(params, ctx, [s], [cands])[0].data
                want = score_steps(params, short, [s - cut], [cands])[0].data
                np.testing.assert_allclose(got, want, atol=1e-12)
                np.testing.assert_allclose(
                    got, score_candidates_single_route(params, ctx, s, cands),
                    atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_steps_spanning_two_windows_rejected(self, variant):
        l_s = 4
        ds = synthetic_dataset(n_users=2, n_items=9, seq_len=8, seed=320, l_s=l_s)
        params = init_params(2, 9, d=4, l_s=l_s, variant=variant, seed=97)
        ctx = user_context(ds, 0, "train")
        for steps in ([l_s - 1, l_s], [l_s, l_s + 1], [1, 6]):
            with pytest.raises(ValueError, match="window"):
                score_user_steps(params, [ctx], [steps], [[0, 1]] * len(steps))
        # every step below l_s shares the window that starts at 0
        score_user_steps(params, [ctx], [[1, l_s - 1]], [[0, 1], [2, 3]])


class TestGroupedScoring:
    """A multi-step call must match one call per step exactly."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_grouped_equals_per_step(self, toy_dataset, variant):
        params = init_params(toy_dataset.n_users, toy_dataset.n_items, d=4,
                             l_s=toy_dataset.config["l_s"], variant=variant,
                             seed=91)
        user = 2
        ctx = user_context(toy_dataset, user, "train")
        steps = list(range(1, len(ctx.items)))
        rng = np.random.default_rng(0)
        cand_lists = [rng.integers(0, toy_dataset.n_items, size=6).tolist()
                      for _ in steps]
        grouped = score_steps(params, ctx, steps, cand_lists)
        for step, cands, got in zip(steps, cand_lists, grouped):
            want = score_steps(params, ctx, [step], [cands])[0]
            np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    def test_grouped_gradients(self, toy_dataset):
        params = init_params(toy_dataset.n_users, toy_dataset.n_items, d=4,
                             l_s=toy_dataset.config["l_s"], variant="tea-s",
                             seed=93)
        ctx = user_context(toy_dataset, 1, "train")
        target = ad.Tensor(np.random.default_rng(2).normal(size=3))

        def build():
            outs = score_steps(params, ctx, [1, 3], [[0, 2, 4], [1, 3, 5]])
            both = ad.add(ad.mul(outs[0], target), ad.mul(outs[1], target))
            return ad.total_sum(both)

        # spot-check a representative subset of leaves (full FD runs in the
        # acceptance suite)
        named = [(n, t) for n, t in params.trainable()
                 if n in ("emb.item", "emb.user", "g.w_q", "g.w_3",
                          "f.gru.w_hz", "g.gru.w_xn", "f.w_1")]
        assert_gradients_match(build, named)


def _batch_contexts(l_s, seed=0, n_items=9):
    """Users of different lengths with empty buckets, walk sets and neighbors.

    Returns (contexts, step lists): user 0 holds exactly l_s events and
    scores its training steps; users 1 and 2 score held-out steps l_s and
    l_s + 1; user 3 is short, with empty buckets, no walks and no
    neighbors; user 4 scores two training steps.
    """
    rng = np.random.default_rng(seed)

    def ctx(user, n, neighbors=(0, 2), empty=False):
        items = rng.integers(0, n_items, size=n).tolist()
        buckets = [[] if empty or rng.random() < 0.3
                   else rng.integers(0, n_items, size=rng.integers(1, 4)).tolist()
                   for _ in range(n)]
        walks = [[] if empty or rng.random() < 0.4 else [int(rng.integers(0, 5))]
                 for _ in range(n)]
        return UserContext(user, items, buckets, walks, list(neighbors))

    ctxs = [ctx(0, l_s), ctx(1, l_s), ctx(2, l_s + 1),
            ctx(3, 3, neighbors=(), empty=True), ctx(4, 5, neighbors=(1,))]
    steps = [list(range(1, l_s)), [l_s], [l_s + 1], [1, 2], [1, 2]]
    return ctxs, steps


def _candidate_rows(steps, seed, n_items=9, n_cands=6):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_items, size=(sum(map(len, steps)), n_cands))


class TestBatchedProgram:
    """One score_user_steps call over several users against the oracles."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_single_candidate_oracle(self, variant):
        l_s = 4
        ctxs, steps = _batch_contexts(l_s, seed=1)
        params = init_params(5, 9, d=4, l_s=l_s, variant=variant, seed=101)
        cands = _candidate_rows(steps, seed=2)
        got = score_user_steps(params, ctxs, steps, cands).data
        assert got.shape == cands.shape
        rows = [(ctx, s) for ctx, st in zip(ctxs, steps) for s in st]
        for (ctx, s), row, want_cands in zip(rows, got, cands):
            want = score_candidates_single_route(params, ctx, s, want_cands.tolist())
            np.testing.assert_allclose(row, want, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_oracle_at_l_s_one(self, variant):
        # l_s = 1: every window is empty and each user scores one step
        ctxs, _ = _batch_contexts(4, seed=3)
        steps = [[4], [2], [5], [1], [3]]
        params = init_params(5, 9, d=4, l_s=1, variant=variant, seed=102)
        cands = _candidate_rows(steps, seed=4)
        got = score_user_steps(params, ctxs, steps, cands).data
        for ctx, st, row, want_cands in zip(ctxs, steps, got, cands):
            want = score_candidates_single_route(params, ctx, st[0], want_cands.tolist())
            np.testing.assert_allclose(row, want, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_do_not_depend_on_batch_mates(self, variant):
        l_s = 4
        ctxs, steps = _batch_contexts(l_s, seed=5)
        params = init_params(5, 9, d=4, l_s=l_s, variant=variant, seed=103)
        cands = _candidate_rows(steps, seed=6)
        keys = [(ctx.user, s) for ctx, st in zip(ctxs, steps) for s in st]

        def rngs(subset):
            return [np.random.default_rng([7, *key]) for key in subset]

        together = score_user_steps(params, ctxs, steps, cands, training=True,
                                    rngs=rngs(keys)).data
        first = 0
        for ctx, st in zip(ctxs, steps):
            rows = slice(first, first + len(st))
            alone = score_user_steps(params, [ctx], [st], cands[rows], training=True,
                                     rngs=rngs(keys[rows])).data
            np.testing.assert_allclose(together[rows], alone, atol=1e-12)
            first += len(st)
        # the pairing is not trivial: dropout is on and draws differ per row
        eval_mode = score_user_steps(params, ctxs, steps, cands).data
        assert not np.allclose(together, eval_mode)

    def test_rejects_mismatched_candidates(self):
        ctxs, steps = _batch_contexts(4, seed=8)
        params = init_params(5, 9, d=4, l_s=4, variant="tea-s", seed=104)
        with pytest.raises(ValueError, match="candidates"):
            score_user_steps(params, ctxs, steps, _candidate_rows(steps[:-1], seed=9))

    @pytest.mark.parametrize("variant", ["tea-s", "tea-a"])
    def test_batched_loss_gradients(self, variant):
        """The training loss over a multi-user batch, every leaf by finite differences."""
        l_s = 3
        ctxs, _ = _batch_contexts(l_s, seed=10)
        steps = [[1, 2], [3], [4], [1, 2], [2]]
        params = init_params(5, 9, d=3, l_s=l_s, variant=variant, seed=105)
        cands = _candidate_rows(steps, seed=11, n_cands=3)
        keys = [(ctx.user, s) for ctx, st in zip(ctxs, steps) for s in st]

        def build():
            rngs = [np.random.default_rng([12, *key]) for key in keys]
            scores = score_user_steps(params, ctxs, steps, cands, training=True,
                                      rngs=rngs)
            return total_loss(sequence_loss(scores, keys, n_s=2),
                              params.trainable(), gamma=5e-3)

        assert_gradients_match(build, params.trainable())


class TestComposedGradients:
    @pytest.mark.parametrize("variant", ["tea-s", "tea-a"])
    def test_full_score_gradients(self, variant):
        params = init_params(3, 5, 4, 6, variant, seed=37)
        ctx = _ctx()
        target = ad.Tensor(np.random.default_rng(1).normal(size=3))

        def build():
            return ad.total_sum(ad.mul(_score(params, ctx, [0, 2, 4]), target))

        assert_gradients_match(build, params.trainable())
