"""Optimization loop: early stopping, convergence, determinism, checkpoints."""

import copy
import dataclasses
import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from tea import autodiff as ad
from tea import params as tea_params
from tea import training
from tea.autodiff import AdamState, Tape, adam_step
from tea.data import sample_negatives
from tea.model import score_user_steps
from tea.objective import NonFiniteScoreError, sequence_loss
from tea.params import (IncompatibleCheckpointError, init_params,
                        load_checkpoint, save_checkpoint)
from tea.training import (NumericalError, TrainConfig, early_stop, train,
                          write_curve_csv)

import oracles
from gradcheck import gradients

VARIANTS = ["tea-s", "tea-a", "tea-rs", "tea-ra"]

# sha256 of save_checkpoint(init_params(7, 11, 4, 5, variant, seed=3), {}, 0):
# pins the init draws and the on-disk format.
CHECKPOINT_SHA256 = {
    "tea-s": "4c91b4c302c981ba9d7792834a48e1e4e4311d56ca929d91caeafa67f87373c6",
    "tea-a": "00a080dbe48d1113be5516f72455d07830eb9b7a3413b431a2c08d6faea803a6",
    "tea-rs": "ccdbdcc0ab23e40b3a6a8628839e3cd4ae65784d7a4a96c5b790aa1a336e04fb",
    "tea-ra": "557003d7442c6ed90f806cf3e1da886090a20ab18321b05e74ecf4386fe012ce",
}


def _toy_config(**overrides):
    base = dict(d=8, batch_size=64, p_drop=0.0, gamma=1e-5, n_s=10, l_s=10,
                lr=0.01, max_epochs=5, patience=50, seed=0, variant="tea-s",
                all_steps=True)
    base.update(overrides)
    return TrainConfig(**base)


class TestEarlyStop:
    def test_counting_example(self):
        stop, best = early_stop([0.5, 0.6, 0.6, 0.6], patience=2)
        assert stop and best == 2

    def test_strictly_increasing_never_stops(self):
        history = [0.1 * i for i in range(1, 30)]
        for n in range(1, len(history) + 1):
            stop, best = early_stop(history[:n], patience=3)
            assert not stop and best == n

    def test_tie_keeps_earliest(self):
        stop, best = early_stop([0.4, 0.9, 0.9, 0.9, 0.9], patience=10)
        assert best == 2 and not stop

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            early_stop([], 3)


class TestTrainLoop:
    def test_zero_epochs_returns_init(self, toy_dataset):
        config = _toy_config(max_epochs=0)
        result = train(toy_dataset, config)
        assert result.curve == [] and result.best_epoch == 0
        fresh = init_params(toy_dataset.n_users, toy_dataset.n_items, config.d,
                            result.config.l_s, config.variant, config.seed)
        for (_, a), (_, b) in zip(result.params.trainable(), fresh.trainable()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_same_seed_bit_identical(self, toy_dataset):
        r1 = train(toy_dataset, _toy_config(max_epochs=2, seed=13))
        r2 = train(toy_dataset, _toy_config(max_epochs=2, seed=13))
        assert r1.curve == r2.curve
        for (_, a), (_, b) in zip(r1.params.trainable(), r2.params.trainable()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_validation_candidates_drawn_once(self, toy_dataset, monkeypatch):
        """Drawn once before the epochs, they give the curve and the parameter
        bytes of drawing them again at every validation pass."""
        drawn = []
        draw = training.eval_candidates

        def counting(ds, split, cfg, users):
            drawn.append(len(users))
            return draw(ds, split, cfg, users)

        monkeypatch.setattr(training, "eval_candidates", counting)
        once = train(toy_dataset, _toy_config(max_epochs=3, seed=7, p_drop=0.3))
        assert drawn == [toy_dataset.n_users]
        evaluate = training.evaluate_all

        def every_epoch(params, ds, split, cfg, candidates):
            return evaluate(params, ds, split, cfg)

        monkeypatch.setattr(training, "evaluate_all", every_epoch)
        again = train(toy_dataset, _toy_config(max_epochs=3, seed=7, p_drop=0.3))
        assert len(once.curve) == 3 and once.curve == again.curve
        for (name, a), (_, b) in zip(once.params.trainable(), again.params.trainable()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_best_epoch_parameters_are_restored(self, toy_dataset, monkeypatch):
        """Validation NDCG peaking at epoch 2 of 4 returns the parameters of a
        two-epoch run whose NDCG rises, byte for byte."""
        evaluate = training.evaluate_all

        def run(max_epochs, ndcgs):
            seen, ndcgs = [], iter(ndcgs)

            def scripted(params, *args, **kwargs):
                seen.append(params.flat.copy())
                report = evaluate(params, *args, **kwargs)
                report.ndcg[10] = next(ndcgs)
                return report

            monkeypatch.setattr(training, "evaluate_all", scripted)
            return train(toy_dataset, _toy_config(max_epochs=max_epochs, seed=4)), seen

        four, seen = run(4, [0.1, 0.5, 0.3, 0.2])
        two, _ = run(2, [0.1, 0.5])
        assert four.best_epoch == two.best_epoch == 2 and len(four.curve) == 4
        assert four.params.flat.tobytes() == two.params.flat.tobytes()
        assert four.params.flat.tobytes() == seen[1].tobytes()
        assert four.params.flat.tobytes() != seen[3].tobytes()
        for (name, a), (_, b) in zip(four.params.trainable(), two.params.trainable()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_different_seed_differs(self, toy_dataset):
        r1 = train(toy_dataset, _toy_config(max_epochs=1, seed=1))
        r2 = train(toy_dataset, _toy_config(max_epochs=1, seed=2))
        assert r1.curve != r2.curve

    def test_toy_cycle_converges(self, toy_dataset):
        # tiny-init embeddings mean a long flat start at lr=0.01; the toy
        # check uses a hotter step size to finish inside 30 epochs
        result = train(toy_dataset, _toy_config(max_epochs=30, batch_size=16,
                                                lr=0.1))
        first = result.curve[0]["train_loss"]
        last = result.curve[-1]["train_loss"]
        assert last < 0.25 * first

    def test_optimizer_touches_only_trainable_leaves(self, toy_dataset):
        arrays = {name: (toy_dataset, name) for name in
                  ("seq_len", "items", "ts", "walks", "bucket_len", "buckets")}
        arrays.update(social_len=(toy_dataset.social, "counts"),
                      social=(toy_dataset.social, "ids"))
        before = {name: getattr(*where).copy() for name, where in arrays.items()}
        train(toy_dataset, _toy_config(max_epochs=1))
        for name, where in arrays.items():
            assert getattr(*where).tobytes() == before[name].tobytes(), name

    def test_dataset_sequence_length_wins(self, toy_dataset):
        config = _toy_config(max_epochs=0, l_s=999)
        result = train(toy_dataset, config)
        assert result.config.l_s == toy_dataset.config["l_s"]
        assert result.params.l_s == toy_dataset.config["l_s"]

    def test_train_leaves_the_callers_config_alone(self, toy_dataset):
        """train runs on a copy with the snapshot's l_s and returns that copy;
        the caller's TrainConfig reads as it did before the call."""
        config = TrainConfig(d=4, max_epochs=0)
        before = copy.deepcopy(config)
        result = train(toy_dataset, config)
        assert config == before and config.l_s == 50
        assert result.config is not config
        assert result.config == dataclasses.replace(before, l_s=toy_dataset.config["l_s"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostics(self, toy_dataset):
        # lr large enough that one Adam step pushes parameters past the
        # float64 range of the trilinear score products
        config = _toy_config(max_epochs=3, lr=1e150, clip_norm=0.0, gamma=0.0)
        with pytest.raises(NumericalError) as info:
            train(toy_dataset, config)
        assert info.value.epoch >= 1
        assert info.value.param_norm > 0


    def test_nan_score_raises_numerical_error(self, toy_dataset, monkeypatch):
        def nan_scores(*args, **kwargs):
            return ad.Tensor(np.full(real(*args, **kwargs).data.shape, np.nan))

        real = training.score_user_steps
        monkeypatch.setattr(training, "score_user_steps", nan_scores)
        with pytest.raises(NumericalError) as info:
            train(toy_dataset, _toy_config(max_epochs=1))
        assert info.value.epoch == 1 and info.value.batch == 0
        assert isinstance(info.value.__cause__, NonFiniteScoreError)


class TestRandomStreams:
    """Each user's stream is keyed on (seed, epoch, user) and draws the user's
    negatives, g's keep-mask and f's keep-mask, so batching changes no draw."""

    @staticmethod
    def _epoch_draws(ds, monkeypatch, batch_size):
        draws, n_batches = {}, []

        def spy(params, ds, split, users, steps, cands, **kwargs):
            assert split == "train"
            scores = score_user_steps(params, ds, split, users, steps, cands, **kwargs)
            first = 0
            for user, st, rng in zip(users, steps, kwargs["rngs"]):
                draws[int(user)] = (list(st), cands[first:first + len(st)].copy(),
                                    rng.bit_generator.state)
                first += len(st)
            n_batches.append(len(users))
            return scores

        monkeypatch.setattr(training, "score_user_steps", spy)
        train(ds, _toy_config(max_epochs=1, p_drop=0.3, batch_size=batch_size))
        return draws, len(n_batches)

    def test_draws_do_not_depend_on_the_batch_size(self, toy_dataset, monkeypatch):
        one, n_one = self._epoch_draws(toy_dataset, monkeypatch, batch_size=1)
        all_, n_all = self._epoch_draws(toy_dataset, monkeypatch, batch_size=10_000)
        assert (n_one, n_all) == (toy_dataset.n_users, 1)
        assert sorted(one) == sorted(all_) == list(range(toy_dataset.n_users))
        for user in one:
            steps, cands, state = one[user]
            assert steps == all_[user][0]
            np.testing.assert_array_equal(cands, all_[user][1])
            assert state == all_[user][2], user
            # the truth column holds the user's own next items
            np.testing.assert_array_equal(
                cands[:, 0], np.take(toy_dataset.users[user].seq_items, steps))


    @pytest.mark.parametrize("seed", [0, 7, -3])
    def test_streams_equal_the_list_keyed_generators(self, toy_dataset, monkeypatch, seed):
        """Each user's negatives in epochs 1 and 2 are the first draws of
        SeedSequence([seed, 0xA1, epoch, user]) built from a list."""
        seen = []

        def spy(params, ds, split, users, steps, cands, **kwargs):
            seen.append((users, steps, cands))
            return score_user_steps(params, ds, split, users, steps, cands, **kwargs)

        monkeypatch.setattr(training, "score_user_steps", spy)
        config = _toy_config(max_epochs=2, p_drop=0.3, batch_size=10_000, seed=seed)
        train(toy_dataset, config)
        assert len(seen) == 2               # one batch per epoch
        users = 0
        for epoch, (batch_users, steps, cands) in enumerate(seen, start=1):
            first = 0
            for user, st in zip(batch_users.tolist(), steps):
                rng = np.random.default_rng(np.random.SeedSequence(
                    [seed & 0xFFFFFFFF, 0xA1, epoch, user]))
                positives = np.take(toy_dataset.users[user].seq_items, st)
                want = sample_negatives(positives, toy_dataset.n_items, config.n_s, rng)
                np.testing.assert_array_equal(cands[first:first + len(st), 1:], want)
                first += len(st)
                users += 1
        assert users == 2 * toy_dataset.n_users


class TestRepeatedBatch:
    def test_loss_mostly_non_increasing_over_fifty_steps(self, toy_dataset):
        """One fixed batch, 50 Adam steps: >= 45 of them must not increase."""
        config = _toy_config()
        params = init_params(toy_dataset.n_users, toy_dataset.n_items, config.d,
                             config.l_s, config.variant, seed=3)
        named = params.trainable()
        state = AdamState(params.flat, lr=0.003)  # full-batch steps tolerate less
        batch = [(u, 2) for u in range(toy_dataset.n_users)]
        fixed = []
        for user, step in batch:
            rng = np.random.default_rng(user)
            pos = toy_dataset.users[user].seq_items[step]
            negs = sample_negatives(pos, toy_dataset.n_items, config.n_s, rng)
            fixed.append((user, step, pos, negs.tolist()))
        losses = []
        for _ in range(51):
            with Tape() as tape:
                scores = score_user_steps(
                    params, toy_dataset, "train", [user for user, *_ in fixed],
                    [[step] for _, step, _, _ in fixed],
                    [[pos] + negs for _, _, pos, negs in fixed])
                keys = [(user, step) for user, step, _, _ in fixed]
                loss = sequence_loss(scores, keys, config.n_s)
            grads = gradients(loss, tape, [t for _, t in named])
            grad = np.concatenate([g.ravel() for g in grads])
            sq_theta, _ = adam_step(params.flat, grad, state, config.gamma)
            losses.append(loss.item() + config.gamma * sq_theta)
        decreases = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
        assert decreases >= 45, f"only {decreases}/50 steps non-increasing"


class TestOptimizerRoute:
    """One `train` batch against the whole-array route: taped L2 penalty,
    whole-array clip, whole-array Adam."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("clip_norm, fires", [(1e-3, True), (1e3, False), (0.0, False)])
    def test_one_batch_matches_the_reference_route(self, toy_dataset, monkeypatch,
                                                   variant, clip_norm, fires):
        config = _toy_config(variant=variant, gamma=5e-4, p_drop=0.3, max_epochs=1,
                             batch_size=10_000, clip_norm=clip_norm)
        batches = []
        real = training.score_user_steps

        def spy(params, ds, split, users, steps, cands, **kwargs):
            batches.append((users, steps, cands, copy.deepcopy(kwargs["rngs"])))
            return real(params, ds, split, users, steps, cands, **kwargs)

        monkeypatch.setattr(training, "score_user_steps", spy)
        result = train(toy_dataset, config)
        (users, steps, cands, rngs), = batches

        params = init_params(toy_dataset.n_users, toy_dataset.n_items, config.d,
                             result.config.l_s, variant, config.seed)
        named = params.trainable()
        keys = [(user, step) for user, row in zip(users, steps) for step in row]
        with Tape() as tape:
            scores = real(params, toy_dataset, "train", users, steps, cands, training=True,
                          rngs=rngs, p_drop=config.p_drop)
            loss = oracles.total_loss(sequence_loss(scores, keys, config.n_s), named,
                                      config.gamma)
        grads = gradients(loss, tape, [t for _, t in named])
        flat, norm = oracles.clip(dict(zip([n for n, _ in named], grads)), clip_norm)
        assert (0 < clip_norm < norm) == fires
        for name, t in named:
            oracles.adam_update(t.data, np.zeros_like(t.data), np.zeros_like(t.data),
                                flat[name], 1, config.lr)
        for (name, got), (_, want) in zip(result.params.trainable(), named):
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12,
                                       err_msg=name)
        np.testing.assert_allclose(result.curve[0]["train_loss"], loss.item(),
                                   rtol=1e-12, atol=0)


class TestClipTelemetry:
    @pytest.mark.parametrize("clip_norm, clipped", [(1e-6, "all"), (0.0, "none")])
    def test_epoch_line_counts_clipped_batches(self, toy_dataset, clip_norm, clipped):
        lines = []
        result = train(toy_dataset, _toy_config(max_epochs=2, batch_size=32,
                                                clip_norm=clip_norm), log=lines.append)
        epochs = [line for line in lines if line.startswith("epoch ")]
        assert len(epochs) == len(result.curve) == 2
        for line in epochs:
            head, _, counts = line.rpartition(" clipped=")
            k, n = (int(x) for x in counts.split("/"))
            assert n > 1 and k == (n if clipped == "all" else 0)
            norm = float(head.rpartition(" grad_norm_max=")[2])
            assert norm > 0 and np.isfinite(norm)


class TestFlatLayout:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tensors_are_views_covering_flat_in_order(self, variant):
        params = init_params(6, 9, 4, 5, variant, seed=8)
        flat = params.flat
        start = 0
        for name, t in params.trainable():
            assert t.data.flags.c_contiguous and t.requires_grad, name
            assert t.data.ctypes.data == flat.ctypes.data + 8 * start, name
            start += t.data.size
        assert start == flat.size and flat.dtype == np.float64
        other = np.arange(flat.size, dtype=np.float64)   # views() lays it out alike
        flat[...] = other
        for (name, t), view in zip(params.trainable(), params.views(other)):
            assert np.shares_memory(view, other) and np.array_equal(view, t.data), name


def _edit_header(path, **fields):
    """Rewrite a checkpoint's header fields, keeping its tensor bytes."""
    raw = path.read_bytes()
    magic, rest = raw.split(b"\n", 1)
    (hlen,) = struct.unpack("<Q", rest[:8])
    header = json.loads(rest[8:8 + hlen])
    header.update(fields)
    blob = json.dumps(header).encode()
    path.write_bytes(magic + b"\n" + struct.pack("<Q", len(blob)) + blob
                     + rest[8 + hlen:])


class TestCheckpoints:
    def test_roundtrip(self, toy_dataset, tmp_path):
        result = train(toy_dataset, _toy_config(max_epochs=1))
        path = tmp_path / "model.tea"
        save_checkpoint(path, result.params, result.config.to_dict(), 1)
        loaded, config, epoch = load_checkpoint(path)
        assert epoch == 1 and config["variant"] == "tea-s"
        for (na, a), (nb, b) in zip(result.params.trainable(), loaded.trainable()):
            assert na == nb
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_init_checkpoint_bytes_are_pinned(self, tmp_path, variant):
        path = tmp_path / "init.tea"
        save_checkpoint(path, init_params(7, 11, 4, 5, variant, seed=3), {}, 0)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[variant]

    @pytest.mark.parametrize("field, value", [("n_items", 10**13), ("d", 2**40)])
    def test_header_counts_beyond_the_file_rejected(self, tmp_path, field, value):
        """Counts that need more tensor bytes than the file holds are rejected
        before anything is allocated for them."""
        path = tmp_path / "model.tea"
        save_checkpoint(path, init_params(7, 11, 4, 5, "tea-s", seed=3), {}, 0)
        _edit_header(path, **{field: value})
        with pytest.raises(IncompatibleCheckpointError, match="tensor bytes") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_wrong_tensor_list_rejected_before_allocating(self, tmp_path):
        """Counts that match the file's tensor bytes, but g.w_q and g.w_k
        swapped in the header's tensor list: rejected while the traced peak
        stays below a tenth of the tensor bytes (an 11.4 MB file)."""
        path = tmp_path / "model.tea"
        params = init_params(600, 20_000, 64, 50, "tea-a", seed=3)
        save_checkpoint(path, params, {}, 0)
        tensors = [{"name": name, "shape": list(t.shape)} for name, t in params.trainable()]
        nbytes = params.flat.nbytes
        del params
        assert [t["name"] for t in tensors[3:5]] == ["g.w_q", "g.w_k"]
        tensors[3:5] = tensors[4:2:-1]
        _edit_header(path, tensors=tensors)
        tracemalloc.start()
        try:
            with pytest.raises(IncompatibleCheckpointError, match="header tensor #3"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 10, (peak, nbytes)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_header_byte_count_equals_the_allocation(self, variant):
        for counts in [(7, 11, 4, 5), (1, 2, 1, 1), (30, 500, 16, 50)]:
            want = init_params(*counts, variant, seed=3).flat.nbytes
            assert tea_params._tensor_bytes(*counts, variant) == want, counts

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.tea"
        path.write_bytes(b"NOT-A-CKPT\n\x00\x00\x00\x00\x00\x00\x00\x00")
        with pytest.raises(IncompatibleCheckpointError, match="TEA-CKPT-1"):
            load_checkpoint(path)

    def test_curve_csv_embeds_config(self, tmp_path):
        config = _toy_config()
        curve = [{"epoch": 1, "train_loss": 1.5, "val_hr10": 0.2,
                  "val_ndcg10": 0.1}]
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve, config)
        text = path.read_text()
        assert "# seed = 0" in text and "# variant = tea-s" in text
        assert text.strip().endswith("1,1.5,0.2,0.1")


class TestConfig:
    def test_validation_catches_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(d=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(p_drop=1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(lr=-1.0).validate()
        bad = [("lr", np.nan), ("lr", np.inf), ("gamma", np.nan), ("gamma", -1e-4),
               ("gamma", np.inf), ("clip_norm", -1.0), ("clip_norm", np.nan),
               ("clip_norm", np.inf), ("p_drop", np.nan)]
        for field, value in bad:
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{field: value}).validate()
        TrainConfig().validate()
        TrainConfig(clip_norm=0.0, gamma=0.0).validate()   # both off
