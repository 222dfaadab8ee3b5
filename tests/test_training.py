"""Optimization loop: early stopping, convergence, determinism, checkpoints."""

import numpy as np
import pytest

from tea import autodiff as ad
from tea import training
from tea.autodiff import AdamState, Tape, adam_step, backward
from tea.data import sample_negatives
from tea.model import positive_target, score_user_steps, user_context
from tea.objective import NonFiniteScoreError, sequence_loss, total_loss
from tea.params import (IncompatibleCheckpointError, init_params,
                        load_checkpoint, save_checkpoint)
from tea.training import (NumericalError, TrainConfig, early_stop, train,
                          write_curve_csv)


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
                            config.l_s, config.variant, config.seed)
        for (_, a), (_, b) in zip(result.params.trainable(), fresh.trainable()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_same_seed_bit_identical(self, toy_dataset):
        r1 = train(toy_dataset, _toy_config(max_epochs=2, seed=13))
        r2 = train(toy_dataset, _toy_config(max_epochs=2, seed=13))
        assert r1.curve == r2.curve
        for (_, a), (_, b) in zip(r1.params.trainable(), r2.params.trainable()):
            assert a.data.tobytes() == b.data.tobytes()

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
        import copy
        before = copy.deepcopy(toy_dataset.users)
        social_before = copy.deepcopy(toy_dataset.social.neighbors)
        train(toy_dataset, _toy_config(max_epochs=1))
        assert toy_dataset.users == before
        assert toy_dataset.social.neighbors == social_before

    def test_dataset_sequence_length_wins(self, toy_dataset):
        config = _toy_config(max_epochs=0, l_s=999)
        train(toy_dataset, config)
        assert config.l_s == toy_dataset.config["l_s"]

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


class TestRepeatedBatch:
    def test_loss_mostly_non_increasing_over_fifty_steps(self, toy_dataset):
        """One fixed batch, 50 Adam steps: >= 45 of them must not increase."""
        config = _toy_config()
        params = init_params(toy_dataset.n_users, toy_dataset.n_items, config.d,
                             config.l_s, config.variant, seed=3)
        named = params.trainable()
        state = AdamState(named, lr=0.003)  # full-batch steps tolerate less
        batch = [(u, 2) for u in range(toy_dataset.n_users)]
        fixed = []
        for user, step in batch:
            rng = np.random.default_rng(user)
            pos = positive_target(toy_dataset, user, step)
            fixed.append((user, step, pos,
                          sample_negatives(pos, toy_dataset.n_items, config.n_s, rng)))
        losses = []
        for _ in range(51):
            with Tape() as tape:
                scores = score_user_steps(
                    params, [user_context(toy_dataset, user, "train") for user, *_ in fixed],
                    [[step] for _, step, _, _ in fixed],
                    [[pos] + negs for _, _, pos, negs in fixed])
                keys = [(user, step) for user, step, _, _ in fixed]
                loss = total_loss(sequence_loss(scores, keys, config.n_s), named,
                                  config.gamma)
            losses.append(loss.item())
            grads = backward(loss, tape)
            flat = {name: grads.of(t) for name, t in named}
            adam_step(named, flat, state)
        decreases = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
        assert decreases >= 45, f"only {decreases}/50 steps non-increasing"


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
        TrainConfig().validate()
