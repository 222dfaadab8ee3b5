"""Mini-batch training of both score functions with Adam.

Every source of randomness is derived from (seed, purpose, epoch, user,
step), so two runs with the same seed produce bit-identical curves and
parameters regardless of batching. Validation NDCG@10 drives early
stopping; the returned parameters are the best-validation snapshot.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import AdamState, Tape, adam_step, backward
from .data import PreparedDataset, sample_negatives
from .evaluation import EvalConfig, evaluate_all
from .model import positive_target, score_user_steps, user_context
from .objective import NonFiniteScoreError, sequence_loss, total_loss
from .params import ModelParams, init_params


class NumericalError(RuntimeError):
    """Training hit a non-finite loss."""

    def __init__(self, epoch: int, batch: int, param_norm: float) -> None:
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch} "
            f"(global parameter norm {param_norm:.6g})")
        self.epoch = epoch
        self.batch = batch
        self.param_norm = param_norm


@dataclass
class TrainConfig:
    d: int = 64
    batch_size: int = 1024
    p_drop: float = 0.5
    gamma: float = 5e-4
    n_s: int = 50
    l_s: int = 50
    lr: float = 0.01
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    variant: str = "tea-s"
    all_steps: bool = True
    clip_norm: float = 5.0

    def validate(self) -> None:
        for name in ("d", "batch_size", "n_s", "l_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if not 0.0 <= self.p_drop < 1.0:
            raise ValueError("p_drop must be in [0, 1)")
        if self.lr <= 0 or self.gamma < 0:
            raise ValueError("lr must be positive and gamma nonnegative")
        if self.max_epochs < 0 or self.patience < 0:
            raise ValueError("max_epochs and patience must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    params: ModelParams
    curve: list[dict]          # per-epoch: epoch, train_loss, val_hr10, val_ndcg10
    best_epoch: int            # 1-based; 0 when no epochs ran
    config: TrainConfig


def early_stop(history: list[float], patience: int) -> tuple[bool, int]:
    """Stop once the metric has not improved for `patience` epochs.

    Returns (stop, best_epoch) with best_epoch 1-based and ties resolved
    to the earliest epoch.
    """
    if not history:
        raise ValueError("early_stop: empty history")
    best_epoch = 1 + int(np.argmax(history))  # argmax takes the first maximum
    return len(history) - best_epoch >= patience, best_epoch


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return float(np.sqrt(total))


def _clip(grads: dict[str, np.ndarray], clip_norm: float) -> None:
    norm = _global_norm(grads)
    if clip_norm > 0 and norm > clip_norm:
        factor = clip_norm / norm
        for g in grads.values():
            g *= factor


def _example_rng(seed: int, epoch: int, user: int, step: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, 0xA1, epoch, user, step]))


def _param_norm(named) -> float:
    return float(np.sqrt(sum(float((t.data ** 2).sum()) for _, t in named)))


def train(ds: PreparedDataset, config: TrainConfig, log=None) -> TrainResult:
    """Run the optimization loop and return the best-validation parameters."""
    config.validate()
    if config.l_s != ds.config.get("l_s", config.l_s):
        # The prepared sequences were truncated at prepare time; that length wins.
        config.l_s = ds.config["l_s"]
    params = init_params(ds.n_users, ds.n_items, config.d, config.l_s,
                         config.variant, config.seed)
    named = params.trainable()
    state = AdamState(named, lr=config.lr)

    # One entry per user; a batch scores all steps of its users in one call.
    user_steps: list[tuple[int, list[int]]] = []
    for user in range(ds.n_users):
        t_len = len(ds.users[user].seq_items)
        if config.all_steps:
            steps = list(range(1, t_len))
        else:
            steps = [t_len - 1] if t_len >= 2 else []
        if steps:
            user_steps.append((user, steps))

    curve: list[dict] = []
    ndcg_history: list[float] = []
    best_snapshot = params.clone()
    best_epoch = 0
    val_cfg = EvalConfig(ks=(10,), n_neg=100, seed=config.seed)

    for epoch in range(1, config.max_epochs + 1):
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed & 0xFFFFFFFF, 0xE9, epoch]))
        order = shuffle_rng.permutation(len(user_steps))
        # Users fill a batch until it holds at least batch_size steps.
        batches: list[list[int]] = [[]]
        filled = 0
        for i in order:
            batches[-1].append(int(i))
            filled += len(user_steps[i][1])
            if filled >= config.batch_size:
                batches.append([])
                filled = 0
        if not batches[-1]:
            batches.pop()
        loss_sum = 0.0
        n_steps = 0
        for batch_idx, batch in enumerate(batches):
            ctxs, step_lists, cand_rows, rngs, keys = [], [], [], [], []
            for i in batch:
                user, steps = user_steps[i]
                ctxs.append(user_context(ds, user, "train"))
                step_lists.append(steps)
                for step in steps:
                    rng = _example_rng(config.seed, epoch, user, step)
                    pos = positive_target(ds, user, step)
                    cand_rows.append([pos] + sample_negatives(pos, ds.n_items,
                                                              config.n_s, rng))
                    rngs.append(rng)
                    keys.append((user, step))
            with Tape() as tape:
                scores = score_user_steps(params, ctxs, step_lists, cand_rows,
                                          training=True, rngs=rngs, p_drop=config.p_drop)
                try:
                    crf_loss = sequence_loss(scores, keys, config.n_s)
                except NonFiniteScoreError as exc:
                    raise NumericalError(epoch, batch_idx,
                                         _param_norm(named)) from exc
                loss = total_loss(crf_loss, named, config.gamma)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericalError(epoch, batch_idx, _param_norm(named))
            grads = backward(loss, tape)
            flat = {name: grads.of(t) for name, t in named}
            _clip(flat, config.clip_norm)
            adam_step(named, flat, state)
            loss_sum += loss_value * len(keys)
            n_steps += len(keys)
            # Free the batch's arrays before the next batch or the validation pass.
            del tape, grads, flat

        train_loss = loss_sum / max(n_steps, 1)
        val = evaluate_all(params, ds, "val", val_cfg)
        curve.append({"epoch": epoch, "train_loss": train_loss,
                      "val_hr10": val.hr[10], "val_ndcg10": val.ndcg[10]})
        ndcg_history.append(val.ndcg[10])
        stop, best = early_stop(ndcg_history, config.patience)
        if best == epoch:
            best_snapshot = params.clone()
            best_epoch = epoch
        if log:
            log(f"epoch {epoch}: loss={train_loss:.6f} "
                f"val_hr10={val.hr[10]:.4f} val_ndcg10={val.ndcg[10]:.4f}")
        if stop:
            if log:
                log(f"early stop at epoch {epoch} (best epoch {best_epoch})")
            break

    final = best_snapshot if best_epoch > 0 else params
    return TrainResult(params=final, curve=curve, best_epoch=best_epoch,
                       config=config)


def write_curve_csv(path, curve: list[dict], config: TrainConfig,
                    extra: dict | None = None) -> None:
    """Per-epoch CSV with the effective config echoed as comment lines."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        echo = dict(config.to_dict())
        if extra:
            echo.update(extra)
        for key in sorted(echo):
            fh.write(f"# {key} = {echo[key]}\n")
        fh.write("epoch,train_loss,val_hr10,val_ndcg10\n")
        for row in curve:
            fh.write(f"{row['epoch']},{row['train_loss']:.12g},"
                     f"{row['val_hr10']:.12g},{row['val_ndcg10']:.12g}\n")
