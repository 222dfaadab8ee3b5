"""Mini-batch training of both score functions with Adam.

Each user's training draws come from one stream per (seed, epoch, user):
the negatives of all the user's steps, then g's and f's dropout masks
(the epoch's shuffle has a (seed, epoch) stream of its own). Batches hold
whole users, so two runs with the same seed produce bit-identical curves
and parameters regardless of batching. Validation NDCG@10 drives early
stopping; the returned parameters are the best-validation snapshot.
Only the sequence loss is taped: the backward sweep writes each batch's
gradients straight into one vector laid out like `ModelParams.flat`, and
`adam_step` adds the L2 term's gradient, clips the global gradient norm
and returns what the logged loss and the per-epoch clip counts need.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import AdamState, Tape, adam_step, backward
from .data import PreparedDataset, _ragged_arange, sample_negatives
from .evaluation import EvalConfig, eval_candidates, evaluate_all
from .model import score_user_steps
from .objective import NonFiniteScoreError, sequence_loss
from .params import VARIANTS, ModelParams, init_params


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
        if not 0 < self.lr < np.inf:
            raise ValueError("config field lr must be positive and finite")
        for name in ("gamma", "clip_norm"):   # clip_norm = 0 turns clipping off
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"config field {name} must be nonnegative and finite")
        if self.max_epochs < 0 or self.patience < 0:
            raise ValueError("max_epochs and patience must be nonnegative")
        if self.variant not in VARIANTS:
            raise ValueError(f"config field variant is {self.variant!r}; "
                             f"expected one of {sorted(VARIANTS)}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    params: ModelParams
    curve: list[dict]          # per-epoch: epoch, train_loss, val_hr10, val_ndcg10
    best_epoch: int            # 1-based; 0 when no epochs ran
    config: TrainConfig        # as trained: a copy of the caller's with the dataset's l_s


def early_stop(history: list[float], patience: int) -> tuple[bool, int]:
    """Stop once the metric has not improved for `patience` epochs.

    Returns (stop, best_epoch) with best_epoch 1-based and ties resolved
    to the earliest epoch.
    """
    if not history:
        raise ValueError("early_stop: empty history")
    best_epoch = 1 + int(np.argmax(history))  # argmax takes the first maximum
    return len(history) - best_epoch >= patience, best_epoch


def train(ds: PreparedDataset, config: TrainConfig, log=None) -> TrainResult:
    """Run the optimization loop and return the best-validation parameters."""
    config.validate()
    # The prepared sequences were truncated at prepare time; that length wins.
    config = replace(config, l_s=ds.config.get("l_s", config.l_s))
    params = init_params(ds.n_users, ds.n_items, config.d, config.l_s,
                         config.variant, config.seed)
    state = AdamState(params.flat, lr=config.lr)
    grad = np.empty_like(params.flat)
    grad_views = list(zip((t for _, t in params.trainable()), params.views(grad)))

    # The trained users, each with its steps (all of 1..n-1, or n-1 alone)
    # and their positives, one user after another; a batch scores all steps
    # of its users in one call.
    n = ds.seq_len.astype(np.intp)
    counts = n - 1 if config.all_steps else (n >= 2).astype(np.intp)
    users = np.flatnonzero(counts)
    counts = counts[users]
    first = np.ones_like(counts) if config.all_steps else n[users] - 1
    starts = np.cumsum(counts) - counts
    steps = _ragged_arange(first, counts)
    positives = ds.items[ds.item_start[users].repeat(counts) + steps]

    curve: list[dict] = []
    ndcg_history: list[float] = []
    best_flat = params.flat.copy()   # the parameters of the best epoch so far
    best_epoch = 0
    val_cfg = EvalConfig(ks=(10,), n_neg=100, seed=config.seed)
    # keyed on (seed, split, user) only: drawn once, not every epoch
    val_cands = eval_candidates(ds, "val", val_cfg, range(ds.n_users))
    # (seed, 0xA1, epoch, user): one key array, its last two words set per stream
    stream_key = np.array([config.seed & 0xFFFFFFFF, 0xA1, 0, 0], dtype=np.uint32)

    for epoch in range(1, config.max_epochs + 1):
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed & 0xFFFFFFFF, 0xE9, epoch]))
        order = shuffle_rng.permutation(users.size)
        stream_key[2] = epoch
        # Users fill a batch until it holds at least batch_size steps.
        batches: list[list[int]] = [[]]
        filled = 0
        for i in order:
            batches[-1].append(int(i))
            filled += counts[i]
            if filled >= config.batch_size:
                batches.append([])
                filled = 0
        if not batches[-1]:
            batches.pop()
        loss_sum = 0.0
        n_steps = 0
        grad_norm_max = 0.0
        n_clipped = 0
        for batch_idx, batch in enumerate(batches):
            step_lists, cand_rows, rngs, keys = [], [], [], []
            for i in batch:
                user, mine = int(users[i]), slice(starts[i], starts[i] + counts[i])
                # The user's stream draws its negatives here, then both masks
                # in score_user_steps.
                stream_key[3] = user
                rng = np.random.default_rng(np.random.SeedSequence(stream_key))
                negatives = sample_negatives(positives[mine], ds.n_items, config.n_s, rng)
                step_lists.append(steps[mine])
                cand_rows.append(np.column_stack([positives[mine], negatives]))
                rngs.append(rng)
                keys.extend((user, step) for step in steps[mine].tolist())
            with Tape() as tape:
                scores = score_user_steps(params, ds, "train", users[batch], step_lists,
                                          np.concatenate(cand_rows), training=True,
                                          rngs=rngs, p_drop=config.p_drop)
                try:
                    loss = sequence_loss(scores, keys, config.n_s)
                except NonFiniteScoreError as exc:
                    raise NumericalError(epoch, batch_idx,
                                         np.linalg.norm(params.flat)) from exc
            crf_value = loss.item()
            if not np.isfinite(crf_value):
                raise NumericalError(epoch, batch_idx, np.linalg.norm(params.flat))
            backward(loss, tape, grad_views)
            sq_theta, grad_norm = adam_step(params.flat, grad, state, config.gamma,
                                            config.clip_norm)
            grad_norm_max = max(grad_norm_max, grad_norm)
            n_clipped += 0 < config.clip_norm < grad_norm
            loss_sum += (crf_value + config.gamma * sq_theta) * len(keys)
            n_steps += len(keys)

        train_loss = loss_sum / max(n_steps, 1)
        val = evaluate_all(params, ds, "val", val_cfg, candidates=val_cands)
        curve.append({"epoch": epoch, "train_loss": train_loss,
                      "val_hr10": val.hr[10], "val_ndcg10": val.ndcg[10]})
        ndcg_history.append(val.ndcg[10])
        stop, best = early_stop(ndcg_history, config.patience)
        if best == epoch:
            best_flat[...] = params.flat
            best_epoch = epoch
        if log:
            log(f"epoch {epoch}: loss={train_loss:.6f} "
                f"val_hr10={val.hr[10]:.4f} val_ndcg10={val.ndcg[10]:.4f} "
                f"grad_norm_max={grad_norm_max:.6g} clipped={n_clipped}/{len(batches)}")
        if stop:
            if log:
                log(f"early stop at epoch {epoch} (best epoch {best_epoch})")
            break

    params.flat[...] = best_flat
    return TrainResult(params=params, curve=curve, best_epoch=best_epoch,
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
