"""Sampled-negative leave-one-out ranking evaluation: HR@K and NDCG@K.

Each user's held-out item is ranked against uniformly sampled negatives;
ties break pessimistically against the ground truth so a constant scorer
cannot inflate the metrics. Candidate sets are derived from (seed, split,
user), so worker order can never change results.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from .data import PreparedDataset
from .model import score_user_steps, user_context
from .objective import NonFiniteScoreError
from .params import ModelParams

# Users scored per call: bounds the padded (users, candidates, d) arrays.
EVAL_CHUNK = 64


@dataclass
class EvalConfig:
    ks: tuple[int, ...] = (5, 10, 20)
    n_neg: int = 100
    seed: int = 0


@dataclass
class EvalReport:
    split: str
    ks: tuple[int, ...]
    hr: dict[int, float]
    ndcg: dict[int, float]
    ranks: dict[int, int]               # user -> 1-based rank of the truth
    candidate_sizes: dict[int, int]
    n_neg: int
    seed: int
    variant: str
    wall_clock_seconds: float
    n_users: int = 0

    def to_dict(self, config_echo: dict | None = None) -> dict:
        sizes = sorted(set(self.candidate_sizes.values()))
        out = {
            "split": self.split,
            "ks": list(self.ks),
            "hr": {str(k): self.hr[k] for k in self.ks},
            "ndcg": {str(k): self.ndcg[k] for k in self.ks},
            "n_users": self.n_users,
            "n_neg": self.n_neg,
            "candidate_set_sizes": sizes,
            "seed": self.seed,
            "variant": self.variant,
            "rank_histogram": _histogram(self.ranks),
            "wall_clock_seconds": self.wall_clock_seconds,
        }
        if config_echo is not None:
            out["config"] = config_echo
        return out


def _histogram(ranks: dict[int, int]) -> dict[str, int]:
    hist: dict[str, int] = {}
    for r in ranks.values():
        key = str(r)
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0])))


def build_candidates(truth: int, n_items: int, n_neg: int,
                     rng: np.random.Generator) -> list[int]:
    """The truth plus up to n_neg distinct negatives, truth first.

    Negatives are drawn without replacement from the item set minus the
    truth; a pool smaller than n_neg is used whole (the reduced size shows
    up in the report).
    """
    if n_items < 2:
        raise ValueError(f"need at least 2 items to build candidates, have {n_items}")
    pool = min(n_neg, n_items - 1)
    draws = rng.choice(n_items - 1, size=pool, replace=False)
    negatives = [int(x) + (1 if x >= truth else 0) for x in draws]
    return [truth] + negatives


def rank(scores: np.ndarray, truth_index: int = 0) -> int:
    """1-based rank of the truth; ties count against it."""
    s = np.asarray(scores, dtype=np.float64)
    truth = s[truth_index]
    greater = int((s > truth).sum())
    tied = int((s == truth).sum()) - 1  # excluding the truth itself
    return 1 + greater + tied


def hr_at_k(rank_value: int, k: int) -> float:
    return 1.0 if rank_value <= k else 0.0


def ndcg_at_k(rank_value: int, k: int) -> float:
    if rank_value > k:
        return 0.0
    return 1.0 / np.log2(rank_value + 1.0)


def _eval_rng(seed: int, split: str, user: int) -> np.random.Generator:
    tag = 0xE1 if split == "val" else 0xE2
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, tag, user]))


def evaluate_all(params: ModelParams, ds: PreparedDataset, split: str,
                 cfg: EvalConfig, scorer=None) -> EvalReport:
    """Rank every user's held-out item and average HR/NDCG over users.

    The default scores the held-out step `len(ctx.items)` with the trained
    model in evaluation mode, EVAL_CHUNK users per call. A
    `scorer(params, ctx, candidates) -> array` can be injected for tests;
    it is called once per user. A NaN or infinite score raises
    NonFiniteScoreError naming the split and the user.
    """
    if split not in ("val", "test"):
        raise ValueError(f"split must be 'val' or 'test', got {split!r}")
    t0 = time.monotonic()
    ranks: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for first in range(0, ds.n_users, EVAL_CHUNK):
        users = range(first, min(first + EVAL_CHUNK, ds.n_users))
        ctxs = [user_context(ds, user, split) for user in users]
        candidates = []
        for user in users:
            rec = ds.users[user]
            truth = rec.val_item if split == "val" else rec.test_item
            rng = _eval_rng(cfg.seed, split, user)
            candidates.append(build_candidates(truth, ds.n_items, cfg.n_neg, rng))
        if scorer is None:
            chunk = score_user_steps(params, ctxs, [[len(c.items)] for c in ctxs],
                                     candidates).data
        else:
            chunk = [scorer(params, ctx, cands) for ctx, cands in zip(ctxs, candidates)]
        for user, cands, scores in zip(users, candidates, chunk):
            if not np.isfinite(scores).all():
                raise NonFiniteScoreError(
                    f"non-finite score in the {split} ranking of user {user}")
            ranks[user] = rank(scores, truth_index=0)
            sizes[user] = len(cands)
    hr = {k: float(np.mean([hr_at_k(r, k) for r in ranks.values()])) for k in cfg.ks}
    ndcg = {k: float(np.mean([ndcg_at_k(r, k) for r in ranks.values()]))
            for k in cfg.ks}
    return EvalReport(split=split, ks=cfg.ks, hr=hr, ndcg=ndcg, ranks=ranks,
                      candidate_sizes=sizes, n_neg=cfg.n_neg, seed=cfg.seed,
                      variant=params.variant,
                      wall_clock_seconds=time.monotonic() - t0,
                      n_users=ds.n_users)


def write_report(report: EvalReport, json_path, csv_path,
                 config_echo: dict | None = None) -> None:
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(config_echo), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "rank"])
        for user in sorted(report.ranks):
            writer.writerow([user, report.ranks[user]])
