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
from .model import last_steps, score_user_steps
from .objective import NonFiniteScoreError
from .params import ModelParams

# d-wide rows per scoring call: each user counts the bucket steps and the
# bucket items of its window, plus ceil(C / d) for its candidate row. Users
# join a call in order while it stays within the budget; a user over it
# alone gets a call of its own.
EVAL_ROWS = 1 << 14


@dataclass
class EvalConfig:
    ks: tuple[int, ...] = (5, 10, 20)
    n_neg: int = 100
    seed: int = 0

    def validate(self) -> None:
        """Reject counts that would make the metrics meaningless."""
        positive = lambda x: isinstance(x, (int, np.integer)) and x >= 1
        if not positive(self.n_neg):
            raise ValueError(f"n_neg (--n-neg) must be an integer >= 1, got {self.n_neg!r}")
        if not self.ks or not all(map(positive, self.ks)):
            raise ValueError(f"ks (--k) must be one or more integers >= 1, got {self.ks!r}")


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


def build_candidates(truth: int, n_items: int, n_neg: int, rng: np.random.Generator,
                     out: np.ndarray) -> None:
    """Fill `out`, an int row of 1 + min(n_neg, n_items - 1) entries, with the
    truth and then that many distinct negatives.

    Negatives are drawn without replacement from the item set minus the
    truth; a pool smaller than n_neg is used whole (the reduced size shows
    up in the report).
    """
    if n_items < 2:
        raise ValueError(f"need at least 2 items to build candidates, have {n_items}")
    draws = rng.choice(n_items - 1, size=min(n_neg, n_items - 1), replace=False)
    out[0] = truth
    np.add(draws, draws >= truth, out=out[1:])


def rank(scores: np.ndarray, truth_index: int = 0) -> np.ndarray:
    """1-based rank of the truth in each row of a (U, C) score matrix, the
    truth in column `truth_index` of every row; ties count against it."""
    s = np.asarray(scores, dtype=np.float64)
    truth = s[:, truth_index, None]
    tied = (s == truth).sum(axis=1) - 1  # excluding the truth itself
    return 1 + (s > truth).sum(axis=1) + tied


def eval_candidates(ds: PreparedDataset, split: str, cfg: EvalConfig,
                    users: range) -> np.ndarray:
    """The `split` candidates of `users`, one int row each, truth first.

    User u's row comes from (cfg.seed, split, u) only, so it is the same
    for any parameters and every epoch.
    """
    out = np.empty((len(users), 1 + max(0, min(cfg.n_neg, ds.n_items - 1))), dtype=np.intp)
    truth = ds.items[ds.item_start[users] + last_steps(ds, split)[users]]
    # (seed, split tag, user): one key array, its last word set per user
    key = np.array([cfg.seed & 0xFFFFFFFF, 0xE1 if split == "val" else 0xE2, 0],
                   dtype=np.uint32)
    for row, user, item in zip(out, users, truth.tolist()):
        key[2] = user
        build_candidates(item, ds.n_items, cfg.n_neg,
                         np.random.default_rng(np.random.SeedSequence(key)), out=row)
    return out


def _calls(ds: PreparedDataset, split: str, l_s: int, cand_rows: int):
    """The users in order, cut into calls of at most EVAL_ROWS rows: yields
    each call's users.

    A user scored at step s counts the buckets [max(0, s - l_s), s) its
    temporal GRU reads, their items, and `cand_rows` for its candidates.
    """
    s = last_steps(ds, split)
    lo, hi = ds.step_start + np.maximum(0, s - l_s), ds.step_start + s
    sizes = hi - lo + ds.bucket_start[hi] - ds.bucket_start[lo] + cand_rows
    first, used = 0, 0
    for user, size in enumerate(sizes.tolist()):
        if user > first and used + size > EVAL_ROWS:
            yield range(first, user)
            first, used = user, 0
        used += size
    if ds.n_users:
        yield range(first, ds.n_users)


def evaluate_all(params: ModelParams, ds: PreparedDataset, split: str,
                 cfg: EvalConfig, scorer=None, *,
                 candidates: np.ndarray | None = None) -> EvalReport:
    """Rank every user's held-out item and average HR/NDCG over users.

    The default scores each user's held-out step, n for validation and
    n + 1 for test, with the trained model in evaluation mode, consecutive
    users per call within EVAL_ROWS rows (`_calls`). A `scorer(params,
    user, candidates) -> array` can be injected for tests; it is called once
    per user with the user's id. A caller that evaluates the same split
    repeatedly can pass `candidates`, every user's rows from
    `eval_candidates`, built once; otherwise each call draws its own. A NaN
    or infinite score raises NonFiniteScoreError naming the split and the
    first such user. HR@K and NDCG@K are means over the users' ranks.
    """
    if split not in ("val", "test"):
        raise ValueError(f"split must be 'val' or 'test', got {split!r}")
    cfg.validate()
    t0 = time.monotonic()
    ranks: dict[int, int] = {}
    n_cands = 1 + max(0, min(cfg.n_neg, ds.n_items - 1))
    d = params.shared.item.data.shape[1]
    steps = last_steps(ds, split)[:, None]
    for users in _calls(ds, split, params.l_s, -(-n_cands // d)):
        cands = (eval_candidates(ds, split, cfg, users) if candidates is None
                 else candidates[users.start:users.stop])
        if scorer is None:
            chunk = score_user_steps(params, ds, split, users,
                                     steps[users.start:users.stop], cands).data
        else:
            chunk = np.array([scorer(params, user, row) for user, row in zip(users, cands)],
                             dtype=np.float64)
        finite = np.isfinite(chunk).all(axis=1)
        if not finite.all():
            raise NonFiniteScoreError(f"non-finite score in the {split} ranking of "
                                      f"user {users[int(np.argmin(finite))]}")
        ranks.update(zip(users, rank(chunk, truth_index=0).tolist()))
    hr, ndcg = _metrics(np.fromiter(ranks.values(), dtype=np.intp, count=len(ranks)),
                        cfg.ks)
    return EvalReport(split=split, ks=cfg.ks, hr=hr, ndcg=ndcg, ranks=ranks,
                      candidate_sizes=dict.fromkeys(ranks, n_cands), n_neg=cfg.n_neg,
                      seed=cfg.seed, variant=params.variant,
                      wall_clock_seconds=time.monotonic() - t0,
                      n_users=ds.n_users)


def _metrics(ranks: np.ndarray, ks) -> tuple[dict[int, float], dict[int, float]]:
    """HR@k and NDCG@k for each k, averaged over `ranks` (1-based).

    A rank r <= k scores HR 1 and NDCG 1 / log2(r + 1), else 0. The gains
    come from a table of one scalar log2 per rank up to the largest k that
    any rank reaches, so each k is one pass over the ranks.
    """
    top = int(min(max(ks), ranks.max(initial=0)))
    gain = np.array([0.0] + [1.0 / np.log2(r + 1.0) for r in range(1, top + 1)])
    hr, ndcg = {}, {}
    for k in ks:
        hit = ranks <= k
        hr[k] = float(np.mean(hit))
        ndcg[k] = float(np.mean(gain[np.where(hit, ranks, 0)]))
    return hr, ndcg


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
