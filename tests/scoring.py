"""One-user views of the batched scorer and the ranking API, for tests."""

from __future__ import annotations

import numpy as np

from tea import autodiff as ad
from tea.autodiff import Tensor
from tea.evaluation import build_candidates, rank
from tea.model import score_user_steps


def score_steps(params, ds, split: str, user: int, steps: list[int],
                cand_lists: list[list[int]], **kwargs) -> list[Tensor]:
    """score_user_steps for one user, one differentiable (C,) row per step."""
    scores = score_user_steps(params, ds, split, [user], [steps], cand_lists, **kwargs)
    n_cands = scores.data.shape[1]
    return [ad.reshape(ad.slice_rows(scores, i, i + 1), (n_cands,))
            for i in range(len(steps))]


def candidate_list(truth: int, n_items: int, n_neg: int,
                   rng: np.random.Generator) -> list[int]:
    """build_candidates' row as a list of ints."""
    out = np.empty(1 + max(0, min(n_neg, n_items - 1)), dtype=np.intp)
    build_candidates(truth, n_items, n_neg, rng, out)
    return out.tolist()


def rank_one(scores, truth_index: int = 0) -> int:
    """rank of one score vector, as an int."""
    return int(rank(np.asarray(scores)[None], truth_index)[0])
