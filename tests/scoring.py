"""Per-step views of the batched scorer, for tests that score one user."""

from __future__ import annotations

from tea import autodiff as ad
from tea.autodiff import Tensor
from tea.model import score_user_steps


def score_steps(params, ctx, steps: list[int], cand_lists: list[list[int]],
                **kwargs) -> list[Tensor]:
    """score_user_steps for one user, one differentiable (C,) row per step."""
    scores = score_user_steps(params, [ctx], [steps], cand_lists, **kwargs)
    n_cands = scores.data.shape[1]
    return [ad.reshape(ad.slice_rows(scores, i, i + 1), (n_cands,))
            for i in range(len(steps))]
