"""Seeded synthetic corpora written as the raw TSV files `tea prepare` reads.

Two generators, both seeded; the same seed always yields the same bytes.

`generate` builds a workload corpus, shaped for speed: every user draws
events from a mixture, with probability `p_popular` from a Zipf-shaped
popularity ranking over the catalog and otherwise uniformly, so a popular
head and a long tail both exist. Timestamps are spread over SPAN_DAYS, and
every user draws FRIENDS social links, so neighbor buckets and
co-interaction walks fill the way they do on real logs.

`generate_chain` builds the quality-guard corpus. A seeded permutation of
the catalog fixes each item's successor, and every user walks it from a
random start, so each next item, the held-out ones included, is set by the
previous item. Every item is about equally frequent, so item popularity
alone ranks the held-out item no better than chance: the guard reads high
only if the model learns the transition from the context.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

T0 = 1_600_000_000
DAY = 86_400
ZIPF = 1.6        # exponent of the popularity ranking
FRIENDS = 2       # social links drawn per user (about 2x after symmetrizing)
SPAN_DAYS = 120   # window the timestamps are spread over


@dataclass(frozen=True)
class CorpusShape:
    n_users: int
    n_items: int          # raw catalog; filtering may drop rare items
    events: int           # mean events per user
    events_spread: int    # per-user event count is uniform in events +- spread
    p_popular: float      # share of events drawn from the popularity ranking


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, tag]))


def _timestamps(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.sort(rng.integers(0, SPAN_DAYS * DAY, size=n)) + T0


def _social(rng: np.random.Generator, n_users: int) -> list[str]:
    lines = []
    for u in range(n_users):
        for f in rng.choice(n_users - 1, size=FRIENDS, replace=False):
            lines.append(f"u{u}\tu{f + (f >= u)}\n")
    return lines


def generate(shape: CorpusShape, seed: int) -> tuple[list[str], list[str]]:
    """Interaction lines (user, item, unix seconds) and social lines (user, user)."""
    rng = _rng(seed, 0xB5)
    popularity = 1.0 / np.arange(1, shape.n_items + 1) ** ZIPF
    popularity /= popularity.sum()
    by_rank = rng.permutation(shape.n_items)
    interactions = []
    for u in range(shape.n_users):
        n = shape.events + int(rng.integers(-shape.events_spread,
                                            shape.events_spread + 1))
        ts = _timestamps(rng, n)
        popular = by_rank[rng.choice(shape.n_items, size=n, p=popularity)]
        uniform = rng.integers(0, shape.n_items, size=n)
        items = np.where(rng.random(n) < shape.p_popular, popular, uniform)
        interactions.extend(f"u{u}\tv{v}\t{t}\n" for v, t in zip(items, ts))
    return interactions, _social(rng, shape.n_users)


def generate_chain(n_users: int, n_items: int, events: int,
                   seed: int) -> tuple[list[str], list[str]]:
    """Like `generate`, but every user follows one seeded successor permutation."""
    rng = _rng(seed, 0xC4)
    successor = rng.permutation(n_items)
    interactions = []
    for u in range(n_users):
        item = int(rng.integers(0, n_items))
        for t in _timestamps(rng, events):
            interactions.append(f"u{u}\tv{item}\t{t}\n")
            item = int(successor[item])
    return interactions, _social(rng, n_users)


def write_corpus(lines: tuple[list[str], list[str]], out_dir) -> tuple[str, str]:
    """Write interaction and social lines into out_dir; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = (os.path.join(out_dir, "interactions.tsv"),
             os.path.join(out_dir, "social.tsv"))
    for path, text in zip(paths, lines):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(text)
    return paths
