"""Synthetic corpora for training and acceptance tests.

Two generators with known structure:

* cycle_corpus: every user walks the item ring (start, start+1, ...) mod
  n_items, so the next item is fully determined by the current one. Ring
  neighbors start one step apart and act within hours of each other, which
  populates co-interaction walks and neighbor buckets.

* follower_corpus: followers replay their leader's random item stream one
  hour later, so the next item is determined solely by what the leader
  just consumed - pure graph signal, no sequence signal. Leaders get two
  trailing filler events so their whole stream lands in the training
  split.
"""

from __future__ import annotations

import os

import numpy as np

T0 = 1_600_000_000
DAY = 86_400
HOUR = 3_600


def cycle_corpus(n_users: int = 200, n_items: int = 50, length: int = 8,
                 stride: int = 1):
    """Interaction rows and social pairs for the deterministic ring corpus.

    Starts are spread by `stride` so every item collects enough events to
    survive the sparsity filter even for small corpora.
    """
    rows = []
    for u in range(n_users):
        start = (u * stride) % n_items
        jitter = (u * 37) % HOUR
        for k in range(length):
            item = (start + k) % n_items
            rows.append((f"u{u}", f"v{item}", T0 + k * DAY + jitter))
    pairs = [(f"u{u}", f"u{(u + 1) % n_users}") for u in range(n_users)]
    return rows, pairs


def follower_corpus(n_followers: int = 100, n_items: int = 50, length: int = 8,
                    seed: int = 7):
    """Follower targets are a fixed permutation of the leader's current item.

    Leader streams are uniform random; one hour after the leader consumes
    s, its follower consumes perm(s). No behavior sequence in the corpus
    carries the follower's next-item transition (leader streams are iid
    and perm of iid is iid), so the target is recoverable only from the
    neighbor's activity inside the bucket window.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_items)
    rows = []
    pairs = []
    for f in range(n_followers):
        leader = n_followers + f
        stream = rng.integers(0, n_items, size=length)
        for k in range(length):
            s = int(stream[k])
            rows.append((f"u{leader}", f"v{s}", T0 + k * DAY))
            rows.append((f"u{f}", f"v{int(perm[s])}", T0 + k * DAY + HOUR))
        # Trailing filler keeps the leader's real stream inside the training
        # split (leave-one-out holds out only these two events).
        for pad in range(2):
            item = int(rng.integers(0, n_items))
            rows.append((f"u{leader}", f"v{item}",
                         T0 + (length + 3 + pad) * DAY))
        pairs.append((f"u{f}", f"u{leader}"))
    return rows, pairs


def synthetic_dataset(n_users: int, n_items: int, seq_len: int, seed: int,
                      l_s: int, max_bucket: int = 3, max_walks: int = 2):
    """A structurally valid PreparedDataset with random contents, in memory.

    For scorer-level checks that need a dataset but not meaningful signal.
    """
    from tea.data import PreparedDataset, SocialGraph, UserRecord

    rng = np.random.default_rng(seed)
    users = []
    for u in range(n_users):
        def items(k):
            return rng.integers(0, n_items, size=k).tolist()

        def has_walk():
            # A walk set of 0..max_walks co-users, drawn as before so the
            # stream, and every later field, stays the same; the bit is
            # whether it is nonempty.
            k = int(rng.integers(0, max_walks + 1))
            pool = [x for x in range(n_users) if x != u]
            return int(rng.choice(pool, size=min(k, len(pool)), replace=False).size > 0)

        seq_items = items(seq_len)
        seq_ts = [T0 + k * DAY for k in range(seq_len)]
        users.append(UserRecord(
            seq_items=seq_items, seq_ts=seq_ts,
            val_item=int(rng.integers(0, n_items)), val_ts=T0 + seq_len * DAY,
            test_item=int(rng.integers(0, n_items)),
            test_ts=T0 + (seq_len + 1) * DAY,
            buckets=[items(int(rng.integers(0, max_bucket + 1)))
                     for _ in range(seq_len - 1)],
            bucket_val=items(int(rng.integers(0, max_bucket + 1))),
            bucket_gap=items(int(rng.integers(0, max_bucket + 1))),
            walks=[has_walk() for _ in range(seq_len)],
            walks_val=has_walk(),
        ))
    adjacency = {}
    for u in range(n_users):
        others = [x for x in range(n_users) if x != u]
        k = int(rng.integers(0, min(3, len(others)) + 1))
        adjacency[u] = sorted(rng.choice(others, size=k, replace=False).tolist())
    # symmetrize
    sym = {u: set(vs) for u, vs in adjacency.items()}
    for u, vs in adjacency.items():
        for v in vs:
            sym[v].add(u)
    social = SocialGraph({u: sorted(vs) for u, vs in sym.items()})
    config = {"min_actions": 5, "rating_threshold": 3.0, "tau_days": 60,
              "l_s": l_s, "l_n": max_bucket, "walk_cap": 10, "seed": seed}
    return PreparedDataset(n_users, n_items, users, social, config,
                           [f"u{i}" for i in range(n_users)],
                           [f"v{i}" for i in range(n_items)],
                           n_users * (seq_len + 2))


def write_corpus(tmp_dir, rows, pairs, with_social: bool = True):
    """Write interaction/social TSVs; returns the two paths."""
    os.makedirs(tmp_dir, exist_ok=True)
    inter_path = os.path.join(tmp_dir, "interactions.tsv")
    social_path = os.path.join(tmp_dir, "social.tsv")
    with open(inter_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")
    with open(social_path, "w", encoding="utf-8") as fh:
        if with_social:
            for a, b in pairs:
                fh.write(f"{a}\t{b}\n")
    return inter_path, social_path
