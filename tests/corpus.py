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

`dataset_of` lays per-user records out in the prepared corpus's flat
arrays, as `prepare` would; `synthetic_dataset` and the hand-built users
of the scorer tests (`context_record`) go through it. `social_graph` lays
a user -> neighbor list dict out in the social graph's two arrays, and
`neighbors_of` reads one user's list back.
"""

from __future__ import annotations

import json
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


def social_graph(neighbors: dict, n_users: int):
    """The SocialGraph of n_users users whose neighbor lists `neighbors` holds
    (user -> list; a user it does not name has none)."""
    from tea.data import SocialGraph

    lists = [list(neighbors.get(u, ())) for u in range(n_users)]
    return SocialGraph(np.array([len(ids) for ids in lists], dtype=np.int32),
                       np.array([x for ids in lists for x in ids], dtype=np.int32))


def neighbors_of(social, user: int) -> list[int]:
    """User `user`'s neighbor list in the SocialGraph `social`."""
    start = int(social.start[user])
    return social.ids[start:start + int(social.counts[user])].tolist()


def dataset_of(records, n_items: int, neighbors: dict | None = None, l_s: int = 50,
               l_n: int = 3, seed: int = 0):
    """A PreparedDataset holding `records` (user u's is records[u]) and the
    `neighbors` adjacency, in memory: each record's lists laid out in the
    snapshot's flat arrays, one user after another."""
    from tea.data import PreparedDataset

    windows = [r.buckets + [r.bucket_val, r.bucket_gap] for r in records]
    config = {"min_actions": 5, "rating_threshold": 3.0, "tau_days": 60,
              "l_s": l_s, "l_n": l_n, "walk_cap": 10, "seed": seed}
    return PreparedDataset(
        len(records), n_items,
        seq_len=[len(r.seq_items) for r in records],
        items=[x for r in records for x in r.seq_items + [r.val_item, r.test_item]],
        ts=[x for r in records for x in r.seq_ts + [r.val_ts, r.test_ts]],
        walks=[x for r in records for x in r.walks + [r.walks_val]],
        bucket_len=[len(b) for w in windows for b in w],
        buckets=[x for w in windows for b in w for x in b],
        social=social_graph(neighbors or {}, len(records)), config=config,
        user_ids=[f"u{i}" for i in range(len(records))],
        item_ids=[f"v{i}" for i in range(n_items)],
        n_interactions=sum(len(r.seq_items) + 2 for r in records))


def context_record(items, buckets, walks):
    """A UserRecord whose validation step len(items) sees exactly `items`,
    `buckets` and `walks` (one of each per event), as do its steps below it.

    The held-out items, the gap bucket and the validation walk bit are
    placeholders that no step up to len(items) reads.
    """
    from tea.data import UserRecord

    n = len(items)
    assert len(buckets) == len(walks) == n
    return UserRecord(seq_items=list(items), seq_ts=[T0 + k * DAY for k in range(n)],
                      val_item=0, val_ts=T0 + n * DAY, test_item=0,
                      test_ts=T0 + (n + 1) * DAY, buckets=[list(b) for b in buckets[:-1]],
                      bucket_val=list(buckets[-1]), bucket_gap=[], walks=list(walks),
                      walks_val=0)


def synthetic_dataset(n_users: int, n_items: int, seq_len: int, seed: int,
                      l_s: int, max_bucket: int = 3, max_walks: int = 2):
    """A structurally valid PreparedDataset with random contents, in memory.

    For scorer-level checks that need a dataset but not meaningful signal.
    """
    from tea.data import UserRecord

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
    return dataset_of(users, n_items, {u: sorted(vs) for u, vs in sym.items()}, l_s=l_s,
                      l_n=max_bucket, seed=seed)


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


def edit_snapshot(snap_dir, edit):
    """Rewrite snap_dir's dataset.npz after edit(head, arrays) changes the
    decoded JSON header or the dict of arrays in place; an edit may also put
    its own `header` array. Written by np.savez, which may pickle an object
    array. Returns the file's path."""
    from tea.data import SNAPSHOT_FILE

    path = os.path.join(str(snap_dir), SNAPSHOT_FILE)
    with np.load(path) as npz:
        arrays = dict(npz)
    head = json.loads(bytes(arrays.pop("header")).decode("utf-8"))
    edit(head, arrays)
    arrays.setdefault("header", np.frombuffer(json.dumps(head).encode(), np.uint8))
    np.savez(path, **arrays)
    return path


def _mark(marker):
    with open(marker, "w", encoding="utf-8") as fh:
        fh.write("unpickled\n")


class _Armed:
    """Pickles to a call that writes `marker`, so a test sees if it was unpickled."""

    def __init__(self, marker) -> None:
        self.marker = marker

    def __reduce__(self):
        return _mark, (self.marker,)


def _rewrite(fn):
    def corrupt(snap_dir):
        path = os.path.join(str(snap_dir), "dataset.npz")
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(fn(raw))
    return corrupt


def _edit(fn):
    return lambda snap_dir: edit_snapshot(snap_dir, fn)


# Damaged dataset.npz files, by what is wrong: each callable damages the
# snapshot in the directory it is given. `load` must reject every one with a
# ValueError naming the file, and the CLI must exit 2.
SNAPSHOT_DEFECTS = {
    "truncated": _rewrite(lambda raw: raw[:len(raw) // 2]),
    "not-a-zip": _rewrite(lambda raw: b"seq_len\titems\n" + raw[:64]),
    "missing-array": _edit(lambda head, arrays: arrays.pop("buckets")),
    "empty-header": _edit(lambda head, arrays: arrays.update(header=np.zeros(0, np.uint8))),
    "object-array": lambda snap_dir: edit_snapshot(snap_dir, lambda head, arrays: (
        arrays.update(social=np.array(
            [_Armed(os.path.join(str(snap_dir), "unpickled"))], dtype=object)))),
    "float-array": _edit(lambda head, arrays: arrays.update(
        items=arrays["items"].astype(np.float64))),
    "wrong-shape": _edit(lambda head, arrays: arrays.update(
        ts=arrays["ts"].reshape(-1, 1))),
    "negative-count": _edit(lambda head, arrays: arrays["bucket_len"].__setitem__(
        slice(0, 2), [-1, int(arrays["bucket_len"][:2].sum()) + 1])),
    "counts-do-not-sum": _edit(lambda head, arrays: arrays.update(
        social=arrays["social"][:-1])),
    "out-of-range-id": _edit(lambda head, arrays: arrays["buckets"].__setitem__(
        -1, head["n_items"])),
    "bit-not-0-or-1": _edit(lambda head, arrays: arrays["walks"].__setitem__(
        int(arrays["seq_len"][0]), 2)),                  # user 0's validation bit
    "other-format": _edit(lambda head, arrays: head.update(format="tea-dataset-2")),
    # user 0's neighbor list (on the ring corpora, users 1 and n - 1), edited
    "social-not-increasing": _edit(lambda head, arrays: arrays["social"].__setitem__(
        slice(0, 2), arrays["social"][1::-1])),
    "social-repeated": _edit(lambda head, arrays: arrays["social"].__setitem__(
        1, arrays["social"][0])),
    "social-lists-itself": _edit(lambda head, arrays: arrays["social"].__setitem__(0, 0)),
    "social-not-mirrored": _edit(lambda head, arrays: arrays["social"].__setitem__(
        0, arrays["social"][0] + 1)),
}
