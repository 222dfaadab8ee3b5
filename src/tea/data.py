"""Ingestion and preprocessing of interaction logs and social edges.

Turns raw tab-separated event logs into the prepared corpus the trainer
consumes: per-user behavior sequences, per-step neighbor-item buckets,
one has-walk bit per event, and a leave-one-out split.

The score reads one fact from an event's time-restricted co-interaction
walks: whether there is any, that is whether another user has a training
event on the same item within tau. So each event keeps that bit, and no
walk set is built: the bits of all users come from sorted searches over
the training events (`extract_time_restricted_walks`), with no randomness.
"""

from __future__ import annotations

import bisect
import json
import logging
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

log = logging.getLogger(__name__)

DAY_SECONDS = 86_400
SNAPSHOT_FORMAT = "tea-dataset-2"
_INT64_MAX = 2 ** 63 - 1


class ParseError(ValueError):
    def __init__(self, path, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class EmptyDatasetError(ValueError):
    """Filtering removed every interaction."""


@dataclass(frozen=True)
class Interaction:
    user: int
    item: int
    ts: int
    rating: float | None = None


@dataclass
class SocialGraph:
    """Undirected user adjacency; neighbor lists are sorted and deduplicated."""

    neighbors: dict[int, list[int]] = field(default_factory=dict)

    def of(self, user: int) -> list[int]:
        return self.neighbors.get(user, [])

    def edge_count(self) -> int:
        return sum(len(v) for v in self.neighbors.values()) // 2


@dataclass
class LoadResult:
    interactions: list[Interaction]
    user_ids: list[str]   # dense -> raw
    item_ids: list[str]
    user_index: dict[str, int]
    item_index: dict[str, int]


def load_interactions(path) -> LoadResult:
    """Parse tab-separated rows: user, item, unix seconds, optional rating.

    Raw ids are remapped to dense indices in first-appearance order; exact
    duplicate rows are kept (the log is a multiset of events).
    """
    interactions: list[Interaction] = []
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    user_ids: list[str] = []
    item_ids: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise ParseError(path, line_no,
                                 f"expected 3 or 4 tab-separated fields, got {len(fields)}")
            raw_u, raw_v, raw_ts = fields[0], fields[1], fields[2]
            try:
                ts = int(raw_ts)
            except ValueError:
                raise ParseError(path, line_no, f"bad timestamp {raw_ts!r}") from None
            if ts < 0:
                raise ParseError(path, line_no, f"negative timestamp {ts}")
            rating = None
            if len(fields) == 4 and fields[3] != "":
                try:
                    rating = float(fields[3])
                except ValueError:
                    raise ParseError(path, line_no, f"bad rating {fields[3]!r}") from None
            if raw_u not in user_index:
                user_index[raw_u] = len(user_ids)
                user_ids.append(raw_u)
            if raw_v not in item_index:
                item_index[raw_v] = len(item_ids)
                item_ids.append(raw_v)
            interactions.append(Interaction(user_index[raw_u], item_index[raw_v],
                                            ts, rating))
    return LoadResult(interactions, user_ids, item_ids, user_index, item_index)


def load_social_edges(path, user_index: dict[str, int]) -> SocialGraph:
    """Parse tab-separated user-id pairs into an undirected adjacency.

    Self-loops are skipped, duplicates stored once, and users that never
    appear in the interaction log are dropped.
    """
    adj: dict[int, set[int]] = defaultdict(set)
    skipped_self = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(path, line_no,
                                 f"expected 2 tab-separated fields, got {len(fields)}")
            a, b = fields
            if a == b:
                skipped_self += 1
                continue
            if a not in user_index or b not in user_index:
                continue
            ua, ub = user_index[a], user_index[b]
            adj[ua].add(ub)
            adj[ub].add(ua)
    if skipped_self:
        log.warning("skipped %d self-loop social edges in %s", skipped_self, path)
    return SocialGraph({u: sorted(vs) for u, vs in adj.items()})


@dataclass
class FilterResult:
    interactions: list[Interaction]
    user_remap: dict[int, int]   # old dense id -> new dense id
    item_remap: dict[int, int]


def preprocess(interactions: list[Interaction], min_actions: int = 5,
               rating_threshold: float = 3.0) -> FilterResult:
    """Binarize explicit feedback and drop sparse users/items to a fixpoint.

    Events with a rating present and <= rating_threshold are removed first
    (a rating strictly higher than the threshold counts as positive
    feedback; unrated events are implicit positives). Users with fewer than
    max(min_actions, 3) surviving events and items with fewer than
    min_actions are then removed, iterating until both constraints hold
    simultaneously: leave-one-out holds out two events per user and needs
    at least one more to train on. Ids are re-compacted in first-appearance
    order of the surviving events.
    """
    min_user_actions = max(min_actions, 3)
    kept = [it for it in interactions
            if it.rating is None or it.rating > rating_threshold]
    while True:
        u_count = Counter(it.user for it in kept)
        v_count = Counter(it.item for it in kept)
        filtered = [it for it in kept
                    if u_count[it.user] >= min_user_actions
                    and v_count[it.item] >= min_actions]
        if len(filtered) == len(kept):
            break
        kept = filtered
    if not kept:
        raise EmptyDatasetError(
            f"no interactions survive filtering (min_actions={min_actions}, "
            f"rating_threshold={rating_threshold})")
    user_remap: dict[int, int] = {}
    item_remap: dict[int, int] = {}
    out = []
    for it in kept:
        if it.user not in user_remap:
            user_remap[it.user] = len(user_remap)
        if it.item not in item_remap:
            item_remap[it.item] = len(item_remap)
        out.append(Interaction(user_remap[it.user], item_remap[it.item],
                               it.ts, it.rating))
    return FilterResult(out, user_remap, item_remap)


@dataclass
class Split:
    train: list[Interaction]
    val: dict[int, Interaction]
    test: dict[int, Interaction]


def leave_one_out_split(interactions: list[Interaction]) -> Split:
    """Latest event per user -> test, second latest -> validation, rest -> train.

    Timestamp ties break by input order (stable sort), so the split is
    deterministic for any log.
    """
    per_user: dict[int, list[Interaction]] = defaultdict(list)
    for it in interactions:
        per_user[it.user].append(it)
    train: list[Interaction] = []
    val: dict[int, Interaction] = {}
    test: dict[int, Interaction] = {}
    for user, events in per_user.items():
        events = sorted(events, key=lambda it: it.ts)  # stable
        test[user] = events[-1]
        val[user] = events[-2]
        train.extend(events[:-2])
    return Split(train, val, test)


def build_behavior_sequences(train: list[Interaction], l_s: int = 50
                             ) -> dict[int, list[Interaction]]:
    """Per-user time-ordered training events, truncated to the most recent l_s."""
    per_user: dict[int, list[Interaction]] = defaultdict(list)
    for it in train:
        per_user[it.user].append(it)
    out = {}
    for user, events in per_user.items():
        events = sorted(events, key=lambda it: it.ts)
        out[user] = events[-l_s:]
    return out


def bucket_items(neighbor_events: list[tuple[int, int]], lo: int, hi: int,
                 l_n: int) -> list[int]:
    """Items from a time-sorted (ts, item) list with ts in [lo, hi), newest l_n."""
    i = bisect.bisect_left(neighbor_events, (lo, -1))
    j = bisect.bisect_left(neighbor_events, (hi, -1))
    window = neighbor_events[i:j]
    return [item for _, item in window[-l_n:]]


def build_neighbor_item_buckets(seq: list[Interaction], val_ts: int, test_ts: int,
                                neighbor_events: list[tuple[int, int]], l_n: int
                                ) -> tuple[list[list[int]], list[int], list[int]]:
    """Neighbor activity bucketed between the user's consecutive timestamps.

    buckets[t] covers [ts_t, ts_{t+1}); the final observed step gets one
    bucket per held-out target, upper-bounded by that target's timestamp:
    [ts_last, val_ts) when predicting the validation item and
    [val_ts, test_ts) when predicting the test item (whose context already
    contains the validation event).
    """
    ts = [it.ts for it in seq]
    buckets = [bucket_items(neighbor_events, ts[t], ts[t + 1], l_n)
               for t in range(len(ts) - 1)]
    bucket_val = bucket_items(neighbor_events, ts[-1], val_ts, l_n)
    bucket_gap = bucket_items(neighbor_events, val_ts, test_ts, l_n)
    return buckets, bucket_val, bucket_gap


def extract_time_restricted_walks(queries: list[list[Interaction]],
                                  train: list[Interaction], tau_seconds: int,
                                  cap: int) -> list[list[int]]:
    """Has-walk bit of every query event, in the queries' shape.

    queries[k] lists one user's events; out[k][t] is 1 when a user other
    than that one has an event in `train` on queries[k][t]'s item within
    tau_seconds of it, both ends included, and cap >= 1; else 0. Only
    `train` is searched, so held-out targets never count.

    The co-user events are the item's events in the window minus the
    user's own: one searchsorted pair over the training events sorted by
    (item, ts) and one over them sorted by (user, item, ts). The sort keys
    are int64, a group's dense rank times the time span plus the time
    offset; a corpus whose keys cannot be exact raises ValueError.
    """
    flat = [it for events in queries for it in events]
    bits = np.zeros(len(flat), dtype=bool)
    if cap >= 1 and flat and train:
        events = train + flat                  # ranks shared by events and queries
        try:
            user = np.array([it.user for it in events], dtype=np.int64)
            item = np.array([it.item for it in events], dtype=np.int64)
            stamp = np.array([it.ts for it in events], dtype=np.int64)
        except OverflowError:
            raise ValueError("a timestamp does not fit int64") from None
        first = int(stamp.min())
        if int(stamp.max()) - first > _INT64_MAX:
            raise ValueError("the timestamps span more than 2**63 - 1 seconds")
        stamp = stamp - first                  # wraps, so exact: the true value fits
        span = int(stamp[:len(train)].max()) + 1
        user = np.unique(user, return_inverse=True)[1]
        item = np.unique(item, return_inverse=True)[1]
        n_users, n_items = int(user.max()) + 1, int(item.max()) + 1
        if n_users * n_items > _INT64_MAX:
            raise ValueError(f"{n_users} users x {n_items} items do not fit int64 keys")
        pair = np.unique(user * n_items + item, return_inverse=True)[1]
        if (int(pair.max()) + 1) * span > _INT64_MAX:
            raise ValueError(f"{int(pair.max()) + 1} (user, item) pairs over a "
                             f"{span}-second span do not fit int64 keys")
        tau = min(tau_seconds, _INT64_MAX)
        bits = (_window_counts(item, stamp, len(train), tau, span)
                > _window_counts(pair, stamp, len(train), tau, span))
    bits = iter(bits.astype(np.int64).tolist())
    return [list(islice(bits, len(events))) for events in queries]


def _window_counts(groups, stamps, n_events: int, tau: int, span: int) -> np.ndarray:
    """For each entry past the first n_events, how many of the first n_events
    share its group and have a stamp within tau of its own.

    Event stamps lie in [0, span), query stamps are >= 0, and each key is
    group * span + stamp. The window bounds are clipped to the group's
    [0, span] before they are formed, so no intermediate leaves int64.
    """
    keys = np.sort(groups[:n_events] * span + stamps[:n_events])
    q, base = stamps[n_events:], groups[n_events:] * span
    lo = base + np.minimum(q - np.minimum(q, tau), span)
    hi = base + q + np.minimum(tau, span - 1 - q)
    return np.searchsorted(keys, hi, "right") - np.searchsorted(keys, lo, "left")


def sample_negatives(positives, n_items: int, n_s: int,
                     rng: np.random.Generator) -> np.ndarray:
    """n_s uniform draws (with replacement) per positive from the item set minus
    that positive, shape `positives.shape + (n_s,)`, in one `integers` call."""
    if n_items < 2:
        raise ValueError(f"need at least 2 items to sample negatives, have {n_items}")
    positives = np.asarray(positives)
    draws = rng.integers(0, n_items - 1, size=positives.shape + (n_s,))
    return draws + (draws >= positives[..., None])


# ---------------------------------------------------------------------------
# Prepared corpus
# ---------------------------------------------------------------------------


@dataclass
class UserRecord:
    seq_items: list[int]
    seq_ts: list[int]
    val_item: int
    val_ts: int
    test_item: int
    test_ts: int
    buckets: list[list[int]]      # len(seq) - 1, between consecutive own events
    bucket_val: list[int]         # [last train ts, val ts)
    bucket_gap: list[int]         # [val ts, test ts)
    walks: list[int]              # len(seq), has-walk bit (0/1) per own event
    walks_val: int                # has-walk bit of the validation event


@dataclass
class PreparedDataset:
    n_users: int
    n_items: int
    users: list[UserRecord]
    social: SocialGraph
    config: dict
    user_ids: list[str]
    item_ids: list[str]
    n_interactions: int

    def stats(self) -> dict:
        n, m = self.n_users, self.n_items
        links = self.social.edge_count()
        return {
            "users": n,
            "items": m,
            "interactions": self.n_interactions,
            "social_links": links,
            "density": self.n_interactions / (n * m) if n and m else 0.0,
            "social_density": links / (n * n) if n else 0.0,
        }

    def save(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        head = {
            "format": SNAPSHOT_FORMAT,
            "n_users": self.n_users,
            "n_items": self.n_items,
            "n_interactions": self.n_interactions,
            "config": self.config,
            "social": {str(u): vs for u, vs in sorted(self.social.neighbors.items())},
        }
        # The bytes of json.dumps({**head, "users": [...]}, sort_keys=True):
        # "users" sorts after every head key. Each user is encoded on its own,
        # so the C encoder never holds the whole document's pieces at once.
        with open(os.path.join(out_dir, "dataset.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head, sort_keys=True)[:-1] + ', "users": [')
            for i, u in enumerate(self.users):
                fh.write((", " if i else "") + json.dumps({
                    "seq_items": u.seq_items, "seq_ts": u.seq_ts,
                    "val": [u.val_item, u.val_ts], "test": [u.test_item, u.test_ts],
                    "buckets": u.buckets, "bucket_val": u.bucket_val,
                    "bucket_gap": u.bucket_gap, "walks": u.walks,
                    "walks_val": u.walks_val,
                }, sort_keys=True))
            fh.write("]}")
        for fname, ids in (("user_ids.tsv", self.user_ids),
                           ("item_ids.tsv", self.item_ids)):
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
                for dense, raw in enumerate(ids):
                    fh.write(f"{raw}\t{dense}\n")

    @classmethod
    def load(cls, out_dir) -> "PreparedDataset":
        path = os.path.join(out_dir, "dataset.json")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{path}: not a JSON snapshot ({exc})") from None
        found = payload.get("format") if isinstance(payload, dict) else None
        if found != SNAPSHOT_FORMAT:
            raise ValueError(f"{path}: snapshot format {found!r}, expected "
                             f"{SNAPSHOT_FORMAT!r}; re-run `tea prepare` to rebuild it")
        try:
            users = [
                UserRecord(
                    seq_items=u["seq_items"], seq_ts=u["seq_ts"],
                    val_item=u["val"][0], val_ts=u["val"][1],
                    test_item=u["test"][0], test_ts=u["test"][1],
                    buckets=u["buckets"], bucket_val=u["bucket_val"],
                    bucket_gap=u["bucket_gap"], walks=u["walks"],
                    walks_val=u["walks_val"],
                )
                for u in payload["users"]
            ]
            social = SocialGraph({int(k): v for k, v in payload["social"].items()})
            n_users, n_items = payload["n_users"], payload["n_items"]
            config, n_interactions = payload["config"], payload["n_interactions"]
            l_s = config.get("l_s")
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"{path}: malformed snapshot "
                             f"({type(exc).__name__}: {exc})") from None
        try:
            _check_snapshot(path, n_users, n_items, l_s, users, social)
        except TypeError as exc:     # a field of the wrong JSON type
            raise ValueError(f"{path}: malformed snapshot (TypeError: {exc})") from None
        ids = {}
        for fname, n in (("user_ids.tsv", n_users), ("item_ids.tsv", n_items)):
            side_path = os.path.join(out_dir, fname)
            raw_of: list[str | None] = [None] * n
            with open(side_path, "r", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, start=1):
                    fields = line.rstrip("\n").split("\t")
                    if len(fields) != 2 or not fields[1].isdigit():
                        raise ParseError(side_path, line_no,
                                         "expected 'raw_id<TAB>dense_id'")
                    dense = int(fields[1])
                    if dense >= n:
                        raise ParseError(side_path, line_no, f"dense id {dense} out of "
                                         f"range for {n} ids in {path}")
                    if raw_of[dense] is not None:
                        raise ParseError(side_path, line_no, f"dense id {dense} repeated")
                    raw_of[dense] = fields[0]
            if None in raw_of:
                raise ValueError(f"{side_path}: dense id {raw_of.index(None)} missing "
                                 f"({n} ids expected)")
            ids[fname] = raw_of
        return cls(n_users, n_items, users, social, config, ids["user_ids.tsv"],
                   ids["item_ids.tsv"], n_interactions)


def _check_snapshot(path, n_users: int, n_items: int, l_s: int | None,
                    users: list[UserRecord], social: SocialGraph) -> None:
    """Reject a snapshot the scorer would index out of range.

    Every item id must be below n_items and every user id below n_users;
    each user needs 1..l_s training events, one bucket fewer than events
    and one has-walk bit, 0 or 1, per event and for the validation event.
    """
    def ids_in_range(who: str, kind: str, ids, bound: int) -> None:
        for x in ids:
            if type(x) is not int or not 0 <= x < bound:
                raise ValueError(f"{path}: {who} has {kind} id {x!r} outside "
                                 f"[0, {bound})")

    for key, value in (("n_users", n_users), ("n_items", n_items)):
        if type(value) is not int:
            raise ValueError(f"{path}: {key} is {value!r}, expected an integer")
    if len(users) != n_users:
        raise ValueError(f"{path}: {len(users)} user records, n_users={n_users}")
    for u, rec in enumerate(users):
        who = f"user {u}"
        n = len(rec.seq_items)
        if n < 1 or (l_s is not None and n > l_s):
            raise ValueError(f"{path}: {who} has {n} training events, "
                             f"expected 1 to l_s={l_s}")
        if len(rec.buckets) != n - 1:
            raise ValueError(f"{path}: {who} has {len(rec.buckets)} buckets for {n} "
                             f"training events; expected {n - 1}")
        if len(rec.walks) != n:
            raise ValueError(f"{path}: {who} has {len(rec.walks)} walk bits for {n} "
                             f"training events; expected {n}")
        bits = rec.walks + [rec.walks_val]
        if not {type(x) for x in bits} <= {int} or not set(bits) <= {0, 1}:
            bad = next(x for x in bits if type(x) is not int or x not in (0, 1))
            raise ValueError(f"{path}: {who} has walk bit {bad!r}, expected 0 or 1")
        ids_in_range(who, "item", chain(rec.seq_items, (rec.val_item, rec.test_item),
                                        rec.bucket_val, rec.bucket_gap,
                                        *rec.buckets), n_items)
    for u, nbs in social.neighbors.items():
        ids_in_range("the social graph", "user", chain((u,), nbs), n_users)


def prepare_dataset(interactions_path, social_path, min_actions: int = 5,
                    rating_threshold: float = 3.0, tau_days: int = 60,
                    l_s: int = 50, l_n: int = 20, walk_cap: int = 10,
                    seed: int = 0) -> PreparedDataset:
    """Full ingestion pipeline from raw files to a PreparedDataset.

    Window settings that would write a snapshot `train` rejects, or silently
    change what the windows hold, raise a ValueError naming the flag.
    """
    for flag, value, least in (("--ls", l_s, 1), ("--ln", l_n, 1),
                               ("--walk-cap", walk_cap, 0), ("--tau-days", tau_days, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    loaded = load_interactions(interactions_path)
    filtered = preprocess(loaded.interactions, min_actions, rating_threshold)

    # Compose raw -> filtered dense maps for the id sidecars.
    user_ids = [""] * len(filtered.user_remap)
    for old, new in filtered.user_remap.items():
        user_ids[new] = loaded.user_ids[old]
    item_ids = [""] * len(filtered.item_remap)
    for old, new in filtered.item_remap.items():
        item_ids[new] = loaded.item_ids[old]
    user_index = {raw: dense for dense, raw in enumerate(user_ids)}

    social = load_social_edges(social_path, user_index)
    split = leave_one_out_split(filtered.interactions)
    sequences = build_behavior_sequences(split.train, l_s)

    # Per-user time-sorted (ts, item) index over training events only, so
    # held-out targets never enter a bucket.
    by_user: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for it in split.train:
        by_user[it.user].append((it.ts, it.item))
    for events in by_user.values():
        events.sort()

    # One has-walk bit per training event in the sequence, then one for the
    # validation event; only training events count as co-interactions.
    n_users = len(user_ids)
    try:
        walk_bits = extract_time_restricted_walks(
            [sequences[user] + [split.val[user]] for user in range(n_users)],
            split.train, tau_days * DAY_SECONDS, walk_cap)
    except ValueError as exc:
        raise ValueError(f"{interactions_path}: {exc}") from None
    users: list[UserRecord] = []
    for user in range(n_users):
        seq = sequences[user]
        val, test = split.val[user], split.test[user]
        neighbor_events: list[tuple[int, int]] = []
        for nb in social.of(user):
            neighbor_events.extend(by_user.get(nb, []))
        neighbor_events.sort()
        buckets, bucket_val, bucket_gap = build_neighbor_item_buckets(
            seq, val.ts, test.ts, neighbor_events, l_n)
        walks = walk_bits[user]
        walks_val = walks.pop()
        users.append(UserRecord(
            seq_items=[it.item for it in seq], seq_ts=[it.ts for it in seq],
            val_item=val.item, val_ts=val.ts, test_item=test.item, test_ts=test.ts,
            buckets=buckets, bucket_val=bucket_val, bucket_gap=bucket_gap,
            walks=walks, walks_val=walks_val))

    config = {
        "min_actions": min_actions, "rating_threshold": rating_threshold,
        "tau_days": tau_days, "l_s": l_s, "l_n": l_n, "walk_cap": walk_cap,
        "seed": seed,
    }
    return PreparedDataset(n_users, len(item_ids), users, social, config,
                           user_ids, item_ids, len(filtered.interactions))
