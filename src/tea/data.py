"""Ingestion and preprocessing of interaction logs and social edges.

Turns raw tab-separated event logs into the prepared corpus the trainer
consumes: per-user behavior sequences, per-step neighbor-item buckets,
one has-walk bit per event (the score reads only whether an event has any
time-restricted co-interaction walk), and a leave-one-out split.

Every stage works on int64 event columns (`Events`), with no object per
event: a bincount fixpoint filters, one stable sort by (user, ts) splits,
and sorted searches cut every bucket window and count every walk. The
snapshot, `dataset.npz` (format `tea-dataset-3`), is an uncompressed numpy
zip of the prepared corpus's flat arrays, the social graph's two included,
and a JSON header, read with allow_pickle=False and kept as read.
"""

from __future__ import annotations

import json
import logging
import os
import zipfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

log = logging.getLogger(__name__)

DAY_SECONDS = 86_400
SNAPSHOT_FORMAT = "tea-dataset-3"
SNAPSHOT_FILE = "dataset.npz"
_INT64_MAX = 2 ** 63 - 1


class ParseError(ValueError):
    def __init__(self, path, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class EmptyDatasetError(ValueError):
    """Filtering removed every interaction."""


@dataclass
class Events:
    """Event columns: int64 user, item and unix seconds, one entry per event."""

    user: np.ndarray
    item: np.ndarray
    ts: np.ndarray

    def take(self, index) -> "Events":
        return Events(self.user[index], self.item[index], self.ts[index])


@dataclass(eq=False)
class SocialGraph:
    """Undirected user adjacency as the snapshot holds it: user u's neighbors,
    sorted and distinct, are ids[start[u]:start[u] + counts[u]] (int32)."""

    counts: np.ndarray    # `social_len`, one per user
    ids: np.ndarray       # `social`

    def __post_init__(self) -> None:
        self.start = np.cumsum(self.counts, dtype=np.intp) - self.counts

    @cached_property
    def neighbors(self) -> dict[int, list[int]]:
        """user -> neighbor list, for each user with neighbors; for readers outside tea."""
        flat = self.ids.tolist()
        runs = enumerate(zip(self.start.tolist(), self.counts.tolist()))
        return {u: flat[a:a + k] for u, (a, k) in runs if k}

    def edge_count(self) -> int:
        return self.ids.size // 2


@dataclass
class LoadResult:
    events: Events        # in log order, dense ids
    rating: np.ndarray    # float64; NaN where the row has none, -inf for a NaN rating
    user_ids: list[str]   # dense -> raw
    item_ids: list[str]


def load_interactions(path) -> LoadResult:
    """Parse tab-separated rows: user, item, unix seconds, optional rating.

    Raw ids are remapped to dense indices in first-appearance order; exact
    duplicate rows are kept (the log is a multiset of events). A rating
    that reads NaN is stored as -inf: neither passes any threshold, and NaN
    stays free to mean "no rating".
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    stamps: list[int] = []
    ratings: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise ParseError(path, line_no,
                                 f"expected 3 or 4 tab-separated fields, got {len(fields)}")
            try:
                ts = int(fields[2])
            except ValueError:
                raise ParseError(path, line_no, f"bad timestamp {fields[2]!r}") from None
            if ts < 0:
                raise ParseError(path, line_no, f"negative timestamp {ts}")
            rating = np.nan
            if len(fields) == 4 and fields[3] != "":
                try:
                    rating = float(fields[3])
                except ValueError:
                    raise ParseError(path, line_no, f"bad rating {fields[3]!r}") from None
                if rating != rating:
                    rating = -np.inf
            users.append(user_index.setdefault(fields[0], len(user_index)))
            items.append(item_index.setdefault(fields[1], len(item_index)))
            stamps.append(ts)
            ratings.append(rating)
    try:
        events = Events(*(np.array(col, dtype=np.int64) for col in (users, items, stamps)))
    except OverflowError:
        raise ValueError(f"{path}: a timestamp does not fit int64") from None
    return LoadResult(events, np.array(ratings), list(user_index), list(item_index))


def load_social_edges(path, user_index: dict[str, int]) -> SocialGraph:
    """Parse tab-separated user-id pairs into an undirected adjacency.

    Self-loops are skipped, duplicates stored once, and users that never
    appear in the interaction log are dropped. One sort of the kept pairs'
    keys a * n + b and b * n + a (n users), repeats dropped, orders every
    neighbor list.
    """
    pairs: list[int] = []
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
            if a in user_index and b in user_index:
                pairs += user_index[a], user_index[b]
    if skipped_self:
        log.warning("skipped %d self-loop social edges in %s", skipped_self, path)
    n = len(user_index)
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    keys = np.sort(np.concatenate([a * n + b, b * n + a]))
    keys = keys[np.diff(keys, prepend=-1) != 0]   # np.unique would import numpy.ma
    return SocialGraph(np.bincount(keys // n, minlength=n).astype(np.int32),
                       (keys % n).astype(np.int32))


@dataclass
class FilterResult:
    events: Events       # surviving events in log order, re-compacted ids
    users: np.ndarray    # new dense user id -> old dense id
    items: np.ndarray


def preprocess(events: Events, rating: np.ndarray, min_actions: int = 5,
               rating_threshold: float = 3.0) -> FilterResult:
    """Binarize explicit feedback and drop sparse users/items to a fixpoint.

    Events with a rating present and <= rating_threshold are removed first
    (a rating strictly higher than the threshold counts as positive
    feedback; unrated events, NaN in `rating`, are implicit positives).
    Users with fewer than max(min_actions, 3) surviving events and items
    with fewer than min_actions are then removed, iterating until both
    constraints hold simultaneously: leave-one-out holds out two events per
    user and needs at least one more to train on. Ids are re-compacted in
    first-appearance order of the surviving events.
    """
    min_user_actions = max(min_actions, 3)
    keep = np.isnan(rating) | (rating > rating_threshold)
    while True:
        sparse = keep & ((np.bincount(events.user, keep)[events.user] < min_user_actions)
                         | (np.bincount(events.item, keep)[events.item] < min_actions))
        if not sparse.any():
            break
        keep &= ~sparse
    if not keep.any():
        raise EmptyDatasetError(
            f"no interactions survive filtering (min_actions={min_actions}, "
            f"rating_threshold={rating_threshold})")
    kept = events.take(keep)
    user, users = _compact(kept.user)
    item, items = _compact(kept.item)
    return FilterResult(Events(user, item, kept.ts), users, items)


def _compact(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids renumbered 0.. in first-appearance order, and the old id of each new one."""
    old, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], old[order]


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[0] .. starts[0] + counts[0] - 1, then the same for each later run."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)


def build_neighbor_item_buckets(owner: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                                train: Events, social: SocialGraph, l_n: int
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor activity in windows: window k covers [lo[k], hi[k]) of user owner[k].

    A window holds the items of the owner's neighbors' events in `train`
    with lo <= ts < hi, in (ts, item) order, the newest l_n of them.
    Returns each window's item count and the items of all windows, flat.

    An event's rank is its place in `train` sorted by (ts, item). Every
    neighbor event is expanded once per owner under the key
    owner * len(train) + rank, so one searchsorted over the sorted keys
    cuts every window. Keys stay below n_users * len(train), which is exact
    in int64 for any log that fits in memory.
    """
    n = len(train.ts)
    by_time = np.lexsort((train.item, train.ts))
    rank = np.argsort(by_time)
    pair_owner, pair_nb = np.repeat(np.arange(social.counts.size), social.counts), social.ids
    own_events = np.bincount(train.user, minlength=int(pair_nb.max(initial=-1)) + 1)
    own_ranks = rank[np.argsort(train.user, kind="stable")]
    pair_events = own_events[pair_nb]
    keys = np.repeat(pair_owner * n, pair_events)
    keys += own_ranks[_ragged_arange(np.cumsum(own_events)[pair_nb] - pair_events,
                                     pair_events)]
    keys.sort()

    time_sorted = train.ts[by_time]
    base = owner * n
    stop = np.searchsorted(keys, base + np.searchsorted(time_sorted, hi))
    start = np.maximum(np.searchsorted(keys, base + np.searchsorted(time_sorted, lo)),
                       stop - l_n)
    counts = stop - start
    ranks = keys[_ragged_arange(start, counts)] - np.repeat(base, counts)
    return counts, train.item[by_time[ranks]]


def extract_time_restricted_walks(queries: Events, train: Events, tau_seconds: int,
                                  cap: int) -> np.ndarray:
    """Has-walk bit (uint8) of every query event.

    Entry k is 1 when a user other than queries.user[k] has an event in
    `train` on queries.item[k] within tau_seconds of queries.ts[k], both
    ends included, and cap >= 1; else 0. Only `train` is searched, so
    held-out targets never count.

    The co-user events are the item's events in the window minus the
    user's own: one searchsorted pair over the training events sorted by
    (item, ts) and one over them sorted by (user, item, ts). The sort keys
    are int64, a group's dense rank times the time span plus the time
    offset; a corpus whose keys cannot be exact raises ValueError.
    """
    n_train = len(train.ts)
    if cap < 1 or not len(queries.ts) or not n_train:
        return np.zeros(len(queries.ts), dtype=np.uint8)
    user = np.concatenate([train.user, queries.user])   # ranks shared by both
    item = np.concatenate([train.item, queries.item])
    stamp = np.concatenate([train.ts, queries.ts])
    first = int(stamp.min())
    if int(stamp.max()) - first > _INT64_MAX:
        raise ValueError("the timestamps span more than 2**63 - 1 seconds")
    stamp = stamp - first                  # wraps, so exact: the true value fits
    span = int(stamp[:n_train].max()) + 1
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
    return (_window_counts(item, stamp, n_train, tau, span)
            > _window_counts(pair, stamp, n_train, tau, span)).astype(np.uint8)


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


def _user_records(ds: PreparedDataset) -> list[UserRecord]:
    """`ds.users`; its lists share the int objects of one array of item ids."""
    shared = np.arange(ds.n_items).astype(object)
    items, ts, walks = shared[ds.items].tolist(), ds.ts.tolist(), ds.walks.tolist()
    flat, ends = shared[ds.buckets].tolist(), ds.bucket_start.tolist()
    windows = [flat[a:b] for a, b in zip(ends, ends[1:])]
    starts = zip(ds.item_start.tolist(), ds.step_start.tolist(), ds.seq_len.tolist())
    return [UserRecord(
        seq_items=items[e:e + n], seq_ts=ts[e:e + n], val_item=items[e + n], val_ts=ts[e + n],
        test_item=items[e + n + 1], test_ts=ts[e + n + 1], buckets=windows[w:w + n - 1],
        bucket_val=windows[w + n - 1], bucket_gap=windows[w + n], walks=walks[w:w + n],
        walks_val=walks[w + n]) for e, w, n in starts]


# The snapshot's arrays and their dtypes; `social_len` and `social` hold the adjacency.
_ARRAYS = {"seq_len": np.int32, "items": np.int32, "ts": np.int64, "walks": np.uint8,
           "bucket_len": np.int32, "buckets": np.int32, "social_len": np.int32,
           "social": np.int32}


@dataclass(eq=False)
class PreparedDataset:
    """The prepared corpus: the snapshot's arrays (`_ARRAYS`) as `save` writes
    them; `social` holds `social_len` and `social` as its counts and ids.

    User u's items and times (`items`, `ts`) start at item_start[u]: its
    n = seq_len[u] training events, then the validation and the test event.
    Its walk bits and bucket sizes (`walks`, `bucket_len`) start at
    step_start[u]: a bit per training event, then the validation event's,
    and the n - 1 step buckets, then the validation and the gap bucket;
    bucket k's items start at buckets[bucket_start[k]]. Step s reads the
    first s items and buckets and walk bit s - 1, so a split is a prefix:
    training steps run to n - 1, validation to n and test to n + 1.
    """

    n_users: int
    n_items: int
    seq_len: np.ndarray
    items: np.ndarray
    ts: np.ndarray
    walks: np.ndarray
    bucket_len: np.ndarray
    buckets: np.ndarray
    social: SocialGraph
    config: dict
    user_ids: list[str]
    item_ids: list[str]
    n_interactions: int

    def __post_init__(self) -> None:
        for name in _ARRAYS.keys() - {"social_len", "social"}:
            setattr(self, name, np.asarray(getattr(self, name), _ARRAYS[name]))
        steps = self.seq_len.astype(np.intp) + 1       # walk bits and buckets per user
        self.step_start = np.cumsum(steps) - steps
        self.item_start = self.step_start + np.arange(self.n_users)   # one more item each
        self.bucket_start = np.concatenate([[0], np.cumsum(self.bucket_len, dtype=np.intp)])

    users = cached_property(_user_records)   # per-user lists, for readers outside tea

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
        """Write dataset.npz and the raw-id sidecars. The arrays pass `load`'s
        checks before anything is written."""
        path = os.path.join(out_dir, SNAPSHOT_FILE)
        arrays = {name: getattr(self, name)
                  for name in _ARRAYS.keys() - {"social_len", "social"}}
        arrays.update(social_len=self.social.counts, social=self.social.ids)
        head = {"format": SNAPSHOT_FORMAT, "n_users": self.n_users,
                "n_items": self.n_items, "n_interactions": self.n_interactions,
                "config": self.config}
        _check_snapshot(path, head, arrays)
        arrays["header"] = np.frombuffer(json.dumps(head, sort_keys=True).encode(), np.uint8)
        os.makedirs(out_dir, exist_ok=True)
        # Each entry keeps ZipInfo's fixed 1980 date; np.savez would stamp the
        # clock time, and the same dataset would not always give the same bytes.
        with zipfile.ZipFile(path, "w") as zf:
            for name in sorted(arrays):
                with zf.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, arrays[name], allow_pickle=False)
        for fname, ids in (("user_ids.tsv", self.user_ids),
                           ("item_ids.tsv", self.item_ids)):
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
                fh.write("".join(f"{raw}\t{dense}\n" for dense, raw in enumerate(ids)))

    @classmethod
    def load(cls, out_dir) -> "PreparedDataset":
        path = os.path.join(out_dir, SNAPSHOT_FILE)
        old = os.path.join(out_dir, "dataset.json")     # tea-dataset-1 and -2
        if not os.path.exists(path):
            if os.path.exists(old):
                raise ValueError(f"{old}: a JSON snapshot of an older format, not "
                                 f"{SNAPSHOT_FORMAT}; re-run `tea prepare` to rebuild it")
            raise FileNotFoundError(path)
        arrays, where = {}, "the file"
        with open(path, "rb") as fh:
            try:
                npz = np.load(fh, allow_pickle=False)
                where = "the header"
                head = json.loads(bytes(npz["header"]).decode("utf-8"))
                found = head.get("format") if isinstance(head, dict) else None
                for name in _ARRAYS if found == SNAPSHOT_FORMAT else ():
                    where = f"array {name!r}"
                    arrays[name] = npz[name]
            except KeyError:
                raise ValueError(f"{path}: {where} missing") from None
            except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
                raise ValueError(f"{path}: {where} unreadable "
                                 f"({type(exc).__name__}: {exc})") from None
        if found != SNAPSHOT_FORMAT:
            raise ValueError(f"{path}: snapshot format {found!r}, expected "
                             f"{SNAPSHOT_FORMAT!r}; re-run `tea prepare` to rebuild it")
        _check_snapshot(path, head, arrays)
        n_users, n_items = head["n_users"], head["n_items"]
        social = SocialGraph(arrays.pop("social_len"), arrays.pop("social"))
        ids = []
        for fname, n in (("user_ids.tsv", n_users), ("item_ids.tsv", n_items)):
            side_path, raws = os.path.join(out_dir, fname), []
            with open(side_path, "r", encoding="utf-8") as fh:
                for k, line in enumerate(fh):       # save writes dense id k on line k + 1
                    raw = line.partition("\t")[0]
                    if line.rstrip("\n") != f"{raw}\t{k}" or k >= n:
                        raise ParseError(side_path, k + 1, f"expected 'raw_id<TAB>{k}', "
                                         f"one line per id in order, {n} ids in {path}")
                    raws.append(raw)
            if len(raws) < n:
                raise ValueError(f"{side_path}: {len(raws)} ids, expected {n}")
            ids.append(raws)
        return cls(n_users, n_items, **arrays, social=social, config=head["config"],
                   user_ids=ids[0], item_ids=ids[1], n_interactions=head["n_interactions"])


def _check_snapshot(path, head: dict, arrays: dict) -> None:
    """Reject a snapshot the scorer would index out of range.

    Each array needs its dtype, one dimension and as many entries as the
    counts give, and entries within bounds: item ids below n_items, user
    ids below n_users, 1..l_s training events per user, walk bits 0 or 1
    and no negative count. Each user's neighbor list is strictly increasing,
    leaves out the user and is mirrored: u lists v iff v lists u. A bad
    entry names its user.
    """
    config = head.get("config")
    fields = {key: head.get(key) for key in ("n_users", "n_items", "n_interactions")}
    fields["config l_s"] = config.get("l_s") if isinstance(config, dict) else None
    for key, value in fields.items():
        if type(value) is not int or value < 0:
            raise ValueError(f"{path}: header field {key!r} is {value!r}, "
                             "expected an integer >= 0")
    n_users, n_items, l_s = fields["n_users"], fields["n_items"], fields["config l_s"]

    def check(name: str, per_user: np.ndarray, what: str, lo: float = 0,
              hi: float = np.inf) -> np.ndarray:
        """arrays[name], where user u owns per_user[u] entries in [lo, hi)."""
        a, length = arrays[name], int(per_user.sum())
        if a.dtype != _ARRAYS[name] or a.shape != (length,):
            raise ValueError(f"{path}: array {name!r} is {a.dtype} of shape {a.shape}, "
                             f"expected {np.dtype(_ARRAYS[name])} of shape ({length},)")
        bad = (a < lo) | (a >= hi)
        if bad.any():
            k = int(bad.argmax())
            user = int(np.searchsorted(np.cumsum(per_user), k, "right"))
            raise ValueError(f"{path}: user {user} has {what} {a[k]}, outside [{lo}, {hi})")
        return a.astype(np.int64)

    one = np.ones(n_users, dtype=np.int64)
    seq_len = check("seq_len", one, "training event count", 1, l_s + 1)
    check("items", seq_len + 2, "item id", 0, n_items)
    check("ts", seq_len + 2, "timestamp", -np.inf)
    check("walks", seq_len + 1, "walk bit", 0, 2)
    bucket_len = check("bucket_len", seq_len + 1, "bucket size")
    check("buckets", np.add.reduceat(bucket_len, np.cumsum(seq_len + 1) - seq_len - 1),
          "item id", 0, n_items)
    social_len = check("social_len", one, "neighbor count")
    social = check("social", social_len, "user id", 0, n_users)
    owner = np.repeat(np.arange(n_users), social_len)
    keys = owner * n_users + social       # increasing iff every list is
    back = social * n_users + owner
    for bad, what in ((np.diff(keys, prepend=-1) <= 0, " out of order or twice"),
                      (social == owner, " as its own neighbor"),
                      (np.append(keys, -1)[np.searchsorted(keys, back)] != back,
                       ", which does not list it back")):
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"{path}: user {owner[k]} lists user {social[k]}{what}")


def prepare_dataset(interactions_path, social_path, min_actions: int = 5,
                    rating_threshold: float = 3.0, tau_days: int = 60,
                    l_s: int = 50, l_n: int = 20, walk_cap: int = 10,
                    seed: int = 0) -> PreparedDataset:
    """Full ingestion pipeline from raw files to a PreparedDataset.

    Window settings that would write a snapshot `train` rejects, or silently
    change what the windows hold, raise a ValueError naming the flag.

    Each user's events sort stably by time (ties keep log order): the
    latest is the test target, the one before it the validation target,
    the rest train, and the newest l_s of those form the sequence.
    """
    for flag, value, least in (("--ls", l_s, 1), ("--ln", l_n, 1),
                               ("--walk-cap", walk_cap, 0), ("--tau-days", tau_days, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    loaded = load_interactions(interactions_path)
    filtered = preprocess(loaded.events, loaded.rating, min_actions, rating_threshold)
    user_ids = [loaded.user_ids[u] for u in filtered.users.tolist()]
    item_ids = [loaded.item_ids[v] for v in filtered.items.tolist()]
    social = load_social_edges(social_path, {raw: u for u, raw in enumerate(user_ids)})

    events = filtered.events
    order = np.lexsort((events.ts, events.user))
    counts = np.bincount(events.user)
    seq_len = np.minimum(counts - 2, l_s)
    user = events.user[order]
    back = np.cumsum(counts)[user] - np.arange(len(order))   # 1: test, 2: validation
    in_segment = back <= seq_len[user] + 2                   # sequence, val, test
    segment = events.take(order[in_segment])
    train = events.take(order[back > 2])
    step = np.flatnonzero(in_segment & (back > 1))           # sequence and val
    queries = events.take(order[step])
    # A user's bucket windows run from each of these events to its next one.
    bucket_len, buckets = build_neighbor_item_buckets(
        queries.user, queries.ts, events.ts[order[step + 1]], train, social, l_n)
    # One has-walk bit per training event in the sequence, then one for the
    # validation event; only training events count as co-interactions.
    try:
        walks = extract_time_restricted_walks(queries, train, tau_days * DAY_SECONDS,
                                              walk_cap)
    except ValueError as exc:
        raise ValueError(f"{interactions_path}: {exc}") from None
    config = {"min_actions": min_actions, "rating_threshold": rating_threshold,
              "tau_days": tau_days, "l_s": l_s, "l_n": l_n, "walk_cap": walk_cap,
              "seed": seed}
    return PreparedDataset(len(user_ids), len(item_ids), seq_len, segment.item, segment.ts,
                           walks, bucket_len, buckets, social, config, user_ids, item_ids,
                           len(events.ts))
