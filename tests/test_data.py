"""Ingestion, filtering, splitting, buckets, walks, negative sampling."""

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tea
from tea.data import (DAY_SECONDS, SNAPSHOT_FILE, EmptyDatasetError, Events, ParseError,
                      PreparedDataset, build_neighbor_item_buckets,
                      extract_time_restricted_walks, load_interactions,
                      load_social_edges, preprocess, prepare_dataset, sample_negatives)

import oracles
from corpus import (SNAPSHOT_DEFECTS, cycle_corpus, edit_snapshot, follower_corpus,
                    neighbors_of, social_graph, write_corpus)
from oracles import co_interactors


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


class TestLoadInteractions:
    def test_field_mapping(self, tmp_path):
        p = _write(tmp_path / "x.tsv", ["u1\tv3\t1546300800\t5"])
        res = load_interactions(p)
        ev = res.events
        assert (ev.user.tolist(), ev.item.tolist(), ev.ts.tolist()) == ([0], [0], [1546300800])
        assert res.rating.tolist() == [5.0] and ev.ts.dtype == np.int64
        assert res.user_ids == ["u1"] and res.item_ids == ["v3"]

    def test_two_fields_is_parse_error_with_line(self, tmp_path):
        p = _write(tmp_path / "x.tsv", ["u1\tv3\t100", "u2\tv4"])
        with pytest.raises(ParseError, match=r":2:"):
            load_interactions(p)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path / "x.tsv", [])
        assert load_interactions(p).events.ts.shape == (0,)

    def test_comments_and_optional_rating(self, tmp_path):
        p = _write(tmp_path / "x.tsv",
                   ["# header", "u1\tv1\t10", "u1\tv2\t20\t4.5"])
        rating = load_interactions(p).rating
        assert np.isnan(rating[0]) and rating[1] == 4.5

    def test_duplicates_kept(self, tmp_path):
        p = _write(tmp_path / "x.tsv", ["u1\tv1\t10", "u1\tv1\t10"])
        assert len(load_interactions(p).events.ts) == 2

    def test_compaction_is_bijection(self, tmp_path):
        p = _write(tmp_path / "x.tsv",
                   [f"user_{i % 7}\titem_{i % 5}\t{i}" for i in range(30)])
        res = load_interactions(p)
        assert res.user_ids == [f"user_{i}" for i in range(7)]
        assert res.item_ids == [f"item_{i}" for i in range(5)]
        assert res.events.user.tolist() == [i % 7 for i in range(30)]
        assert res.events.item.tolist() == [i % 5 for i in range(30)]

    @pytest.mark.parametrize("threshold, kept", [
        (3.0, "abef"), (float("inf"), "ab"), (float("nan"), "ab"), (-float("inf"), "abdef"),
    ])
    def test_rating_and_timestamp_syntax_keep_the_events(self, tmp_path, threshold, kept):
        """Ratings absent, empty, nan, 3, 3.0000001 and inf, and timestamps
        written ' 12', '+5' and '1_000', read as int() and float() read them:
        an unrated row always passes, a nan rating never does."""
        p = _write(tmp_path / "x.tsv", ["u\ta\t 12", "u\tb\t+5\t", "u\tc\t1_000\tnan",
                                        "u\td\t7\t3", "u\te\t8\t3.0000001",
                                        "u\tf\t9\tinf", "u\tg\t20", "u\th\t21", "u\ti\t22"])
        res = load_interactions(p)
        assert res.events.ts.tolist() == [12, 5, 1000, 7, 8, 9, 20, 21, 22]
        out = preprocess(res.events, res.rating, min_actions=1, rating_threshold=threshold)
        assert "".join(res.item_ids[v] for v in out.items) == kept + "ghi"
        stamp = dict(zip("abcdefghi", res.events.ts.tolist()))
        assert out.events.ts.tolist() == [stamp[v] for v in kept + "ghi"]

    def test_dense_ids_in_first_appearance_order(self, tmp_path):
        """The parse numbers ids as they first appear in the log, and prepare
        renumbers the survivors as they first appear among surviving rows."""
        rows = [("z", "q", 9), ("drop", "r", 1), ("a", "p", 8), ("z", "r", 7), ("m", "p", 3),
                ("a", "q", 5), ("m", "r", 2), ("z", "p", 6), ("a", "r", 1), ("m", "q", 4)]
        inter, social = write_corpus(str(tmp_path), rows, [])
        res = load_interactions(inter)
        assert res.user_ids == ["z", "drop", "a", "m"] and res.item_ids == ["q", "r", "p"]
        assert res.events.user.tolist() == [0, 1, 2, 0, 3, 2, 3, 0, 2, 3]
        ds = prepare_dataset(inter, social, min_actions=1)
        assert ds.user_ids == ["z", "a", "m"] and ds.item_ids == ["q", "p", "r"]


class TestLoadSocial:
    def test_symmetrization(self, tmp_path):
        p = _write(tmp_path / "s.tsv", ["a\tb"])
        g = load_social_edges(p, {"a": 0, "b": 1})
        assert neighbors_of(g, 0) == [1] and neighbors_of(g, 1) == [0]

    def test_self_loop_skipped(self, tmp_path):
        p = _write(tmp_path / "s.tsv", ["a\ta"])
        g = load_social_edges(p, {"a": 0})
        assert neighbors_of(g, 0) == []

    def test_duplicate_edge_stored_once(self, tmp_path):
        p = _write(tmp_path / "s.tsv", ["a\tb", "b\ta", "a\tb"])
        g = load_social_edges(p, {"a": 0, "b": 1})
        assert neighbors_of(g, 0) == [1] and g.edge_count() == 1

    def test_unknown_users_dropped(self, tmp_path):
        p = _write(tmp_path / "s.tsv", ["a\tghost"])
        g = load_social_edges(p, {"a": 0})
        assert neighbors_of(g, 0) == []

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
           n_known=st.integers(0, 6), data=st.data())
    def test_arrays_equal_the_reference_parse(self, tmp_path, edges, n_known, data):
        """The graph's arrays hold the reference parse's sorted distinct lists
        under any dense numbering. Raw ids u0..u7, of which u0..u{n_known - 1}
        are known: each file also holds a self-loop, some edges repeated in
        the other direction, an edge to an unknown id, comment and blank
        lines, all shuffled."""
        raw = [(f"u{a}", f"u{b}") for a, b in edges]
        repeats = data.draw(st.lists(st.sampled_from(raw), max_size=5)) if raw else []
        lines = ([f"{a}\t{b}" for a, b in raw] + [f"{b}\t{a}" for a, b in repeats]
                 + ["u1\tu1", "u0\tghost", "", "# u0\tu1", "#"])
        lines = data.draw(st.permutations(lines))
        dense = data.draw(st.permutations(range(n_known)))
        user_index = {f"u{i}": d for i, d in enumerate(dense)}
        path = _write(tmp_path / "s.tsv", lines)
        g = load_social_edges(path, user_index)
        want = oracles.load_social_edges(path, user_index)
        assert g.counts.dtype == g.ids.dtype == np.int32
        assert g.counts.tolist() == [len(want.get(u, [])) for u in range(n_known)]
        assert g.ids.tolist() == [v for u in range(n_known) for v in want.get(u, [])]
        assert g.neighbors == want
        assert g.edge_count() == sum(map(len, want.values())) // 2

    def test_prepare_save_and_load_leave_numpy_ma_unimported(self, tmp_path):
        """A plain np.unique imports numpy.ma, about 1 MiB of resident memory;
        the pipeline from raw files to a loaded snapshot needs none of it."""
        script = (
            "import sys\n"
            "from corpus import cycle_corpus, write_corpus\n"
            "from tea.data import PreparedDataset, prepare_dataset\n"
            "rows, pairs = cycle_corpus(n_users=12, n_items=10, length=8)\n"
            f"files = write_corpus({str(tmp_path)!r}, rows, pairs)\n"
            "prepare_dataset(*files, l_s=10, l_n=4).save(sys.argv[1])\n"
            "PreparedDataset.load(sys.argv[1])\n"
            "print('numpy.ma' in sys.modules)\n")
        paths = [os.path.dirname(os.path.dirname(tea.__file__)), os.path.dirname(__file__)]
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "snap")],
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
                             capture_output=True, text=True, check=True).stdout
        assert out == "False\n"


def _cols(rows) -> Events:
    """Event columns from (user, item, ts) rows."""
    return Events(*(np.array(col, dtype=np.int64)
                    for col in (zip(*rows) if rows else ([], [], []))))


def _events(rows):
    """rows: list of (user, item, ts[, rating]) -> (columns, ratings, NaN for none)."""
    rating = [np.nan if len(row) < 4 or row[3] is None else row[3] for row in rows]
    return _cols([row[:3] for row in rows]), np.array(rating, dtype=np.float64)


class TestPreprocess:
    def test_rating_binarization_boundary(self):
        events = _events([(0, i, t, 4.0) for t, i in enumerate(range(5))]
                         + [(0, 9, 99, 3.0)]
                         + [(u, i, 10 + u + i, None)
                            for u in range(1, 6) for i in range(5)])
        res = preprocess(*events, min_actions=1, rating_threshold=3)
        assert set(res.items.tolist()) == set(range(5))   # item 9 only had the 3.0
        assert np.count_nonzero(res.users[res.events.user] == 0) == 5   # the 4.0s

    def test_sparse_user_removed(self):
        # user 9 has only 4 events; everyone else is dense
        events = _events([(u, i, u * 10 + i) for u in range(5) for i in range(5)]
                         + [(9, i, 100 + i) for i in range(4)])
        res = preprocess(*events)
        users = set(res.events.user.tolist())
        assert len(users) == 5  # compacted 0..4, user 9 gone
        assert users == set(range(5)) and 9 not in res.users

    def test_fixpoint_min_counts(self):
        rng = np.random.default_rng(0)
        events = _events([(int(rng.integers(0, 12)), int(rng.integers(0, 12)), t)
                          for t in range(150)])
        res = preprocess(*events)
        assert np.bincount(res.events.user).min() >= 5
        assert np.bincount(res.events.item).min() >= 5

    def test_everything_filtered_raises(self):
        with pytest.raises(EmptyDatasetError):
            preprocess(*_events([(0, 0, 1), (0, 1, 2)]), min_actions=1000)

    def test_users_need_three_events_for_leave_one_out(self):
        # min_actions=1 keeps every item, but users 1 (one event) and 2 (two
        # events) cannot give up a validation and a test event and still
        # train on one
        events = _events([(0, i, i) for i in range(3)] + [(1, 0, 10)]
                         + [(2, 1, 20), (2, 2, 21)])
        res = preprocess(*events, min_actions=1)
        assert res.users.tolist() == [0]
        assert len(res.events.ts) == 3

    def test_prepare_with_min_actions_one(self, tmp_path):
        rows, pairs = cycle_corpus(n_users=6, n_items=10, length=5)
        rows += [("short1", "v0", 1_600_000_000), ("short2", "v1", 1_600_000_000),
                 ("short2", "v2", 1_600_000_100)]
        inter, social = write_corpus(str(tmp_path), rows, pairs)
        ds = prepare_dataset(inter, social, min_actions=1, l_s=10, l_n=4)
        assert ds.user_ids == [f"u{u}" for u in range(6)]
        assert all(len(rec.seq_items) == 3 for rec in ds.users)

    def test_remap_is_bijection(self):
        events = _events([(u, i, u + i) for u in range(8) for i in range(8)])
        res = preprocess(*events)
        for new, old in ((res.events.user, res.users), (res.events.item, res.items)):
            assert len(set(old.tolist())) == len(old)
            assert np.array_equal(np.unique(new), np.arange(len(old)))


def _prepare(tmp_path, rows, pairs=(), **kwargs):
    """prepare_dataset(min_actions=1) over (user, item, ts) rows of ints,
    written as users u<n> and items v<n>."""
    inter, social = write_corpus(str(tmp_path), [(f"u{u}", f"v{i}", ts) for u, i, ts in rows],
                                 [(f"u{a}", f"u{b}") for a, b in pairs])
    return prepare_dataset(inter, social, min_actions=1, **kwargs)


def _raw(ds, items):
    """The raw item numbers of dense item ids."""
    return [int(ds.item_ids[i][1:]) for i in items]


class TestSplit:
    """Leave-one-out, through prepare_dataset's one stable sort by (user, ts)."""

    def test_latest_and_second_latest_held_out(self, tmp_path):
        ds = _prepare(tmp_path, [(0, i, 10 * (i + 1)) for i in range(5)])
        rec = ds.users[0]
        assert _raw(ds, rec.seq_items) == [0, 1, 2]
        assert _raw(ds, [rec.val_item, rec.test_item]) == [3, 4]

    def test_ties_break_by_input_order(self, tmp_path):
        ds = _prepare(tmp_path, [(0, 0, 5), (0, 1, 5), (0, 2, 5)])
        rec = ds.users[0]
        assert _raw(ds, [rec.test_item, rec.val_item]) == [2, 1]
        assert _raw(ds, rec.seq_items) == [0]

    def test_five_interactions_leave_three_train(self, tmp_path):
        ds = _prepare(tmp_path, [(0, i, i) for i in range(5)])
        assert len(ds.users[0].seq_items) == 3

    def test_per_user_timestamp_ordering(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [(int(rng.integers(0, 4)), int(rng.integers(0, 9)),
                 int(rng.integers(0, 10_000))) for _ in range(200)]
        ds = _prepare(tmp_path, rows, l_s=1000)
        assert sum(len(rec.seq_ts) + 2 for rec in ds.users) == 200
        for rec in ds.users:
            assert rec.seq_ts == sorted(rec.seq_ts)
            assert max(rec.seq_ts) <= rec.val_ts <= rec.test_ts


class TestSequences:
    def test_short_history_unchanged(self, tmp_path):
        ds = _prepare(tmp_path, [(0, i, i) for i in range(5)], l_s=50)
        assert _raw(ds, ds.users[0].seq_items) == [0, 1, 2]

    def test_long_history_keeps_most_recent(self, tmp_path):
        ds = _prepare(tmp_path, [(0, i, i) for i in range(62)], l_s=50)
        assert len(ds.users[0].seq_items) == 50
        assert _raw(ds, ds.users[0].seq_items) == list(range(10, 60))

    def test_order_preserved(self, tmp_path):
        rng = np.random.default_rng(1)
        ts = rng.permutation(102).tolist()
        ds = _prepare(tmp_path, [(0, i, ts[i]) for i in range(102)], l_s=30)
        out = ds.users[0].seq_ts
        assert out == sorted(out) and len(out) == 30
        assert out == sorted(ts)[-32:-2]


def _buckets(seq_ts, val_ts, test_ts, neighbor_events, l_n):
    """build_neighbor_item_buckets for one user (0) whose one neighbor (1) has
    the (ts, item) training events, as (buckets, bucket_val, bucket_gap)."""
    bounds = np.array(list(seq_ts) + [val_ts, test_ts], dtype=np.int64)
    counts, items = build_neighbor_item_buckets(
        np.zeros(len(bounds) - 1, dtype=np.int64), bounds[:-1], bounds[1:],
        _cols([(1, item, ts) for ts, item in neighbor_events]),
        social_graph({0: [1], 1: [0]}, 2), l_n)
    ends = np.cumsum(counts).tolist()
    windows = [items[a:b].tolist() for a, b in zip([0] + ends, ends)]
    return windows[:-2], windows[-2], windows[-1]


def _window(neighbor_events, lo, hi, l_n):
    """The items of one window [lo, hi) over one neighbor's (ts, item) events."""
    return _buckets([lo], hi, hi, neighbor_events, l_n)[1]


class TestBuckets:
    def test_event_inside_window_included(self):
        buckets, b_val, b_gap = _buckets([100, 200], val_ts=300, test_ts=400,
                                         neighbor_events=[(150, 7)], l_n=20)
        assert buckets == [[7]] and b_val == [] and b_gap == []

    def test_no_neighbors_every_bucket_empty(self):
        buckets, b_val, b_gap = _buckets([100, 200, 250], 300, 400,
                                         neighbor_events=[], l_n=20)
        assert buckets == [[], []] and b_val == [] and b_gap == []

    def test_truncation_keeps_most_recent(self):
        events = [(100 + i, i) for i in range(25)]
        out = _window(events, 100, 200, l_n=20)
        assert out == list(range(5, 25))

    def test_window_is_half_open(self):
        events = [(100, 1), (200, 2)]
        assert _window(events, 100, 200, 10) == [1]

    def test_val_and_gap_windows(self):
        _, b_val, b_gap = _buckets([100], val_ts=300, test_ts=500,
                                   neighbor_events=[(150, 5), (350, 6)], l_n=20)
        assert b_val == [5] and b_gap == [6]

    @pytest.mark.parametrize("l_n", [1, 3])
    @pytest.mark.parametrize("corpus_seed", range(6))
    def test_every_window_equals_the_oracle(self, tmp_path, corpus_seed, l_n):
        """Every user's buckets, bucket_val and bucket_gap equal the per-user
        bisect reference over its neighbors' training events, and its
        sequence and held-out events equal a stable per-user sort of the log.

        Stamps are multiples of a minute, so events of different neighbors
        share a second; l_s = 4 truncates most sequences; the last three
        users have no neighbor; and neighbors' validation and test events
        fall inside windows, where they must not appear.
        """
        rng = np.random.default_rng(corpus_seed)
        n_users, n_items, unit, l_s = 16, 12, 60, 4
        rows = [(u, int(rng.integers(n_items)), unit * int(rng.integers(30)))
                for u in range(n_users) for _ in range(int(rng.integers(3, 10)))]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        pairs = {tuple(sorted(rng.choice(n_users - 3, 2, replace=False).tolist()))
                 for _ in range(20)}
        ds = _prepare(tmp_path, rows, sorted(pairs), l_s=l_s, l_n=l_n)
        assert ds.n_users == n_users
        dense = {raw: i for i, raw in enumerate(ds.item_ids)}
        log = {}
        for u, item, ts in rows:
            log.setdefault(f"u{u}", []).append((ts, dense[f"v{item}"]))
        events = [sorted(log[raw], key=lambda e: e[0]) for raw in ds.user_ids]
        train = [evs[:-2] for evs in events]
        seen = {"truncated": 0, "no neighbor": 0, "same second": 0, "held out inside": 0}
        for u, rec in enumerate(ds.users):
            assert list(zip(rec.seq_ts, rec.seq_items)) == train[u][-l_s:]
            assert [(rec.val_ts, rec.val_item), (rec.test_ts, rec.test_item)] == events[u][-2:]
            neighbor_events = sorted(e for nb in neighbors_of(ds.social, u) for e in train[nb])
            assert (rec.buckets, rec.bucket_val, rec.bucket_gap) == \
                oracles.build_neighbor_item_buckets(rec.seq_ts, rec.val_ts, rec.test_ts,
                                                    neighbor_events, l_n)
            seen["truncated"] += len(train[u]) > l_s
            seen["no neighbor"] += not neighbors_of(ds.social, u)
            stamps = [ts for ts, _ in neighbor_events]
            seen["same second"] += len(set(stamps)) < len(stamps)
            bounds = rec.seq_ts + [rec.val_ts, rec.test_ts]
            for nb in neighbors_of(ds.social, u):
                for ts, item in events[nb][-2:]:
                    seen["held out inside"] += any(
                        lo <= ts < hi and (ts, item) not in neighbor_events
                        for lo, hi in zip(bounds, bounds[1:]))
        assert all(seen.values()), seen


def _train(item_events):
    """Training event columns from an item -> time-sorted (ts, user) index."""
    return _cols([(u, item, ts) for item, events in item_events.items() for ts, u in events])


def _bit(user, item, ts, item_events, tau, cap=10):
    """The has-walk bit of one query event."""
    out = extract_time_restricted_walks(_cols([(user, item, ts)]), _train(item_events),
                                        tau, cap)
    return int(out[0])


class TestWalks:
    def test_within_window_included(self):
        tau = 60 * DAY_SECONDS
        events = {3: [(0, 0), (30 * DAY_SECONDS, 9)]}
        assert _bit(0, 3, 0, events, tau) == 1

    def test_sixty_one_days_excluded(self):
        tau = 60 * DAY_SECONDS
        events = {3: [(0, 0), (61 * DAY_SECONDS, 9)]}
        assert _bit(0, 3, 0, events, tau) == 0

    def test_boundary_inclusive(self):
        tau = 60 * DAY_SECONDS
        events = {3: [(0, 0), (60 * DAY_SECONDS, 9)]}
        assert _bit(0, 3, 0, events, tau) == 1
        assert _bit(9, 3, 120 * DAY_SECONDS, events, tau) == 0
        assert _bit(5, 3, -60 * DAY_SECONDS, events, tau) == 1

    def test_lonely_item_empty(self):
        walks = extract_time_restricted_walks(_cols([(0, 3, 100)]),
                                              _cols([(0, 3, 100), (0, 3, 100)]),
                                              tau_seconds=10, cap=10)
        assert walks.tolist() == [0]

    def test_bits_are_python_ints_in_the_queries_shape(self, prepared):
        """One uint8 bit per query event, in the queries' order; the records
        hold them as Python ints."""
        events = {1: [(5, 2), (9, 0)], 4: [(1, 3)]}
        queries = _cols([(0, 1, 5), (0, 4, 50), (3, 4, 1)])
        got = extract_time_restricted_walks(queries, _train(events), 10, 1)
        assert got.dtype == np.uint8 and got.tolist() == [1, 0, 0]
        assert extract_time_restricted_walks(_cols([]), _train(events), 10, 1).shape == (0,)
        assert all(type(bit) is int for rec in prepared.users
                   for bit in rec.walks + [rec.walks_val])

    @pytest.mark.parametrize("cap", [0, 1, 3, 10])
    @pytest.mark.parametrize("corpus_seed", range(8))
    def test_sweep_equals_the_oracle(self, corpus_seed, cap):
        """Every query's bit is bool(brute-force walk set) of a seeded corpus.

        Timestamps are whole multiples of tau's unit, so events tie and land
        exactly at +-tau; (user, item) pairs repeat; each user queries its own
        events, and validation-like events, some on items without training
        events. Those extra events are queries only: they must never count.
        """
        rng = np.random.default_rng(corpus_seed)
        n_users, n_items, unit = 24, 5, 7
        tau = unit * (corpus_seed % 4)
        item_events: dict[int, list[tuple[int, int]]] = {}
        for _ in range(160):
            item = int(rng.integers(n_items))
            item_events.setdefault(item, []).append(
                (unit * int(rng.integers(12)), int(rng.integers(n_users))))
        for events in item_events.values():
            events.sort()
        queries = []
        for user in range(n_users):
            own = [(u, item, ts) for item, events in item_events.items()
                   for ts, u in events if u == user]
            extra = [(user, int(rng.integers(n_items + 2)),
                      unit * int(rng.integers(-1, 13)) + int(rng.integers(2)))
                     for _ in range(3)]
            queries.append([own[i] for i in rng.permutation(len(own))] + extra)
        train = _train(item_events)
        flat = [q for events in queries for q in events]
        got = extract_time_restricted_walks(
            _cols(flat), train.take(rng.permutation(len(train.ts))), tau, cap).tolist()
        assert len(got) == len(flat)
        bits = iter(got)
        for events in queries:
            for tag, (user, item, ts) in enumerate(events):
                assert next(bits) == bool(co_interactors(user, item, ts, item_events,
                                                         tau, cap, corpus_seed, tag))
        ones = sum(got)
        assert ones == 0 if cap == 0 else 0 < ones < len(got)

    def test_held_out_events_never_count(self, tmp_path):
        """Other users' validation and test events on the query's item, inside
        its window, leave the bit at 0; a training event sets it."""
        rows = [("a", "X", 100), ("a", "Z", 200), ("a", "Y", 300), ("a", "W", 400),
                ("b", "V", 50), ("b", "U", 60), ("b", "X", 150), ("b", "Y", 310),
                ("c", "Z", 210), ("c", "U", 220), ("c", "V", 230), ("c", "T", 240)]
        inter, social = write_corpus(str(tmp_path), rows, [])
        ds = prepare_dataset(inter, social, min_actions=1, tau_days=1)
        got = {ds.user_ids[u]: (rec.walks, rec.walks_val) for u, rec in enumerate(ds.users)}
        assert got == {"a": ([0, 1], 0), "b": ([0, 1], 1), "c": ([1, 1], 1)}

    @pytest.mark.parametrize("cap", [1, 3, 10])
    def test_cap_and_seed_do_not_change_the_bits(self, tmp_path, cap):
        """Any cap >= 1 and any seed give the same bits; cap 0 clears them."""
        rows, pairs = follower_corpus()
        inter, social = write_corpus(str(tmp_path), rows, pairs)
        def bits(cap, seed):
            ds = prepare_dataset(inter, social, tau_days=1, walk_cap=cap, seed=seed)
            return [rec.walks + [rec.walks_val] for rec in ds.users]

        want = bits(1, 0)
        assert bits(cap, 9) == want
        assert 0 < sum(map(sum, want)) < sum(map(len, want))
        assert not any(map(any, bits(0, 0)))

    @pytest.mark.parametrize("late", [10 ** 19, 2 ** 63 - 5])
    def test_keys_out_of_int64_range_name_the_file(self, tmp_path, late):
        """A stamp past int64, or training stamps too far apart for exact
        keys, raise a ValueError naming the interactions file."""
        rows = [(f"u{u}", f"v{i}", late * (u == 2) + i) for u in range(3) for i in range(5)]
        inter, social = write_corpus(str(tmp_path), rows, [])
        with pytest.raises(ValueError, match=r"interactions\.tsv: .*int64"):
            prepare_dataset(inter, social, min_actions=1)

    def test_keys_at_the_edge_of_int64_are_exact(self):
        """Query stamps up to 2**63 - 1, a tau past int64 and windows clipped
        at both ends of the training span still count exactly."""
        top, s = 2 ** 63 - 1, 2 ** 61
        train = _cols([(0, 0, 0), (1, 0, s)])
        queries = _cols([(2, 0, 0), (2, 0, s // 2), (2, 0, top)])
        walks = lambda tau: extract_time_restricted_walks(queries, train, tau, 1).tolist()
        assert walks(0) == [1, 0, 0]
        assert walks(s // 2) == [1, 1, 0]
        assert walks(top - s - 1) == [1, 1, 0]
        assert walks(top - s) == [1, 1, 1]
        assert walks(10 ** 30) == [1, 1, 1]
        # Keys count from the earliest stamp, so late and negative stamps fit.
        for first in (top - 5, -10):
            train = _cols([(0, 0, first), (1, 1, first + 5)])
            queries = _cols([(2, 0, first + 2), (2, 1, first + 2)])
            assert extract_time_restricted_walks(queries, train, 2, 1).tolist() == [1, 0]

    @pytest.mark.parametrize("corpus, cap, digest", [
        ("cycle", 10, "b4607610290e6513cb726f5a36cdb85471e38d4dc77521c5352cdf2b51d57cbb"),
        ("cycle", 3, "7da130cfe6aad2a0ebc58c551b88204983becb0df2bf69048db5088be59510e3"),
        ("follower", 10, "8d9525088378104774e93a090001c1bc6ee9f7bd411bb8f6adbc3896b35489cf"),
        ("follower", 3, "e9a68d809cdb9c4d082807892f90be3b88dee8311d5cb3f181c8102cbcbaf073"),
    ], ids=["cycle-10", "cycle-3", "follower-10", "follower-3"])
    def test_snapshot_bytes_are_pinned(self, tmp_path, corpus, cap, digest):
        """dataset.npz of the test corpora, walk bits included, stays byte for byte."""
        rows, pairs = cycle_corpus() if corpus == "cycle" else follower_corpus()
        inter, social = write_corpus(str(tmp_path), rows, pairs)
        ds = prepare_dataset(inter, social, walk_cap=cap, seed=4)
        assert sum(sum(rec.walks) for rec in ds.users) >= 1200
        ds.save(str(tmp_path / "snap"))
        data = (tmp_path / "snap" / SNAPSHOT_FILE).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestNegativeSampling:
    def test_never_draws_the_positive(self):
        rng = np.random.default_rng(0)
        out = sample_negatives(17, 1000, 50, rng)
        assert len(out) == 50 and 17 not in out
        assert all(0 <= x < 1000 for x in out)

    def test_same_seed_identical(self):
        a = sample_negatives(3, 100, 50, np.random.default_rng(9))
        b = sample_negatives(3, 100, 50, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_equals_the_per_draw_shift(self):
        """One integers call for all positives; each row's draws shifted past
        its positive one by one."""
        positives = np.array([0, 999, 7, 500])
        draws = np.random.default_rng(5).integers(0, 999, size=(4, 50))
        want = [[int(x) + (1 if x >= pos else 0) for x in row]
                for pos, row in zip(positives.tolist(), draws)]
        got = sample_negatives(positives, 1000, 50, np.random.default_rng(5))
        assert got.shape == (4, 50) and got.tolist() == want

    def test_two_items_forced(self):
        out = sample_negatives(0, 2, 50, np.random.default_rng(0))
        assert out.tolist() == [1] * 50

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            sample_negatives(0, 1, 5, np.random.default_rng(0))

    def test_uniform_over_non_positive(self):
        rng = np.random.default_rng(42)
        draws = sample_negatives(2, 5, 40_000, rng)
        counts = np.bincount(draws, minlength=5)
        assert counts[2] == 0
        np.testing.assert_allclose(counts[[0, 1, 3, 4]] / 40_000, 0.25, atol=0.02)

    def test_user_negatives_chi_square_uniform(self):
        """All of a user's steps at once: every row is uniform over the items
        other than its positive (pooled chi-square, 4 sigma above its mean)."""
        n_items, n_s = 12, 3_000
        positives = np.array([0, 11, 5, 5, 3, 8])
        out = sample_negatives(positives, n_items, n_s, np.random.default_rng(23))
        counts = np.stack([np.bincount(row, minlength=n_items) for row in out])
        assert not counts[np.arange(positives.size), positives].any()
        others = counts[np.arange(n_items) != positives[:, None]]
        expected = n_s / (n_items - 1)
        chi2 = float(((others - expected) ** 2 / expected).sum())
        dof = positives.size * (n_items - 2)
        assert chi2 < dof + 4 * np.sqrt(2 * dof), chi2


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("prep")
    rows, pairs = cycle_corpus(n_users=12, n_items=10, length=8)
    inter, social = write_corpus(str(tmp), rows, pairs)
    return prepare_dataset(inter, social, l_s=10, l_n=4, seed=3)


class TestPreparedDataset:
    def test_counts(self, prepared):
        assert prepared.n_users == 12 and prepared.n_items == 10
        assert len(prepared.users) == 12

    def test_every_user_fully_split(self, prepared):
        # the >=5 filter plus leave-one-out guarantees 3 train events
        # alongside the two held-out targets
        for rec in prepared.users:
            assert len(rec.seq_items) >= 3
            assert rec.val_item is not None and rec.test_item is not None

    def test_structure_sizes(self, prepared):
        for rec in prepared.users:
            t = len(rec.seq_items)
            assert t == 6  # length 8 minus val and test
            assert len(rec.buckets) == t - 1
            assert len(rec.walks) == t
            assert rec.seq_ts == sorted(rec.seq_ts)
            assert max(rec.seq_ts) <= rec.val_ts <= rec.test_ts
            for bucket in rec.buckets + [rec.bucket_val, rec.bucket_gap]:
                assert len(bucket) <= 4

    def test_walks_exclude_held_out_events(self, prepared):
        # No bit may rely on val/test events: rebuild the training event index
        # (no sequence is truncated here) and recheck every bit against it.
        train_events = {}
        for u, rec in enumerate(prepared.users):
            for item, ts in zip(rec.seq_items, rec.seq_ts):
                train_events.setdefault(item, []).append((ts, u))
        for events in train_events.values():
            events.sort()
        tau = prepared.config["tau_days"] * DAY_SECONDS
        for u, rec in enumerate(prepared.users):
            queries = list(zip(rec.seq_items, rec.seq_ts)) + [(rec.val_item, rec.val_ts)]
            for (item, ts), bit in zip(queries, rec.walks + [rec.walks_val]):
                assert bit == bool(co_interactors(u, item, ts, train_events, tau, 1, 0, 0))

    def test_buckets_exclude_held_out_events(self, prepared):
        held_out = set()
        for u, rec in enumerate(prepared.users):
            held_out.add((u, rec.val_item, rec.val_ts))
            held_out.add((u, rec.test_item, rec.test_ts))
        # A neighbor's val/test event must never appear inside a bucket
        # window even when the timestamps line up.
        for u, rec in enumerate(prepared.users):
            neighbors = neighbors_of(prepared.social, u)
            windows = [(rec.seq_ts[t], rec.seq_ts[t + 1], rec.buckets[t])
                       for t in range(len(rec.buckets))]
            windows.append((rec.seq_ts[-1], rec.val_ts, rec.bucket_val))
            windows.append((rec.val_ts, rec.test_ts, rec.bucket_gap))
            for (nb_u, nb_item, nb_ts) in held_out:
                if nb_u not in neighbors:
                    continue
                for lo, hi, bucket in windows:
                    if lo <= nb_ts < hi:
                        # held-out event inside window: may appear only if a
                        # TRAIN event with the same item also lands there
                        others = [x for x in bucket if x == nb_item]
                        if others:
                            rec_nb = prepared.users[nb_u]
                            assert any(lo <= ts < hi and it == nb_item
                                       for it, ts in zip(rec_nb.seq_items,
                                                         rec_nb.seq_ts))

    def test_snapshot_bytes_repeat(self, prepared, tmp_path):
        """Saving twice writes the same bytes, and so does saving what was loaded."""
        def save(ds, name):
            ds.save(tmp_path / name)
            return {f: (tmp_path / name / f).read_bytes() for f in os.listdir(tmp_path / name)}

        first = save(prepared, "a")
        assert sorted(first) == [SNAPSHOT_FILE, "item_ids.tsv", "user_ids.tsv"]
        assert save(prepared, "b") == first
        assert save(PreparedDataset.load(tmp_path / "a"), "c") == first

    def test_roundtrip_save_load(self, prepared, tmp_path):
        prepared.save(tmp_path / "snap")
        loaded = PreparedDataset.load(tmp_path / "snap")
        assert loaded.n_users == prepared.n_users
        assert loaded.n_items == prepared.n_items
        assert loaded.config == prepared.config
        for a, b in zip(loaded.users, prepared.users):
            assert a == b
        assert loaded.users == prepared.users
        assert loaded.social.neighbors == prepared.social.neighbors
        assert loaded.user_ids == prepared.user_ids
        assert loaded.stats() == prepared.stats()

    def _corrupt_snapshot(self, prepared, tmp_path, edit):
        """Save, then edit(head, arrays) the snapshot."""
        snap = tmp_path / "snap"
        prepared.save(snap)
        edit_snapshot(snap, edit)
        return snap

    @staticmethod
    def _offset(arrays, name, user):
        """Where the user's entries start in a per-user array of the snapshot."""
        extra = {"items": 2, "walks": 1, "bucket_len": 1}[name]
        return int((arrays["seq_len"][:user] + extra).sum())

    def test_load_rejects_out_of_range_item(self, prepared, tmp_path):
        def edit(head, arrays):
            arrays["items"][self._offset(arrays, "items", 3) + 1] = 10**6
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.npz: user 3 has item id 1000000"):
            PreparedDataset.load(snap)

    def test_load_rejects_out_of_range_user(self, prepared, tmp_path):
        def edit(head, arrays):
            arrays["social"][1] = 12               # user 0's second neighbor
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.npz: user 0 has user id 12"):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("defect, fault", [
        ("social-not-increasing", "user 0 lists user 1 out of order or twice"),
        ("social-repeated", "user 0 lists user 1 out of order or twice"),
        ("social-lists-itself", "user 0 lists user 0 as its own neighbor"),
        ("social-not-mirrored", "user 0 lists user 2, which does not list it back"),
    ], ids=["not-increasing", "repeated", "lists-itself", "not-mirrored"])
    def test_load_names_the_user_of_a_bad_neighbor_list(self, prepared, tmp_path,
                                                       defect, fault):
        """User 0 of the ring lists users 1 and 11. Reversed, the list is out
        of order; with 1 for 11 it repeats a user; with 0 for 1 it lists its
        user; with 2 for 1 it lists a user that lists 1 and 3."""
        snap = tmp_path / "snap"
        prepared.save(snap)
        SNAPSHOT_DEFECTS[defect](snap)
        with pytest.raises(ValueError, match=r"dataset\.npz: " + fault):
            PreparedDataset.load(snap)

    def test_load_rejects_short_buckets(self, prepared, tmp_path):
        """User 0 with 2 step buckets for 6 events: the bucket counts come up short."""
        def edit(head, arrays):
            arrays["bucket_len"] = np.delete(arrays["bucket_len"], [2, 3, 4])
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.npz: array 'bucket_len' is int32 "
                                             r"of shape \(81,\), expected int32 of shape \(84,\)"):
            PreparedDataset.load(snap)

    def test_load_rejects_short_walks(self, prepared, tmp_path):
        def edit(head, arrays):
            arrays["walks"] = np.delete(arrays["walks"], self._offset(arrays, "walks", 5))
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.npz: array 'walks' .* shape \(83,\), "
                                             r"expected uint8 of shape \(84,\)"):
            PreparedDataset.load(snap)

    def test_load_rejects_long_walks(self, prepared, tmp_path):
        def edit(head, arrays):
            arrays["walks"] = np.insert(arrays["walks"], self._offset(arrays, "walks", 2), 1)
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.npz: array 'walks' .* shape \(85,\)"):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("field, value", [
        ("walks", {str(t): 1 for t in range(6)}), ("walks", "010101"), ("buckets", 5),
        ("seq_items", 7), ("bucket_val", 3),
    ])
    def test_load_rejects_a_field_of_the_wrong_type(self, prepared, tmp_path, field, value):
        """The array that holds a field, replaced by np.asarray(value) (a 0-d
        int, a string, an object array that must not be unpickled), names
        the file and the array instead of a traceback."""
        array = {"seq_items": "items", "bucket_val": "bucket_len"}.get(field, field)
        def edit(head, arrays):
            arrays[array] = np.asarray(value)
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=rf"dataset\.npz: array '{array}' (is|unreadable)"):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("field", ["walks", "walks_val"])
    @pytest.mark.parametrize("bad", [2, -1, "1", True, 0.0, [3], None])
    def test_load_rejects_walk_entry_not_a_bit(self, prepared, tmp_path, field, bad):
        """A walk entry is a uint8 0 or 1. User 4's entry set to `bad`: a
        value that fits uint8 names the user and the bit; otherwise the array
        takes the dtype numpy gives the list (int64, str, float, object) and
        is rejected as an array of another dtype."""
        def edit(head, arrays):
            entries = arrays["walks"].tolist()
            entries[self._offset(arrays, "walks", 4) + (3 if field == "walks" else 6)] = bad
            fits = type(bad) is int and 0 <= bad < 256
            try:
                arrays["walks"] = np.array(entries, dtype=np.uint8 if fits else None)
            except ValueError:                       # [3] among ints is ragged
                arrays["walks"] = np.array(entries, dtype=object)
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        message = (r"user 4 has walk bit 2" if bad == 2 and type(bad) is int
                   else r"array 'walks' (is|unreadable)")
        with pytest.raises(ValueError, match=r"dataset\.npz: " + message):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("found", ["tea-dataset-1", "tea-dataset-2", None])
    def test_load_rejects_other_formats(self, prepared, tmp_path, found):
        """A snapshot of another format names the file and the tag it holds,
        and says how to rebuild it."""
        def edit(head, arrays):
            head["format"] = found
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.npz: snapshot format "
                           + re.escape(repr(found)) + r".*re-run `tea prepare`"):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("field", ["n_items", "walks"])
    def test_load_rejects_missing_field(self, prepared, tmp_path, field):
        def edit(head, arrays):
            del (head if field == "n_items" else arrays)[field]
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=rf"dataset\.npz.*'{field}'"):
            PreparedDataset.load(snap)

    def test_load_rejects_non_integer_count(self, prepared, tmp_path):
        def edit(head, arrays):
            head["n_items"] = "10"
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.npz.*'n_items' is '10'"):
            PreparedDataset.load(snap)

    def test_load_rejects_invalid_json(self, prepared, tmp_path):
        """The JSON header, cut short, names the file and the header."""
        def edit(head, arrays):
            arrays["header"] = np.frombuffer(json.dumps(head).encode()[:-10], np.uint8)
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.npz: the header unreadable"):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("defect", sorted(SNAPSHOT_DEFECTS))
    def test_load_rejects_a_damaged_snapshot(self, prepared, tmp_path, defect):
        """Each damage names the file in a ValueError, and unpickles nothing."""
        snap = tmp_path / "snap"
        prepared.save(snap)
        SNAPSHOT_DEFECTS[defect](snap)
        with pytest.raises(ValueError, match=re.escape(str(snap / SNAPSHOT_FILE)) + ": "):
            PreparedDataset.load(snap)
        assert not (snap / "unpickled").exists()

    def test_load_names_an_old_json_snapshot(self, prepared, tmp_path):
        """A directory that holds only an older dataset.json names that file."""
        (tmp_path / "dataset.json").write_text('{"format": "tea-dataset-2"}')
        with pytest.raises(ValueError, match=re.escape(str(tmp_path / "dataset.json"))
                           + r": .*re-run `tea prepare`"):
            PreparedDataset.load(tmp_path)
        with pytest.raises(FileNotFoundError, match=SNAPSHOT_FILE):
            PreparedDataset.load(tmp_path / "nothing")

    def test_load_rejects_sidecar_line_without_tab(self, prepared, tmp_path):
        snap = tmp_path / "snap"
        prepared.save(snap)
        (snap / "item_ids.tsv").write_text("0\t0\n1 1\n")
        with pytest.raises(ValueError, match=r"item_ids\.tsv:2"):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("dense", ["\u00b2", "\u0663", "+1", " 1", ""],
                             ids=["superscript", "arabic-indic", "sign", "space", "empty"])
    def test_load_rejects_sidecar_dense_id_not_in_ascii_digits(self, prepared, tmp_path,
                                                              dense):
        """'²' and '٣' pass str.isdigit, and int() takes '٣': each names the line."""
        snap = tmp_path / "snap"
        prepared.save(snap)
        path = snap / "item_ids.tsv"
        rows = path.read_text().splitlines(keepends=True)
        path.write_text(rows[0] + f"x\t{dense}\n" + "".join(rows[2:]))
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: expected")):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("sidecar, edit", [
        ("item_ids.tsv", lambda rows: rows[:1] + rows[:1] + rows[2:]),   # duplicate id
        ("item_ids.tsv", lambda rows: rows[:3] + rows[4:]),              # missing id
        ("user_ids.tsv", lambda rows: rows + ["extra\t3\n"]),           # extra row
        ("user_ids.tsv", lambda rows: rows + ["extra\t12\n"]),          # id past n_users
    ], ids=["duplicate", "missing", "extra-row", "out-of-range"])
    def test_load_rejects_sidecar_not_a_bijection(self, prepared, tmp_path, sidecar, edit):
        snap = tmp_path / "snap"
        prepared.save(snap)
        path = snap / sidecar
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(rows)))
        with pytest.raises(ValueError, match=sidecar.replace(".", r"\.")):
            PreparedDataset.load(snap)

    def test_stats_fields(self, prepared):
        stats = prepared.stats()
        assert stats["users"] == 12 and stats["items"] == 10
        assert stats["interactions"] == 12 * 8
        assert stats["social_links"] == 12  # ring
        assert 0 < stats["density"] < 1 and 0 < stats["social_density"] < 1
