"""Ingestion, filtering, splitting, buckets, walks, negative sampling."""

import hashlib
import io
import json
import re

import numpy as np
import pytest

from tea.data import (DAY_SECONDS, EmptyDatasetError, Interaction, ParseError,
                      PreparedDataset, bucket_items, build_behavior_sequences,
                      build_neighbor_item_buckets, extract_time_restricted_walks,
                      leave_one_out_split, load_interactions, load_social_edges,
                      preprocess, prepare_dataset, sample_negatives)

from corpus import cycle_corpus, follower_corpus, write_corpus
from oracles import co_interactors


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


class TestLoadInteractions:
    def test_field_mapping(self, tmp_path):
        p = _write(tmp_path / "x.tsv", ["u1\tv3\t1546300800\t5"])
        res = load_interactions(p)
        assert res.interactions == [Interaction(0, 0, 1546300800, 5.0)]
        assert res.user_ids == ["u1"] and res.item_ids == ["v3"]

    def test_two_fields_is_parse_error_with_line(self, tmp_path):
        p = _write(tmp_path / "x.tsv", ["u1\tv3\t100", "u2\tv4"])
        with pytest.raises(ParseError, match=r":2:"):
            load_interactions(p)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path / "x.tsv", [])
        assert load_interactions(p).interactions == []

    def test_comments_and_optional_rating(self, tmp_path):
        p = _write(tmp_path / "x.tsv",
                   ["# header", "u1\tv1\t10", "u1\tv2\t20\t4.5"])
        res = load_interactions(p)
        assert [it.rating for it in res.interactions] == [None, 4.5]

    def test_duplicates_kept(self, tmp_path):
        p = _write(tmp_path / "x.tsv", ["u1\tv1\t10", "u1\tv1\t10"])
        assert len(load_interactions(p).interactions) == 2

    def test_compaction_is_bijection(self, tmp_path):
        p = _write(tmp_path / "x.tsv",
                   [f"user_{i % 7}\titem_{i % 5}\t{i}" for i in range(30)])
        res = load_interactions(p)
        for raw, dense in res.user_index.items():
            assert res.user_ids[dense] == raw
        for raw, dense in res.item_index.items():
            assert res.item_ids[dense] == raw


class TestLoadSocial:
    def test_symmetrization(self, tmp_path):
        p = _write(tmp_path / "s.tsv", ["a\tb"])
        g = load_social_edges(p, {"a": 0, "b": 1})
        assert g.of(0) == [1] and g.of(1) == [0]

    def test_self_loop_skipped(self, tmp_path):
        p = _write(tmp_path / "s.tsv", ["a\ta"])
        g = load_social_edges(p, {"a": 0})
        assert g.of(0) == []

    def test_duplicate_edge_stored_once(self, tmp_path):
        p = _write(tmp_path / "s.tsv", ["a\tb", "b\ta", "a\tb"])
        g = load_social_edges(p, {"a": 0, "b": 1})
        assert g.of(0) == [1] and g.edge_count() == 1

    def test_unknown_users_dropped(self, tmp_path):
        p = _write(tmp_path / "s.tsv", ["a\tghost"])
        g = load_social_edges(p, {"a": 0})
        assert g.of(0) == []


def _events(rows):
    """rows: list of (user, item, ts[, rating])."""
    return [Interaction(*row) for row in rows]


class TestPreprocess:
    def test_rating_binarization_boundary(self):
        events = _events([(0, i, t, 4.0) for t, i in enumerate(range(5))]
                         + [(0, 9, 99, 3.0)]
                         + [(u, i, 10 + u + i, None)
                            for u in range(1, 6) for i in range(5)])
        res = preprocess(events, min_actions=5, rating_threshold=3)
        ratings = [it.rating for it in res.interactions]
        assert 4.0 in ratings and 3.0 not in ratings

    def test_sparse_user_removed(self):
        # user 9 has only 4 events; everyone else is dense
        events = _events([(u, i, u * 10 + i) for u in range(5) for i in range(5)]
                         + [(9, i, 100 + i) for i in range(4)])
        res = preprocess(events)
        users = {it.user for it in res.interactions}
        assert len(users) == 5  # compacted 0..4, user 9 gone
        assert all(it.user < 5 for it in res.interactions)

    def test_fixpoint_min_counts(self):
        rng = np.random.default_rng(0)
        events = _events([(int(rng.integers(0, 12)), int(rng.integers(0, 12)), t)
                          for t in range(150)])
        res = preprocess(events)
        from collections import Counter
        u = Counter(it.user for it in res.interactions)
        v = Counter(it.item for it in res.interactions)
        assert min(u.values()) >= 5 and min(v.values()) >= 5

    def test_everything_filtered_raises(self):
        with pytest.raises(EmptyDatasetError):
            preprocess(_events([(0, 0, 1), (0, 1, 2)]), min_actions=1000)

    def test_users_need_three_events_for_leave_one_out(self):
        # min_actions=1 keeps every item, but users 1 (one event) and 2 (two
        # events) cannot give up a validation and a test event and still
        # train on one
        events = _events([(0, i, i) for i in range(3)] + [(1, 0, 10)]
                         + [(2, 1, 20), (2, 2, 21)])
        res = preprocess(events, min_actions=1)
        assert sorted(res.user_remap) == [0]
        assert len(res.interactions) == 3

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
        res = preprocess(events)
        assert sorted(res.user_remap.values()) == list(range(len(res.user_remap)))
        assert sorted(res.item_remap.values()) == list(range(len(res.item_remap)))


class TestSplit:
    def test_latest_and_second_latest_held_out(self):
        events = _events([(0, i, 10 * (i + 1)) for i in range(5)])
        split = leave_one_out_split(events)
        assert [it.item for it in split.train] == [0, 1, 2]
        assert split.val[0].item == 3 and split.test[0].item == 4

    def test_ties_break_by_input_order(self):
        events = _events([(0, 0, 5), (0, 1, 5), (0, 2, 5)])
        split = leave_one_out_split(events)
        assert split.test[0].item == 2 and split.val[0].item == 1
        assert [it.item for it in split.train] == [0]

    def test_five_interactions_leave_three_train(self):
        events = _events([(0, i, i) for i in range(5)])
        split = leave_one_out_split(events)
        assert len(split.train) == 3

    def test_per_user_timestamp_ordering(self):
        rng = np.random.default_rng(3)
        events = _events([(int(rng.integers(0, 4)), int(rng.integers(0, 9)),
                           int(rng.integers(0, 10_000))) for _ in range(200)])
        split = leave_one_out_split(events)
        by_user = {}
        for it in split.train:
            by_user.setdefault(it.user, []).append(it.ts)
        for user, ts in by_user.items():
            assert max(ts) <= split.val[user].ts <= split.test[user].ts


class TestSequences:
    def test_short_history_unchanged(self):
        seqs = build_behavior_sequences(_events([(0, i, i) for i in range(3)]), 50)
        assert [it.item for it in seqs[0]] == [0, 1, 2]

    def test_long_history_keeps_most_recent(self):
        seqs = build_behavior_sequences(_events([(0, i, i) for i in range(60)]), 50)
        assert len(seqs[0]) == 50
        assert [it.item for it in seqs[0]] == list(range(10, 60))

    def test_order_preserved(self):
        rng = np.random.default_rng(1)
        ts = rng.permutation(100).tolist()
        seqs = build_behavior_sequences(_events([(0, i, ts[i]) for i in range(100)]), 30)
        out = [it.ts for it in seqs[0]]
        assert out == sorted(out) and len(out) == 30


class TestBuckets:
    def test_event_inside_window_included(self):
        seq = _events([(0, 0, 100), (0, 1, 200)])
        buckets, b_val, b_gap = build_neighbor_item_buckets(
            seq, val_ts=300, test_ts=400, neighbor_events=[(150, 7)], l_n=20)
        assert buckets == [[7]] and b_val == [] and b_gap == []

    def test_no_neighbors_every_bucket_empty(self):
        seq = _events([(0, 0, 100), (0, 1, 200), (0, 2, 250)])
        buckets, b_val, b_gap = build_neighbor_item_buckets(
            seq, 300, 400, neighbor_events=[], l_n=20)
        assert buckets == [[], []] and b_val == [] and b_gap == []

    def test_truncation_keeps_most_recent(self):
        events = [(100 + i, i) for i in range(25)]
        out = bucket_items(events, 100, 200, l_n=20)
        assert out == list(range(5, 25))

    def test_window_is_half_open(self):
        events = [(100, 1), (200, 2)]
        assert bucket_items(events, 100, 200, 10) == [1]

    def test_val_and_gap_windows(self):
        seq = _events([(0, 0, 100)])
        _, b_val, b_gap = build_neighbor_item_buckets(
            seq, val_ts=300, test_ts=500,
            neighbor_events=[(150, 5), (350, 6)], l_n=20)
        assert b_val == [5] and b_gap == [6]


def _train(item_events):
    """Training events from an item -> time-sorted (ts, user) index."""
    return [Interaction(u, item, ts) for item, events in item_events.items()
            for ts, u in events]


def _bit(user, item, ts, item_events, tau, cap=10):
    """The has-walk bit of one query event."""
    out = extract_time_restricted_walks([[Interaction(user, item, ts)]],
                                        _train(item_events), tau, cap)
    return out[0][0]


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
        seq = _events([(0, 3, 100)])
        walks = extract_time_restricted_walks([seq], _events([(0, 3, 100), (0, 3, 100)]),
                                              tau_seconds=10, cap=10)
        assert walks == [[0]]

    def test_bits_are_python_ints_in_the_queries_shape(self):
        events = {1: [(5, 2), (9, 0)], 4: [(1, 3)]}
        queries = [[], _events([(0, 1, 5), (0, 4, 50)]), _events([(3, 4, 1)])]
        got = extract_time_restricted_walks(queries, _train(events), 10, 1)
        assert got == [[], [1, 0], [0]]
        assert all(type(bit) is int for walks in got for bit in walks)

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
            own = [Interaction(u, item, ts) for item, events in item_events.items()
                   for ts, u in events if u == user]
            extra = [Interaction(user, int(rng.integers(n_items + 2)),
                                 unit * int(rng.integers(-1, 13)) + int(rng.integers(2)))
                     for _ in range(3)]
            queries.append([own[i] for i in rng.permutation(len(own))] + extra)
        train = _train(item_events)
        got = extract_time_restricted_walks(queries, [train[i] for i in
                                                      rng.permutation(len(train))],
                                            tau, cap)
        assert [len(w) for w in got] == [len(q) for q in queries]
        for events, walks in zip(queries, got):
            for tag, (it, bit) in enumerate(zip(events, walks)):
                assert bit == bool(co_interactors(it.user, it.item, it.ts, item_events,
                                                  tau, cap, corpus_seed, tag))
        ones = sum(map(sum, got))
        assert ones == 0 if cap == 0 else 0 < ones < sum(map(len, got))

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
        train = _events([(0, 0, 0), (1, 0, s)])
        queries = [_events([(2, 0, 0), (2, 0, s // 2), (2, 0, top)])]
        walks = lambda tau: extract_time_restricted_walks(queries, train, tau, 1)[0]
        assert walks(0) == [1, 0, 0]
        assert walks(s // 2) == [1, 1, 0]
        assert walks(top - s - 1) == [1, 1, 0]
        assert walks(top - s) == [1, 1, 1]
        assert walks(10 ** 30) == [1, 1, 1]
        # Keys count from the earliest stamp, so late and negative stamps fit.
        for first in (top - 5, -10):
            train = _events([(0, 0, first), (1, 1, first + 5)])
            queries = [_events([(2, 0, first + 2), (2, 1, first + 2)])]
            assert extract_time_restricted_walks(queries, train, 2, 1) == [[1, 0]]

    @pytest.mark.parametrize("corpus, cap, digest", [
        ("cycle", 10, "e79a17d028d5cb27070b3217e70d150ecd4ab7b1033dff15ce36a7f3de845caa"),
        ("cycle", 3, "799c9980e372fcaa6ce32bf8974166a8b606057cc70dfdd5a43b27fe068ada06"),
        ("follower", 10, "e3a7f379e225a2392d092ecb0080e4c18ada85b61cb9c1260ebccb50c60bfb69"),
        ("follower", 3, "2f9b42fad08745627c02c2d36ba5c534c9522d940c96bdb6c3907810cab2ec5b"),
    ])
    def test_snapshot_bytes_are_pinned(self, tmp_path, corpus, cap, digest):
        """dataset.json of the test corpora, walk bits included, stays byte for byte."""
        rows, pairs = cycle_corpus() if corpus == "cycle" else follower_corpus()
        inter, social = write_corpus(str(tmp_path), rows, pairs)
        ds = prepare_dataset(inter, social, walk_cap=cap, seed=4)
        assert sum(sum(rec.walks) for rec in ds.users) >= 1200
        ds.save(str(tmp_path / "snap"))
        data = (tmp_path / "snap" / "dataset.json").read_bytes()
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
            neighbors = prepared.social.of(u)
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

    def test_snapshot_bytes_are_the_json_of_the_payload(self, prepared, tmp_path):
        """One json.dumps string, the same bytes json.dump streams."""
        prepared.save(tmp_path / "snap")
        raw = (tmp_path / "snap" / "dataset.json").read_text(encoding="utf-8")
        payload = json.loads(raw)
        assert raw == json.dumps(payload, sort_keys=True)
        streamed = io.StringIO()
        json.dump(payload, streamed, sort_keys=True)
        assert raw == streamed.getvalue()

    def test_roundtrip_save_load(self, prepared, tmp_path):
        prepared.save(tmp_path / "snap")
        loaded = PreparedDataset.load(tmp_path / "snap")
        assert loaded.n_users == prepared.n_users
        assert loaded.n_items == prepared.n_items
        assert loaded.config == prepared.config
        for a, b in zip(loaded.users, prepared.users):
            assert a == b
        assert loaded.social.neighbors == prepared.social.neighbors
        assert loaded.user_ids == prepared.user_ids

    def _corrupt_snapshot(self, prepared, tmp_path, edit):
        snap = tmp_path / "snap"
        prepared.save(snap)
        path = snap / "dataset.json"
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return snap

    def test_load_rejects_out_of_range_item(self, prepared, tmp_path):
        def edit(payload):
            payload["users"][3]["seq_items"][1] = 10**6
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.json.*user 3.*1000000"):
            PreparedDataset.load(snap)

    def test_load_rejects_out_of_range_user(self, prepared, tmp_path):
        def edit(payload):
            payload["social"]["0"] = [1, 12]
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.json.*user id 12"):
            PreparedDataset.load(snap)

    def test_load_rejects_short_buckets(self, prepared, tmp_path):
        def edit(payload):
            payload["users"][0]["buckets"] = payload["users"][0]["buckets"][:2]
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.json.*2 buckets"):
            PreparedDataset.load(snap)

    def test_load_rejects_short_walks(self, prepared, tmp_path):
        def edit(payload):
            payload["users"][5]["walks"].pop()
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.json.*user 5 has 5 walk bits"):
            PreparedDataset.load(snap)

    def test_load_rejects_long_walks(self, prepared, tmp_path):
        def edit(payload):
            payload["users"][2]["walks"] = [1] * 7
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.json: user 2 has 7 walk bits for 6"):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("field, value", [
        ("walks", {str(t): 1 for t in range(6)}), ("walks", "010101"), ("buckets", 5),
        ("seq_items", 7), ("bucket_val", 3),
    ])
    def test_load_rejects_a_field_of_the_wrong_type(self, prepared, tmp_path, field, value):
        """A field that is not a list names the file instead of a traceback."""
        def edit(payload):
            payload["users"][2][field] = value
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.json: malformed snapshot \(TypeError"):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("field", ["walks", "walks_val"])
    @pytest.mark.parametrize("bad", [2, -1, "1", True, 0.0, [3], None])
    def test_load_rejects_walk_entry_not_a_bit(self, prepared, tmp_path, field, bad):
        """A walk entry is the int 0 or 1; a co-user list of the old format is not."""
        def edit(payload):
            user = payload["users"][4]
            if field == "walks":
                user["walks"][3] = bad
            else:
                user["walks_val"] = bad
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.json: user 4 has walk bit "
                                             + re.escape(repr(bad))):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("found", ["tea-dataset-1", "tea-dataset-3", None])
    def test_load_rejects_other_formats(self, prepared, tmp_path, found):
        """A snapshot of another format names the file and the tag it holds,
        and says how to rebuild it."""
        def edit(payload):
            payload["format"] = found
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.json: snapshot format "
                           + re.escape(repr(found)) + r".*re-run `tea prepare`"):
            PreparedDataset.load(snap)

    @pytest.mark.parametrize("field", ["n_items", "walks"])
    def test_load_rejects_missing_field(self, prepared, tmp_path, field):
        def edit(payload):
            del (payload if field == "n_items" else payload["users"][4])[field]
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=rf"dataset\.json.*'{field}'"):
            PreparedDataset.load(snap)

    def test_load_rejects_non_integer_count(self, prepared, tmp_path):
        def edit(payload):
            payload["n_items"] = "10"
        snap = self._corrupt_snapshot(prepared, tmp_path, edit)
        with pytest.raises(ValueError, match=r"dataset\.json.*n_items is '10'"):
            PreparedDataset.load(snap)

    def test_load_rejects_invalid_json(self, prepared, tmp_path):
        snap = tmp_path / "snap"
        prepared.save(snap)
        path = snap / "dataset.json"
        path.write_text(path.read_text()[:-10])
        with pytest.raises(ValueError, match=r"dataset\.json"):
            PreparedDataset.load(snap)

    def test_load_rejects_sidecar_line_without_tab(self, prepared, tmp_path):
        snap = tmp_path / "snap"
        prepared.save(snap)
        (snap / "item_ids.tsv").write_text("0\t0\n1 1\n")
        with pytest.raises(ValueError, match=r"item_ids\.tsv:2"):
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
