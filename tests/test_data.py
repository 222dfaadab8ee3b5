"""Ingestion, filtering, splitting, buckets, walks, negative sampling."""

import json

import numpy as np
import pytest

from tea.data import (DAY_SECONDS, EmptyDatasetError, Interaction, ParseError,
                      PreparedDataset, bucket_items, build_behavior_sequences,
                      build_neighbor_item_buckets, co_interactors,
                      extract_time_restricted_walks, leave_one_out_split,
                      load_interactions, load_social_edges, preprocess,
                      prepare_dataset, sample_negatives)

from corpus import cycle_corpus, write_corpus


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


class TestWalks:
    def test_within_window_included(self):
        tau = 60 * DAY_SECONDS
        events = {3: [(0, 0), (30 * DAY_SECONDS, 9)]}
        out = co_interactors(0, 3, 0, events, tau, cap=10, seed=0, tag=0)
        assert out == [9]

    def test_sixty_one_days_excluded(self):
        tau = 60 * DAY_SECONDS
        events = {3: [(0, 0), (61 * DAY_SECONDS, 9)]}
        assert co_interactors(0, 3, 0, events, tau, cap=10, seed=0, tag=0) == []

    def test_boundary_inclusive(self):
        tau = 60 * DAY_SECONDS
        events = {3: [(0, 0), (60 * DAY_SECONDS, 9)]}
        assert co_interactors(0, 3, 0, events, tau, cap=10, seed=0, tag=0) == [9]

    def test_lonely_item_empty(self):
        seq = _events([(0, 3, 100)])
        walks = extract_time_restricted_walks(0, seq, {3: [(100, 0)]},
                                              tau_seconds=10, cap=10, seed=0)
        assert walks == [[]]

    def test_cap_is_seeded_and_uniform(self):
        events = {1: [(t, u) for t, u in enumerate(range(1, 40))]}
        a = co_interactors(0, 1, 20, events, 10 ** 9, cap=10, seed=5, tag=2)
        b = co_interactors(0, 1, 20, events, 10 ** 9, cap=10, seed=5, tag=2)
        c = co_interactors(0, 1, 20, events, 10 ** 9, cap=10, seed=6, tag=2)
        assert a == b and len(a) == 10
        assert a != c  # different seed, different subsample (w.h.p.)


class TestNegativeSampling:
    def test_never_draws_the_positive(self):
        rng = np.random.default_rng(0)
        out = sample_negatives(17, 1000, 50, rng)
        assert len(out) == 50 and 17 not in out
        assert all(0 <= x < 1000 for x in out)

    def test_same_seed_identical(self):
        a = sample_negatives(3, 100, 50, np.random.default_rng(9))
        b = sample_negatives(3, 100, 50, np.random.default_rng(9))
        assert a == b

    def test_two_items_forced(self):
        out = sample_negatives(0, 2, 50, np.random.default_rng(0))
        assert out == [1] * 50

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            sample_negatives(0, 1, 5, np.random.default_rng(0))

    def test_uniform_over_non_positive(self):
        rng = np.random.default_rng(42)
        draws = sample_negatives(2, 5, 40_000, rng)
        counts = np.bincount(draws, minlength=5)
        assert counts[2] == 0
        np.testing.assert_allclose(counts[[0, 1, 3, 4]] / 40_000, 0.25, atol=0.02)


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
        # No walk co-interactor list may rely on val/test events: rebuild the
        # training event index and recheck every walk against it.
        train_events = {}
        for u, rec in enumerate(prepared.users):
            for item, ts in zip(rec.seq_items, rec.seq_ts):
                train_events.setdefault(item, set()).add((ts, u))
        tau = prepared.config["tau_days"] * DAY_SECONDS
        for u, rec in enumerate(prepared.users):
            for t, others in enumerate(rec.walks):
                item, ts = rec.seq_items[t], rec.seq_ts[t]
                for other in others:
                    assert other != u
                    assert any(abs(ts2 - ts) <= tau and u2 == other
                               for ts2, u2 in train_events.get(item, ()))

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
            payload["users"][0]["walks"][2] = [12]
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
        with pytest.raises(ValueError, match=r"dataset\.json.*5 walk sets"):
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
