"""Engine-level tests: primitive forwards, gradient oracles, Adam, GRU."""

import tracemalloc

import numpy as np
import pytest

from tea import autodiff as ad

from gradcheck import (assert_gradients_match, dense_backward, gradients,
                       max_mismatch, numeric_gradient)
from oracles import adam_update, clip, gru_step, total_loss


def _rand(rng, *shape, grad=True):
    return ad.Tensor(rng.normal(size=shape), requires_grad=grad)


class TestPrimitiveForward:
    def test_sigmoid_at_zero(self):
        # the gate function of the fused GRU cell and of softplus' backward
        assert ad._sigmoid(np.array([0.0]))[0] == 0.5

    def test_relu_definition(self):
        out = ad.relu(ad.Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_matmul_shape_error_names_kind(self):
        # a mismatched inner size, and stacks of matrices
        for a, b in (((3, 4), (3, 2)), ((2, 3, 4), (2, 4, 1))):
            with pytest.raises(ad.ShapeError, match="matmul"):
                ad.matmul(ad.Tensor(np.ones(a)), ad.Tensor(np.ones(b)))

    def test_add_shape_error(self):
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(4)))

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4,))
        runs = []
        for _ in range(2):
            out = ad.softplus(ad.add(ad.matmul(ad.Tensor(a), ad.Tensor(b)),
                                     ad.Tensor(b)))
            runs.append(out.data.tobytes())
        assert runs[0] == runs[1]

    def test_forward_stays_finite(self):
        rng = np.random.default_rng(9)
        gru = _rand_gru(rng, 6)
        for _ in range(20):
            x = ad.Tensor(rng.normal(scale=50.0, size=(6,)))
            # the GRU cell's sigmoid and tanh gates see inputs far past +-50
            for fn in (ad.softplus, lambda t: ad.leaky_relu(t, 0.2),
                       lambda t: ad.gru_cell(t, t, gru)):
                assert np.isfinite(fn(x).data).all()


def _zero_gru(d):
    z = lambda *s: ad.Tensor(np.zeros(s), requires_grad=True)
    return ad.GruParams(z(d, d), z(d, d), z(d), z(d, d), z(d, d), z(d),
                        z(d, d), z(d, d), z(d))


def _rand_gru(rng, d):
    r = lambda *s: _rand(rng, *s)
    return ad.GruParams(r(d, d), r(d, d), r(d), r(d, d), r(d, d), r(d),
                        r(d, d), r(d, d), r(d))


class TestGruCell:
    def test_zero_fixed_point(self):
        d = 3
        out = ad.gru_cell(ad.zeros(d), ad.zeros(d), _zero_gru(d))
        np.testing.assert_array_equal(out.data, np.zeros(d))

    def test_zero_weights_halve_hidden(self):
        d = 3
        h = ad.Tensor([1.0, -2.0, 0.5])
        out = ad.gru_cell(ad.zeros(d), h, _zero_gru(d))
        np.testing.assert_allclose(out.data, 0.5 * h.data, atol=1e-15)

    def test_three_step_unroll_matches_oracle(self):
        rng = np.random.default_rng(23)
        d = 5
        p = _rand_gru(rng, d)
        xs = [rng.normal(size=d) for _ in range(3)]
        h = ad.zeros(d)
        for x in xs:
            h = ad.gru_cell(ad.Tensor(x), h, p)
        want = np.zeros(d)
        for x in xs:
            want = gru_step(x, want, p)
        np.testing.assert_allclose(h.data, want, atol=1e-10, rtol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ad.ShapeError, match="gru-cell"):
            ad.gru_cell(ad.zeros(4), ad.zeros(3), _zero_gru(3))

    def test_batch_rows_match_single_cells(self):
        rng = np.random.default_rng(24)
        d = 5
        p = _rand_gru(rng, d)
        xs, hs = rng.normal(size=(3, d)), rng.normal(size=(3, d))
        got = ad.gru_cell(ad.Tensor(xs), ad.Tensor(hs), p).data
        for x, h, row in zip(xs, hs, got):
            np.testing.assert_allclose(row, gru_step(x, h, p), atol=1e-12, rtol=0)

    def test_one_tape_record(self):
        rng = np.random.default_rng(25)
        p = _rand_gru(rng, 3)
        with ad.Tape() as tape:
            ad.gru_cell(ad.Tensor(rng.normal(size=(4, 3))), ad.zeros(4, 3), p)
        assert len(tape) == 1


def _chained_cells(x, p, n_steps):
    """The GRU over step-major rows as one gru_cell record per step."""
    n_seq, d = x.data.shape[0] // n_steps, x.data.shape[1]
    h, states = ad.zeros(n_seq, d), []
    for t in range(n_steps):
        h = ad.gru_cell(ad.slice_rows(x, t * n_seq, (t + 1) * n_seq), h, p)
        states.append(h)
    return ad.concat(states)


class TestGruSequence:
    """gru_sequence: T lockstep steps of B sequences from zeros, one record."""

    @pytest.mark.parametrize("n_steps,n_seq", [(1, 1), (1, 4), (6, 1), (6, 3)])
    def test_states_and_gradients_match_chained_cells(self, n_steps, n_seq):
        rng = np.random.default_rng(61)
        d = 4
        p = _rand_gru(rng, d)
        x = _rand(rng, n_steps * n_seq, d)
        target = ad.Tensor(rng.normal(size=(n_steps * n_seq, d)))
        named = [("x", x)] + p.named("gru")
        runs = []
        for route in (ad.gru_sequence, _chained_cells):
            with ad.Tape() as tape:
                states = route(x, p, n_steps)
                loss = ad.total_sum(ad.mul(states, target))
            runs.append([states.data] + gradients(loss, tape, [t for _, t in named]))
        for (name, _), got, want in zip([("states", None)] + named, *runs):
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0, err_msg=name)

    def test_states_match_numpy_recurrence(self):
        rng = np.random.default_rng(62)
        n_steps, n_seq, d = 5, 3, 4
        p = _rand_gru(rng, d)
        xs = rng.normal(size=(n_steps, n_seq, d))
        got = ad.gru_sequence(ad.Tensor(xs.reshape(-1, d)), p, n_steps).data
        got = got.reshape(n_steps, n_seq, d)
        for b in range(n_seq):
            h = np.zeros(d)
            for t in range(n_steps):
                h = gru_step(xs[t, b], h, p)
                np.testing.assert_allclose(got[t, b], h, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("n_steps", [1, 3])
    @pytest.mark.parametrize("n_seq", [1, 3])
    def test_gradients_match_finite_differences(self, n_steps, n_seq):
        rng = np.random.default_rng(63 + 10 * n_steps + n_seq)
        d = 3
        p = _rand_gru(rng, d)
        x = _rand(rng, n_steps * n_seq, d)
        target = ad.Tensor(rng.normal(size=(n_steps * n_seq, d)))

        def build():
            return ad.total_sum(ad.mul(ad.gru_sequence(x, p, n_steps), target))

        assert_gradients_match(build, [("x", x)] + p.named("gru"))

    def test_blocks_of_steps_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(66)
        d, n_steps, n_seq = 3, 7, 2
        p = _rand_gru(rng, d)
        x = _rand(rng, n_steps * n_seq, d)
        target = ad.Tensor(rng.normal(size=(n_steps * n_seq, d)))
        named = [("x", x)] + p.named("gru")
        runs = []
        for cells in (ad.GRU_BLOCK, 3 * d * n_seq * 3):       # one block; blocks of 3 steps
            monkeypatch.setattr(ad, "GRU_BLOCK", cells)
            evaluated = ad.gru_sequence(x, p, n_steps).data
            with ad.Tape() as tape:
                states = ad.gru_sequence(x, p, n_steps)
                loss = ad.total_sum(ad.mul(states, target))
            grads = gradients(loss, tape, [t for _, t in named])
            runs.append([evaluated, states.data] + grads)
        for got, want in zip(*runs):
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_one_step_is_a_cell_from_zeros(self):
        rng = np.random.default_rng(64)
        p = _rand_gru(rng, 4)
        for n_seq in (1, 3):
            x = ad.Tensor(rng.normal(size=(n_seq, 4)))
            got = ad.gru_sequence(x, p, 1).data
            np.testing.assert_array_equal(got, ad.gru_cell(x, ad.zeros(n_seq, 4), p).data)

    def test_zero_weights_from_zero_state_stay_zero(self):
        states = ad.gru_sequence(ad.Tensor(np.ones((6, 3))), _zero_gru(3), 3)
        np.testing.assert_array_equal(states.data, np.zeros((6, 3)))

    def test_one_tape_record_and_the_same_bits_without_a_tape(self):
        rng = np.random.default_rng(65)
        p = _rand_gru(rng, 3)
        x = _rand(rng, 12, 3)
        with ad.Tape() as tape:
            taped = ad.gru_sequence(x, p, 4)
        assert len(tape) == 1
        assert ad.gru_sequence(x, p, 4).data.tobytes() == taped.data.tobytes()

    def test_shape_errors(self):
        p = _zero_gru(3)
        for x, n_steps in ((ad.zeros(7, 3), 2), (ad.zeros(6, 4), 2),
                           (ad.zeros(6, 3), 0), (ad.zeros(6), 2)):
            with pytest.raises(ad.ShapeError, match="gru-sequence"):
                ad.gru_sequence(x, p, n_steps)


def _head_inputs(rng, counts=(3, 1), n_cands=4, d=3, width=4, n_items=7):
    """Tensors for candidate_head: users with `counts` rows over a history of
    `width`, and candidate ids into a table of `n_items` rows. Every row's
    last candidate is row 0's first, so an id repeats within row 0 and in
    every piece; no candidate reads the table's last row."""
    n = sum(counts)
    ids = rng.integers(0, n_items - 1, size=(n, n_cands))
    ids[:, -1] = ids[0, 0]
    return dict(table=_rand(rng, n_items, d), ids=ids,
                values=_rand(rng, len(counts), width, d),
                w2=_rand(rng, d, d), bias2=_rand(rng, n, 1, d), w3=_rand(rng, d, d),
                shared3=_rand(rng, n, 1, d), keys=_rand(rng, len(counts), width, d),
                pos=_rand(rng, n, d), rows=ad.Segments(list(counts)))


def _named(t):
    """The head's input tensors, by name."""
    return [(k, v) for k, v in t.items() if k not in ("rows", "ids")]


def _keep(rng, t, p_drop):
    return rng.random(t["ids"].shape + t["table"].data.shape[1:]) >= p_drop


def _head(t, widths, keep=None, p_drop=0.0):
    return ad.candidate_head(t["table"], t["ids"], t["values"], t["w2"], t["bias2"],
                             t["w3"], t["shared3"], keys=t["keys"], pos=t["pos"],
                             rows=t["rows"], widths=widths, keep=keep, p_drop=p_drop)


def _per_row_scores(t, widths, keep=None, p_drop=0.0):
    """candidate_head's formula row by row and candidate by candidate."""
    data = {k: v.data for k, v in _named(t)}
    n_rows, n_cands = t["ids"].shape
    d = data["table"].shape[1]
    if keep is None:            # no dropout: p_drop plays no part
        keep, p_drop = np.ones((n_rows, n_cands, d), dtype=bool), 0.0
    out = np.empty((n_rows, n_cands))
    for i, b in enumerate(t["rows"].ids):
        n = widths[i]
        for c in range(n_cands):
            e = data["table"][t["ids"][i, c]]
            logits = data["keys"][b, :n] @ (e + data["pos"][i])
            a = np.exp(logits - logits.max())
            r = np.maximum((a / a.sum()) @ data["values"][b, :n], 0.0)
            h = (data["w2"] @ r + data["bias2"][i, 0]) * keep[i, c] / (1.0 - p_drop)
            out[i, c] = (data["w3"] @ h + data["shared3"][i, 0]) @ e
    return out


# Row layouts for the head's pieces: rows per user, and HEAD_BLOCK in cells
# (rows x C x max(T, d) = rows x 4 x 5 below), None for the default.
_PIECE_LAYOUTS = {
    "one-row-users-beside-multi-row-users": ((1, 3, 1, 1, 2), None),
    "equal-count-run": ((2, 2, 2, 3), None),
    "equal-count-run-cut-by-the-budget": ((2, 2, 2, 3), 4 * 20),
    "users-without-rows": ((2, 0, 3, 0), None),
    "user-split-across-pieces": ((5, 1, 1), 2 * 20),
}


def _layout(monkeypatch, name, seed):
    """Head inputs for a layout; user 0's rows see at most 2 of the 5 positions,
    so its pieces are narrower than the batch."""
    counts, cells = _PIECE_LAYOUTS[name]
    if cells is not None:
        monkeypatch.setattr(ad, "HEAD_BLOCK", cells)
    rng = np.random.default_rng(seed)
    t = _head_inputs(rng, counts=counts, n_cands=4, d=3, width=5)
    widths = rng.integers(1, 6, size=sum(counts))
    widths[:counts[0]] = np.minimum(widths[:counts[0]], 2)
    return t, widths, rng


class TestCandidateHead:
    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(61)
        t = _head_inputs(rng)
        widths = np.array([1, 3, 4, 2])
        keep = _keep(rng, t, 0.3)
        got = _head(t, widths, keep, 0.3).data
        np.testing.assert_allclose(got, _per_row_scores(t, widths, keep, 0.3),
                                   atol=1e-12, rtol=0)

    def test_pieces(self):
        """Equal-count users group up to the budget, a user with more rows is
        cut into runs, and users without rows belong to no piece."""
        assert ad._pieces([2, 2, 2, 0, 5, 1, 1], 4) == [
            (0, 2, 0, 2), (2, 1, 4, 2), (4, 1, 6, 4), (4, 1, 10, 1), (5, 2, 11, 1)]
        assert ad._pieces([1] * 5, 2) == [(0, 2, 0, 1), (2, 2, 2, 1), (4, 1, 4, 1)]
        assert ad._pieces([0, 0], 3) == []

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("layout", sorted(_PIECE_LAYOUTS))
    def test_pieces_match_per_row_loop(self, monkeypatch, layout, train):
        t, widths, rng = _layout(monkeypatch, layout, 68)
        keep = _keep(rng, t, 0.5) if train else None
        want = _per_row_scores(t, widths, keep, 0.5)
        np.testing.assert_allclose(_head(t, widths, keep, 0.5).data, want,
                                   atol=1e-12, rtol=0)
        with ad.Tape():             # the route that keeps its pieces for a backward
            taped = _head(t, widths, keep, 0.5).data
        np.testing.assert_allclose(taped, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("layout", sorted(_PIECE_LAYOUTS))
    def test_pieces_match_finite_differences(self, monkeypatch, layout, train):
        t, widths, rng = _layout(monkeypatch, layout, 69)
        keep = _keep(rng, t, 0.5) if train else None
        weights = ad.Tensor(rng.normal(size=(len(widths), 4)))
        assert_gradients_match(
            lambda: ad.total_sum(ad.mul(_head(t, widths, keep, 0.5), weights)), _named(t))

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("layout", sorted(_PIECE_LAYOUTS))
    def test_table_gradient_is_one_row_gradient(self, monkeypatch, layout, train):
        """The table's gradient is one RowGrad over the distinct ids the
        candidates read, each summed over every piece that read it (the
        finite differences above check the values); the table row that no
        candidate reads is exactly 0."""
        t, widths, rng = _layout(monkeypatch, layout, 71)
        keep = _keep(rng, t, 0.5) if train else None
        with ad.Tape() as tape:
            out = _head(t, widths, keep, 0.5)
        (rec,) = tape.records
        d_table = rec.backward(rng.normal(size=out.data.shape))[0]
        assert isinstance(d_table, ad.RowGrad)
        assert d_table.shape == t["table"].data.shape
        np.testing.assert_array_equal(d_table.ids, np.unique(t["ids"]))
        assert t["table"].data.shape[0] - 1 not in d_table.ids
        assert not d_table.dense()[-1].any()

    def test_positions_past_a_piece_are_never_read(self):
        """Each user is its own piece here; NaN keys and values past the
        widest row of a piece leave every score finite."""
        rng = np.random.default_rng(70)
        t = _head_inputs(rng, counts=(2, 3), width=6)
        widths = np.array([1, 2, 1, 3, 2])
        want = _per_row_scores(t, widths)
        for b, stop in ((0, 2), (1, 3)):
            t["keys"].data[b, stop:] = np.nan
            t["values"].data[b, stop:] = np.nan
        for keep in (None, _keep(rng, t, 0.5)):
            got = _head(t, widths, keep).data
            assert np.isfinite(got).all()
            if keep is None:
                np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_padded_positions_do_not_matter(self):
        rng = np.random.default_rng(62)
        t = _head_inputs(rng)
        widths = np.array([1, 2, 2, 3])
        before = _head(t, widths).data
        t["keys"].data[:, 3] = 1e6          # beyond every width
        t["values"].data[:, 3] = -1e6
        np.testing.assert_array_equal(_head(t, widths).data, before)

    def test_folded_equals_unfolded(self):
        """Without a keep-mask w3 folds into w2; scores and gradients stay within 1e-12."""
        rng = np.random.default_rng(63)
        t = _head_inputs(rng)
        widths = np.array([2, 4, 1, 3])
        named = _named(t)
        runs = []
        for keep in (None, np.ones((4, 4, 3), dtype=bool)):
            with ad.Tape() as tape:
                out = _head(t, widths, keep)
                loss = ad.total_sum(ad.mul(out, ad.Tensor(np.arange(16.0).reshape(4, 4))))
            runs.append([out.data] + gradients(loss, tape, [v for _, v in named]))
        for folded, unfolded in zip(*runs):
            np.testing.assert_allclose(folded, unfolded, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("train", [False, True])
    def test_row_blocks_change_nothing_but_rounding(self, monkeypatch, train):
        """Blocks of one and two rows (user 0's three rows split across blocks)
        give the scores and gradients of a single block."""
        rng = np.random.default_rng(67)
        t = _head_inputs(rng)
        widths = np.array([2, 4, 1, 3])
        keep = _keep(rng, t, 0.5) if train else None
        named = _named(t)
        weights = ad.Tensor(rng.normal(size=(4, 4)))
        runs = []
        for cells in (ad.HEAD_BLOCK, 4 * 4, 2 * 4 * 4):     # all rows, 1 row, 2 rows
            monkeypatch.setattr(ad, "HEAD_BLOCK", cells)
            with ad.Tape() as tape:
                out = _head(t, widths, keep, 0.5)
                loss = ad.total_sum(ad.mul(out, weights))
            runs.append([out.data] + gradients(loss, tape, [v for _, v in named]))
        for whole, *blocked in zip(*runs):
            for got in blocked:
                np.testing.assert_allclose(got, whole, atol=1e-12, rtol=0)

    def test_one_tape_record(self):
        t = _head_inputs(np.random.default_rng(64))
        with ad.Tape() as tape:
            _head(t, np.array([1, 2, 3, 4]))
        assert len(tape) == 1

    def test_row_without_visible_position_raises(self):
        t = _head_inputs(np.random.default_rng(65))
        with pytest.raises(ValueError, match="row 2 sees no history position"):
            _head(t, np.array([1, 2, 0, 3]))

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_candidate_ids_outside_the_table_raise(self, bad):
        """Ids index the 7-row table as given: none wraps around or clips."""
        t = _head_inputs(np.random.default_rng(66))
        t["ids"][2, 1] = bad
        with pytest.raises(IndexError, match=r"candidate ids must lie in \[0, 7\)"):
            _head(t, np.array([1, 2, 3, 3]))

    def test_width_beyond_history_rejected(self):
        t = _head_inputs(np.random.default_rng(66))
        with pytest.raises(ad.ShapeError, match="candidate-head"):
            _head(t, np.array([1, 2, 5, 3]))

    def test_row_users_must_match_the_history_users(self):
        t = _head_inputs(np.random.default_rng(66))
        t["rows"] = ad.Segments([3, 1, 0])          # three users, two histories
        with pytest.raises(ad.ShapeError, match="candidate-head"):
            _head(t, np.array([1, 2, 3, 3]))


class TestBackward:
    def test_product_rule(self):
        x = ad.Tensor([2.0], requires_grad=True)
        y = ad.Tensor([3.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.total_sum(ad.mul(x, y))
        g_x, g_y = gradients(loss, tape, [x, y])
        assert g_x[0] == 3.0
        assert g_y[0] == 2.0

    def test_constant_loss_zero_gradients(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            ad.relu(x)  # on tape but unconnected to the loss
            loss = ad.total_sum(ad.Tensor([7.0]))
        g_x, = gradients(loss, tape, [x])
        np.testing.assert_array_equal(g_x, [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            out = ad.relu(x)
        with pytest.raises(ad.NonScalarLossError):
            ad.backward(out, tape, [])

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(31)
        w = _rand(rng, 4, 4)
        x = _rand(rng, 4)

        def loss_a():
            return ad.total_sum(ad.softplus(ad.matmul(w, x)))

        def loss_b():
            return ad.total_sum(ad.leaky_relu(ad.matmul(w, ad.relu(x))))

        with ad.Tape() as t1:
            l1 = loss_a()
        g1 = gradients(l1, t1, [w, x])
        with ad.Tape() as t2:
            l2 = loss_b()
        g2 = gradients(l2, t2, [w, x])
        with ad.Tape() as t3:
            l3 = ad.add(loss_a(), loss_b())
        g3 = gradients(l3, t3, [w, x])
        for a, b, c in zip(g1, g2, g3):
            np.testing.assert_allclose(c, a + b, atol=1e-12)

    def test_sweep_empties_the_tape(self):
        x = ad.Tensor([1.0, -2.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.total_sum(ad.softplus(ad.mul(x, x)))
        assert len(tape) == 3
        gradients(loss, tape, [x])
        assert len(tape) == 0

    def test_many_dense_gradients_merge_in_arrival_order(self):
        """The third and later arrivals are added in place: same bits as acc + g."""
        rng = np.random.default_rng(32)
        x = _rand(rng, 5, 3)
        w = _rand(rng, 3, 3)
        c = ad.Tensor(rng.normal(size=(5, 3)))
        with ad.Tape() as tape:
            parts = [ad.mul(x, c), ad.softplus(x), ad.linear(x, w), ad.leaky_relu(x)]
            total = parts[0]
            for part in parts[1:]:
                total = ad.add(total, part)
            loss = ad.total_sum(ad.mul(total, total))
        want = dense_backward(loss, tape)
        for t, got in zip((x, w), gradients(loss, tape, [x, w])):
            assert got.tobytes() == want[id(t)].tobytes()

    def test_leaf_loss_has_unit_gradient(self):
        x = ad.Tensor([2.0], requires_grad=True)
        with ad.Tape() as tape:
            pass
        g_x, = gradients(x, tape, [x])
        np.testing.assert_array_equal(g_x, [1.0])

    def test_reused_operand_accumulates(self):
        x = ad.Tensor([1.5], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.total_sum(ad.mul(x, x))
        g_x, = gradients(loss, tape, [x])
        np.testing.assert_allclose(g_x, [3.0])


def _primitive_cases(rng):
    """(name, build_loss, tensors) triples covering every primitive.

    Every random constant is drawn up front so build_loss is a fixed
    function of the checked tensors (the FD oracle re-evaluates it).
    """
    a2 = _rand(rng, 3, 4)
    b2 = _rand(rng, 4, 2)
    v4 = _rand(rng, 4)
    v4b = _rand(rng, 4)
    m34 = _rand(rng, 3, 4)
    row = _rand(rng, 1, 4)
    table = _rand(rng, 6, 3)
    c = lambda *s: ad.Tensor(rng.normal(size=s))
    w32, w4, w34, w43, w24, w3 = c(3, 2), c(4,), c(3, 4), c(4, 3), c(2, 4), c(3,)
    w12, wg43, w32b = c(12,), c(4, 3), c(3, 2)
    s234 = _rand(rng, 2, 3, 4)
    s243 = _rand(rng, 2, 4, 3)
    flat = _rand(rng, 7, 2)
    logits7 = _rand(rng, 7)
    gru, x3, h3, xb, hb = _rand_gru(rng, 3), _rand(rng, 3), _rand(rng, 3), \
        _rand(rng, 2, 3), _rand(rng, 2, 3)
    w233, w23, w7, w52 = c(2, 3, 3), c(2, 3), c(7,), c(5, 2)
    wl34, bl3, bl213 = _rand(rng, 3, 4), _rand(rng, 3), _rand(rng, 2, 1, 3)
    seg = ad.Segments([2, 0, 3, 1, 1])
    # f's dropout: a mul by the keep-mask scaled by 1 / (1 - p_drop)
    f_keep = ad.Tensor((np.random.default_rng(900).random((3, 4)) >= 0.5) / 0.5)
    # g's head: two users with 2 and 1 rows, causal widths 1, 2 and 3 of T = 3;
    # candidates from a 4-row table, item 2 read twice by row 1 and once by
    # row 0, item 3 never read.
    ht, hp, hk, hv = _rand(rng, 4, 2), _rand(rng, 3, 2), _rand(rng, 2, 3, 2), \
        _rand(rng, 2, 3, 2)
    h_ids = np.array([[0, 2], [2, 2], [1, 0]])
    hw2, hb2, hw3, hs3 = _rand(rng, 2, 2), _rand(rng, 3, 1, 2), _rand(rng, 2, 2), \
        _rand(rng, 3, 1, 2)
    h_keep, w_head = rng.random((3, 2, 2)) >= 0.5, c(3, 2)
    h_named = [("table", ht), ("values", hv), ("keys", hk), ("pos", hp), ("w2", hw2),
               ("bias2", hb2), ("w3", hw3), ("shared3", hs3)]

    def head(keep):
        out = ad.candidate_head(ht, h_ids, hv, hw2, hb2, hw3, hs3, keys=hk, pos=hp,
                                rows=ad.Segments([2, 1]), widths=np.array([1, 2, 3]),
                                keep=keep, p_drop=0.5)
        return ad.total_sum(ad.mul(out, w_head))

    return [
        ("matmul", lambda: ad.total_sum(ad.mul(ad.matmul(a2, b2), w32)),
         [("a", a2), ("b", b2)]),
        ("add", lambda: ad.total_sum(ad.mul(ad.add(m34, v4), w34)),
         [("a", m34), ("b", v4)]),
        ("mul", lambda: ad.total_sum(ad.mul(ad.mul(v4, v4b), w4)),
         [("a", v4), ("b", v4b)]),
        ("scale", lambda: ad.total_sum(ad.mul(ad.scale(m34, -1.7), w34)),
         [("a", m34)]),
        ("matmul-1d", lambda: ad.matmul(v4, v4b), [("a", v4), ("b", v4b)]),
        ("concat", lambda: ad.total_sum(
            ad.mul(ad.concat([v4, ad.relu(v4b), v4]), w12)),
         [("a", v4), ("b", v4b)]),
        ("relu", lambda: ad.total_sum(ad.mul(ad.relu(m34), w34)), [("a", m34)]),
        ("leaky-relu", lambda: ad.total_sum(ad.mul(ad.leaky_relu(m34), w34)),
         [("a", m34)]),
        ("softplus", lambda: ad.total_sum(ad.mul(ad.softplus(m34), w34)),
         [("a", m34)]),
        ("gather-rows", lambda: ad.total_sum(
            ad.mul(ad.gather_rows(table, [0, 2, 2, 5]), wg43)),
         [("table", table)]),
        ("transpose", lambda: ad.total_sum(ad.mul(ad.transpose(m34), w43)),
         [("a", m34)]),
        ("slice-rows", lambda: ad.total_sum(ad.mul(ad.slice_rows(m34, 1, 3), w24)),
         [("a", m34)]),
        ("slice-cols", lambda: ad.total_sum(ad.mul(ad.slice_cols(m34, 1, 3), w32b)),
         [("a", m34)]),
        ("reshape", lambda: ad.total_sum(ad.mul(ad.reshape(row, (4,)), w4)),
         [("a", row)]),
        ("linear", lambda: ad.total_sum(ad.mul(ad.linear(s234, wl34, bl3), w233)),
         [("x", s234), ("w", wl34), ("b", bl3)]),
        ("linear-row-bias", lambda: ad.total_sum(
            ad.mul(ad.linear(s234, wl34, bl213), w233)), [("w", wl34), ("b", bl213)]),
        ("linear-1d", lambda: ad.total_sum(ad.mul(ad.linear(v4, wl34), w3)),
         [("x", v4), ("w", wl34)]),
        ("transpose-stack", lambda: ad.total_sum(ad.mul(ad.transpose(s234), s243)),
         [("a", s234)]),
        ("gather-rows-nd", lambda: ad.total_sum(
            ad.mul(ad.gather_rows(s234, [[1, 0], [1, 1]]), ad.Tensor(np.ones((2, 2, 3, 4))))),
         [("table", s234)]),
        ("gather-rows-1d", lambda: ad.total_sum(
            ad.mul(ad.gather_rows(logits7, [6, 0, 6]), w3)), [("table", logits7)]),
        ("segment-sum", lambda: ad.total_sum(ad.mul(ad.segment_sum(flat, seg), w52)),
         [("a", flat)]),
        ("segment-mean", lambda: ad.total_sum(ad.mul(ad.segment_mean(flat, seg), w52)),
         [("a", flat)]),
        ("segment-softmax", lambda: ad.total_sum(
            ad.mul(ad.segment_softmax(logits7, seg), w7)), [("a", logits7)]),
        ("dropout", lambda: ad.total_sum(ad.mul(ad.mul(m34, f_keep), w34)),
         [("a", m34)]),
        ("candidate-head", lambda: head(h_keep), h_named),
        ("candidate-head-folded", lambda: head(None), h_named),
        ("gru-cell", lambda: ad.total_sum(ad.mul(ad.gru_cell(x3, h3, gru), w3)),
         [("x", x3), ("h", h3)] + gru.named("gru")),
        ("gru-cell-batch", lambda: ad.total_sum(ad.mul(ad.gru_cell(xb, hb, gru), w23)),
         [("x", xb), ("h", hb)] + gru.named("gru")),
    ]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_primitive_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        for name, build, tensors in _primitive_cases(rng):
            assert_gradients_match(build, tensors)

    def test_gru_cell_gradients(self):
        rng = np.random.default_rng(41)
        d = 4
        p = _rand_gru(rng, d)
        x = _rand(rng, d)
        h = _rand(rng, d)
        target = ad.Tensor(rng.normal(size=d))

        def build():
            return ad.total_sum(ad.mul(ad.gru_cell(x, h, p), target))

        assert_gradients_match(build, [("x", x), ("h", h)] + p.named("gru"))

    def test_dropout_gradient_with_fixed_mask(self):
        rng = np.random.default_rng(53)
        x = _rand(rng, 6)
        mask = ad.Tensor((rng.random(6) >= 0.5) / 0.5)
        coeff = ad.Tensor(rng.normal(size=6))

        def build():
            return ad.total_sum(ad.mul(ad.mul(x, mask), coeff))

        assert_gradients_match(build, [("x", x)])


def _three_gathers(table, gamma, rng):
    """A loss reading overlapping rows of `table` through three gathers."""
    n = table.data.shape[0]
    loss = None
    for size in (7, 12, 5):
        idx = rng.integers(0, min(n, 9), size=(size,))   # repeats within and across
        w = ad.Tensor(rng.normal(size=(size,) + table.data.shape[1:]))
        term = ad.total_sum(ad.mul(ad.gather_rows(table, idx), w))
        loss = term if loss is None else ad.add(loss, term)
    return total_loss(loss, [("table", table)], gamma)


class TestRowGradients:
    """Row gradients merged by backward equal the dense sums, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_run_starts_equal_the_concatenated_mask(self, seed):
        """gather_rows' backward finds its runs as `np.r_[True, ids[1:] != ids[:-1]]`
        did: the same ids and sums, byte for byte."""
        rng = np.random.default_rng(400 + seed)
        table = _rand(rng, 9, 2, 3)
        for shape in [(1,), (6,), (4, 5), (3, 2, 7)]:
            idx = rng.integers(0, 9 if seed % 2 else 3, size=shape)
            g = rng.normal(size=shape + (2, 3))
            with ad.Tape() as tape:
                ad.gather_rows(table, idx)
            got, = tape.records[-1].backward(g)
            flat = idx.reshape(-1)
            order = np.argsort(flat, kind="stable")
            ids = flat[order]
            starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
            want = np.add.reduceat(g.reshape((-1, 2, 3))[order], starts, axis=0)
            assert got.ids.tobytes() == ids[starts].tobytes()
            assert got.values.tobytes() == want.tobytes()


    @pytest.mark.parametrize("gamma", [0.0, 5e-4])
    def test_leaf_table_gathered_three_times(self, gamma):
        rng = np.random.default_rng(41)
        table = _rand(rng, 30, 4)
        with ad.Tape() as tape:
            loss = _three_gathers(table, gamma, rng)
        want = dense_backward(loss, tape)[id(table)]
        got, = gradients(loss, tape, [table])
        assert got.tobytes() == want.tobytes()
        assert np.count_nonzero(got.any(axis=1)) == (30 if gamma else 9)

    @pytest.mark.parametrize("gamma", [0.0, 5e-4])
    def test_gathered_non_leaf(self, gamma):
        rng = np.random.default_rng(42)
        base, w = _rand(rng, 6, 3), _rand(rng, 3, 3)
        with ad.Tape() as tape:
            table = ad.linear(base, w)          # consumed by a record: densified
            loss = total_loss(_three_gathers(table, 0.0, rng),
                              [("base", base), ("w", w)], gamma)
        want = dense_backward(loss, tape)
        for t, got in zip((base, w), gradients(loss, tape, [base, w])):
            assert got.tobytes() == want[id(t)].tobytes()

    def test_single_gather_reads_dense(self):
        rng = np.random.default_rng(43)
        table = _rand(rng, 5, 2)
        with ad.Tape() as tape:
            loss = ad.total_sum(ad.gather_rows(table, [3, 1, 3]))
        got, = gradients(loss, tape, [table])
        np.testing.assert_array_equal(got, [[0, 0], [1, 1], [0, 0], [2, 2], [0, 0]])

    @pytest.mark.parametrize("gathers", [0, 1, 3])
    def test_written_into_a_buffer_as_read_dense(self, gathers):
        """backward overwrites every entry of a NaN-filled buffer with the dense
        reference's bits: untouched, row and merged gradients alike."""
        rng = np.random.default_rng(50)
        table, other = _rand(rng, 30, 4), _rand(rng, 2)
        with ad.Tape() as tape:
            loss = ad.total_sum(other)
            for _ in range(gathers):
                idx = rng.integers(0, 9, size=5)
                loss = ad.add(loss, ad.total_sum(ad.gather_rows(table, idx)))
        want = dense_backward(loss, tape).get(id(table), np.zeros((30, 4)))
        buf = np.full((30, 4), np.nan)
        assert ad.backward(loss, tape, [(table, buf)]) is None
        assert buf.tobytes() == want.tobytes()

    def test_first_arrival_is_assigned_with_its_signed_zeros(self):
        """A dense and a row gradient of -0.0 read -0.0, as the dense reference
        has them; adding them to the zero-filled buffer would read +0.0."""
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        table = ad.Tensor(np.ones((4, 2)), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.add(ad.total_sum(ad.mul(x, ad.Tensor([-0.0, 1.0]))),
                          ad.total_sum(ad.mul(ad.gather_rows(table, [2]),
                                              ad.Tensor([[-0.0, -0.0]]))))
        want = dense_backward(loss, tape)
        g_x, g_table = gradients(loss, tape, [x, table])
        assert np.signbit(g_x).tolist() == [True, False]
        assert np.signbit(g_table).any(axis=1).tolist() == [False, False, True, False]
        assert g_x.tobytes() == want[id(x)].tobytes()
        assert g_table.tobytes() == want[id(table)].tobytes()

    def test_row_gradient_into_a_buffer_makes_no_table_sized_temporary(self):
        table = ad.Tensor(np.zeros((200_000, 8)), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.total_sum(ad.gather_rows(table, np.arange(0, 200_000, 400)))
        buf = np.ones_like(table.data)
        tracemalloc.start()
        try:
            ad.backward(loss, tape, [(table, buf)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.data.nbytes // 10, f"backward peaked at {peak} bytes"
        want = np.zeros_like(buf)
        want[::400] = 1.0
        assert np.array_equal(buf, want)

    def test_three_gathers_into_a_buffer_peak_below_a_tenth_of_the_table(self):
        """A dense table per gather needed three tables at once, and one merged
        dense buffer per table still needed one."""
        rng = np.random.default_rng(44)
        table = ad.Tensor(np.zeros((200_000, 8)), requires_grad=True)
        want = np.zeros_like(table.data)
        with ad.Tape() as tape:
            loss = None
            for _ in range(3):
                idx = rng.integers(0, 200_000, size=500)
                np.add.at(want, idx, 1.0)
                term = ad.total_sum(ad.gather_rows(table, idx))
                loss = term if loss is None else ad.add(loss, term)
        buf = np.full_like(table.data, np.nan)
        tracemalloc.start()
        try:
            ad.backward(loss, tape, [(table, buf)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.data.nbytes // 10, f"backward peaked at {peak} bytes"
        assert np.array_equal(buf, want)


def _adam_setup(rng):
    """A parameter vector spanning two blocks, its whole-array copies and a state."""
    theta = rng.normal(size=21_050)
    ref = [theta.copy(), np.zeros_like(theta), np.zeros_like(theta)]
    return theta, ref, ad.AdamState(theta, lr=0.03, beta1=0.8, beta2=0.95)


class TestAdam:
    def test_equals_whole_array_expressions_bit_for_bit(self):
        rng = np.random.default_rng(45)
        theta, ref, state = _adam_setup(rng)
        for step in range(1, 6):
            grad = rng.normal(size=theta.size)
            ad.adam_step(theta, grad, state)
            adam_update(*ref, grad, step, 0.03, 0.8, 0.95, 1e-8)
            assert np.array_equal(theta, ref[0])
            assert np.array_equal(state.m, ref[1])
            assert np.array_equal(state.v, ref[2])

    def test_penalty_equals_whole_array_expressions_bit_for_bit(self):
        """Without clipping, the step is Adam on g + 2 gamma theta, bit for bit."""
        rng = np.random.default_rng(47)
        gamma = 5e-4
        theta, ref, state = _adam_setup(rng)
        for step in range(1, 6):
            grad = rng.normal(size=theta.size)
            want_sq = float((ref[0] ** 2).sum())
            sq_theta, norm = ad.adam_step(theta, grad, state, gamma=gamma)
            penalized = grad + 2 * gamma * ref[0]
            _, want_norm = clip({"e": penalized}, 0.0)
            np.testing.assert_allclose(sq_theta, want_sq, rtol=1e-14, atol=0)
            np.testing.assert_allclose(norm, want_norm, rtol=1e-14, atol=0)
            adam_update(*ref, penalized, step, 0.03, 0.8, 0.95, 1e-8)
            assert np.array_equal(theta, ref[0])
            assert np.array_equal(state.m, ref[1])
            assert np.array_equal(state.v, ref[2])

    @pytest.mark.parametrize("gamma", [0.0, 5e-4])
    def test_clipped_step_matches_whole_array_route(self, gamma):
        """Clipped: only the global norm's summation order differs."""
        rng = np.random.default_rng(48)
        theta, ref, state = _adam_setup(rng)
        for step in range(1, 6):
            grad = rng.normal(size=theta.size)
            clipped, want_norm = clip({"e": grad + 2 * gamma * ref[0]}, 1.0)
            _, norm = ad.adam_step(theta, grad, state, gamma=gamma, clip_norm=1.0)
            assert want_norm > 1.0
            np.testing.assert_allclose(norm, want_norm, rtol=1e-14, atol=0)
            adam_update(*ref, clipped["e"], step, 0.03, 0.8, 0.95, 1e-8)
            for got, want in zip((theta, state.m, state.v), ref):
                scale = np.abs(want).max()
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * scale)

    def test_clip_off_below_the_norm(self):
        """clip_norm = 0, or above the norm, leaves the gradient unscaled."""
        rng = np.random.default_rng(49)
        grad = rng.normal(size=12)
        runs = []
        for clip_norm in (0.0, 1e6):
            w = np.ones(12)
            state = ad.AdamState(w, lr=0.1)
            for _ in range(3):
                _, norm = ad.adam_step(w, grad, state, clip_norm=clip_norm)
            runs.append(w)
        assert norm == clip({"w": grad}, 0.0)[1] and np.array_equal(*runs)

    @pytest.mark.parametrize("gamma, clip_norm", [(0.0, 0.0), (5e-4, 5.0)],
                             ids=["plain", "penalty-and-clip"])
    def test_repeated_step_allocates_less_than_a_table(self, gamma, clip_norm):
        rng = np.random.default_rng(46)
        theta = rng.normal(size=200_000 * 8)
        state = ad.AdamState(theta)
        grad = rng.normal(size=theta.size)
        ad.adam_step(theta, grad, state, gamma, clip_norm)
        tracemalloc.start()
        try:
            for _ in range(3):
                _, norm = ad.adam_step(theta, grad, state, gamma, clip_norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < theta.nbytes, f"adam_step peaked at {peak} bytes"
        assert norm > clip_norm          # clipping fires when it is on

    def test_zero_gradient_leaves_params_unchanged(self):
        t = np.array([1.0, -2.0])
        before = t.copy()
        state = ad.AdamState(t, lr=0.5)
        ad.adam_step(t, np.zeros(2), state)
        np.testing.assert_array_equal(t, before)
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        for g in (0.3, -4.0):
            t = np.array([1.0])
            state = ad.AdamState(t, lr=0.01)
            ad.adam_step(t, np.array([g]), state)
            want = 1.0 - 0.01 * g / (abs(g) + 1e-8)
            np.testing.assert_allclose(t, [want], atol=1e-12)

    def test_three_steps_match_scalar_recurrence(self):
        g = 0.7
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        t = np.array([2.0])
        state = ad.AdamState(t, lr=lr, beta1=b1, beta2=b2, eps=eps)
        theta, m, v = 2.0, 0.0, 0.0
        for step in range(1, 4):
            ad.adam_step(t, np.array([g]), state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** step)
            vhat = v / (1 - b2 ** step)
            theta -= lr * mhat / (np.sqrt(vhat) + eps)
            np.testing.assert_allclose(t, [theta], atol=1e-12)
