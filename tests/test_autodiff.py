"""Engine-level tests: primitive forwards, gradient oracles, Adam, GRU."""

import numpy as np
import pytest

from tea import autodiff as ad

from gradcheck import assert_gradients_match, numeric_gradient, max_mismatch


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
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones((3, 2))))

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


class TestMaskedSoftmax:
    def test_single_element(self):
        out = ad.masked_softmax(ad.Tensor([5.0]), [True])
        np.testing.assert_allclose(out.data, [1.0])

    def test_uniform_over_unmasked(self):
        out = ad.masked_softmax(ad.Tensor([0.0, 0.0, 0.0]), [True, True, False])
        np.testing.assert_allclose(out.data, [0.5, 0.5, 0.0])

    def test_matches_unstabilized_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(1, 6))
        mask = np.array([[True, False, True, True, False, True]])
        got = ad.masked_softmax(ad.Tensor(logits), mask).data
        e = np.where(mask, np.exp(logits), 0.0)
        want = e / e.sum()
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_all_masked_row_raises(self):
        with pytest.raises(ad.AllMaskedError, match="row 1"):
            ad.masked_softmax(ad.Tensor(np.zeros((2, 3))),
                              [[True, True, True], [False, False, False]])

    def test_last_axis_of_a_stack(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(2, 3, 5))
        mask = rng.random((2, 3, 5)) > 0.5
        mask[..., 0] = True
        got = ad.masked_softmax(ad.Tensor(logits), mask).data
        for i in range(2):
            want = ad.masked_softmax(ad.Tensor(logits[i]), mask[i]).data
            np.testing.assert_array_equal(got[i], want)
        with pytest.raises(ad.AllMaskedError, match=r"row \(1, 2\)"):
            mask[1, 2] = False
            ad.masked_softmax(ad.Tensor(logits), mask)

    def test_probability_vector_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            logits = rng.normal(scale=30.0, size=(4, 7))
            mask = rng.random((4, 7)) > 0.3
            mask[:, 0] = True  # keep every row alive
            out = ad.masked_softmax(ad.Tensor(logits), mask).data
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(out[~mask] == 0.0)


def _zero_gru(d):
    z = lambda *s: ad.Tensor(np.zeros(s), requires_grad=True)
    return ad.GruParams(z(d, d), z(d, d), z(d), z(d, d), z(d, d), z(d),
                        z(d, d), z(d, d), z(d))


def _rand_gru(rng, d):
    r = lambda *s: _rand(rng, *s)
    return ad.GruParams(r(d, d), r(d, d), r(d), r(d, d), r(d, d), r(d),
                        r(d, d), r(d, d), r(d))


def _gru_oracle(x, h, p):
    """Gate-by-gate reference recurrence on raw arrays."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sig(p.w_xz.data @ x + p.w_hz.data @ h + p.b_z.data)
    r = sig(p.w_xr.data @ x + p.w_hr.data @ h + p.b_r.data)
    n = np.tanh(p.w_xn.data @ x + r * (p.w_hn.data @ h) + p.b_n.data)
    return (1.0 - z) * n + z * h


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
            want = _gru_oracle(x, want, p)
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
            np.testing.assert_allclose(row, _gru_oracle(x, h, p), atol=1e-12, rtol=0)

    def test_one_tape_record(self):
        rng = np.random.default_rng(25)
        p = _rand_gru(rng, 3)
        with ad.Tape() as tape:
            ad.gru_cell(ad.Tensor(rng.normal(size=(4, 3))), ad.zeros(4, 3), p)
        assert len(tape) == 1


class TestBackward:
    def test_product_rule(self):
        x = ad.Tensor([2.0], requires_grad=True)
        y = ad.Tensor([3.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.total_sum(ad.mul(x, y))
        grads = ad.backward(loss, tape)
        assert grads.of(x)[0] == 3.0
        assert grads.of(y)[0] == 2.0

    def test_constant_loss_zero_gradients(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            ad.relu(x)  # on tape but unconnected to the loss
            loss = ad.total_sum(ad.Tensor([7.0]))
        grads = ad.backward(loss, tape)
        np.testing.assert_array_equal(grads.of(x), [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            out = ad.relu(x)
        with pytest.raises(ad.NonScalarLossError):
            ad.backward(out, tape)

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
        g1 = ad.backward(l1, t1)
        with ad.Tape() as t2:
            l2 = loss_b()
        g2 = ad.backward(l2, t2)
        with ad.Tape() as t3:
            l3 = ad.add(loss_a(), loss_b())
        g3 = ad.backward(l3, t3)
        for t in (w, x):
            np.testing.assert_allclose(g3.of(t), g1.of(t) + g2.of(t), atol=1e-12)

    def test_reused_operand_accumulates(self):
        x = ad.Tensor([1.5], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.total_sum(ad.mul(x, x))
        grads = ad.backward(loss, tape)
        np.testing.assert_allclose(grads.of(x), [3.0])


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
    mask = rng.random((3, 4)) > 0.4
    mask[:, 0] = True
    s234 = _rand(rng, 2, 3, 4)
    s243 = _rand(rng, 2, 4, 3)
    flat = _rand(rng, 7, 2)
    logits7 = _rand(rng, 7)
    gru, x3, h3, xb, hb = _rand_gru(rng, 3), _rand(rng, 3), _rand(rng, 3), \
        _rand(rng, 2, 3), _rand(rng, 2, 3)
    w233, w23, w7, w52 = c(2, 3, 3), c(2, 3), c(7,), c(5, 2)
    wl34, bl3, bl213 = _rand(rng, 3, 4), _rand(rng, 3), _rand(rng, 2, 1, 3)
    mask3 = rng.random((2, 3, 4)) > 0.4
    mask3[..., 0] = True
    seg = ad.Segments([2, 0, 3, 1, 1])
    streams = lambda: [np.random.default_rng(900 + i) for i in range(3)]
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
        ("row-sum", lambda: ad.total_sum(ad.mul(ad.row_sum(m34), w3)),
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
        ("masked-softmax", lambda: ad.total_sum(
            ad.mul(ad.masked_softmax(m34, mask), w34)), [("a", m34)]),
        ("linear", lambda: ad.total_sum(ad.mul(ad.linear(s234, wl34, bl3), w233)),
         [("x", s234), ("w", wl34), ("b", bl3)]),
        ("linear-row-bias", lambda: ad.total_sum(
            ad.mul(ad.linear(s234, wl34, bl213), w233)), [("w", wl34), ("b", bl213)]),
        ("linear-1d", lambda: ad.total_sum(ad.mul(ad.linear(v4, wl34), w3)),
         [("x", v4), ("w", wl34)]),
        ("matmul-paired", lambda: ad.total_sum(ad.mul(ad.matmul(s234, s243), w233)),
         [("a", s234), ("b", s243)]),
        ("transpose-stack", lambda: ad.total_sum(ad.mul(ad.transpose(s234), s243)),
         [("a", s234)]),
        ("row-sum-stack", lambda: ad.total_sum(ad.mul(ad.row_sum(s234), w23)),
         [("a", s234)]),
        ("gather-rows-nd", lambda: ad.total_sum(
            ad.mul(ad.gather_rows(s234, [[1, 0], [1, 1]]), ad.Tensor(np.ones((2, 2, 3, 4))))),
         [("table", s234)]),
        ("gather-rows-1d", lambda: ad.total_sum(
            ad.mul(ad.gather_rows(logits7, [6, 0, 6]), w3)), [("table", logits7)]),
        ("masked-softmax-stack", lambda: ad.total_sum(
            ad.mul(ad.masked_softmax(s234, mask3), s234)), [("a", s234)]),
        ("segment-sum", lambda: ad.total_sum(ad.mul(ad.segment_sum(flat, seg), w52)),
         [("a", flat)]),
        ("segment-mean", lambda: ad.total_sum(ad.mul(ad.segment_mean(flat, seg), w52)),
         [("a", flat)]),
        ("segment-softmax", lambda: ad.total_sum(
            ad.mul(ad.segment_softmax(logits7, seg), w7)), [("a", logits7)]),
        ("sum-of-squares", lambda: ad.sum_of_squares([m34, v4, m34]),
         [("a", m34), ("b", v4)]),
        ("dropout", lambda: ad.total_sum(ad.mul(ad.dropout(m34, 0.5, streams()), w34)),
         [("a", m34)]),
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


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        t = ad.Tensor([1.0, -2.0], requires_grad=True)
        before = t.data.copy()
        state = ad.AdamState([("t", t)], lr=0.5)
        ad.adam_step([("t", t)], {"t": np.zeros(2)}, state)
        np.testing.assert_array_equal(t.data, before)
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        for g in (0.3, -4.0):
            t = ad.Tensor([1.0], requires_grad=True)
            state = ad.AdamState([("t", t)], lr=0.01)
            ad.adam_step([("t", t)], {"t": np.array([g])}, state)
            want = 1.0 - 0.01 * g / (abs(g) + 1e-8)
            np.testing.assert_allclose(t.data, [want], atol=1e-12)

    def test_three_steps_match_scalar_recurrence(self):
        g = 0.7
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        t = ad.Tensor([2.0], requires_grad=True)
        state = ad.AdamState([("t", t)], lr=lr, beta1=b1, beta2=b2, eps=eps)
        theta, m, v = 2.0, 0.0, 0.0
        for step in range(1, 4):
            ad.adam_step([("t", t)], {"t": np.array([g])}, state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** step)
            vhat = v / (1 - b2 ** step)
            theta -= lr * mhat / (np.sqrt(vhat) + eps)
            np.testing.assert_allclose(t.data, [theta], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        t = ad.Tensor([1.0, 2.0], requires_grad=True)
        state = ad.AdamState([("t", t)])
        with pytest.raises(ad.ShapeError, match="adam-step"):
            ad.adam_step([("t", t)], {"t": np.zeros(3)}, state)
