"""Loss assembly, exact conditional oracle, inference probability."""

import numpy as np
import pytest

from tea import autodiff as ad
from tea.objective import NonFiniteScoreError, sequence_loss, total_loss

from gradcheck import assert_gradients_match
from oracles import exact_conditional, predict_probability


def _batch(rows, users=None, step=1):
    """(score matrix, keys) for rows of (positive, negatives), target first."""
    scores = ad.Tensor(np.array([[pos] + list(negs) for pos, negs in rows]))
    users = range(len(rows)) if users is None else users
    return scores, [(u, step) for u in users]


def _np_loss(steps):
    """Term-by-term reference: -(1/N) sum[log sig(pos) + sum log sig(-neg)]."""
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    total = 0.0
    for pos, negs in steps:
        total += np.log(sig(pos)) + sum(np.log(sig(-n)) for n in negs)
    return -total / len(steps)


class TestSequenceLoss:
    def test_all_zero_scores(self):
        loss = sequence_loss(*_batch([(0.0, np.zeros(50))]), n_s=50)
        np.testing.assert_allclose(loss.item(), 51 * np.log(2.0), atol=1e-9)

    def test_saturated_scores_vanish(self):
        loss = sequence_loss(*_batch([(100.0, -100.0 * np.ones(50))]), n_s=50)
        assert loss.item() < 1e-6

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(0)
        steps = [(rng.normal(scale=3.0), rng.normal(scale=3.0, size=4))
                 for _ in range(7)]
        got = sequence_loss(*_batch(steps), n_s=4).item()
        np.testing.assert_allclose(got, _np_loss(steps), atol=1e-10)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            sequence_loss(ad.Tensor(np.zeros((0, 6))), [], n_s=5)

    def test_wrong_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sequence_loss(*_batch([(0.0, np.zeros(3))]), n_s=5)

    @pytest.mark.parametrize("pos, neg", [(np.nan, 0.0), (0.0, np.inf)])
    def test_non_finite_score_has_its_own_type(self, pos, neg):
        rows = [(0.0, np.zeros(2)), (pos, np.array([0.0, neg]))]
        with pytest.raises(NonFiniteScoreError, match=r"step \(2,1\)"):
            sequence_loss(*_batch(rows, users=[1, 2]), n_s=2)

    def test_monotone_in_scores(self):
        # decreasing in the positive score, increasing in each negative
        base = sequence_loss(*_batch([(0.3, [0.1, -0.2])]), 2).item()
        up_pos = sequence_loss(*_batch([(0.8, [0.1, -0.2])]), 2).item()
        up_neg = sequence_loss(*_batch([(0.3, [0.6, -0.2])]), 2).item()
        assert up_pos < base < up_neg

    def test_from_score_vector(self):
        # column 0 of a candidate score row is the target, the rest negatives
        scores = ad.Tensor([[1.0, -1.0, 2.0]])
        got = sequence_loss(scores, [(3, 2)], n_s=2).item()
        np.testing.assert_allclose(got, _np_loss([(1.0, [-1.0, 2.0])]), atol=1e-12)
        swapped = sequence_loss(ad.Tensor([[2.0, -1.0, 1.0]]), [(3, 2)], n_s=2).item()
        assert swapped < got

    def test_uses_a_fixed_number_of_records(self):
        rng = np.random.default_rng(5)
        for n in (1, 40):
            scores = ad.Tensor(rng.normal(size=(n, 6)), requires_grad=True)
            with ad.Tape() as tape:
                sequence_loss(scores, [(u, 1) for u in range(n)], n_s=5)
            assert len(tape) == 4

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        scores = ad.Tensor(rng.normal(scale=2.0, size=(5, 4)), requires_grad=True)
        keys = [(u, 1) for u in range(5)]
        assert_gradients_match(lambda: sequence_loss(scores, keys, n_s=3),
                               [("scores", scores)])


class TestTotalLoss:
    def test_gamma_zero_is_identity(self):
        crf = ad.Tensor([1.25])
        out = total_loss(crf, [("w", ad.Tensor([9.0], requires_grad=True))], 0.0)
        assert out is crf

    def test_zero_parameters_no_penalty(self):
        crf = ad.Tensor(np.asarray(2.0))
        out = total_loss(crf, [("w", ad.Tensor(np.zeros(4), requires_grad=True))], 1.0)
        np.testing.assert_allclose(out.item(), 2.0)

    def test_squared_norm(self):
        crf = ad.Tensor(np.asarray(0.0))
        w = ad.Tensor([3.0, 4.0], requires_grad=True)
        out = total_loss(crf, [("w", w)], gamma=1.0)
        np.testing.assert_allclose(out.item(), 25.0)

    def test_penalty_is_one_record(self):
        rng = np.random.default_rng(8)
        named = [(f"w{i}", ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True))
                 for i in range(30)]
        crf = ad.Tensor(np.asarray(0.5), requires_grad=True)
        with ad.Tape() as tape:
            out = total_loss(crf, named, gamma=0.01)
        # sum_of_squares, scale and the add onto the crf loss
        assert len(tape) == 3
        want = 0.5 + 0.01 * sum(float((t.data ** 2).sum()) for _, t in named)
        np.testing.assert_allclose(out.item(), want, atol=1e-12)
        grads = ad.backward(out, tape)
        for _, t in named:
            np.testing.assert_allclose(grads.of(t), 0.02 * t.data, atol=1e-15)

    def test_penalty_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        named = [("a", ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)),
                 ("b", ad.Tensor(rng.normal(size=4), requires_grad=True))]
        crf = ad.Tensor(np.asarray(0.0))
        assert_gradients_match(lambda: total_loss(crf, named, gamma=0.3), named)


class TestExactConditional:
    def test_equal_scores_uniform(self):
        out = exact_conditional(np.full(8, 1.3))
        np.testing.assert_allclose(out, np.full(8, 1 / 8), atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = exact_conditional(rng.normal(scale=100.0, size=17))
            np.testing.assert_allclose(out.sum(), 1.0, atol=1e-10)

    def test_matches_unstabilized_enumeration(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=5)
        want = np.exp(scores) / np.exp(scores).sum()
        np.testing.assert_allclose(exact_conditional(scores), want, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=11)
        a = exact_conditional(scores)
        b = exact_conditional(scores + 123.456)
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestPredictProbability:
    def test_zero_is_half(self):
        assert predict_probability(0.0, 0.0) == 0.5

    def test_saturation(self):
        assert predict_probability(12.0, 8.0) > 0.9999
        assert predict_probability(-12.0, -8.0) < 1e-4

    def test_strictly_increasing(self):
        xs = np.linspace(-30, 30, 301)
        probs = [predict_probability(x, 0.0) for x in xs]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_ranking_matches_raw_scores(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=40)
        g = rng.normal(size=40)
        raw_order = np.argsort(f + g)
        prob_order = np.argsort([predict_probability(a, b) for a, b in zip(f, g)])
        np.testing.assert_array_equal(raw_order, prob_order)

    def test_stays_in_open_interval(self):
        for x in (-700.0, 700.0):
            p = predict_probability(x, 0.0)
            assert 0.0 <= p <= 1.0 and np.isfinite(p)
