"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic-learnability criterion trains real models and takes
a few minutes; everything else is fast.
"""

import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

from tea import autodiff as ad
from tea.cli import main
from tea.data import prepare_dataset, sample_negatives
from tea.evaluation import (EvalConfig, evaluate_all, hr_at_k, ndcg_at_k, rank)
from tea.model import positive_target, score_user_steps, user_context
from tea.objective import sequence_loss, total_loss
from tea.params import init_params
from tea.training import TrainConfig, train

from corpus import (cycle_corpus, follower_corpus, synthetic_dataset,
                    write_corpus)
from gradcheck import max_mismatch, numeric_gradient
from oracles import exact_conditional, score_candidates_single_route
from test_autodiff import _primitive_cases


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


def _tiny_loss_setup(seed):
    """Tiny model (3 users, 5 items, d=4, window 3, 2 negatives) plus a loss."""
    ds = synthetic_dataset(n_users=3, n_items=5, seq_len=3, seed=5000 + seed,
                           l_s=3)
    params = init_params(3, 5, d=4, l_s=3, variant="tea-s", seed=seed)
    rng = np.random.default_rng(seed)
    user = int(rng.integers(0, 3))
    step = int(rng.integers(1, 3))
    pos = positive_target(ds, user, step)
    negs = sample_negatives(pos, 5, 2, rng)

    def build_loss():
        scores = score_user_steps(params, [user_context(ds, user, "train")],
                                  [[step]], [[pos] + negs])
        crf = sequence_loss(scores, [(user, step)], n_s=2)
        return total_loss(crf, params.trainable(), gamma=5e-4)

    return params, build_loss


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        with criterion("1 gradient-suite"):
            # every primitive at 100 random points
            for seed in range(100):
                rng = np.random.default_rng(10_000 + seed)
                for name, build, tensors in _primitive_cases(rng):
                    with ad.Tape() as tape:
                        loss = build()
                    grads = ad.backward(loss, tape)
                    for tname, tensor in tensors:
                        numeric = numeric_gradient(lambda: build().item(), tensor)
                        worst = max_mismatch(grads.of(tensor), numeric)
                        assert worst < 1e-4, (
                            f"primitive {name}/{tname} seed {seed}: {worst:.2e}")
            # full composed loss on the tiny model at 100 random seeds
            for seed in range(100):
                params, build_loss = _tiny_loss_setup(seed)
                with ad.Tape() as tape:
                    loss = build_loss()
                grads = ad.backward(loss, tape)
                forward = lambda: build_loss().item()
                for name, tensor in params.trainable():
                    numeric = numeric_gradient(forward, tensor)
                    worst = max_mismatch(grads.of(tensor), numeric)
                    assert worst < 1e-4, f"{name} seed {seed}: {worst:.2e}"


class TestCriterion2ExactConditional:
    def test_oracle_equivalence(self):
        with criterion("2 exact-conditional"):
            ds = synthetic_dataset(n_users=6, n_items=50, seq_len=4, seed=77,
                                   l_s=6)
            for draw in range(100):
                params = init_params(6, 50, d=4, l_s=6, variant="tea-s",
                                     seed=20_000 + draw)
                rng = np.random.default_rng(draw)
                user = int(rng.integers(0, 6))
                ctx = user_context(ds, user, "train")
                step = int(rng.integers(1, 4))
                all_items = list(range(50))
                fast = score_user_steps(params, [ctx], [[step]], [all_items]).data[0]
                probs = exact_conditional(fast)
                assert abs(probs.sum() - 1.0) <= 1e-8
                slow = score_candidates_single_route(params, ctx, step, all_items)
                enumerated = np.exp(slow) / np.exp(slow).sum()
                np.testing.assert_allclose(probs, enumerated, atol=1e-10)


class TestCriterion3LossSanity:
    def test_loss_values(self):
        with criterion("3 loss-sanity"):
            zero = ad.Tensor(np.zeros((1, 51)))
            got = sequence_loss(zero, [(0, 1)], n_s=50).item()
            assert abs(got - 51 * np.log(2.0)) <= 1e-9
            rng = np.random.default_rng(33)
            sig = lambda x: 1.0 / (1.0 + np.exp(-x))
            for _ in range(50):
                raw = [(rng.normal(scale=4.0), rng.normal(scale=4.0, size=50))
                       for _ in range(5)]
                batch = ad.Tensor(np.array([[p] + list(n) for p, n in raw]))
                want = -np.mean([np.log(sig(p)) + np.log(sig(-n)).sum()
                                 for p, n in raw])
                got = sequence_loss(batch, [(i, 1) for i in range(5)], n_s=50).item()
                assert abs(got - want) <= 1e-10


class TestCriterion4Metrics:
    def test_metric_suite(self):
        with criterion("4 metric-suite"):
            assert (hr_at_k(1, 5), ndcg_at_k(1, 5)) == (1.0, 1.0)
            assert hr_at_k(3, 10) == 1.0 and ndcg_at_k(3, 10) == 0.5
            assert (hr_at_k(11, 10), ndcg_at_k(11, 10)) == (0.0, 0.0)
            rng = np.random.default_rng(44)
            for _ in range(1000):
                r = int(rng.integers(1, 102))
                for k in (5, 10, 20):
                    assert ndcg_at_k(r, k) <= hr_at_k(r, k)
            for _ in range(200):
                scores = rng.normal(size=101)
                truth = int(rng.integers(0, 101))
                assert rank(scores, truth) == rank(scores + 3.25, truth)


def _train_and_test_hr(ds, variant, seed=0):
    config = TrainConfig(d=16, batch_size=128, max_epochs=50, patience=50,
                         seed=seed, variant=variant, all_steps=True)
    result = train(ds, config)
    report = evaluate_all(result.params, ds, "test",
                          EvalConfig(ks=(10,), n_neg=49, seed=seed))
    return report.hr[10]


class TestCriterion5Learnability:
    def test_synthetic_learnability(self, tmp_path):
        with criterion("5 synthetic-learnability"):
            # (a) next item fully determined by the current one
            rows, pairs = cycle_corpus(n_users=200, n_items=50, length=8)
            inter, social = write_corpus(str(tmp_path / "cycle"), rows, pairs)
            ds_cycle = prepare_dataset(inter, social, seed=0)
            hr_cycle = _train_and_test_hr(ds_cycle, "tea-s")
            print(f"\n  cycle corpus TEA-S test HR@10 = {hr_cycle:.3f}")
            assert hr_cycle >= 0.9
            # (b) next item determined solely by the neighbors' current items
            rows, pairs = follower_corpus(n_followers=100, n_items=50,
                                          length=10, seed=7)
            inter, social = write_corpus(str(tmp_path / "soc"), rows, pairs)
            ds_social = prepare_dataset(inter, social, seed=0)
            inter_e, social_e = write_corpus(str(tmp_path / "soc_empty"), rows,
                                             pairs, with_social=False)
            ds_empty = prepare_dataset(inter_e, social_e, seed=0)
            hr_full = _train_and_test_hr(ds_social, "tea-s")
            hr_ablation = _train_and_test_hr(ds_empty, "tea-rs")
            print(f"  follower corpus TEA-S {hr_full:.3f} vs "
                  f"sequence-only ablation {hr_ablation:.3f}")
            assert hr_full - hr_ablation >= 0.10


class TestCriterion6Determinism:
    def test_cli_runs_bit_identical(self, tmp_path):
        with criterion("6 determinism"):
            rows, pairs = cycle_corpus(n_users=10, n_items=20, length=16,
                                       stride=2)
            inter, social = write_corpus(str(tmp_path / "c"), rows, pairs)
            data = str(tmp_path / "data")
            assert main(["prepare", "--interactions", inter, "--social", social,
                         "--out", data, "--ls", "16", "--ln", "5"]) == 0
            curves, reports = [], []
            for tag in ("r1", "r2"):
                out = str(tmp_path / tag)
                assert main(["train", "--data", data, "--variant", "tea-s",
                             "--out", out, "--seed", "7", "--d", "8",
                             "--ns", "10", "--max-epochs", "2",
                             "--batch-size", "32"]) == 0
                curves.append(open(os.path.join(out, "curve.csv"), "rb").read())
                assert main(["eval", "--data", data, "--checkpoint",
                             os.path.join(out, "checkpoint.tea"),
                             "--split", "test", "--out", out,
                             "--seed", "7"]) == 0
                rep = json.load(open(os.path.join(out, "report_test.json")))
                rep.pop("wall_clock_seconds")
                reports.append(rep)
            assert curves[0] == curves[1]
            assert reports[0] == reports[1]


class TestCriterion7RandomBaseline:
    def test_random_scorer_calibration(self):
        with criterion("7 random-baseline"):
            rng = np.random.default_rng(4242)
            hits = []
            for _ in range(1500):
                scores = rng.normal(size=101)
                hits.append(hr_at_k(rank(scores, 0), 10))
            mean = float(np.mean(hits))
            print(f"\n  random-scorer HR@10 = {mean:.4f} (expect ~0.0990)")
            assert abs(mean - 10 / 101) <= 0.02


SMOKE_INTERACTIONS = os.environ.get("TEA_SMOKE_INTERACTIONS")
SMOKE_SOCIAL = os.environ.get("TEA_SMOKE_SOCIAL")


@pytest.mark.skipif(not (SMOKE_INTERACTIONS and SMOKE_SOCIAL),
                    reason="optional smoke run: set TEA_SMOKE_INTERACTIONS and "
                           "TEA_SMOKE_SOCIAL to raw dump paths")
class TestCriterion8OptionalSmoke:
    def test_subsampled_real_data(self, tmp_path):
        """Non-gating sanity run on a ~5k-user subsample of a real dump."""
        with criterion("8 optional-smoke"):
            loaded = open(SMOKE_INTERACTIONS, encoding="utf-8").read().splitlines()
            rng = np.random.default_rng(0)
            users = sorted({line.split("\t")[0] for line in loaded if line})
            keep = set(rng.choice(users, size=min(5000, len(users)),
                                  replace=False).tolist())
            sub = tmp_path / "sub.tsv"
            sub.write_text("\n".join(l for l in loaded
                                     if l.split("\t")[0] in keep) + "\n")
            ds = prepare_dataset(str(sub), SMOKE_SOCIAL, seed=0)
            config = TrainConfig(d=16, batch_size=256, max_epochs=10,
                                 patience=3, seed=0, variant="tea-s",
                                 all_steps=False, n_s=20)
            result = train(ds, config, log=print)
            report = evaluate_all(result.params, ds, "test",
                                  EvalConfig(ks=(10,), n_neg=100, seed=0))
            print(f"\n  smoke test HR@10 = {report.hr[10]:.3f}")
            assert report.hr[10] >= 0.20
