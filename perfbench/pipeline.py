"""One benchmark run: generate a corpus, drive the tea pipeline, check and measure.

The run goes through the public entry points a user of `tea` goes through:
`prepare_dataset`, `PreparedDataset.save`/`load`, `train` and
`evaluate_all`. Load is closed-loop: one caller that waits for each phase.
Each phase repeats until its share of the run's time is used and reports
the median repetition, in seconds at nominal machine speed (see speed.py).
Every repetition is one attempted operation, and it fails if it raises or
an output check on it does not hold. After the timed phases, an untimed
quality guard trains on a corpus whose held-out items only the context
predicts (see synth.py) and reports its test HR@10 and NDCG@10.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

import tea
from tea import autodiff, data, evaluation, model, params, training, transition, unary

from run import THREAD_VARS
from speed import SpeedProbe
from synth import CorpusShape, generate, generate_chain, write_corpus
from tracer import SpanTable, Tracer

EVAL_KS = (5, 10, 20)
EVAL_NEG = 100
EPOCHS = 1
BATCH_SIZE = 64

# Share of the run's seconds after which each phase stops starting repetitions.
SETUP_SHARE, TRAIN_SHARE = 0.10, 0.60
SETUP_MIN_REPS, TRAIN_MIN_REPS, EVAL_MIN_REPS = 5, 2, 3

# The quality guard: tea-s on a successor-chain corpus, trained until test
# HR@10 reads 1 and NDCG@10 about 0.99 on every seed, which takes about seven
# seconds. Small batches, no dropout and a raised learning rate let it learn
# the chains within GUARD_EPOCHS. The catalog is kept small so that each
# item's successor is seen often; candidate sets hold GUARD_NEG negatives.
GUARD_USERS, GUARD_ITEMS, GUARD_EVENTS, GUARD_EPOCHS = 120, 60, 10, 4
GUARD_NEG = 50


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusShape
    variant: str
    d: int
    l_s: int = 50
    min_actions: int = 5
    all_steps: bool = True


WORKLOADS = {w.name: w for w in (
    Workload(
        name="short-seq",
        why=("150 users with 30-event sequences below l_s: per-op interpreter cost "
             "dominates; the per-user scoring path runs with buckets and walks filled"),
        corpus=CorpusShape(n_users=150, n_items=300, events=30, events_spread=2,
                           p_popular=0.5),
        variant="tea-s", d=32),
    # l_s=16 instead of the default 50 keeps an epoch near ten seconds: the
    # fallback re-scores every prefix, so its cost grows with l_s squared.
    Workload(
        name="long-seq",
        why=("nearly every user is truncated to exactly l_s events, so training takes "
             "the per-step fallback; tea-a runs the attention bipartite aggregator"),
        corpus=CorpusShape(n_users=100, n_items=180, events=22, events_spread=1,
                           p_popular=0.5),
        variant="tea-a", d=32, l_s=16),
    # Final step only (`tea train --final-step-only`): a catalog of 10k items
    # needs more events than an all-steps epoch can train on in a run.
    Workload(
        name="wide-catalog",
        why=("1300 users with about 7 training events over a catalog of 10k+ items: "
             "table-sized gradients, Adam, L2 and clones dominate; tea-rs has no walks"),
        corpus=CorpusShape(n_users=1300, n_items=200000, events=9, events_spread=1,
                           p_popular=0.05),
        variant="tea-rs", d=16, min_actions=1, all_steps=False),
)}


class CheckFailed(Exception):
    """An output of the pipeline is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Run:
    """Counts attempted and failed operations and keeps each failure's message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, label: str, fn):
        """Run one operation; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn()
        except (CheckFailed, training.NumericalError, ValueError, ArithmeticError,
                OSError, IndexError, KeyError) as exc:
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


def train_config(w: Workload, seed: int) -> training.TrainConfig:
    # patience > epochs keeps early stopping off, so every rep runs every epoch.
    return training.TrainConfig(d=w.d, batch_size=BATCH_SIZE, max_epochs=EPOCHS,
                                patience=EPOCHS + 1, seed=seed, variant=w.variant,
                                l_s=w.l_s, all_steps=w.all_steps)


def guard_config(seed: int) -> training.TrainConfig:
    return training.TrainConfig(d=32, batch_size=16, lr=0.03, p_drop=0.0,
                                max_epochs=GUARD_EPOCHS, patience=GUARD_EPOCHS + 1,
                                seed=seed, variant="tea-s")


def eval_config(seed: int, n_neg: int = EVAL_NEG) -> evaluation.EvalConfig:
    return evaluation.EvalConfig(ks=EVAL_KS, n_neg=n_neg, seed=seed)


def steps_per_epoch(ds, all_steps: bool) -> int:
    lengths = [len(u.seq_items) for u in ds.users]
    return sum(n - 1 for n in lengths) if all_steps else sum(n >= 2 for n in lengths)


def corpus_properties(ds, w: Workload) -> dict:
    """Input properties a later claim may depend on, as measured shares."""
    l_s = ds.config["l_s"]
    buckets = [b for u in ds.users for b in u.buckets]
    walks = [s for u in ds.users for s in u.walks]
    return {
        "users": ds.n_users,
        "catalog_items": ds.n_items,
        "interactions": ds.n_interactions,
        "social_links": ds.social.edge_count(),
        "steps_per_epoch": steps_per_epoch(ds, w.all_steps),
        "mean_seq_len": sum(len(u.seq_items) for u in ds.users) / ds.n_users,
        "share_users_at_ls": sum(len(u.seq_items) >= l_s for u in ds.users) / ds.n_users,
        "share_nonempty_buckets": sum(map(bool, buckets)) / max(len(buckets), 1),
        "share_nonempty_walks": sum(map(bool, walks)) / max(len(walks), 1),
    }


def environment(w: Workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "tea": tea.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": w.name,
        "seed": seed,
        "epochs": EPOCHS,
        "guard_epochs": GUARD_EPOCHS,
    }


# ---------------------------------------------------------------------------
# Phases and their output checks
# ---------------------------------------------------------------------------


def setup_once(w: Workload, seed: int, corpus: tuple[str, str], snap_dir: str):
    """prepare -> save -> load, the cost of `tea prepare` plus the start of `tea train`."""
    prepared = data.prepare_dataset(*corpus, min_actions=w.min_actions, l_s=w.l_s,
                                    seed=seed)
    prepared.save(snap_dir)
    return prepared, data.PreparedDataset.load(snap_dir)


def check_snapshot(prepared, loaded) -> None:
    check(loaded.users == prepared.users, "loaded snapshot differs from the prepared users")
    check(loaded.social.neighbors == prepared.social.neighbors,
          "loaded snapshot differs from the prepared social graph")
    check(loaded.stats() == prepared.stats(), "loaded snapshot stats differ")


def check_training(result) -> None:
    for row in result.curve:
        check(math.isfinite(row["train_loss"]), f"non-finite loss in epoch {row['epoch']}")
        for key in ("val_hr10", "val_ndcg10"):
            check(0.0 <= row[key] <= 1.0, f"{key}={row[key]} outside [0,1]")


def rank_digest(ranks: dict) -> str:
    text = "".join(f"{u}:{r}\n" for u, r in sorted(ranks.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_eval(report, n_users: int, n_neg: int = EVAL_NEG) -> None:
    check(len(report.ranks) == n_users, "not every user was ranked")
    bad = [u for u, n in report.candidate_sizes.items() if n != n_neg + 1]
    check(not bad, f"{len(bad)} candidate sets are not of size {n_neg + 1}")
    for table in (report.hr, report.ndcg):
        values = [table[k] for k in EVAL_KS]
        check(all(0.0 <= v <= 1.0 for v in values), f"metric outside [0,1]: {values}")
        check(values == sorted(values), f"metric not monotone in K: {values}")
    hits = sum(r <= 10 for r in report.ranks.values()) / n_users
    check(abs(hits - report.hr[10]) < 1e-12, "HR@10 disagrees with the ranks")


def popularity_hr10(model_params, ds, seed: int) -> float:
    """Guard-corpus test HR@10 of a scorer that knows only each item's
    training count, on the guard's candidate sets: the level a
    context-blind model reaches."""
    counts = np.zeros(ds.n_items)
    for user in ds.users:
        np.add.at(counts, user.seq_items, 1.0)
    report = evaluation.evaluate_all(model_params, ds, "test", eval_config(seed, GUARD_NEG),
                                     scorer=lambda _p, _ctx, cands: counts[cands])
    return report.hr[10]


def quality_guard(seed: int, work_dir: str):
    """Train on the seeded chain corpus and rank its test items.

    Returns the test report and the popularity-only HR@10 on the same
    candidates.
    """
    lines = generate_chain(GUARD_USERS, GUARD_ITEMS, GUARD_EVENTS, seed)
    corpus = write_corpus(lines, os.path.join(work_dir, "guard"))
    ds = data.prepare_dataset(*corpus, min_actions=1, seed=seed)
    result = training.train(ds, guard_config(seed))
    check_training(result)
    report = evaluation.evaluate_all(result.params, ds, "test",
                                     eval_config(seed, GUARD_NEG))
    check_eval(report, ds.n_users, GUARD_NEG)
    return report, popularity_hr10(result.params, ds, seed)


def timed(fn):
    """fn() and its wall time in seconds."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def probed(fn):
    """fn() and (seconds at nominal machine speed, wall seconds)."""
    with SpeedProbe() as probe:
        out, wall = timed(fn)
    return out, (probe.seconds(wall), wall)


def repeat(run: Run, label: str, fn, min_reps: int, until: float):
    """Repeat fn(first) -> (output, (nominal, wall) seconds) at least min_reps
    times, and then while another repetition is expected to end before
    `until` (perf_counter).

    fn times only the pipeline call, then checks its output, also against
    `first`, the output of the first repetition (None on that repetition).
    Returns the first output and the timings of every repetition; stops at
    the first failed one.
    """
    first, timings = None, []
    while len(timings) < min_reps or time.perf_counter() + timings[-1][1] < until:
        result = run.attempt(f"{label} rep {len(timings)}", lambda: fn(first))
        if result is None:
            break
        if first is None:
            first = result[0]
        timings.append(result[1])
    return first, timings


def medians(timings: list) -> tuple[float, float]:
    """Median nominal seconds and median wall seconds."""
    return (statistics.median(t[0] for t in timings),
            statistics.median(t[1] for t in timings))


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, work_dir: str) -> tuple[Run, dict, dict]:
    """Untraced run: end-to-end metrics from medians of repeated phases."""
    run = Run()
    corpus = write_corpus(generate(w.corpus, seed), os.path.join(work_dir, "corpus"))
    start = time.perf_counter()
    report: dict = {}

    def setup_rep(_first):
        snap = os.path.join(work_dir, "snap")
        shutil.rmtree(snap, ignore_errors=True)
        (prepared, loaded), dt = probed(lambda: setup_once(w, seed, corpus, snap))
        check_snapshot(prepared, loaded)
        return loaded, dt

    ds, setup_secs = repeat(run, "setup", setup_rep, SETUP_MIN_REPS,
                            start + SETUP_SHARE * seconds)
    if ds is None:
        return run, {}, report
    report["corpus"] = corpus_properties(ds, w)
    steps = steps_per_epoch(ds, w.all_steps) * EPOCHS

    def train_rep(first):
        result, dt = probed(lambda: training.train(ds, train_config(w, seed)))
        check_training(result)
        check(first is None or result.curve == first.curve,
              "a rerun with the same seed changed the training curve")
        return result, dt

    trained, train_secs = repeat(run, "train", train_rep, TRAIN_MIN_REPS,
                                 start + TRAIN_SHARE * seconds)
    if trained is None:
        return run, {}, report

    def eval_rep(first):
        rep, dt = probed(lambda: evaluation.evaluate_all(trained.params, ds, "test",
                                                        eval_config(seed)))
        check_eval(rep, ds.n_users)
        check(first is None or rep.ranks == first.ranks,
              "a rerun with the same seed changed the test ranks")
        return rep, dt

    ranked, eval_secs = repeat(run, "eval", eval_rep, EVAL_MIN_REPS, start + seconds)
    if ranked is None:
        return run, {}, report
    peak = peak_rss_mb()  # before the guard, so it belongs to the workload
    guard = run.attempt("quality guard", lambda: quality_guard(seed, work_dir))
    if guard is None:
        return run, {}, report
    guarded, guard_popularity = guard

    setup_s, setup_wall = medians(setup_secs)
    train_s, train_wall = medians(train_secs)
    eval_s, eval_wall = medians(eval_secs)
    report.update({
        "reps": {"setup": len(setup_secs), "train": len(train_secs), "eval": len(eval_secs)},
        "wall": {"setup_s": setup_wall, "train_steps_per_s": steps / train_wall,
                 "eval_users_per_s": ds.n_users / eval_wall},
        "speed": {"setup": setup_s / setup_wall, "train": train_s / train_wall,
                  "eval": eval_s / eval_wall},
        "train_losses": [row["train_loss"] for row in trained.curve],
        "rank_digest": rank_digest(ranked.ranks),
        "workload_test_hr": {str(k): ranked.hr[k] for k in EVAL_KS},
        "workload_test_ndcg": {str(k): ranked.ndcg[k] for k in EVAL_KS},
        "guard": {"test_hr": {str(k): guarded.hr[k] for k in EVAL_KS},
                  "test_ndcg": {str(k): guarded.ndcg[k] for k in EVAL_KS},
                  "popularity_hr10": guard_popularity,
                  "rank_digest": rank_digest(guarded.ranks)},
    })
    metrics = {
        "setup_s": (setup_s, "s"),
        "train_steps_per_s": (steps / train_s, "steps/s"),
        "eval_users_per_s": (ds.n_users / eval_s, "users/s"),
        "peak_rss_mb": (peak, "MiB"),
        "test_hr10": (guarded.hr[10], "ratio"),
        "test_ndcg10": (guarded.ndcg[10], "ratio"),
    }
    return run, metrics, report


def trace(w: Workload, seed: int, work_dir: str) -> tuple[Run, dict, dict]:
    """Traced run: one pass of each phase with every module wrapped.

    The overhead ratio compares the traced `train()` with the mean of two
    untraced ones run just before and just after it, all after a warm-up
    call and all in seconds at nominal machine speed, so neither warm-up
    nor the machine's speed swings land on one side. The speed probe's
    handler runs inside the traced spans and adds 1-2% to their wall time.
    """
    run = Run()
    corpus = write_corpus(generate(w.corpus, seed), os.path.join(work_dir, "corpus"))
    report: dict = {}

    loaded = run.attempt("setup", lambda: setup_once(w, seed, corpus,
                                                     os.path.join(work_dir, "ref"))[1])
    if loaded is None:
        return run, {}, report

    def plain_train():
        return probed(lambda: training.train(loaded, train_config(w, seed)))

    warm = run.attempt("warm-up train", plain_train)
    before = run.attempt("untraced train", plain_train)
    if warm is None or before is None:
        return run, {}, report
    plain_result = warm[0]

    tracer = Tracer({"data": data, "params": params, "model": model,
                     "transition": transition, "unary": unary, "autodiff": autodiff,
                     "training": training, "evaluation": evaluation})
    tracer.install()
    try:
        snap = os.path.join(work_dir, "snap")
        with tracer.span("bench.setup"):
            setup = run.attempt("traced setup", lambda: setup_once(w, seed, corpus, snap))
        if setup is None:
            return run, {}, report
        prepared, ds = setup
        run.attempt("setup check", lambda: check_snapshot(prepared, ds))
        with SpeedProbe() as probe, tracer.span("bench.train") as train_span:
            result = run.attempt("traced train", lambda: training.train(ds, train_config(w, seed)))
        traced_secs = probe.seconds(train_span.seconds)
        if result is None:
            return run, {}, report
        run.attempt("train check", lambda: check_training(result))
        run.attempt("trace check", lambda: check(
            result.curve == plain_result.curve, "tracing changed the training curve"))
        with tracer.span("bench.eval"):
            rep = run.attempt("traced eval", lambda: evaluation.evaluate_all(
                result.params, ds, "test", eval_config(seed)))
        if rep is None:
            return run, {}, report
        run.attempt("eval check", lambda: check_eval(rep, ds.n_users))
        ckpt = os.path.join(work_dir, "checkpoint.tea")
        with tracer.span("bench.ckpt"):
            restored = run.attempt("checkpoint round trip", lambda: (
                params.save_checkpoint(ckpt, result.params, {}, EPOCHS),
                params.load_checkpoint(ckpt))[1][0])
        if restored is not None:
            run.attempt("checkpoint check", lambda: check(all(
                np.array_equal(a.data, b.data) for (_, a), (_, b) in
                zip(result.params.trainable(), restored.trainable())),
                "checkpoint round trip changed the parameters"))
    finally:
        tracer.restore()
    after = run.attempt("untraced train", plain_train)
    if after is None:
        return run, {}, report

    steps = steps_per_epoch(ds, w.all_steps) * EPOCHS
    report.update({
        "corpus": corpus_properties(ds, w),
        "absent": tracer.absent,
        "spans": len(tracer.spans),
        "rank_digest": rank_digest(rep.ranks),
        "tape_records": tracer.counters["tape_records"],
    })
    metrics = layer_metrics(tracer, steps, snap, ckpt)
    plain_secs = (before[1][0] + after[1][0]) / 2
    metrics["trace_overhead_ratio"] = (traced_secs / plain_secs, "ratio")
    return run, metrics, report


def layer_metrics(tracer: Tracer, steps: int, snap_dir: str, ckpt: str) -> dict:
    t = SpanTable(tracer.spans)
    c = tracer.counters
    S, TR, EV = "bench.setup", "bench.train", "bench.eval"
    walks = {"data.walks", "data.co_interactors"}
    fallbacks = t.count_under("model.fallback", "model.score_user_steps", TR)
    snapshot_bytes = sum(os.path.getsize(os.path.join(snap_dir, f))
                         for f in os.listdir(snap_dir))
    ckpt_bytes = os.path.getsize(ckpt) if os.path.exists(ckpt) else 0
    bipartite = {"unary.bipartite"}
    out = {
        "data.prepare_s": (t.total("data.prepare", S), "s"),
        "data.load_interactions_s": (t.total("data.load_interactions", S), "s"),
        "data.preprocess_s": (t.total("data.preprocess", S), "s"),
        "data.buckets_s": (t.total("data.buckets", S), "s"),
        "data.walks_s": (t.total("data.walks", S, walks)
                         + t.total("data.co_interactors", S, walks), "s"),
        "data.snapshot_save_s": (t.total("data.snapshot_save", S), "s"),
        "data.snapshot_load_s": (t.total("data.snapshot_load", S), "s"),
        "data.snapshot_bytes": (snapshot_bytes, "bytes"),
        "data.sample_negatives_s": (t.total("data.sample_negatives", TR), "s"),
        "params.init_s": (t.total("params.init", TR), "s"),
        "params.clone_s": (t.total("params.clone", TR), "s"),
        "params.clone_calls": (t.count("params.clone", TR), "count"),
        "params.ckpt_save_s": (t.total("params.ckpt_save"), "s"),
        "params.ckpt_load_s": (t.total("params.ckpt_load"), "s"),
        "params.ckpt_bytes": (ckpt_bytes, "bytes"),
        "model.score_user_steps_s": (t.self_total("model.score_user_steps", TR), "s"),
        "model.score_user_steps_calls": (t.count("model.score_user_steps", TR), "count"),
        "model.fallback_ratio": (fallbacks / steps, "ratio"),
        "model.fallback_s": (t.total("model.fallback", TR), "s"),
        "model.score_candidates_eval_s": (t.total("model.score_candidates_eval", EV), "s"),
        "transition.transition_scores_s": (t.total("transition.transition_scores", TR)
                                           + t.total("transition.transition_scores", EV), "s"),
        "transition.walk_gru_s": (t.total("transition.walk_gru", TR), "s"),
        "transition.walk_gru_calls": (t.count("transition.walk_gru", TR), "count"),
        "unary.bipartite_s": (t.total("unary.bipartite", TR, bipartite), "s"),
        "unary.bipartite_calls": (t.count("unary.bipartite", TR, bipartite), "count"),
        "unary.temporal_gru_s": (t.total("unary.temporal_gru", TR), "s"),
        "unary.temporal_gru_calls": (t.count("unary.temporal_gru", TR), "count"),
        "unary.social_aggregate_s": (t.total("unary.social_aggregate", TR), "s"),
        "unary.fuse_context_s": (t.total("unary.fuse_context", TR), "s"),
        "objective.sequence_loss_s": (t.total("objective.sequence_loss", TR), "s"),
        "objective.total_loss_s": (t.total("objective.total_loss", TR), "s"),
        "autodiff.tape_records_per_step": (c["tape_records"] / steps, "records/step"),
        "autodiff.backward_s": (t.total("autodiff.backward", TR), "s"),
        "autodiff.adam_step_s": (t.total("autodiff.adam_step", TR), "s"),
        "autodiff.gather_grad_bytes_per_step": (c["gather_grad_bytes"] / steps, "bytes/step"),
        "training.val_eval_s": (t.total("evaluation.evaluate_all", TR), "s"),
        "training.batches": (c["batches"], "count"),
        "training.self_s": (t.self_total("training.train", TR), "s"),
        "evaluation.evaluate_all_s": (t.total("evaluation.evaluate_all", EV), "s"),
        "evaluation.build_candidates_s": (t.total("evaluation.build_candidates", EV), "s"),
    }
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(w: Workload, seed: int, seconds: float, traced: bool,
                 work_root: str) -> tuple[Run, dict, dict]:
    """Run one workload in a private work directory that is removed afterwards."""
    os.makedirs(work_root, exist_ok=True)
    work_dir = os.path.join(work_root, f"{w.name}-{seed}-{os.getpid()}")
    try:
        if traced:
            run, metrics, report = trace(w, seed, work_dir)
        else:
            run, metrics, report = measure(w, seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it
    report["environment"] = environment(w, seed)
    report["attempted"], report["failed"] = run.attempted, run.failed
    report["fail_ratio"] = run.failed / max(run.attempted, 1)
    report["errors"] = run.errors
    return run, metrics, report

