"""Smoke test of the benchmark on a tiny corpus; runs in seconds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pipeline  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import synth  # noqa: E402
import tea  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# Walks, buckets and the per-user path of short-seq, on a corpus small enough
# that one epoch takes a fraction of a second. min_actions=1 keeps more than
# n_neg items so every candidate set is full.
TINY = replace(pipeline.WORKLOADS["short-seq"],
               corpus=replace(pipeline.WORKLOADS["short-seq"].corpus,
                              n_users=30, n_items=600, events=8, events_spread=1),
               min_actions=1)


def test_workloads_match_the_spec():
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(pipeline.WORKLOADS) == set(run.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == pipeline.WORKLOADS[w["name"]].why


@pytest.fixture(autouse=True)
def tiny_guard(monkeypatch):
    """A one-epoch quality guard on 40 users; its catalog still fills every
    candidate set."""
    monkeypatch.setattr(pipeline, "GUARD_USERS", 40)
    monkeypatch.setattr(pipeline, "GUARD_EPOCHS", 1)


def _printed(capsys, traced: bool, tmp_path) -> tuple[dict, dict, dict]:
    """Run TINY and parse what it prints: metric lines, report line, result line."""
    result = pipeline.run_workload(TINY, 3, 1.0, traced, str(tmp_path / "work"))
    status = run.emit(*result)
    *lines, last = capsys.readouterr().out.strip().splitlines()
    printed, report = {}, None
    for line in lines:
        if line.startswith("report "):
            report = json.loads(line[len("report "):])
        else:
            name, value, unit = line.split(" ")
            printed[name] = [value, unit]
    final = json.loads(last)
    assert status == 0, final
    return printed, report, final


def _check_metrics(spec_metrics, printed, final) -> None:
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        value, unit = printed[m["name"]]
        assert unit == m["unit"]
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
        float(value)


def test_end_to_end_metrics_print_with_units(capsys, tmp_path):
    printed, report, final = _printed(capsys, False, tmp_path)
    _check_metrics(SPEC["end_to_end"], printed, final)
    assert printed["fail_ratio"] == ["0", "ratio"]
    assert report["environment"]["threads"].keys() == set(run.THREAD_VARS)
    assert not os.path.exists(tmp_path / "work")


def test_traced_run_prints_layers_and_restores_wrappers(capsys, tmp_path):
    modules = [tea.data, tea.params, tea.model, tea.transition, tea.unary,
               tea.autodiff, tea.training, tea.evaluation,
               tea.data.PreparedDataset, tea.params.ModelParams]
    before = [dict(vars(m)) for m in modules]
    printed, report, final = _printed(capsys, True, tmp_path)
    _check_metrics(SPEC["per_layer"], printed, final)
    assert [dict(vars(m)) for m in modules] == before
    assert report["absent"] == []
    assert final["metrics"]["model.fallback_ratio"]["value"] == 0
    assert final["metrics"]["transition.walk_gru_calls"]["value"] > 0


def test_missing_target_is_reported_absent():
    tracer = pipeline.Tracer({"training": tea.training})
    tracer.patch("training", "no_such_function", lambda fn: fn)
    assert tracer.absent == ["tea.training.no_such_function"]
    tracer.restore()


@pytest.mark.parametrize("make", [
    lambda seed: synth.generate(TINY.corpus, seed),
    lambda seed: synth.generate(pipeline.WORKLOADS["wide-catalog"].corpus, seed),
    lambda seed: synth.generate_chain(20, 30, 6, seed),
])
def test_generator_is_seeded(make, tmp_path):
    def files(seed, name):
        paths = synth.write_corpus(make(seed), str(tmp_path / name))
        return [open(p, "rb").read() for p in paths]

    first = files(5, "a")
    assert first == files(5, "b")
    other = files(6, "c")
    assert first[0] != other[0] and first[1] != other[1]


def test_speed_probe_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(probe.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sum(probe.samples) < probe.handler_seconds < 0.3
    assert probe.seconds(0.3) == (0.3 - probe.handler_seconds) * probe.speed
