"""Spans and counters recorded around the public functions of each tea module.

The wrappers are installed from the benchmark, at the name each caller looks
up: `tea.training` imports `backward`, `score_user_steps` and friends by
name, so those are patched on `tea.training`; the scorers reach the unary
and transition functions through their module, so those are patched on the
module. Spans stay in memory as (name, start, end, parent); per-layer
figures are computed from them after the run. `Tracer.restore` puts every
original back. A target that no longer exists is listed in `absent` and
skipped.
"""

from __future__ import annotations

import time
from collections import Counter

_NAME, _START, _END, _PARENT = range(4)

# (module, attribute, span name). The module is named relative to `tea`.
SPANS = [
    ("data", "prepare_dataset", "data.prepare"),
    ("data", "load_interactions", "data.load_interactions"),
    ("data", "preprocess", "data.preprocess"),
    ("data", "build_neighbor_item_buckets", "data.buckets"),
    ("data", "extract_time_restricted_walks", "data.walks"),
    ("data", "co_interactors", "data.co_interactors"),
    ("data", "PreparedDataset.save", "data.snapshot_save"),
    ("data", "PreparedDataset.load", "data.snapshot_load"),
    ("params", "ModelParams.clone", "params.clone"),
    ("params", "save_checkpoint", "params.ckpt_save"),
    ("params", "load_checkpoint", "params.ckpt_load"),
    ("training", "train", "training.train"),
    ("training", "init_params", "params.init"),
    ("training", "sample_negatives", "data.sample_negatives"),
    ("training", "score_user_steps", "model.score_user_steps"),
    ("training", "sequence_loss", "objective.sequence_loss"),
    ("training", "total_loss", "objective.total_loss"),
    ("training", "backward", "autodiff.backward"),
    ("training", "adam_step", "autodiff.adam_step"),
    ("training", "evaluate_all", "evaluation.evaluate_all"),
    ("model", "score_candidates", "model.fallback"),
    ("evaluation", "evaluate_all", "evaluation.evaluate_all"),
    ("evaluation", "build_candidates", "evaluation.build_candidates"),
    ("evaluation", "score_candidates", "model.score_candidates_eval"),
    ("transition", "transition_scores", "transition.transition_scores"),
    ("unary", "bipartite_aggregate_sage", "unary.bipartite"),
    ("unary", "bipartite_aggregate_attention", "unary.bipartite"),
    ("unary", "social_aggregate", "unary.social_aggregate"),
    ("unary", "fuse_context", "unary.fuse_context"),
]


class Tracer:
    def __init__(self, tea_modules: dict) -> None:
        self.modules = tea_modules
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gru_labels: dict[int, tuple[str, object]] = {}

    # -- spans ------------------------------------------------------------

    def span(self, name: str):
        """Context manager recording one span (used around benchmark phases)."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, module: str, path: str, make_wrapper) -> None:
        owner = self.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.absent.append(f"tea.{module}.{path}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        for module, path, name in SPANS:
            self.patch(module, path, lambda fn, name=name: self._spanned(name, fn))
        self.patch("training", "backward", self._backward)
        self.patch("autodiff", "gru_cell", self._gru_cell)
        self.patch("autodiff", "gather_rows", self._gather_rows)
        self.patch("params", "gather_rows", self._gather_rows)
        # Every GruParams comes out of init_params; remember which is which.
        self.patch("params", "init_params", self._label_grus)
        self.patch("training", "init_params", self._label_grus)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- special wrappers -------------------------------------------------

    def _backward(self, fn):
        def backward(loss, tape, *args, **kwargs):
            self.counters["tape_records"] += len(tape)
            self.counters["batches"] += 1
            return fn(loss, tape, *args, **kwargs)
        return backward

    def _gru_cell(self, fn):
        def gru_cell(x, h, p, *args, **kwargs):
            name = self._gru_labels.get(id(p), ("autodiff.gru_cell",))[0]
            idx = self._open(name)
            try:
                return fn(x, h, p, *args, **kwargs)
            finally:
                self._close(idx)
        return gru_cell

    def _gather_rows(self, fn):
        def gather_rows(table, indices, *args, **kwargs):
            out = fn(table, indices, *args, **kwargs)
            if out.requires_grad:  # recorded on a tape: backward builds a table-sized gradient
                self.counters["gather_grad_bytes"] += table.data.nbytes
            return out
        return gather_rows

    def _label_grus(self, fn):
        def init_params(*args, **kwargs):
            params = fn(*args, **kwargs)
            for label, gru in (("transition.walk_gru", params.transition.walk_gru),
                               ("unary.temporal_gru", params.unary.temporal_gru)):
                if gru is not None:
                    self._gru_labels[id(gru)] = (label, gru)
            return params
        return init_params


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.idx = -1

    def __enter__(self) -> "_Span":
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.idx)

    @property
    def seconds(self) -> float:
        s = self.tracer.spans[self.idx]
        return s[_END] - s[_START]


class SpanTable:
    """Durations, self times and phase attribution for a list of spans.

    Parents always precede their children, so one forward pass assigns each
    span the name of its outermost ancestor (its phase).
    """

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.duration = [s[_END] - s[_START] for s in spans]
        self.phase: list[str] = []
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            parent = s[_PARENT]
            self.phase.append(self.phase[parent] if parent >= 0 else s[_NAME])
            if parent >= 0:
                child_time[parent] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def _select(self, name: str, phase: str | None, outermost: set | None = None):
        inside = [False] * len(self.spans) if outermost else None
        for i, s in enumerate(self.spans):
            if outermost:
                parent = s[_PARENT]
                inside[i] = parent >= 0 and (
                    self.spans[parent][_NAME] in outermost or inside[parent])
            if s[_NAME] != name or (phase is not None and self.phase[i] != phase):
                continue
            if outermost and inside[i]:
                continue
            yield i

    def total(self, name: str, phase: str | None = None,
              outermost: set | None = None) -> float:
        """Summed duration of spans called `name`, optionally within one phase.

        With `outermost`, spans nested inside any span whose name is in that
        set are skipped, so recursion or a wrapper calling a sibling is not
        counted twice.
        """
        return sum(self.duration[i] for i in self._select(name, phase, outermost))

    def count(self, name: str, phase: str | None = None,
              outermost: set | None = None) -> int:
        return sum(1 for _ in self._select(name, phase, outermost))

    def self_total(self, name: str, phase: str | None = None) -> float:
        return sum(self.self_time[i] for i in self._select(name, phase))

    def count_under(self, name: str, parent_name: str, phase: str | None = None) -> int:
        """Spans called `name` whose direct parent is called `parent_name`."""
        return sum(1 for i in self._select(name, phase)
                   if self.spans[i][_PARENT] >= 0
                   and self.spans[self.spans[i][_PARENT]][_NAME] == parent_name)
