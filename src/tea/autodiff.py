"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: row-major float64 arrays, a flat set of
primitives, an explicit gradient tape, and a bias-corrected Adam update.
Attention, bucket aggregation and the score heads are composed from these
primitives over whole minibatches; a GRU step is one fused primitive. A
single backward sweep over the tape differentiates the whole model, and
the interpreter's cost scales with the number of records, not with the
size of the arrays they hold.

Tape recording is process-global and meant for one training step at a
time; scoring without an active tape is a plain (and faster) forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible for a primitive."""

    def __init__(self, kind: str, *shapes) -> None:
        rendered = " vs ".join(str(tuple(int(x) for x in s)) for s in shapes)
        super().__init__(f"{kind}: incompatible shapes {rendered}")
        self.kind = kind
        self.shapes = shapes


class NonScalarLossError(ValueError):
    """backward() was handed a loss with more than one element."""


class AllMaskedError(ValueError):
    """masked_softmax received a row with every entry masked out."""


class Tensor:
    """A dense float64 array plus a trainability flag.

    Tensors are plain value holders; operations live at module level and
    record onto the active tape (if any). Identity, not value, is what the
    tape and gradient maps key on.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(arr: Array) -> Tensor:
    # Fast construction for arrays we created ourselves (already float64).
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.requires_grad = False
    return t


def zeros(*shape: int) -> Tensor:
    return _wrap(np.zeros(shape, dtype=np.float64))


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


@dataclass
class _Record:
    out: Tensor
    inputs: tuple[Tensor, ...]
    backward: Callable[[Array], tuple]


class Tape:
    """Ordered record of primitive applications for one backward sweep.

    Records are appended in forward (topological) order; `backward` walks
    them in reverse, so every operand's gradient is complete before it is
    consumed.
    """

    def __init__(self) -> None:
        self.records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must be exited in LIFO order"

    def __len__(self) -> int:
        return len(self.records)


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(out: Tensor, inputs: tuple[Tensor, ...],
          backward: Callable[[Array], tuple]) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(i.requires_grad for i in inputs):
        out.requires_grad = True
        tape.records.append(_Record(out, inputs, backward))
    return out


class Gradients:
    """Gradient map over the leaves reached by a backward sweep.

    Leaves never touched by the loss read as zeros, so optimizer code does
    not have to special-case unused parameters.
    """

    def __init__(self, entries: dict[int, Array]) -> None:
        self._entries = entries

    def of(self, t: Tensor) -> Array:
        g = self._entries.get(id(t))
        if g is None:
            return np.zeros_like(t.data)
        return g

    def __contains__(self, t: Tensor) -> bool:
        return id(t) in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def backward(loss: Tensor, tape: Tape) -> Gradients:
    """Reverse sweep: gradients of a scalar loss w.r.t. every reachable leaf."""
    if loss.data.size != 1:
        raise NonScalarLossError(
            f"loss must be scalar, got shape {loss.data.shape}")
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for rec in reversed(tape.records):
        g_out = grads.pop(id(rec.out), None)
        if g_out is None:
            continue
        for inp, g_in in zip(rec.inputs, rec.backward(g_out)):
            if g_in is None or not inp.requires_grad:
                continue
            acc = grads.get(id(inp))
            # Never mutate stored arrays: backward closures may alias g_out.
            grads[id(inp)] = g_in if acc is None else acc + g_in
    # Each record pops its output's gradient, so only the leaves are left.
    return Gradients(grads)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = _wrap(a.data + b.data)
    except ValueError:
        raise ShapeError("add", a.data.shape, b.data.shape) from None

    def back(g: Array):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _emit(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product with numpy broadcasting."""
    try:
        out = _wrap(a.data * b.data)
    except ValueError:
        raise ShapeError("elementwise-mul", a.data.shape, b.data.shape) from None

    def back(g: Array):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _emit(out, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = _wrap(a.data * c)
    return _emit(out, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product following numpy matmul rules.

    Operands are 1-D or 2-D, or two stacks of matrices of equal length,
    (B, n, k) @ (B, k, m).
    """
    ad, bd = a.data, b.data
    paired = ad.ndim == 3 and bd.ndim == 3 and ad.shape[0] == bd.shape[0]
    if ad.ndim == 0 or bd.ndim == 0 or (max(ad.ndim, bd.ndim) > 2 and not paired):
        raise ShapeError("matmul", ad.shape, bd.shape)
    if ad.shape[-1] != bd.shape[-2 if bd.ndim >= 2 else 0]:
        raise ShapeError("matmul", ad.shape, bd.shape)
    out = _wrap(np.asarray(ad @ bd))  # 1-D @ 1-D gives a 0-d array

    def back(g: Array):
        if paired:
            return g @ bd.transpose(0, 2, 1), ad.transpose(0, 2, 1) @ g
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        return g * bd, g * ad  # 1-D @ 1-D

    return _emit(out, (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """A dense layer over the last axis: x @ w.T (+ b).

    x is (..., k) and w (m, k); b broadcasts to the (..., m) output without
    changing its shape, so one bias can serve every row or a (N, 1, m)
    bias each group of rows.
    """
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.ndim < 1 or xd.shape[-1] != wd.shape[1]:
        raise ShapeError("linear", xd.shape, wd.shape)
    m, k = wd.shape
    y = (xd.reshape(-1, k) @ wd.T).reshape(xd.shape[:-1] + (m,))
    if b is not None:
        if np.broadcast_shapes(y.shape, b.data.shape) != y.shape:
            raise ShapeError("linear-bias", y.shape, b.data.shape)
        y += b.data
    out = _wrap(y)

    def back(g: Array):
        g2 = g.reshape(-1, m)
        grads = ((g2 @ wd).reshape(xd.shape), g2.T @ xd.reshape(-1, k))
        return grads if b is None else grads + (_unbroadcast(g, b.data.shape),)

    return _emit(out, (x, w) if b is None else (x, w, b), back)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes (the matrix transpose for 2-D input)."""
    if a.data.ndim < 2:
        raise ShapeError("transpose", a.data.shape)
    out = _wrap(np.swapaxes(a.data, -1, -2).copy())
    return _emit(out, (a,), lambda g: (np.swapaxes(g, -1, -2),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ValueError("concat: empty input")
    ndim = parts[0].data.ndim
    for p in parts[1:]:
        if p.data.ndim != ndim:
            raise ShapeError("concat", parts[0].data.shape, p.data.shape)
    out = _wrap(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def back(g: Array):
        return tuple(np.split(g, splits, axis=axis))

    return _emit(out, tuple(parts), back)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along axis 0 (works for 1-D and 2-D)."""
    out = _wrap(a.data[start:stop].copy())

    def back(g: Array):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _emit(out, (a,), back)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("slice-cols", a.data.shape)
    out = _wrap(a.data[:, start:stop].copy())

    def back(g: Array):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        return (full,)

    return _emit(out, (a,), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _wrap(a.data.reshape(shape).copy())
    return _emit(out, (a,), lambda g: (g.reshape(a.data.shape),))


def relu(a: Tensor) -> Tensor:
    x = a.data
    out = _wrap(np.maximum(x, 0.0))
    return _emit(out, (a,), lambda g: (g * (x > 0.0),))


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    """max(x, alpha x) for a slope 0 <= alpha <= 1."""
    x = a.data
    out = _wrap(np.maximum(x, alpha * x))
    return _emit(out, (a,), lambda g: (g * np.where(x > 0.0, 1.0, alpha),))


def _sigmoid(x: Array) -> Array:
    # The tanh form never overflows.
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) in the overflow-free max(x,0) + log1p(e^-|x|) form."""
    x = a.data
    out = _wrap(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))
    return _emit(out, (a,), lambda g: (g * _sigmoid(x),))


def row_sum(a: Tensor) -> Tensor:
    """Sum over the last axis: (..., n) -> (...)."""
    if a.data.ndim < 2:
        raise ShapeError("row-sum", a.data.shape)
    out = _wrap(a.data.sum(axis=-1))

    def back(g: Array):
        return (np.broadcast_to(g[..., None], a.data.shape).copy(),)

    return _emit(out, (a,), back)


def total_sum(a: Tensor) -> Tensor:
    out = _wrap(np.asarray(a.data.sum()))

    def back(g: Array):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _emit(out, (a,), back)


def sum_of_squares(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of squared entries over several tensors, as one scalar.

    The per-tensor sums are added in the order given.
    """
    if not tensors:
        raise ValueError("sum_of_squares: empty input")
    total = None
    for t in tensors:
        sq = (t.data * t.data).sum()
        total = sq if total is None else total + sq
    out = _wrap(np.asarray(total))

    def back(g: Array):
        return tuple(2.0 * g * t.data for t in tensors)

    return _emit(out, tuple(tensors), back)


def gather_rows(table: Tensor, indices) -> Tensor:
    """table[indices] along axis 0; gradients scatter-add back.

    The table has at least one axis; `indices` may be an int array of any
    shape, which prefixes the shape of the rows.
    """
    if table.data.ndim < 1:
        raise ShapeError("gather-rows", table.data.shape)
    idx = np.asarray(indices, dtype=np.intp)
    out = _wrap(table.data[idx])

    def back(g: Array):
        # Scatter-add: sort the indices, sum each run of equal ones at once.
        flat = idx.reshape(-1)
        rows = g.reshape((flat.size,) + table.data.shape[1:])
        full = np.zeros_like(table.data)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            ids = flat[order]
            starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
            full[ids[starts]] = np.add.reduceat(rows[order], starts, axis=0)
        return (full,)

    return _emit(out, (table,), back)


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Exp-normalize unmasked entries along the last axis; masked entries are 0.

    `mask` is a boolean array (True = keep) that broadcasts to the logits'
    shape without changing it, so a mask shared by many rows can stay
    small. Stabilized with a per-row max subtraction; every row must keep
    one entry.
    """
    m = np.asarray(mask, dtype=bool)
    x = logits.data
    if x.ndim < 1 or m.ndim > x.ndim or np.broadcast_shapes(m.shape, x.shape) != x.shape:
        raise ShapeError("masked-softmax", x.shape, m.shape)
    dead = ~m.any(axis=-1)
    if dead.any():
        first = tuple(int(i) for i in np.argwhere(np.atleast_1d(dead))[0])
        where = first[0] if len(first) == 1 else first
        raise AllMaskedError(f"masked_softmax: row {where} has no unmasked entries")
    y = x + np.where(m, 0.0, -np.inf)   # exp(-inf) is exactly 0
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = _wrap(y)

    def back(g: Array):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _emit(out, (logits,), back)


def dropout(x: Tensor, p_drop: float, rngs: Sequence[np.random.Generator]) -> Tensor:
    """Inverted dropout, one stream per row: row i's keep mask comes from rngs[i].

    Each row draws a mask of shape x.shape[1:]; entries are zeroed with
    probability p_drop and survivors rescaled.
    """
    if p_drop <= 0.0:
        return x
    if len(rngs) != x.data.shape[0]:
        raise ShapeError("dropout", x.data.shape, (len(rngs),))
    row_shape = x.data.shape[1:]
    keep = np.stack([rng.random(row_shape) >= p_drop for rng in rngs])
    mask = _wrap(keep / (1.0 - p_drop))
    return mul(x, mask)


# ---------------------------------------------------------------------------
# Segment reductions
# ---------------------------------------------------------------------------


class Segments:
    """A partition of the rows of a flat array into consecutive segments.

    Segment k holds the next `lengths[k]` rows; lengths may be zero. Built
    once per batch and shared by the segment primitives.
    """

    def __init__(self, lengths: Sequence[int]) -> None:
        counts = np.asarray(lengths, dtype=np.intp).reshape(-1)
        self.n = int(counts.size)
        self.counts = counts
        self.ids = np.repeat(np.arange(self.n), counts)   # segment of each row
        self.nonempty = counts > 0
        self.starts = (np.cumsum(counts) - counts)[self.nonempty]

    @property
    def size(self) -> int:
        return int(self.ids.size)

    def reduce(self, ufunc: np.ufunc, x: Array, empty: float) -> Array:
        """ufunc-reduce each segment's rows; empty segments read `empty`."""
        out = np.full((self.n,) + x.shape[1:], empty, dtype=np.float64)
        if self.starts.size:
            out[self.nonempty] = ufunc.reduceat(x, self.starts, axis=0)
        return out


def _check_segments(kind: str, x: Tensor, seg: Segments) -> None:
    if x.data.ndim < 1 or x.data.shape[0] != seg.size:
        raise ShapeError(kind, x.data.shape, (seg.size,))


def segment_sum(x: Tensor, seg: Segments) -> Tensor:
    """Per-segment sum over axis 0: (M, ...) -> (seg.n, ...); empty -> 0."""
    _check_segments("segment-sum", x, seg)
    out = _wrap(seg.reduce(np.add, x.data, 0.0))
    return _emit(out, (x,), lambda g: (g[seg.ids],))


def segment_mean(x: Tensor, seg: Segments) -> Tensor:
    """Per-segment mean over axis 0: (M, ...) -> (seg.n, ...); empty -> 0."""
    _check_segments("segment-mean", x, seg)
    counts = np.maximum(seg.counts, 1).reshape((-1,) + (1,) * (x.data.ndim - 1))
    out = _wrap(seg.reduce(np.add, x.data, 0.0) / counts)
    return _emit(out, (x,), lambda g: ((g / counts)[seg.ids],))


def segment_softmax(logits: Tensor, seg: Segments) -> Tensor:
    """Exp-normalize a flat (M,) vector within each segment (max-stabilized)."""
    _check_segments("segment-softmax", logits, seg)
    if logits.data.ndim != 1:
        raise ShapeError("segment-softmax", logits.data.shape)
    x = logits.data
    e = np.exp(x - seg.reduce(np.maximum, x, 0.0)[seg.ids])
    y = e / seg.reduce(np.add, e, 1.0)[seg.ids]
    out = _wrap(y)

    def back(g: Array):
        inner = seg.reduce(np.add, g * y, 0.0)
        return (y * (g - inner[seg.ids]),)

    return _emit(out, (logits,), back)


# ---------------------------------------------------------------------------
# GRU cell
# ---------------------------------------------------------------------------


@dataclass
class GruParams:
    """One GRU cell's weights: per-gate input/hidden projections and biases."""

    w_xz: Tensor
    w_hz: Tensor
    b_z: Tensor
    w_xr: Tensor
    w_hr: Tensor
    b_r: Tensor
    w_xn: Tensor
    w_hn: Tensor
    b_n: Tensor

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.{f}", getattr(self, f)) for f in
                ("w_xz", "w_hz", "b_z", "w_xr", "w_hr", "b_r", "w_xn", "w_hn", "b_n")]


def gru_cell(x: Tensor, h: Tensor, p: GruParams) -> Tensor:
    """One gated-recurrent step: update gate z, reset gate r, candidate n.

        z = sigmoid(Wxz x + Whz h + bz)
        r = sigmoid(Wxr x + Whr h + br)
        n = tanh(Wxn x + r * (Whn h) + bn)
        h' = (1 - z) * n + z * h

    x and h are both (d,) or both (B, d), one row per sequence. The step is
    one primitive with a hand-written backward, so it adds one tape record.
    """
    d = p.w_xz.data.shape[0]
    if x.data.shape != h.data.shape or x.data.ndim not in (1, 2) or x.data.shape[-1] != d:
        raise ShapeError("gru-cell", x.data.shape, h.data.shape)
    xd, hd = x.data.reshape(-1, d), h.data.reshape(-1, d)   # (B, d), B = 1 for (d,)
    z = _sigmoid(xd @ p.w_xz.data.T + hd @ p.w_hz.data.T + p.b_z.data)
    r = _sigmoid(xd @ p.w_xr.data.T + hd @ p.w_hr.data.T + p.b_r.data)
    hn = hd @ p.w_hn.data.T
    n = np.tanh(xd @ p.w_xn.data.T + r * hn + p.b_n.data)
    # (1 - z) * n + z * h  ==  n + z * (h - n)
    out = _wrap((n + z * (hd - n)).reshape(x.data.shape))

    def back(g: Array):
        g = g.reshape(-1, d)
        da_n = g * (1.0 - z) * (1.0 - n * n)
        da_z = g * (hd - n) * z * (1.0 - z)
        d_hn = da_n * r
        da_r = da_n * hn * r * (1.0 - r)
        dx = da_z @ p.w_xz.data + da_r @ p.w_xr.data + da_n @ p.w_xn.data
        dh = g * z + da_z @ p.w_hz.data + da_r @ p.w_hr.data + d_hn @ p.w_hn.data
        return (dx.reshape(x.data.shape), dh.reshape(h.data.shape),
                da_z.T @ xd, da_z.T @ hd, da_z.sum(axis=0),
                da_r.T @ xd, da_r.T @ hd, da_r.sum(axis=0),
                da_n.T @ xd, d_hn.T @ hd, da_n.sum(axis=0))

    return _emit(out, (x, h, p.w_xz, p.w_hz, p.b_z, p.w_xr, p.w_hr, p.b_r,
                       p.w_xn, p.w_hn, p.b_n), back)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class AdamState:
    """First/second moment accumulators plus the shared step counter.

    beta2 defaults to 0.99 rather than 0.999: the embedding tables start
    near zero, and a long second-moment memory of the first noisy steps
    throttles them for hundreds of updates.
    """

    def __init__(self, params: Iterable[tuple[str, Tensor]], lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.99, eps: float = 1e-8) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, Array] = {}
        self.v: dict[str, Array] = {}
        for name, tensor in params:
            self.m[name] = np.zeros_like(tensor.data)
            self.v[name] = np.zeros_like(tensor.data)


def adam_step(params: Iterable[tuple[str, Tensor]], grads: dict[str, Array],
              state: AdamState) -> None:
    """Bias-corrected Adam update, in place; `grads` maps each name to its array."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, tensor in params:
        g = grads[name]
        if g.shape != tensor.data.shape:
            raise ShapeError("adam-step", tensor.data.shape, g.shape)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        tensor.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
