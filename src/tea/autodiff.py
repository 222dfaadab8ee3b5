"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: row-major float64 arrays, a flat set of
primitives, an explicit gradient tape, and a bias-corrected Adam update.
Attention, GRU cells and the score heads are all composed from these
primitives, so a single backward sweep over the tape differentiates the
whole model.

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


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = _wrap(a.data - b.data)
    except ValueError:
        raise ShapeError("sub", a.data.shape, b.data.shape) from None

    def back(g: Array):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

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
    """Matrix product for 1-D/2-D operands, following numpy matmul rules."""
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0 or ad.ndim > 2 or bd.ndim > 2:
        raise ShapeError("matmul", ad.shape, bd.shape)
    inner_a = ad.shape[-1]
    inner_b = bd.shape[0]
    if inner_a != inner_b:
        raise ShapeError("matmul", ad.shape, bd.shape)
    out = _wrap(np.asarray(ad @ bd))  # 1-D @ 1-D gives a 0-d array

    def back(g: Array):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        return g * bd, g * ad  # 1-D @ 1-D

    return _emit(out, (a, b), back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("transpose", a.data.shape)
    out = _wrap(a.data.T.copy())
    return _emit(out, (a,), lambda g: (g.T,))


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
    mask = a.data > 0.0
    out = _wrap(np.where(mask, a.data, 0.0))
    return _emit(out, (a,), lambda g: (g * mask,))


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    mask = a.data > 0.0
    out = _wrap(np.where(mask, a.data, alpha * a.data))
    return _emit(out, (a,), lambda g: (g * np.where(mask, 1.0, alpha),))


def _sigmoid(x: Array) -> Array:
    # Split by sign so exp never overflows.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    out = _wrap(s)
    return _emit(out, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = _wrap(t)
    return _emit(out, (a,), lambda g: (g * (1.0 - t * t),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) in the overflow-free max(x,0) + log1p(e^-|x|) form."""
    x = a.data
    out = _wrap(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))
    return _emit(out, (a,), lambda g: (g * _sigmoid(x),))


def mean_pool(a: Tensor) -> Tensor:
    """Mean over axis 0 of a 2-D tensor. Empty input is the caller's problem."""
    if a.data.ndim != 2 or a.data.shape[0] == 0:
        raise ShapeError("mean-pool", a.data.shape)
    n = a.data.shape[0]
    out = _wrap(a.data.mean(axis=0))

    def back(g: Array):
        return (np.broadcast_to(g / n, a.data.shape).copy(),)

    return _emit(out, (a,), back)


def row_sum(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("row-sum", a.data.shape)
    out = _wrap(a.data.sum(axis=1))

    def back(g: Array):
        return (np.broadcast_to(g[:, None], a.data.shape).copy(),)

    return _emit(out, (a,), back)


def total_sum(a: Tensor) -> Tensor:
    out = _wrap(np.asarray(a.data.sum()))

    def back(g: Array):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _emit(out, (a,), back)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a 2-D table; gradients scatter-add back."""
    if table.data.ndim != 2:
        raise ShapeError("gather-rows", table.data.shape)
    idx = np.asarray(indices, dtype=np.intp)
    out = _wrap(table.data[idx])

    def back(g: Array):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _emit(out, (table,), back)


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Exp-normalize unmasked entries per row; masked entries are exactly 0.

    `mask` is a boolean array of the same shape (True = keep). Stabilized
    with per-row max subtraction. 1-D input is treated as a single row.
    """
    m = np.asarray(mask, dtype=bool)
    if m.shape != logits.data.shape:
        raise ShapeError("masked-softmax", logits.data.shape, m.shape)
    x = logits.data
    squeeze = x.ndim == 1
    x2 = x[None, :] if squeeze else x
    m2 = m[None, :] if squeeze else m
    if x2.ndim != 2:
        raise ShapeError("masked-softmax", logits.data.shape, m.shape)
    dead = ~m2.any(axis=1)
    if dead.any():
        raise AllMaskedError(
            f"masked_softmax: row {int(np.flatnonzero(dead)[0])} has no unmasked entries")
    shifted = np.where(m2, x2, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.where(m2, np.exp(shifted), 0.0)
    y2 = e / e.sum(axis=1, keepdims=True)
    y = y2[0] if squeeze else y2
    out = _wrap(y)

    def back(g: Array):
        g2 = g[None, :] if squeeze else g
        inner = (g2 * y2).sum(axis=1, keepdims=True)
        gx = y2 * (g2 - inner)
        return (gx[0] if squeeze else gx,)

    return _emit(out, (logits,), back)


def dropout(x: Tensor, p_drop: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p_drop, rescale survivors."""
    if p_drop <= 0.0:
        return x
    keep = rng.random(x.data.shape) >= p_drop
    mask = _wrap(keep / (1.0 - p_drop))
    return mul(x, mask)


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
    """
    d = p.w_xz.data.shape[0]
    if x.data.shape != (d,) or h.data.shape != (d,):
        raise ShapeError("gru-cell", x.data.shape, h.data.shape)
    z = sigmoid(add(add(matmul(p.w_xz, x), matmul(p.w_hz, h)), p.b_z))
    r = sigmoid(add(add(matmul(p.w_xr, x), matmul(p.w_hr, h)), p.b_r))
    n = tanh(add(add(matmul(p.w_xn, x), mul(r, matmul(p.w_hn, h))), p.b_n))
    # (1 - z) * n + z * h  ==  n + z * (h - n)
    return add(n, mul(z, sub(h, n)))


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
