"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: row-major float64 arrays, a flat set of
primitives, an explicit gradient tape, and a bias-corrected Adam update.
Bucket aggregation is composed from these primitives over whole
minibatches; the GRU (one step, or many lockstep steps) and the candidate
head (g's attention, MLP and dropout, and the bilinear score of f + g) are
fused primitives with hand-written backwards. A single backward sweep over
the tape differentiates the whole model and writes each leaf's gradient
straight into a buffer the caller hands it (training passes each
parameter's slice of one flat vector); the interpreter's cost scales with
the number of records, not with the size of the arrays they hold.

Tape recording is process-global and meant for one training step at a
time; scoring without an active tape is a plain (and faster) forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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


class RowGrad:
    """A table gradient that is zero outside a few rows.

    Row `ids[i]` (sorted, distinct) holds `values[i]`; `shape` is the
    table's. `gather_rows` hands these to `backward`, which writes them into
    a leaf's buffer instead of adding table-sized zeros. A non-leaf table is
    batch-sized, so `backward` densifies one that reaches it.
    """

    __slots__ = ("ids", "values", "shape")

    def __init__(self, ids: Array, values: Array, shape: tuple[int, ...]) -> None:
        self.ids = ids
        self.values = values
        self.shape = shape

    def dense(self) -> Array:
        full = np.zeros(self.shape, dtype=np.float64)
        full[self.ids] = self.values
        return full


def backward(loss: Tensor, tape: Tape, into: Sequence[tuple[Tensor, Array]]) -> None:
    """Reverse sweep: the scalar loss's gradient w.r.t. each leaf in `into`.

    `into` pairs leaves (tensors that no record outputs) with buffers of their
    shapes. Each buffer is zero-filled; the first gradient to reach its leaf
    is assigned (a row gradient only into its own rows) and later ones are
    added in place, in arrival order, as repeated dense sums would add them.
    Other tensors hold dense gradients: a row gradient is densified when it
    arrives, and a second arrival gives the tensor one buffer of its own.

    The sweep pops each record off the tape once it has run its backward,
    so a record's arrays are freed for the rest of the sweep and the tape
    is empty afterwards.
    """
    if loss.data.size != 1:
        raise NonScalarLossError(
            f"loss must be scalar, got shape {loss.data.shape}")
    leaves: dict[int, Array] = {}
    for t, buf in into:
        buf.fill(0.0)
        leaves[id(t)] = buf
    if id(loss) in leaves:           # a leaf loss: d loss / d loss = 1
        leaves[id(loss)][...] = 1.0
    written: set[int] = set()  # leaves whose buffer holds an arrival
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    owned: set[int] = set()   # buffers this sweep allocated and may add into
    records = tape.records
    while records:
        rec = records.pop()
        g_out = grads.pop(id(rec.out), None)
        if g_out is None:
            continue
        for inp, g_in in zip(rec.inputs, rec.backward(g_out)):
            if g_in is None or not inp.requires_grad:
                continue
            key = id(inp)
            buf = leaves.get(key)
            if buf is not None:
                first = key not in written
                written.add(key)
                if isinstance(g_in, RowGrad):
                    if first:
                        buf[g_in.ids] = g_in.values
                    else:
                        buf[g_in.ids] += g_in.values
                elif first:
                    buf[...] = g_in
                else:
                    buf += g_in
                continue
            if isinstance(g_in, RowGrad):
                g_in = g_in.dense()
            acc = grads.get(key)
            if acc is None:
                grads[key] = g_in
            elif key in owned:
                acc += g_in
            else:
                # Never mutate arrays a closure handed over: they may alias g_out.
                grads[key] = acc + g_in
                owned.add(key)


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
    """Matrix product of 1-D or 2-D operands, following numpy matmul rules."""
    ad, bd = a.data, b.data
    if not (1 <= ad.ndim <= 2 and 1 <= bd.ndim <= 2) or ad.shape[-1] != bd.shape[0]:
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


def total_sum(a: Tensor) -> Tensor:
    out = _wrap(np.asarray(a.data.sum()))

    def back(g: Array):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _emit(out, (a,), back)


def gather_rows(table: Tensor, indices) -> Tensor:
    """table[indices] along axis 0; the gradient is a RowGrad of the touched rows.

    The table has at least one axis; `indices` may be an int array of any
    shape, which prefixes the shape of the rows.
    """
    if table.data.ndim < 1:
        raise ShapeError("gather-rows", table.data.shape)
    idx = np.asarray(indices, dtype=np.intp)
    out = _wrap(table.data[idx])
    return _emit(out, (table,), lambda g: (_row_grad(idx, g, table.data.shape),))


def _row_grad(idx: Array, g: Array, shape: tuple[int, ...]) -> RowGrad:
    """The gradient of table[idx] for the upstream g: the rows of g summed by
    index. Sorting the indices sums each run of equal ones at once."""
    flat = idx.reshape(-1)
    rows = g.reshape((flat.size,) + shape[1:])
    if not flat.size:
        return RowGrad(flat, rows, shape)
    order = np.argsort(flat, kind="stable")
    ids = flat[order]
    first = np.empty(ids.size, dtype=bool)
    first[0] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return RowGrad(ids[starts], np.add.reduceat(rows[order], starts, axis=0), shape)


# Candidate cells (rows x candidates x max(T, d)) per piece of rows in
# candidate_head: a piece's temporaries stay cache-sized and are reused from
# the allocator's free lists instead of faulting in fresh pages.
HEAD_BLOCK = 1 << 15


def _pieces(counts: list[int], budget: int) -> list[tuple[int, int, int, int]]:
    """candidate_head's pieces as (first user, users k, first row, rows R per user).

    A piece is either k consecutive users with R rows each and k R <= budget,
    or a run of at most `budget` rows of one user with more rows than that.
    Users without rows belong to no piece.
    """
    pieces, b, row = [], 0, 0
    while b < len(counts):
        per, k = counts[b], 1
        if per > budget:
            pieces.extend((b, 1, row + a, min(budget, per - a)) for a in range(0, per, budget))
        else:
            while b + k < len(counts) and counts[b + k] == per and (k + 1) * per <= budget:
                k += 1
            if per:
                pieces.append((b, k, row, per))
        b += k
        row += k * per
    return pieces


def candidate_head(table: Tensor, ids, values: Tensor, w2: Tensor, bias2: Tensor,
                   w3: Tensor, shared3: Tensor, *, keys: Tensor, pos: Tensor,
                   rows: Segments, widths, keep: Array | None = None,
                   p_drop: float = 0.0) -> Tensor:
    """Candidate-as-query attention, a relu MLP, dropout and a bilinear score.

    For row i of user b = rows.ids[i] with causal width n = widths[i] and
    candidate c, with e = table[ids[i, c]]:

        a_t = softmax over t < n of keys[b, t] . (e + pos[i])
        r = relu(sum_t a_t values[b, t])
        h = (w2 r + bias2[i]) * keep[i, c] / (1 - p_drop)
        out[i, c] = (w3 h + shared3[i]) . e

    table is the (items, d) embedding table and ids the (N, C) int
    candidate ids, pos (N, d), keys and values (B, T, d) with each user's
    rows consecutive in `rows`, bias2 and shared3 (N, 1, d). Any
    score linear in e joins through shared3: the model adds f's user vector
    to g's shared terms there, so the head returns f + g. keep is the
    (N, C, d) bool keep-mask; without one (eval mode, or p_drop = 0) there
    is no dropout and w3 folds into w2, saving one (N, C, d) product and
    keeping no h.

    One tape record. All of a user's rows share its keys and values, so the
    rows are worked through in pieces (`_pieces`) of whole users with equal
    row counts, or of one user's consecutive rows when it has more than
    fit: a piece's logits are one (k, w, R C) GEMM against the user slices
    keys[b:b+k, :w], its attention output one (k, R C, d) GEMM, and in the
    backward d_keys and d_values one GEMM each per piece. w is the widest
    causal width of the piece's rows; positions at or past it are never
    computed. HEAD_BLOCK bounds a piece at about that many cells
    (rows x C x max(T, d)). A piece's candidate embeddings are gathered
    from the table when the piece runs, in the forward and again in the
    backward, so no (N, C, d) embedding array exists whole; the table's
    gradient is one RowGrad of the rows the candidates read. On a tape the
    forward keeps the softmax weights of every piece, r, y = w3 h + shared3
    and, with a keep-mask, h for the backward.
    """
    emb = table.data
    idx = np.asarray(ids, dtype=np.intp)
    widths = np.asarray(widths, dtype=np.intp)
    if (idx.ndim != 2 or emb.ndim != 2 or values.data.ndim != 3
            or keys.data.shape != values.data.shape or values.data.shape[2] != emb.shape[1]
            or rows.size != idx.shape[0] or rows.n != keys.data.shape[0]
            or widths.shape != (idx.shape[0],) or widths.max() > keys.data.shape[1]):
        raise ShapeError("candidate-head", emb.shape, idx.shape, keys.data.shape,
                         widths.shape)
    if widths.min() < 1:
        row = int(np.flatnonzero(widths < 1)[0])
        raise ValueError(f"candidate_head: row {row} sees no history position")
    n_rows, n_cands = idx.shape
    d = emb.shape[1]
    width = keys.data.shape[1]
    inputs = (table, values, w2, bias2, w3, shared3, keys, pos)
    positions = np.arange(width)[None, :, None, None]
    if keep is not None and keep.shape != idx.shape + (d,):
        raise ShapeError("candidate-head-keep", idx.shape + (d,), keep.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= emb.shape[0]):
        raise IndexError(f"candidate_head: candidate ids must lie in [0, {emb.shape[0]})")
    w2d, w3d = w2.data, w3.data
    if keep is None:
        w32 = w3d @ w2d                              # y = w32 r + b_y
        b_y = bias2.data @ w3d.T + shared3.data
    else:
        scale_keep = 1.0 / (1.0 - p_drop)
    kept = _active_tape() is not None and any(t.requires_grad for t in inputs)
    step = max(1, HEAD_BLOCK // (n_cands * max(width, d)))
    # (first user, users, first row, rows per user, width, its softmax weights in a_all)
    pieces, n_weights = [], 0
    for b, k, lo, per in _pieces(rows.counts.tolist(), step):
        w = int(widths[lo:lo + k * per].max())
        size = k * w * per * n_cands
        pieces.append((b, k, lo, per, w,
                       slice(n_weights, n_weights + size) if kept else slice(0, size)))
        n_weights += size
    # whole-batch when the backward reads it, else one piece's worth reused
    n_buf = n_rows if kept else min(step, n_rows)
    a_all = np.empty(n_weights if kept else n_buf * width * n_cands)
    r_all, y_all = np.empty((n_buf, n_cands, d)), np.empty((n_buf, n_cands, d))
    h_all = None if keep is None else np.empty((n_buf, n_cands, d))
    # one piece's candidate embeddings, gathered into the same rows each time
    e_buf = np.empty((min(step, n_rows), n_cands, d))
    out_data = np.empty((n_rows, n_cands))
    for b, k, lo, per, w, at in pieces:
        hi = lo + k * per
        rs = slice(lo, hi) if kept else slice(0, hi - lo)
        e_b = np.take(emb, idx[lo:hi], axis=0, out=e_buf[:hi - lo], mode="clip")
        k_p = keys.data[b:b + k, :w]
        # Logits laid out (k, w, R C), so the softmax reduces over the middle
        # axis; k . (e + pos) is split so no query array is built.
        a = np.matmul(k_p, e_b.reshape(k, per * n_cands, d).transpose(0, 2, 1),
                      out=a_all[at].reshape(k, w, -1))
        a4 = a.reshape(k, w, per, n_cands)
        a4 += np.matmul(k_p, pos.data[lo:hi].reshape(k, per, d).transpose(0, 2, 1))[..., None]
        valid = positions[:, :w] < widths[lo:hi].reshape(k, 1, per, 1)
        a4 -= np.max(a4, axis=1, keepdims=True, where=valid, initial=-np.inf)
        np.exp(a4, out=a4, where=valid)      # padded entries are zeroed, never exp'd
        a4 *= valid
        a4 /= a4.sum(axis=1, keepdims=True)
        r = r_all[rs]
        np.matmul(a.transpose(0, 2, 1), values.data[b:b + k, :w],
                  out=r.reshape(k, per * n_cands, d))
        np.maximum(r, 0.0, out=r)
        y = y_all[rs]
        if keep is None:
            np.matmul(r.reshape(-1, d), w32.T, out=y.reshape(-1, d))
            y += b_y[lo:hi]
        else:
            h = h_all[rs]
            np.matmul(r.reshape(-1, d), w2d.T, out=h.reshape(-1, d))
            h += bias2.data[lo:hi]
            h *= keep[lo:hi]
            h *= scale_keep
            np.matmul(h.reshape(-1, d), w3d.T, out=y.reshape(-1, d))
            y += shared3.data[lo:hi]
        np.einsum("ncd,ncd->nc", y, e_b, out=out_data[lo:hi])
    out = _wrap(out_data)
    if not kept:
        return out

    def back(g: Array):
        d_e = np.empty((n_rows, n_cands, d))
        d_shared = np.empty((n_rows, 1, d))
        if keep is None:
            d_w32 = np.zeros_like(w32)
        else:
            d_w2, d_w3 = np.zeros_like(w2d), np.zeros_like(w3d)
            d_bias2 = np.empty_like(d_shared)
        d_values = np.zeros_like(values.data)
        d_pos = np.empty((n_rows, d))
        d_keys = np.zeros_like(keys.data)
        for b, k, lo, per, w, at in pieces:
            hi = lo + k * per
            g_b, y = g[lo:hi, :, None], y_all[lo:hi]
            e_b = np.take(emb, idx[lo:hi], axis=0, out=e_buf[:hi - lo], mode="clip")
            gy = g_b * e_b                           # d out / d y
            d_shared[lo:hi] = gy.sum(axis=1, keepdims=True)
            gy = gy.reshape(-1, d)
            r2 = r_all[lo:hi].reshape(-1, d)
            if keep is None:
                d_w32 += gy.T @ r2
                d_r = gy @ w32
            else:
                d_w3 += gy.T @ h_all[lo:hi].reshape(-1, d)
                d_h = gy @ w3d
                d_h3 = d_h.reshape(e_b.shape)
                d_h3 *= keep[lo:hi]
                d_h3 *= scale_keep
                d_bias2[lo:hi] = d_h3.sum(axis=1, keepdims=True)
                d_w2 += d_h.T @ r2
                d_r = d_h @ w2d
            d_r = d_r.reshape(k, per * n_cands, d)
            d_r *= r_all[lo:hi].reshape(d_r.shape) > 0.0   # d out / d (attention output)
            a = a_all[at].reshape(k, w, -1)
            k_p = keys.data[b:b + k, :w]
            d_values[b:b + k, :w] += np.matmul(a, d_r)
            d_a = np.matmul(values.data[b:b + k, :w], d_r.transpose(0, 2, 1))  # (k, w, R C)
            d_a -= (d_a * a).sum(axis=1, keepdims=True)
            d_a *= a                                 # d out / d logits
            d_pk = d_a.reshape(k, w, per, n_cands).sum(axis=3)  # d out / d (k . pos)
            d_k = np.matmul(d_a, e_b.reshape(k, per * n_cands, d))
            d_k += np.matmul(d_pk, pos.data[lo:hi].reshape(k, per, d))
            d_keys[b:b + k, :w] += d_k
            d_pos[lo:hi] = np.matmul(d_pk.transpose(0, 2, 1), k_p).reshape(-1, d)
            np.matmul(d_a.transpose(0, 2, 1), k_p,
                      out=d_e[lo:hi].reshape(k, per * n_cands, d))
            d_e[lo:hi] += g_b * y
        if keep is None:
            # y = (w3 w2) r + (w3 bias2 + shared3)
            d_w2 = w3d.T @ d_w32
            d_w3 = d_w32 @ w2d.T + d_shared.reshape(-1, d).T @ bias2.data.reshape(-1, d)
            d_bias2 = d_shared @ w3d
        return (_row_grad(idx, d_e, emb.shape), d_values, d_w2, d_bias2, d_w3, d_shared,
                d_keys, d_pos)

    return _emit(out, inputs, back)


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
# GRU
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
    return _gru(x, h, p, 1)


def gru_sequence(x: Tensor, p: GruParams, n_steps: int) -> Tensor:
    """`gru_cell` over n_steps lockstep steps of B sequences from a zero state.

    x is (T*B, d) step-major: rows t*B .. t*B + B - 1 are step t's inputs.
    Returns the (T*B, d) states in the same layout, as one tape record.
    The input projections of all steps, in blocks of about GRU_BLOCK
    cells, are one GEMM each ahead of the steps; a step multiplies only by
    the hidden-side weights.
    """
    d = p.w_xz.data.shape[0]
    xd = x.data
    if n_steps < 1 or xd.ndim != 2 or xd.shape[1] != d or xd.shape[0] % n_steps:
        raise ShapeError("gru-sequence", xd.shape, (n_steps, d))
    return _gru(x, None, p, n_steps)


# Input-projection cells (rows x 3d) per block of steps in _gru: the input
# side of a block is one GEMM, and without a tape the forward allocates
# nothing that grows with the sequence but its output. A block's arrays
# stay below glibc's default mmap threshold (128 KiB), so they are reused
# from the heap instead of faulting in fresh pages.
GRU_BLOCK = 1 << 13


def _gru(x: Tensor, h0: Tensor | None, p: GruParams, n_steps: int) -> Tensor:
    """The GRU's one kernel: n_steps lockstep steps from h0 (None: zeros).

    The input side is stacked (n, z, r) and the hidden side (z, r, n): the
    backward's per-row [da_n, da_z, da_r, d_hn] then holds the input side's
    pre-activation gradients in its first three d-blocks and the hidden
    side's in its last three, so each weight gradient is one GEMM over all
    rows. Everything in the backward that does not depend on the carried
    state gradient is computed for all rows before its step loop. On a tape
    the forward keeps z, r, Whn h and n of every row; without one it reuses
    one step's buffers.
    """
    d = p.w_xz.data.shape[0]
    xd = x.data.reshape(-1, d)
    n_seq = xd.shape[0] // n_steps
    wx = np.concatenate([p.w_xn.data, p.w_xz.data, p.w_xr.data])       # (3d, d)
    wh = np.concatenate([p.w_hz.data, p.w_hr.data, p.w_hn.data])
    bias = np.concatenate([p.b_n.data, p.b_z.data, p.b_r.data])
    block = max(1, GRU_BLOCK // (3 * d * n_seq))                        # steps
    # sigmoid(s) = 0.5 + 0.5 tanh(0.5 s), and halving is exact in floating
    # point: the z and r columns of both projections are halved up front.
    wh_zr = 0.5 * wh[:2 * d].T
    wh_n = p.w_hn.data.T.copy()
    inputs = (x,) + (() if h0 is None else (h0,)) + (
        p.w_xz, p.w_hz, p.b_z, p.w_xr, p.w_hr, p.b_r, p.w_xn, p.w_hn, p.b_n)
    kept = _active_tape() is not None and any(t.requires_grad for t in inputs)
    h_init = np.zeros((n_seq, d)) if h0 is None else h0.data.reshape(-1, d)
    states = np.empty((n_steps, n_seq, d))
    per = n_steps if kept else 1
    zr_all = np.empty((per, n_seq, 2 * d))
    hn_all = np.empty((per, n_seq, d))                       # Whn h
    n_all = np.empty((per, n_seq, d))
    z_all, r_all = zr_all[..., :d], zr_all[..., d:]
    h = h_init
    for t in range(n_steps):
        if t % block == 0:
            # the input side of the next `block` steps as one GEMM
            ax = xd[t * n_seq:(t + block) * n_seq] @ wx.T
            ax += bias
            ax_n = np.ascontiguousarray(ax[:, :d]).reshape(-1, n_seq, d)
            ax_zr = np.multiply(ax[:, d:], 0.5).reshape(-1, n_seq, 2 * d)
        i = t if kept else 0
        zr, hn, n = zr_all[i], hn_all[i], n_all[i]
        np.dot(h, wh_zr, out=zr)
        zr += ax_zr[t % block]
        np.tanh(zr, out=zr)
        zr *= 0.5
        zr += 0.5
        np.dot(h, wh_n, out=hn)
        np.multiply(r_all[i], hn, out=n)
        n += ax_n[t % block]
        np.tanh(n, out=n)
        # (1 - z) * n + z * h  ==  n + z * (h - n)
        h = np.subtract(h, n, out=states[t])
        h *= z_all[i]
        h += n
    out = _wrap(states.reshape(x.data.shape))
    if not kept:
        return out

    def back(g: Array):
        g = g.reshape(n_steps, n_seq, d)
        h_prev = np.concatenate([h_init[None], states[:-1]])
        # With gt the step's whole state gradient, a row's pre-activation
        # gradients are [da_n, da_z, da_r, d_hn] = [gt f0, gt f1, da_n f2, da_n f3];
        # the factors f do not depend on gt.
        f = np.empty((n_steps, n_seq, 4, d))
        one_z = 1.0 - z_all
        np.multiply(one_z, 1.0 - n_all * n_all, out=f[:, :, 0])
        np.multiply((h_prev - n_all) * z_all, one_z, out=f[:, :, 1])
        np.multiply(hn_all * r_all, 1.0 - r_all, out=f[:, :, 2])
        f[:, :, 3] = r_all
        dpre = np.empty_like(f)
        carry = None                                   # d loss / d state, via later steps
        for t in reversed(range(n_steps)):
            gt = g[t] if carry is None else g[t] + carry
            ft, dt = f[t], dpre[t]
            np.multiply(gt[:, None], ft[:, :2], out=dt[:, :2])
            np.multiply(dt[:, :1], ft[:, 2:], out=dt[:, 2:])
            if t or h0 is not None:
                carry = gt * z_all[t]
                carry += np.dot(dt[:, 1:].reshape(n_seq, 3 * d), wh)
        dpre = dpre.reshape(-1, 4 * d)
        da, dah = dpre[:, :3 * d], dpre[:, d:]
        d_wx = da.T @ xd
        d_wh = dah.T @ h_prev.reshape(-1, d)
        d_b = da.sum(axis=0)
        lead = ((da @ wx).reshape(x.data.shape),)
        if h0 is not None:
            lead += (carry.reshape(h0.data.shape),)
        return lead + (d_wx[d:2 * d], d_wh[:d], d_b[d:2 * d],
                       d_wx[2 * d:], d_wh[d:2 * d], d_b[2 * d:],
                       d_wx[:d], d_wh[2 * d:], d_b[:d])

    return _emit(out, inputs, back)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Elements per block of an Adam update: a block's operands stay in cache
# across the update's dozen elementwise passes.
ADAM_BLOCK = 1 << 14


class AdamState:
    """First/second moment vectors, laid out like theta, plus the step counter.

    beta2 defaults to 0.99 rather than 0.999: the embedding tables start
    near zero, and a long second-moment memory of the first noisy steps
    throttles them for hundreds of updates.
    """

    def __init__(self, theta: Array, lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.99, eps: float = 1e-8) -> None:
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)


def adam_step(theta: Array, grad: Array, state: AdamState, gamma: float = 0.0,
              clip_norm: float = 0.0) -> tuple[float, float]:
    """Adam on the L2-penalized, clipped gradient, in place; returns (sum theta^2, ||e||).

    theta and grad are 1-D vectors of one length (`ModelParams.flat` and a
    gradient laid out like it). The gradient for theta is e = g + 2 gamma
    theta, scaled by clip_norm / ||e|| when 0 < clip_norm < ||e||. A
    read-only pass takes ||e|| and sum theta^2 before the update (the
    penalized loss adds gamma times it); a second applies m = b1 m + (1-b1) e,
    v = b2 v + (1-b2) e^2 and theta -= lr (m / bc1) / (sqrt(v / bc2) + eps).
    Both walk slices of ADAM_BLOCK elements through scratch rows, so a step
    allocates nothing table-sized, and every element sees the operations of
    whole-array expressions in the same order; only the norm's summation
    order differs.
    """
    scratch = np.empty((3, ADAM_BLOCK))
    blocks = [slice(lo, lo + ADAM_BLOCK) for lo in range(0, theta.size, ADAM_BLOCK)]
    two_gamma = 2.0 * gamma

    def penalized(x: Array, gb: Array, out: Array) -> Array:
        return np.add(np.multiply(two_gamma, x, out=out), gb, out=out) if gamma else gb

    sq_norm = sq_theta = 0.0
    for block in blocks:
        x = theta[block]
        a, b = scratch[:2, :x.size]
        e = penalized(x, grad[block], a)
        sq_norm += float(np.multiply(e, e, out=b).sum())
        sq_theta += float(np.multiply(x, x, out=b).sum())
    norm = float(np.sqrt(sq_norm))
    factor = clip_norm / norm if 0 < clip_norm < norm else None

    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1, bc2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for block in blocks:
        x, m, v = theta[block], state.m[block], state.v[block]
        a, b, c = scratch[:, :x.size]
        e = penalized(x, grad[block], c)
        if factor is not None:
            e = np.multiply(e, factor, out=c)
        m *= b1
        m += np.multiply(1.0 - b1, e, out=a)
        v *= b2
        v += np.multiply(1.0 - b2, np.multiply(e, e, out=a), out=a)
        num = np.multiply(state.lr, np.divide(m, bc1, out=a), out=a)
        den = np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), state.eps, out=b)
        x -= np.divide(num, den, out=a)
    return sq_theta, norm
