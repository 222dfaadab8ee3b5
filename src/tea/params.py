"""Trainable parameter containers, seeded initialization, checkpoint I/O.

Embedding tables are shared between the two score functions; every tensor
gets its own named random stream so adding or removing a block (e.g. the
walk GRU in the reduced variants) never shifts the init of the others.
Every trainable tensor is a view into one float64 vector, `ModelParams.flat`.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

# gather_rows is not used here; it stays importable under this name because
# the benchmark's tracer (perfbench/tracer.py) wraps tea.params.gather_rows.
from .autodiff import GruParams, Tensor, gather_rows  # noqa: F401

CHECKPOINT_MAGIC = "TEA-CKPT-1"

VARIANTS = {
    "tea-s": ("sage", True),
    "tea-a": ("attention", True),
    "tea-rs": ("sage", False),
    "tea-ra": ("attention", False),
}


class IncompatibleCheckpointError(ValueError):
    """Checkpoint file cannot be used (bad magic, shape or config mismatch)."""


@dataclass
class SharedEmbeddings:
    """User, item and position tables shared by both score functions."""

    user: Tensor
    item: Tensor
    position: Tensor

    def named(self) -> list[tuple[str, Tensor]]:
        return [("emb.user", self.user), ("emb.item", self.item),
                ("emb.pos", self.position)]


@dataclass
class TransitionParams:
    """Weights of the behavior-sequence score g (plus shared embeddings)."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_g1: Tensor
    b_g1: Tensor
    w_g2: Tensor
    b_g2: Tensor
    w_g3: Tensor
    walk_gru: GruParams | None
    shared: SharedEmbeddings

    def named(self) -> list[tuple[str, Tensor]]:
        out = [("g.w_q", self.w_q), ("g.w_k", self.w_k), ("g.w_v", self.w_v),
               ("g.w_1", self.w_g1), ("g.b_1", self.b_g1),
               ("g.w_2", self.w_g2), ("g.b_2", self.b_g2),
               ("g.w_3", self.w_g3)]
        if self.walk_gru is not None:
            out.extend(self.walk_gru.named("g.gru"))
        return out


@dataclass
class UnaryParams:
    """Weights of the graph-context score f (plus shared embeddings)."""

    w_agg: Tensor             # bipartite projection
    attn_vec: Tensor | None   # attention aggregator only
    w_soc: Tensor             # social projection
    temporal_gru: GruParams
    w_f1: Tensor
    b_f1: Tensor
    w_f2: Tensor
    b_f2: Tensor
    aggregator: str           # "sage" | "attention"
    shared: SharedEmbeddings

    def named(self) -> list[tuple[str, Tensor]]:
        out = [("f.w_agg", self.w_agg)]
        if self.attn_vec is not None:
            out.append(("f.attn", self.attn_vec))
        out.append(("f.w_soc", self.w_soc))
        out.extend(self.temporal_gru.named("f.gru"))
        out.extend([("f.w_1", self.w_f1), ("f.b_1", self.b_f1),
                    ("f.w_2", self.w_f2), ("f.b_2", self.b_f2)])
        return out


def _layout(n_users: int, n_items: int, d: int, l_s: int, variant: str,
            make) -> tuple[SharedEmbeddings, TransitionParams, UnaryParams]:
    """The containers of `variant` at these counts, each tensor `make(shape)`
    for its shape as a list of ints, made in `trainable()` order."""
    aggregator, use_walks = VARIANTS[variant]

    def gru() -> GruParams:
        return GruParams(*(make(shape) for shape in [[d, d], [d, d], [d]] * 3))

    shared = SharedEmbeddings(make([n_users, d]), make([n_items, d]), make([l_s, d]))
    transition = TransitionParams(
        *(make(shape) for shape in [[d, d]] * 4 + [[d], [d, d], [d], [d, 4 * d]]),
        walk_gru=gru() if use_walks else None, shared=shared)
    unary = UnaryParams(
        make([d, d]), make([2 * d]) if aggregator == "attention" else None,
        make([d, d]), gru(), make([d, 2 * d]), make([d]), make([d, d]), make([d]),
        aggregator=aggregator, shared=shared)
    return shared, transition, unary


@dataclass
class ModelParams:
    """Everything trainable, with the shared tables stored exactly once: each
    tensor's data is a view into `flat`, in `trainable()` (checkpoint) order.
    The counts are the tables' shapes; the variant follows from f's
    aggregator and whether g has a walk GRU."""

    shared: SharedEmbeddings
    transition: TransitionParams
    unary: UnaryParams
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.flat = np.empty(sum(t.data.size for _, t in self.trainable()))
        for (_, t), view in zip(self.trainable(), self.views(self.flat)):
            view[...] = t.data
            t.data = view

    n_users = property(lambda self: self.shared.user.shape[0])
    n_items = property(lambda self: self.shared.item.shape[0])
    l_s = property(lambda self: self.shared.position.shape[0])
    d = property(lambda self: self.shared.user.shape[1])

    @property
    def variant(self) -> str:
        kind = (self.unary.aggregator, self.transition.walk_gru is not None)
        return next(name for name, spec in VARIANTS.items() if spec == kind)

    def trainable(self) -> list[tuple[str, Tensor]]:
        return self.shared.named() + self.transition.named() + self.unary.named()

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each trainable tensor's slice of a vector laid out like `flat`."""
        out, start = [], 0
        for _, t in self.trainable():
            out.append(flat[start:start + t.data.size].reshape(t.data.shape))
            start += t.data.size
        return out


def _zero_params(n_users: int, n_items: int, d: int, l_s: int, variant: str) -> ModelParams:
    return ModelParams(*_layout(n_users, n_items, d, l_s, variant,
                                lambda shape: Tensor(np.zeros(shape), requires_grad=True)))


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(name.encode())]))


_INIT_GAIN = np.sqrt(6.0)  # rectifier-appropriate uniform bound


def init_params(n_users: int, n_items: int, d: int, l_s: int,
                variant: str, seed: int) -> ModelParams:
    """Each tensor uniform in +-gain/sqrt(fan-in), fan-in its last axis.

    The weights' gain sqrt(6): with a plain 1/sqrt(fan_in) bound the
    relu/GRU stack's input-dependent variation is too small for the score
    heads to ever differentiate inputs at trainable step sizes. The
    embeddings' gain 1: the score is a product of several embedding-scale
    factors, and a much smaller init leaves the optimizer on a
    constant-score plateau for hundreds of steps.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(VARIANTS)}")
    params = _zero_params(n_users, n_items, d, l_s, variant)
    for name, t in params.trainable():
        bound = (1.0 if name.startswith("emb.") else _INIT_GAIN) / np.sqrt(t.shape[-1])
        t.data[...] = _rng_for(seed, name).uniform(-bound, bound, size=t.shape)
    return params


# ---------------------------------------------------------------------------
# Checkpoints: magic line, length-prefixed JSON header, little-endian f64 blobs
# ---------------------------------------------------------------------------


def _tensor_specs(n_users: int, n_items: int, d: int, l_s: int, variant: str) -> list[dict]:
    """The header's tensor list, in blob order; allocates no tensor."""
    return [{"name": name, "shape": shape}
            for part in _layout(n_users, n_items, d, l_s, variant, make=list)
            for name, shape in part.named()]


def _tensor_bytes(n_users: int, n_items: int, d: int, l_s: int, variant: str) -> int:
    """`init_params(...).flat.nbytes`, from the counts alone."""
    return 8 * sum(math.prod(spec["shape"])
                   for spec in _tensor_specs(n_users, n_items, d, l_s, variant))


def save_checkpoint(path, params: ModelParams, config: dict, epoch: int) -> None:
    counts = {"n_users": params.n_users, "n_items": params.n_items, "d": params.d,
              "l_s": params.l_s, "variant": params.variant}
    header = {"format": CHECKPOINT_MAGIC, "config": config, "epoch": epoch, **counts,
              "tensors": _tensor_specs(**counts)}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC.encode("ascii") + b"\n")
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(params.flat.astype("<f8", copy=False))


def _read_exactly(fh, n: int, path, what: str) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise IncompatibleCheckpointError(
            f"{path}: truncated checkpoint ({what}: {len(raw)} of {n} bytes)")
    return raw


def _check_header(path, header, blob_bytes: int) -> tuple:
    """Reject a header whose fields, tensor bytes or tensor list do not match
    a blob of `blob_bytes`, before any tensor is allocated. Returns its counts
    and variant, in `init_params`' argument order."""
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise IncompatibleCheckpointError(f"{path}: checkpoint header format mismatch")
    fields = (("n_users", 1), ("n_items", 1), ("d", 1), ("l_s", 1), ("epoch", 0))
    for key, least in fields:
        value = header.get(key)
        if type(value) is not int or value < least:
            raise IncompatibleCheckpointError(f"{path}: header field {key!r} is "
                                              f"{value!r}, expected an integer >= {least}")
    if header.get("variant") not in VARIANTS:
        raise IncompatibleCheckpointError(
            f"{path}: unknown variant {header.get('variant')!r}; "
            f"expected one of {sorted(VARIANTS)}")
    if not isinstance(header.get("config"), dict):
        raise IncompatibleCheckpointError(
            f"{path}: header field 'config' is not an object")
    tensors = header.get("tensors")
    if not isinstance(tensors, list) or not all(isinstance(t, dict) for t in tensors):
        raise IncompatibleCheckpointError(
            f"{path}: header field 'tensors' is not a list of objects")
    counts = tuple(header[key] for key in ("n_users", "n_items", "d", "l_s", "variant"))
    need = _tensor_bytes(*counts)
    if need != blob_bytes:
        raise IncompatibleCheckpointError(
            f"{path}: header counts need {need} tensor bytes, "
            f"the file holds {blob_bytes} after the header")
    for i, (want, got) in enumerate(zip_longest(_tensor_specs(*counts), tensors)):
        if got != want:
            raise IncompatibleCheckpointError(
                f"{path}: header tensor #{i} is {got}, expected {want} "
                f"for variant {header['variant']!r}")
    return counts


def load_checkpoint(path) -> tuple[ModelParams, dict, int]:
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != CHECKPOINT_MAGIC.encode("ascii"):
            raise IncompatibleCheckpointError(
                f"{path}: bad checkpoint header {magic!r}; "
                f"expected \"{CHECKPOINT_MAGIC}\"")
        (hlen,) = struct.unpack("<Q", _read_exactly(fh, 8, path, "header length"))
        raw_header = _read_exactly(fh, hlen, path, "header")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except ValueError as exc:
            raise IncompatibleCheckpointError(
                f"{path}: undecodable checkpoint header ({exc})") from None
        counts = _check_header(path, header, os.fstat(fh.fileno()).st_size - fh.tell())
        params = _zero_params(*counts)
        raw = _read_exactly(fh, params.flat.nbytes, path, "tensors")
        params.flat[...] = np.frombuffer(raw, dtype="<f8")
    return params, header["config"], header["epoch"]
