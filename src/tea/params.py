"""Trainable parameter containers, seeded initialization, checkpoint I/O.

Embedding tables are shared between the two score functions; every tensor
gets its own named random stream so adding or removing a block (e.g. the
walk GRU in the reduced variants) never shifts the init of the others.
Every trainable tensor is a view into one float64 vector, `ModelParams.flat`.
"""

from __future__ import annotations

import json
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

    user: Tensor      # (n_users, d)
    item: Tensor      # (n_items, d)
    position: Tensor  # (l_s, d)

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
    w_g3: Tensor              # (d, 4d)
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

    w_agg: Tensor             # bipartite projection (d, d)
    attn_vec: Tensor | None   # (2d,), attention aggregator only
    w_soc: Tensor             # social projection (d, d)
    temporal_gru: GruParams
    w_f1: Tensor              # (d, 2d)
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


@dataclass
class ModelParams:
    """Everything trainable, with the shared tables stored exactly once: each
    tensor's data is a view into `flat`, in `trainable()` (checkpoint) order."""

    shared: SharedEmbeddings
    transition: TransitionParams
    unary: UnaryParams
    d: int
    n_users: int
    n_items: int
    l_s: int
    variant: str
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.flat = np.empty(sum(t.data.size for _, t in self.trainable()))
        for (_, t), view in zip(self.trainable(), self.views(self.flat)):
            view[...] = t.data
            t.data = view

    def trainable(self) -> list[tuple[str, Tensor]]:
        return self.shared.named() + self.transition.named() + self.unary.named()

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each trainable tensor's slice of a vector laid out like `flat`."""
        out, start = [], 0
        for _, t in self.trainable():
            out.append(flat[start:start + t.data.size].reshape(t.data.shape))
            start += t.data.size
        return out


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(name.encode())]))


_INIT_GAIN = np.sqrt(6.0)  # rectifier-appropriate uniform bound


def _weight(seed: int, name: str, shape: tuple[int, ...], fan_in: int) -> Tensor:
    # gain/sqrt(fan_in): with a plain 1/sqrt(fan_in) bound the relu/GRU
    # stack's input-dependent variation is too small for the score heads to
    # ever differentiate inputs at trainable step sizes.
    bound = _INIT_GAIN / np.sqrt(fan_in)
    data = _rng_for(seed, name).uniform(-bound, bound, size=shape)
    return Tensor(data, requires_grad=True)


def _embedding(seed: int, name: str, shape: tuple[int, ...]) -> Tensor:
    # Fan-in scale, same as the weights: the score is a product of several
    # embedding-scale factors, and a much smaller init leaves the optimizer
    # on a constant-score plateau for hundreds of steps.
    bound = 1.0 / np.sqrt(shape[1])
    data = _rng_for(seed, name).uniform(-bound, bound, size=shape)
    return Tensor(data, requires_grad=True)


def _gru(seed: int, prefix: str, d: int) -> GruParams:
    fields = {}
    for gate in ("z", "r", "n"):
        fields[f"w_x{gate}"] = _weight(seed, f"{prefix}.w_x{gate}", (d, d), d)
        fields[f"w_h{gate}"] = _weight(seed, f"{prefix}.w_h{gate}", (d, d), d)
        fields[f"b_{gate}"] = _weight(seed, f"{prefix}.b_{gate}", (d,), d)
    return GruParams(**fields)


def init_params(n_users: int, n_items: int, d: int, l_s: int,
                variant: str, seed: int) -> ModelParams:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(VARIANTS)}")
    aggregator, use_walks = VARIANTS[variant]
    shared = SharedEmbeddings(
        user=_embedding(seed, "emb.user", (n_users, d)),
        item=_embedding(seed, "emb.item", (n_items, d)),
        position=_embedding(seed, "emb.pos", (l_s, d)),
    )
    transition = TransitionParams(
        w_q=_weight(seed, "g.w_q", (d, d), d),
        w_k=_weight(seed, "g.w_k", (d, d), d),
        w_v=_weight(seed, "g.w_v", (d, d), d),
        w_g1=_weight(seed, "g.w_1", (d, d), d),
        b_g1=_weight(seed, "g.b_1", (d,), d),
        w_g2=_weight(seed, "g.w_2", (d, d), d),
        b_g2=_weight(seed, "g.b_2", (d,), d),
        w_g3=_weight(seed, "g.w_3", (d, 4 * d), 4 * d),
        walk_gru=_gru(seed, "g.gru", d) if use_walks else None,
        shared=shared,
    )
    unary = UnaryParams(
        w_agg=_weight(seed, "f.w_agg", (d, d), d),
        attn_vec=(_weight(seed, "f.attn", (2 * d,), 2 * d)
                  if aggregator == "attention" else None),
        w_soc=_weight(seed, "f.w_soc", (d, d), d),
        temporal_gru=_gru(seed, "f.gru", d),
        w_f1=_weight(seed, "f.w_1", (d, 2 * d), 2 * d),
        b_f1=_weight(seed, "f.b_1", (d,), d),
        w_f2=_weight(seed, "f.w_2", (d, d), d),
        b_f2=_weight(seed, "f.b_2", (d,), d),
        aggregator=aggregator,
        shared=shared,
    )
    return ModelParams(shared=shared, transition=transition, unary=unary,
                       d=d, n_users=n_users, n_items=n_items, l_s=l_s,
                       variant=variant)


# ---------------------------------------------------------------------------
# Checkpoints: magic line, length-prefixed JSON header, little-endian f64 blobs
# ---------------------------------------------------------------------------


def _tensor_specs(params: ModelParams) -> list[dict]:
    return [{"name": n, "shape": list(t.data.shape)} for n, t in params.trainable()]


def save_checkpoint(path, params: ModelParams, config: dict, epoch: int) -> None:
    header = {
        "format": CHECKPOINT_MAGIC,
        "config": config,
        "epoch": epoch,
        "n_users": params.n_users,
        "n_items": params.n_items,
        "d": params.d,
        "l_s": params.l_s,
        "variant": params.variant,
        "tensors": _tensor_specs(params),
    }
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


def _check_header(path, header, blob_bytes: int) -> None:
    """Reject a header whose fields init_params or the blob reader cannot use."""
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
    # Checked before init_params allocates anything for the counts.
    need = _tensor_bytes(header["n_users"], header["n_items"], header["d"],
                         header["l_s"], header["variant"])
    if need != blob_bytes:
        raise IncompatibleCheckpointError(
            f"{path}: header counts need {need} tensor bytes, "
            f"the file holds {blob_bytes} after the header")


def _tensor_bytes(n_users: int, n_items: int, d: int, l_s: int, variant: str) -> int:
    """`init_params(...).flat.nbytes`, from the counts alone."""
    aggregator, use_walks = VARIANTS[variant]
    per_d = n_users + n_items + l_s        # the embedding tables
    per_d += 20 * d + 7                    # g's and f's weights, f's temporal GRU
    per_d += use_walks * (6 * d + 3) + (aggregator == "attention") * 2
    return 8 * d * per_d


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
        _check_header(path, header, os.fstat(fh.fileno()).st_size - fh.tell())
        params = init_params(header["n_users"], header["n_items"], header["d"],
                             header["l_s"], header["variant"], seed=0)
        for i, (want, got) in enumerate(zip_longest(_tensor_specs(params),
                                                    header["tensors"])):
            if got != want:
                raise IncompatibleCheckpointError(
                    f"{path}: header tensor #{i} is {got}, expected {want} "
                    f"for variant {header['variant']!r}")
        raw = _read_exactly(fh, params.flat.nbytes, path, "tensors")
        params.flat[...] = np.frombuffer(raw, dtype="<f8")
    return params, header["config"], header["epoch"]
