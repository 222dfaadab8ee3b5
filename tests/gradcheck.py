"""Central finite-difference gradient oracle.

Independent of the tape: it only perturbs raw parameter arrays and re-runs
the forward pass, so it checks the analytic gradients against nothing but
the loss function itself.
"""

from __future__ import annotations

import numpy as np

from tea import autodiff as ad


def numeric_gradient(forward, tensor: ad.Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central differences of forward() w.r.t. every entry of `tensor`."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = forward()
        flat[i] = orig - eps
        down = forward()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def max_mismatch(analytic: np.ndarray, numeric: np.ndarray,
                 atol: float = 1e-7) -> float:
    """Worst relative error, ignoring entries where both sides are ~zero."""
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.where(diff <= atol, 0.0, diff / np.maximum(denom, 1e-300))
    return float(rel.max()) if rel.size else 0.0


def assert_gradients_match(build_loss, named_tensors, eps: float = 1e-5,
                           rtol: float = 1e-4, atol: float = 1e-7) -> None:
    """Analytic vs numeric gradients for every tensor in `named_tensors`.

    `build_loss()` must construct the scalar loss from current parameter
    values; it is called once under a tape for the analytic side and
    repeatedly without one for the numeric side.
    """
    with ad.Tape() as tape:
        loss = build_loss()
    grads = gradients(loss, tape, [t for _, t in named_tensors])

    def forward() -> float:
        return build_loss().item()

    for (name, tensor), analytic in zip(named_tensors, grads):
        numeric = numeric_gradient(forward, tensor, eps)
        worst = max_mismatch(analytic, numeric, atol)
        assert worst < rtol, (
            f"gradient mismatch for {name}: max relative error {worst:.3e}")


def gradients(loss: ad.Tensor, tape: ad.Tape, tensors) -> list[np.ndarray]:
    """`ad.backward` into one NaN-filled buffer per tensor, returned in order:
    an entry the sweep leaves unwritten reads NaN."""
    bufs = [np.full_like(t.data, np.nan) for t in tensors]
    ad.backward(loss, tape, list(zip(tensors, bufs)))
    return bufs


def dense_backward(loss: ad.Tensor, tape: ad.Tape) -> dict[int, np.ndarray]:
    """Reference sweep that keeps every gradient dense, keyed by id(tensor).

    A row gradient becomes a zero table with its rows filled the moment it
    arrives, and arrivals are summed as whole arrays in the order they
    come, `acc + g`, never in place: the engine's row gradients and
    scatter-adds must give the same bits.
    """
    grads = {id(loss): np.ones_like(loss.data)}
    for rec in reversed(tape.records):
        g_out = grads.pop(id(rec.out), None)
        if g_out is None:
            continue
        for inp, g_in in zip(rec.inputs, rec.backward(g_out)):
            if g_in is None or not inp.requires_grad:
                continue
            if isinstance(g_in, ad.RowGrad):
                g_in = g_in.dense()
            acc = grads.get(id(inp))
            grads[id(inp)] = g_in if acc is None else acc + g_in
    return grads
