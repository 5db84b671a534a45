"""Dense (fully connected) layer with backpropagation.

The layer supports everything MIRAS's networks need:

- forward/backward over mini-batches,
- gradients with respect to the *input* (the deterministic policy gradient
  chains dQ/da through the critic's input),
- an optional *auxiliary input* concatenated at this layer (the paper's
  critic "inserts one of Critic's inputs — action — to the second layer"),
- parameters and gradients held as *views* into caller-supplied flat
  vectors, so a network keeps all of its layers in one contiguous arena.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import (
    constant_init,
    glorot_uniform,
    he_uniform,
    uniform_init,
)
from repro.utils.rng import RngStream, fallback_stream

__all__ = ["Dense"]

_INITIALIZERS = {
    "glorot": glorot_uniform,
    "he": he_uniform,
    "small_uniform": uniform_init,
}


class Dense:
    """A fully connected layer ``y = f(x @ W + b)``.

    Parameters
    ----------
    in_dim, out_dim:
        Input/output widths.  If ``aux_dim`` is non-zero, the effective input
        width is ``in_dim + aux_dim`` and callers must pass the auxiliary
        tensor to :meth:`forward`.
    activation:
        Name of the activation (see :func:`repro.nn.get_activation`) or an
        :class:`Activation` instance.
    init:
        One of ``glorot``, ``he``, ``small_uniform``.
    aux_dim:
        Width of an auxiliary input concatenated to this layer's input.
    params / grads:
        Flat float64 vectors of length :meth:`param_count` that back
        ``weights``/``bias`` and ``grad_weights``/``grad_bias`` (weights
        first, row-major, then bias).  :class:`repro.nn.MLP` passes slices
        of its arena; a standalone layer allocates its own.  The four
        attributes are views and must only be written in place.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        init: str = "he",
        aux_dim: int = 0,
        rng: Optional[RngStream] = None,
        params: Optional[np.ndarray] = None,
        grads: Optional[np.ndarray] = None,
    ):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(
                f"layer dims must be positive, got in={in_dim}, out={out_dim}"
            )
        if aux_dim < 0:
            raise ValueError(f"aux_dim must be >= 0, got {aux_dim}")
        if init not in _INITIALIZERS:
            known = ", ".join(sorted(_INITIALIZERS))
            raise ValueError(f"unknown init {init!r}; known: {known}")
        if rng is None:
            rng = fallback_stream("dense")

        self.in_dim = in_dim
        self.out_dim = out_dim
        self.aux_dim = aux_dim
        self.activation: Activation = (
            activation
            if isinstance(activation, Activation)
            else get_activation(activation)
        )
        size = self.param_count(in_dim, out_dim, aux_dim)
        if params is None:
            params = np.empty(size, dtype=np.float64)
        if grads is None:
            grads = np.zeros(size, dtype=np.float64)
        self.bind(params, grads)
        self.weights[...] = _INITIALIZERS[init](in_dim + aux_dim, out_dim, rng)
        self.bias[...] = constant_init(1, out_dim).reshape(out_dim)

        # Forward cache.
        self._x: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        # Preallocated [x | aux] buffer, reused while the batch size is
        # stable (fixed-shape training batches never reallocate).  Filling
        # it is value-identical to np.concatenate, so outputs are bitwise
        # unchanged.
        self._concat_buf: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, aux: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute the layer output for a batch ``x`` of shape (B, in_dim)."""
        if x.ndim != 2:
            raise ValueError(f"expected 2-D batch input, got shape {x.shape}")
        if self.aux_dim:
            if aux is None:
                raise ValueError("layer expects an auxiliary input")
            if aux.shape != (x.shape[0], self.aux_dim):
                raise ValueError(
                    f"aux shape {aux.shape} != ({x.shape[0]}, {self.aux_dim})"
                )
            if x.dtype == np.float64 and aux.dtype == np.float64:
                buf = self._concat_buf
                if buf is None or buf.shape[0] != x.shape[0]:
                    buf = np.empty(
                        (x.shape[0], self.in_dim + self.aux_dim),
                        dtype=np.float64,
                    )
                    self._concat_buf = buf
                buf[:, : self.in_dim] = x
                buf[:, self.in_dim :] = aux
                x = buf
            else:
                x = np.concatenate([x, aux], axis=1)
        elif aux is not None:
            raise ValueError("layer does not accept an auxiliary input")

        self._x = x
        self._z = x @ self.weights + self.bias
        self._y = self.activation.forward(self._z)
        return self._y

    def backward(
        self, grad_y: np.ndarray, param_grads: bool = True
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Backpropagate ``dL/dy``; returns ``(dL/dx, dL/daux)``.

        With ``param_grads`` (the default) also writes ``grad_weights`` /
        ``grad_bias`` in place (overwriting the previous values —
        optimizers read them right after); without it they are left alone.
        """
        if self._x is None or self._z is None or self._y is None:
            raise RuntimeError("backward() called before forward()")
        grad_z = self.activation.backward(grad_y, self._z, self._y)
        if param_grads:
            np.matmul(self._x.T, grad_z, out=self.grad_weights)
            np.sum(grad_z, axis=0, out=self.grad_bias)
        grad_x_full = grad_z @ self.weights.T
        if self.aux_dim:
            return grad_x_full[:, : self.in_dim], grad_x_full[:, self.in_dim :]
        return grad_x_full, None

    # Parameter storage --------------------------------------------------
    @staticmethod
    def param_count(in_dim: int, out_dim: int, aux_dim: int = 0) -> int:
        """Length of the flat vector backing a layer of these dims."""
        return (in_dim + aux_dim + 1) * out_dim

    @property
    def num_params(self) -> int:
        return self.weights.size + self.bias.size

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Point the parameter and gradient attributes at views of
        ``params`` / ``grads`` without copying any values."""
        size = self.param_count(self.in_dim, self.out_dim, self.aux_dim)
        for flat in (params, grads):
            # A strided vector would make reshape() copy, detaching the view.
            if not (
                flat.shape == (size,)
                and flat.dtype == np.float64
                and flat.flags.c_contiguous
            ):
                raise ValueError(
                    f"params/grads must be contiguous float64 vectors of "
                    f"length {size}, got {flat.dtype} {flat.shape}"
                )
        shape = (self.in_dim + self.aux_dim, self.out_dim)
        w_size = shape[0] * shape[1]
        self.weights = params[:w_size].reshape(shape)
        self.bias = params[w_size:]
        self.grad_weights = grads[:w_size].reshape(shape)
        self.grad_bias = grads[w_size:]

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters for checkpointing."""
        return {"weights": self.weights.copy(), "bias": self.bias.copy()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Copy parameters into the existing views (shapes must match)."""
        if state["weights"].shape != self.weights.shape:
            raise ValueError("weights shape mismatch in state dict")
        if state["bias"].shape != self.bias.shape:
            raise ValueError("bias shape mismatch in state dict")
        self.weights[...] = state["weights"]
        self.bias[...] = state["bias"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        aux = f", aux_dim={self.aux_dim}" if self.aux_dim else ""
        return (
            f"Dense({self.in_dim} -> {self.out_dim}, "
            f"activation={self.activation.name}{aux})"
        )
