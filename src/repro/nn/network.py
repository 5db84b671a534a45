"""Sequential multilayer perceptron.

This is the single network container used by the environment model, the
actor, and the critic.  Beyond the usual ``fit``/``predict`` it exposes the
three capabilities the MIRAS algorithms require:

- **input gradients** (:meth:`MLP.input_gradient`, or :meth:`MLP.backward`
  with ``param_grads=False``) for the deterministic policy gradient, which
  chains dQ/da through the critic's action input;
- **a flat parameter arena**: every layer's weights and biases are views
  into one contiguous float64 vector :attr:`MLP.params`, and their
  gradients into a second one, :attr:`MLP.grads`.  The optimiser steps
  the whole vector at once, :func:`soft_update` is an in-place axpy on
  it, and parameter-space exploration noise (which perturbs the whole
  policy network with Gaussian noise) is a single vector write;
- **auxiliary (second-layer) inputs** so the critic can receive the action
  "at the second layer" exactly as the paper describes.
"""

from __future__ import annotations

import copy
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Dense
from repro.nn.losses import Loss, MeanSquaredError
from repro.nn.optimizers import Adam, Optimizer
from repro.utils.rng import RngStream, fallback_stream

__all__ = ["MLP", "soft_update"]


class MLP:
    """A stack of :class:`Dense` layers.

    Parameters
    ----------
    layer_sizes:
        ``[in_dim, hidden..., out_dim]``; at least one layer (two entries).
    hidden_activation / output_activation:
        Activation names for hidden layers and the final layer.
    aux_dim / aux_layer:
        If ``aux_dim`` > 0, layer index ``aux_layer`` (0-based) receives an
        extra input of that width concatenated to its normal input.  The
        paper's critic uses ``aux_layer=1`` to inject the action at the
        second layer.
    rng:
        Seeded stream for weight initialisation.
    final_init:
        Initialiser for the last layer; DDPG uses ``small_uniform``.

    Layout: ``params`` holds ``[W0, b0, W1, b1, ...]`` in layer order, each
    weight matrix row-major; ``grads`` mirrors it.  Layer attributes are
    views into these two vectors, so code must write them in place
    (``layer.weights[...] = w``) — rebinding one would detach it from the
    arena and the optimiser would stop training it.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation: str = "relu",
        output_activation: str = "linear",
        aux_dim: int = 0,
        aux_layer: int = 1,
        rng: Optional[RngStream] = None,
        final_init: str = "glorot",
    ):
        if len(layer_sizes) < 2:
            raise ValueError(
                f"layer_sizes needs >= 2 entries, got {list(layer_sizes)}"
            )
        if aux_dim and not 0 <= aux_layer < len(layer_sizes) - 1:
            raise ValueError(
                f"aux_layer {aux_layer} out of range for "
                f"{len(layer_sizes) - 1} layers"
            )
        if rng is None:
            rng = fallback_stream("mlp")

        self.layer_sizes = list(layer_sizes)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        self.aux_dim = aux_dim
        self.aux_layer = aux_layer if aux_dim else -1
        dims = [
            (n_in, n_out, aux_dim if i == self.aux_layer else 0)
            for i, (n_in, n_out) in enumerate(zip(layer_sizes, layer_sizes[1:]))
        ]
        bounds = list(accumulate((Dense.param_count(*d) for d in dims), initial=0))
        self.params = np.empty(bounds[-1], dtype=np.float64)
        self.grads = np.zeros(bounds[-1], dtype=np.float64)
        self.layers: List[Dense] = []
        last = len(dims) - 1
        for i, (n_in, n_out, layer_aux) in enumerate(dims):
            is_last = i == last
            lo, hi = bounds[i], bounds[i + 1]
            self.layers.append(
                Dense(
                    n_in,
                    n_out,
                    activation=output_activation if is_last else hidden_activation,
                    init=final_init if is_last else "he",
                    aux_dim=layer_aux,
                    rng=rng.fork(f"layer{i}"),
                    params=self.params[lo:hi],
                    grads=self.grads[lo:hi],
                )
            )
        self._collect_grad_views()

    def _collect_grad_views(self) -> None:
        #: Per-parameter gradient views in layer order; their squared sums
        #: make up the global norm the optimiser's ``grad_clip`` bounds.
        self.grad_views = [
            g for layer in self.layers for g in (layer.grad_weights, layer.grad_bias)
        ]

    # ------------------------------------------------------------------
    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(
        self, x: np.ndarray, aux: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Run a batch through the network, caching for backward()."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if aux is not None:
            aux = np.atleast_2d(np.asarray(aux, dtype=np.float64))
        h = x
        for i, layer in enumerate(self.layers):
            h = layer.forward(h, aux if i == self.aux_layer else None)
        return h

    def predict(
        self, x: np.ndarray, aux: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Forward pass; 1-D inputs give 1-D outputs."""
        single = np.asarray(x).ndim == 1
        out = self.forward(x, aux)
        return out[0] if single else out

    def backward(
        self, grad_out: np.ndarray, param_grads: bool = True
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Backpropagate ``dL/d(output)``; returns ``(dL/dx, dL/daux)``.

        Per-layer weight gradients are left in each layer's
        ``grad_weights`` / ``grad_bias`` (that is, in :attr:`grads`) unless
        ``param_grads`` is false.
        """
        grad = grad_out
        grad_aux: Optional[np.ndarray] = None
        for i in range(len(self.layers) - 1, -1, -1):
            grad, layer_grad_aux = self.layers[i].backward(grad, param_grads)
            if layer_grad_aux is not None:
                grad_aux = layer_grad_aux
        return grad, grad_aux

    def input_gradient(
        self,
        x: np.ndarray,
        grad_out: Optional[np.ndarray] = None,
        aux: Optional[np.ndarray] = None,
        wrt: str = "input",
    ) -> np.ndarray:
        """Gradient of (a scalar projection of) the output w.r.t. inputs.

        With ``grad_out=None`` the output is assumed scalar per sample and a
        vector of ones is used — this gives d(output)/d(input) directly,
        which is what the deterministic policy gradient needs from the
        critic (``wrt='aux'`` selects the action input).  Weight gradients
        are not computed, and :attr:`grads` is left as it was.
        """
        out = self.forward(x, aux)
        if grad_out is None:
            grad_out = np.ones_like(out)
        grad_x, grad_aux = self.backward(grad_out, param_grads=False)
        if wrt == "input":
            return grad_x
        if wrt == "aux":
            if grad_aux is None:
                raise ValueError("network has no auxiliary input")
            return grad_aux
        raise ValueError(f"wrt must be 'input' or 'aux', got {wrt!r}")

    # Training ----------------------------------------------------------
    def apply_gradients(self, optimizer: Optimizer) -> None:
        """Step ``optimizer`` on the arena from the last backward()."""
        optimizer.step(self.params, self.grads, self.grad_views)

    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optional[Optimizer] = None,
        loss: Optional[Loss] = None,
        aux: Optional[np.ndarray] = None,
    ) -> float:
        """One gradient step on a batch; returns the batch loss."""
        optimizer = optimizer or getattr(self, "_default_optimizer", None)
        if optimizer is None:
            self._default_optimizer = optimizer = Adam()
        loss = loss or MeanSquaredError()
        prediction = self.forward(x, aux)
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        value, grad = loss(prediction, y)
        self.backward(grad)
        self.apply_gradients(optimizer)
        return value

    # Parameter-vector API (for parameter-space noise) -------------------
    @property
    def num_params(self) -> int:
        return self.params.size

    def get_flat(self) -> np.ndarray:
        """All parameters as one flat copy."""
        return self.params.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        """Load all parameters from a flat vector (written in place)."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.params.shape:
            raise ValueError(
                f"flat vector has shape {flat.shape}, "
                f"expected ({self.num_params},)"
            )
        self.params[...] = flat

    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Copy of all parameters keyed by layer index."""
        return {f"layer{i}": l.state_dict() for i, l in enumerate(self.layers)}

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        for i, layer in enumerate(self.layers):
            layer.load_state_dict(state[f"layer{i}"])

    def clone(self) -> "MLP":
        """Structural + parameter deep copy (used for target networks)."""
        return copy.deepcopy(self)

    def __setstate__(self, state: dict) -> None:
        # deepcopy and pickle copy the arena and every layer view as
        # separate arrays; re-point the copy's layers at the copy's arena.
        self.__dict__.update(state)
        offset = 0
        for layer in self.layers:
            end = offset + layer.num_params
            layer.bind(self.params[offset:end], self.grads[offset:end])
            offset = end
        self._collect_grad_views()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arch = " -> ".join(str(s) for s in self.layer_sizes)
        aux = f", aux_dim={self.aux_dim}@layer{self.aux_layer}" if self.aux_dim else ""
        return f"MLP({arch}{aux})"


def soft_update(target: MLP, source: MLP, tau: float) -> None:
    """Polyak-average ``target <- tau * source + (1 - tau) * target``.

    This is DDPG's target-network update; ``tau=1`` copies outright.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau!r}")
    layout = ("layer_sizes", "aux_dim", "aux_layer")
    if any(getattr(target, a) != getattr(source, a) for a in layout):
        raise ValueError(
            f"target {target!r} and source {source!r} differ in architecture"
        )
    # (1 - tau) * t + tau * s, evaluated in place on the target's arena.
    params = target.params
    params *= 1.0 - tau
    params += tau * source.params
