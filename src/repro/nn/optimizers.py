"""Gradient-descent optimisers.

The optimisers update one flat parameter vector from one flat gradient
vector — the arena a :class:`repro.nn.network.MLP` keeps all of its
layers in.  Their state (momentum / Adam moments) is a flat vector of the
same length, and every update is a few whole-vector in-place ufuncs into
preallocated scratch buffers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from repro.utils.validation import isclose_zero

__all__ = ["Optimizer", "SGD", "Adam", "get_optimizer"]


class Optimizer(ABC):
    """Base optimiser; subclasses implement :meth:`_update`."""

    name = "optimizer"
    #: Flat state vectors and scratch buffers each subclass keeps.
    _state_slots = 0

    def __init__(self, learning_rate: float = 1e-3, grad_clip: float = 0.0):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate!r}")
        if grad_clip < 0:
            raise ValueError(f"grad_clip must be >= 0, got {grad_clip!r}")
        self.learning_rate = learning_rate
        self.grad_clip = grad_clip
        self._buffers: Optional[np.ndarray] = None
        self.iterations = 0

    def step(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        grad_views: Sequence[np.ndarray],
    ) -> None:
        """Update the flat ``params`` vector in place from ``grads``.

        ``grad_views`` must tile ``grads`` in order (:attr:`MLP.grad_views
        <repro.nn.network.MLP.grad_views>`, one per weight matrix and bias
        in layer order); their squared sums make up the global norm that
        ``grad_clip`` bounds.  When the clip engages, ``grads`` is rescaled
        in place.
        """
        if params.shape != grads.shape or params.ndim != 1:
            raise ValueError(
                f"param/grad shape mismatch: {params.shape} vs {grads.shape} "
                "(both must be the same flat vector length)"
            )
        if self._buffers is None:
            self._buffers = np.zeros((self._state_slots, params.size))
        elif self._buffers.shape[1] != params.size:
            raise ValueError(
                f"optimizer state holds {self._buffers.shape[1]} parameters, "
                f"got {params.size}; call reset() before reusing it"
            )
        self.iterations += 1
        if self.grad_clip:
            self._clip(grads, grad_views)
        self._update(params, grads, *self._buffers)

    def _clip(self, grads: np.ndarray, grad_views: Sequence[np.ndarray]) -> None:
        """Clip by global norm (TensorFlow-style clip_by_global_norm).

        The norm is the layer-order sum of each view's ``sum(g * g)``; the
        squares go into the last buffer, a scratch vector that
        :meth:`_update` overwrites before reading.
        """
        squares = np.multiply(grads, grads, out=self._buffers[-1])
        total, offset = 0.0, 0
        for g in grad_views:
            block = squares[offset : offset + g.size].reshape(g.shape)
            total += float(block.sum())
            offset += g.size
        total = np.sqrt(total)
        if total <= self.grad_clip or isclose_zero(total):
            return
        grads *= self.grad_clip / total

    @abstractmethod
    def _update(self, param: np.ndarray, grad: np.ndarray, *buffers) -> None:
        """Apply one update to ``param`` in place; ``buffers`` are this
        optimiser's ``_state_slots`` flat state/scratch vectors, the last
        of which must be pure scratch."""

    def reset(self) -> None:
        """Drop accumulated state (e.g. after re-initialising a network)."""
        self._buffers = None
        self.iterations = 0


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    name = "sgd"
    _state_slots = 2  # velocity, scratch

    def __init__(
        self,
        learning_rate: float = 1e-2,
        momentum: float = 0.0,
        grad_clip: float = 0.0,
    ):
        super().__init__(learning_rate, grad_clip)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {momentum!r}")
        self.momentum = momentum

    def _update(self, param, grad, velocity, scratch):
        np.multiply(grad, self.learning_rate, out=scratch)
        if self.momentum:
            velocity *= self.momentum
            velocity -= scratch
            param += velocity
        else:
            param -= scratch


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) — default for all networks here."""

    name = "adam"
    _state_slots = 4  # m, v, two scratch buffers

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        grad_clip: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(learning_rate, grad_clip)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {beta1!r}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must lie in [0, 1), got {beta2!r}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon!r}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay!r}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay

    def _update(self, param, grad, m, v, step, denom):
        # Each line keeps the operand order of the textbook expressions
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   param -= lr * m_hat / (sqrt(v_hat) + eps)
        # so the result is bitwise that of evaluating them directly.
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=step)
        m += step
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=step)
        step *= grad
        v += step
        np.divide(v, 1.0 - self.beta2**self.iterations, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        np.divide(m, 1.0 - self.beta1**self.iterations, out=step)
        step *= self.learning_rate
        step /= denom
        param -= step
        if self.weight_decay:
            # Decoupled (AdamW-style) decay: keeps logits from saturating.
            np.multiply(param, self.learning_rate * self.weight_decay, out=step)
            param -= step


_REGISTRY = {"sgd": SGD, "adam": Adam}


def get_optimizer(name: str, **kwargs) -> Optimizer:
    """Look up an optimiser by name (``sgd`` or ``adam``)."""
    try:
        return _REGISTRY[name](**kwargs)
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown optimizer {name!r}; known: {known}") from None
