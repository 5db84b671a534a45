"""From-scratch numpy neural-network substrate.

The paper trains three kinds of small multilayer perceptrons with
TensorFlow: the environment (performance) model, the DDPG actor, and the
DDPG critic.  This package re-implements everything those networks need —
dense layers, activations, losses, optimisers, backpropagation, gradients
with respect to *inputs* (required by the deterministic policy gradient),
and soft target-network updates.  Each network keeps all of its parameters
in one flat vector (and its gradients in a second), so optimiser steps,
target-network updates and parameter-space exploration noise are
whole-vector operations.
"""

from repro.nn.activations import (
    Activation,
    LeakyReLU,
    Linear,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    get_activation,
)
from repro.nn.initializers import (
    constant_init,
    glorot_uniform,
    he_uniform,
    uniform_init,
)
from repro.nn.layers import Dense
from repro.nn.losses import HuberLoss, Loss, MeanSquaredError, get_loss
from repro.nn.network import MLP, soft_update
from repro.nn.serialization import load_mlp, save_mlp
from repro.nn.optimizers import SGD, Adam, Optimizer, get_optimizer

__all__ = [
    "Activation",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Softmax",
    "Linear",
    "get_activation",
    "Dense",
    "Loss",
    "MeanSquaredError",
    "HuberLoss",
    "get_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "get_optimizer",
    "MLP",
    "soft_update",
    "save_mlp",
    "load_mlp",
    "glorot_uniform",
    "he_uniform",
    "uniform_init",
    "constant_init",
]
