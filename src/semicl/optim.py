"""SGD and Adam over a named parameter dict.

A parameter with no gradient (it did not participate in the loss) is treated
as having gradient zero. Non-finite gradients abort the run rather than being
clipped.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, DivergenceError


class SGD:
    def __init__(self, params: dict[str, Tensor], lr: float):
        if lr <= 0:
            raise ContractError(f"learning rate must be positive, got {lr}")
        self.params = dict(params)
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                continue
            if not np.isfinite(p.grad).all():
                raise DivergenceError(f"non-finite gradient for parameter {name}")
            p.data = p.data - self.lr * p.grad


class Adam:
    """Adam with bias correction; beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ContractError(f"learning rate must be positive, got {lr}")
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros(p.shape) for k, p in self.params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros(p.shape)
            elif not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient for parameter {name}")
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1 ** self.t)
            v_hat = self.v[name] / (1 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


OPTIMIZERS = {"adam": Adam, "sgd": SGD}


def make_optimizer(kind: str, params: dict[str, Tensor], lr: float):
    if kind not in OPTIMIZERS:
        raise ContractError(f"unknown optimizer {kind!r}; use one of {tuple(OPTIMIZERS)}")
    return OPTIMIZERS[kind](params, lr)
