"""Stochastic augmentations that produce the two views of an unlabeled sample.

Augmentations act on raw (..., channels, length) float arrays, preserve shape,
and draw all randomness from an explicitly passed numpy Generator, so a (seed,
stream) pair fully determines the output. A batch draws the same numbers, in
the same order, as its series one after another. Timestamp masking zeroes
whole time columns (every channel at a masked step) via independent Bernoulli
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

KINDS = ("temporal_mask", "jitter")


@dataclass(frozen=True)
class AugmentSpec:
    kind: str = "temporal_mask"
    mask_prob: float = 0.5
    jitter_sigma: float = 0.1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown augmentation {self.kind!r}; use one of {KINDS}")
        if not (0.0 <= self.mask_prob <= 1.0):
            raise ContractError(f"mask_prob must be in [0, 1], got {self.mask_prob}")
        if self.jitter_sigma < 0.0:
            raise ContractError(f"jitter_sigma must be >= 0, got {self.jitter_sigma}")


def temporal_mask(x: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Zero each timestamp column independently with probability p."""
    if not (0.0 <= p <= 1.0):
        raise ContractError(f"mask probability must be in [0, 1], got {p}")
    x = np.asarray(x, dtype=np.float64)
    keep = rng.random(x.shape[:-2] + (1, x.shape[-1])) >= p
    return x * keep


def jitter(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Gaussian noise of standard deviation sigma per element."""
    if sigma < 0.0:
        raise ContractError(f"sigma must be >= 0, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    return x + rng.normal(0.0, sigma, size=x.shape)


def apply(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "temporal_mask":
        return temporal_mask(x, spec.mask_prob, rng)
    return jitter(x, spec.jitter_sigma, rng)


def make_views(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """Two independent random views of each series: (..., C, L) -> (..., 2, C, L)."""
    x = np.asarray(x, dtype=np.float64)
    return apply(np.broadcast_to(x[..., None, :, :], x.shape[:-2] + (2,) + x.shape[-2:]),
                 spec, rng)
