"""Weight initialisation schemes for :mod:`repro.nn` layers."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "he_normal", "zeros"]


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initialisation, the GAIN default."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def he_normal(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """He et al. (2015) initialisation, suited to ReLU stacks."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=(fan_in, fan_out))


def zeros(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """All-zero initialisation (biases)."""
    del rng
    return np.zeros((fan_in, fan_out))
