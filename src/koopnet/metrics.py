"""Error metrics shared by the fitting and recovery code."""

from __future__ import annotations

import numpy as np


def nrmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Trajectory-normalized RMSE.

    Both arguments are node-by-tick matrices (or vectors); the result is
    ``sqrt(sum_t ||xhat_t - x_t||^2 / sum_t ||x_t||^2)``.  The sums run in
    C order whatever the inputs' memory layout, so equal arrays give equal
    bits.
    """
    estimate = np.ascontiguousarray(estimate, dtype=float)
    truth = np.ascontiguousarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    denom = float(np.sum(truth * truth))
    if denom <= 0.0:
        raise ValueError("reference trajectory has zero energy")
    return float(np.sqrt(np.sum((estimate - truth) ** 2) / denom))


def per_tick_nrmse(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-column normalized error ``||xhat_t - x_t|| / ||x_t||``."""
    estimate = np.ascontiguousarray(estimate, dtype=float)
    truth = np.ascontiguousarray(truth, dtype=float)
    if estimate.shape != truth.shape or estimate.ndim != 2:
        raise ValueError("expected matching node-by-tick matrices")
    denom = np.linalg.norm(truth, axis=0)
    if (denom <= 0.0).any():
        raise ValueError("reference trajectory has a zero-energy tick")
    return np.linalg.norm(estimate - truth, axis=0) / denom
