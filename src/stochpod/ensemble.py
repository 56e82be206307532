"""Prediction statistics of stochastic-ROM ensembles.

The ensembles themselves are drawn by the batched Monte-Carlo kernels of
``stochpod.pipeline``.  ``summarize_matrix`` turns a (count, grid) sample
matrix into pointwise prediction intervals, and ``coverage`` measures how
many truth points those intervals contain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class PredictionSummary:
    grid: Array
    mean: Array
    std: Array
    lower: Array
    upper: Array
    level: float


@dataclass(frozen=True)
class CoverageReport:
    coverage: float
    mean_pi_width: float
    points_total: int
    points_inside: int


def summarize_matrix(samples, grid, level: float) -> PredictionSummary:
    """Pointwise mean, sample std, and empirical quantile band.

    ``samples`` is a (count, grid) matrix.  Quantiles at (1 - level)/2 and
    1 - (1 - level)/2 with linear interpolation between order statistics.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 2:
        raise ValueError("need at least two samples to summarize")
    alpha = 0.5 * (1.0 - level)
    lower, upper = np.quantile(samples, [alpha, 1.0 - alpha], axis=0, method="linear")
    return PredictionSummary(grid=np.asarray(grid, dtype=float),
                             mean=samples.mean(axis=0),
                             std=samples.std(axis=0, ddof=1),
                             lower=lower, upper=upper, level=level)


def coverage(summary: PredictionSummary, truth) -> CoverageReport:
    """Fraction of truth points inside the closed interval [lower, upper]."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != summary.lower.shape:
        raise ValueError("truth grid does not match summary grid")
    inside = (truth >= summary.lower) & (truth <= summary.upper)
    total = int(truth.shape[0])
    hits = int(np.count_nonzero(inside))
    return CoverageReport(coverage=hits / total,
                          mean_pi_width=float(np.mean(summary.upper - summary.lower)),
                          points_total=total, points_inside=hits)
