"""Global tests on a vector of p-values.

Heavy-tailed combination tests (standard, average-based, weighted),
weighted Bonferroni together with its max-statistic form, Fisher's method
as the light-tailed baseline, and Benjamini-Hochberg adjustment for
multi-group pipelines.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import special
from .distributions import HeavyTailDistribution
from .errors import DomainError, MethodMisuseError, ShapeError

_MAX_FLOAT = sys.float_info.max
_MIN_P = sys.float_info.min  # combined p-values are clamped into (0, 1]


@dataclass(frozen=True)
class CombinedResult:
    """Outcome of a global test on one p-value vector."""

    method: str
    n: int
    statistic: float
    combined_p: float
    kappa: float | None = None
    saturated: bool = False
    weights_normalized: bool = False

    def reject(self, alpha: float) -> bool:
        return self.combined_p < alpha


def _validate_pvalues(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ShapeError("p-values must form a nonempty 1-D vector")
    if np.isnan(arr).any() or (arr <= 0.0).any() or (arr > 1.0).any():
        raise DomainError("p-values must lie in (0, 1]")
    return arr


def _validate_weights(w, n: int) -> np.ndarray:
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 1 or arr.size != n:
        raise ShapeError(f"weight vector has length {arr.size}, expected {n}")
    if np.isnan(arr).any() or (arr <= 0.0).any() or not np.isfinite(arr).all():
        raise DomainError("weights must be positive and finite")
    return arr


def _clamp_p(raw: float) -> float:
    if math.isnan(raw):
        raise DomainError("combined p-value is NaN")
    return min(1.0, max(raw, _MIN_P))


def transform(p, d: HeavyTailDistribution) -> np.ndarray:
    """Map p-values to heavy-tailed scores X_i = Q_F(1 - p_i).

    A p-value of exactly 1 maps to the lower support bound; when that bound
    is -inf it is replaced by the most negative double so downstream sums
    stay finite (ordering is preserved).
    """
    return _transform(_validate_pvalues(p), d)[0]


def _transform(arr: np.ndarray, d: HeavyTailDistribution) -> tuple[np.ndarray, bool]:
    x = np.asarray(d.inverse_survival(arr), dtype=np.float64)
    saturated = bool(np.isneginf(x).any())
    if saturated:
        x = np.where(np.isneginf(x), -_MAX_FLOAT, x)
    return x, saturated


def combine_weighted(p, w, d: HeavyTailDistribution) -> CombinedResult:
    """Weighted combination test: combined p = kappa * F_bar(sum w_i X_i)."""
    arr = _validate_pvalues(p)
    weights = _validate_weights(w, arr.size)
    return _combine_weighted(arr, weights, d, "weighted")


def _combine_weighted(arr, weights, d, label) -> CombinedResult:
    x, saturated = _transform(arr, d)
    with np.errstate(over="ignore", invalid="ignore"):
        statistic = float(weights @ x)
    if math.isnan(statistic):  # +inf plus -inf: the overflowed transform wins
        statistic = math.inf
    kappa = float(np.sum(weights ** d.tail_index))
    raw = kappa * float(d.survival(statistic))
    return CombinedResult(
        method=label,
        n=arr.size,
        statistic=statistic,
        combined_p=_clamp_p(raw),
        kappa=kappa,
        saturated=saturated,
    )


def combine_standard(p, d: HeavyTailDistribution) -> CombinedResult:
    """Sum-based combination test: combined p = n * F_bar(S_n)."""
    arr = _validate_pvalues(p)
    return _combine_weighted(arr, np.ones(arr.size), d, "standard")


def combine_average(p, d: HeavyTailDistribution) -> CombinedResult:
    """Average-based combination test; requires tail index 1."""
    arr = _validate_pvalues(p)
    if abs(d.tail_index - 1.0) > 1e-12:
        raise MethodMisuseError(
            f"average-based test needs tail index 1, got {d.tail_index} ({d!r})"
        )
    return _combine_weighted(arr, np.full(arr.size, 1.0 / arr.size), d, "average")


def bonferroni(p, w=None) -> CombinedResult:
    """Weighted Bonferroni test: reject when min p_i / w_i < alpha.

    Weights are normalized to sum to one; the result records whether
    normalization actually changed them.
    """
    arr = _validate_pvalues(p)
    n = arr.size
    if w is None:
        weights = np.full(n, 1.0 / n)
        normalized = False
    else:
        weights = _validate_weights(w, n)
        total = float(weights.sum())
        normalized = not math.isclose(total, 1.0, rel_tol=1e-12)
        if normalized:
            weights = weights / total
    statistic = float(np.min(arr / weights))
    return CombinedResult(
        method="bonferroni",
        n=n,
        statistic=statistic,
        combined_p=_clamp_p(statistic),
        weights_normalized=normalized,
    )


def bonferroni_as_max_statistic(p, w, d: HeavyTailDistribution, alpha: float) -> bool:
    """Bonferroni decision in transformed space: max w_i X_i > Q_F(1 - alpha/kappa).

    Matches the Definition-4 decision with mapped weights
    w*_i = w_i^gamma / kappa.  When alpha/kappa >= 1 the threshold collapses
    to the lower support bound and the test rejects almost surely.
    """
    arr = _validate_pvalues(p)
    weights = _validate_weights(w, arr.size)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0,1), got {alpha!r}")
    x, _ = _transform(arr, d)
    kappa = float(np.sum(weights ** d.tail_index))
    threshold = float(d.inverse_survival(min(alpha / kappa, 1.0)))
    return bool(np.max(weights * x) > threshold)


def fisher(p) -> CombinedResult:
    """Fisher's method: -2 sum log p_i against the chi-square(2n) upper tail."""
    arr = _validate_pvalues(p)
    statistic = float(-2.0 * np.sum(np.log(arr)))
    raw = special.reg_gamma_upper(arr.size, statistic / 2.0)
    return CombinedResult(
        method="fisher",
        n=arr.size,
        statistic=statistic,
        combined_p=_clamp_p(raw),
    )


def bh_adjust(p) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values, in the input order."""
    arr = _validate_pvalues(p)
    m = arr.size
    order = np.argsort(arr, kind="stable")
    scaled = arr[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    return adjusted
