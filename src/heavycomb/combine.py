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
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import special
from .distributions import HeavyTailDistribution
from .errors import DomainError, MethodMisuseError, ShapeError

__all__ = ["CombinedResult", "bh_adjust", "bonferroni", "bonferroni_as_max_statistic",
           "combine_average", "combine_standard", "combine_weighted", "fisher", "transform"]

_MAX_FLOAT = sys.float_info.max
_MIN_P = sys.float_info.min  # combined p-values are clamped into (0, 1]
_CHUNK = 1 << 14  # elements in one working set: engine row tiles, closed-testing blocks


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
    if not ((arr > 0.0) & (arr <= 1.0)).all():  # NaN fails both
        raise DomainError("p-values must lie in (0, 1]")
    return arr


def _validate_weights(w, n: int) -> np.ndarray:
    if w is None:
        raise ShapeError(f"the weighted test needs {n} weights, none were given")
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 1 or arr.size != n:
        raise ShapeError(f"weight vector has length {arr.size}, expected {n}")
    if np.isnan(arr).any() or (arr <= 0.0).any() or not np.isfinite(arr).all():
        raise DomainError("weights must be positive and finite")
    return arr


def _clamp_p(raw: np.ndarray) -> np.ndarray:
    if np.isnan(raw).any():
        raise DomainError("combined p-value is NaN")
    return np.minimum(1.0, np.maximum(raw, _MIN_P))


# The decision rule shared by the library and the Monte Carlo engine: the
# weighted sum of transformed scores rejects above Q_F(1 - alpha/kappa), with
# kappa = sum w_i^gamma, and pairs with Bonferroni on the weights w_i^gamma/kappa.
# Each helper takes one vector or a (rows, n) block.


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0,1), got {alpha!r}")
    return float(alpha)


def _sum_weights(kind: str, n: int, d: HeavyTailDistribution, w=None) -> np.ndarray:
    """Weights of the standard, average or weighted test on ``n`` p-values."""
    if kind == "standard":
        return np.ones(n)
    if kind == "weighted":
        return _validate_weights(w, n)
    if abs(d.tail_index - 1.0) > 1e-12:
        raise MethodMisuseError(
            f"average-based test needs tail index 1, got {d.tail_index} ({d!r})"
        )
    return np.full(n, 1.0 / n)


def _kappa(weights: np.ndarray, d: HeavyTailDistribution) -> float:
    """kappa = sum_i w_i^gamma; one outside the positive doubles is a DomainError
    (a single power may underflow)."""
    with np.errstate(over="ignore"):
        kappa = float((weights ** d.tail_index).sum())
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"kappa, the sum of the weights to the power of the tail index "
                          f"{d.tail_index!r}, {'underflows to 0' if kappa == 0.0 else 'overflows'}")
    return kappa


def _thresholds(d: HeavyTailDistribution, alphas, kappa: float) -> np.ndarray:
    """Q_F(1 - alpha/kappa) of each of ``alphas``, from one ``inverse_survival``
    call; the lower support bound once alpha/kappa >= 1."""
    return d.inverse_survival(np.minimum(np.array(alphas, dtype=np.float64) / kappa, 1.0))


def _weighted_sum(x: np.ndarray, weights: np.ndarray):
    """Sum of w_i x_i over the last axis, one column at a time (``s = s + w_i x_i``,
    the same bits in any block and under any BLAS kernel); a NaN (+inf meeting
    -inf) reads as +inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = x[..., 0] * weights[0]
        for i in range(1, x.shape[-1]):
            s += x[..., i] * weights[i]
    nan = np.isnan(s)
    return np.where(nan, np.inf, s) if nan.any() else s


def _bonferroni_weights(w, n: int) -> tuple[np.ndarray, bool]:
    """Weights summing to one (equal when ``w`` is None) and whether ``w`` was rescaled."""
    if w is None:
        return np.full(n, 1.0 / n), False
    weights = _validate_weights(w, n)
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    if math.isclose(total, 1.0, rel_tol=1e-12):
        return weights, False
    if total == math.inf:  # finite weights whose sum overflows: scale by the largest first
        weights = weights / weights.max()
        total = float(weights.sum())
    return weights / total, True


def _mapped_weights(weights: np.ndarray, d: HeavyTailDistribution) -> np.ndarray:
    """Bonferroni weights w_i^gamma / kappa paired with the weighted test; a
    power w_i^gamma that leaves the positive doubles is a DomainError."""
    with np.errstate(over="ignore"):
        powers = weights ** d.tail_index
    for w, power in zip(weights.tolist(), powers.tolist()):
        if not 0.0 < power < math.inf:
            raise DomainError(f"weight {w!r} to the power of the tail index {d.tail_index!r} "
                              f"{'underflows to 0' if power == 0.0 else 'overflows'}")
    _kappa(weights, d)  # their sum may still overflow
    return _bonferroni_weights(powers, weights.size)[0]


def _bonferroni_statistic(p: np.ndarray, weights: np.ndarray | None = None):
    """min_i p_i / w_i over the last axis (min_i p_i without weights), a column
    at a time: ``np.minimum`` is exact, so this has the bits of a row minimum."""
    return reduce(np.minimum, (p[..., i] if weights is None else p[..., i] / weights[i]
                               for i in range(p.shape[-1])))


def _fisher_statistic(p: np.ndarray):
    """-2 sum_i log p_i over the last axis; the logs are laid out row by row, so
    each row sums in the same order for a block of any memory layout."""
    return -2.0 * np.log(p, order="C").sum(axis=-1)


def transform(p, d: HeavyTailDistribution) -> np.ndarray:
    """Map p-values to heavy-tailed scores X_i = Q_F(1 - p_i).

    A p-value of exactly 1 maps to the lower support bound; when that bound
    is -inf it is replaced by the most negative double so downstream sums
    stay finite (ordering is preserved).
    """
    return _transform(_validate_pvalues(p), d)[0]


def _transform(arr: np.ndarray, d: HeavyTailDistribution):
    """Scores, with -inf replaced by the most negative double, and where that
    was done (None when nowhere)."""
    x = np.asarray(d.inverse_survival(arr), dtype=np.float64)
    low = x == -np.inf
    if not low.any():
        return x, None
    return np.where(low, -_MAX_FLOAT, x), low


class _Rows(NamedTuple):
    """Per-row outcome of a global test on a ``(rows, n)`` block."""

    statistic: np.ndarray
    combined_p: np.ndarray
    kappa: float | None = None
    saturated: np.ndarray | None = None  # sum tests: rows where a p = 1 met a -inf bound
    weights_normalized: bool = False


def _combine_rows(kind: str, p: np.ndarray, d: HeavyTailDistribution | None = None,
                  w=None) -> _Rows:
    """The statistic and clamped combined p-value of each row of a validated
    ``(rows, n)`` block, for every kind of ``combine`` and ``bonferroni``/``fisher``.

    Every row gets the bits of a one-row call, so the library and the CLI's
    length-bucketed blocks agree exactly.
    """
    n = p.shape[1]
    if kind == "bonferroni":
        weights, normalized = _bonferroni_weights(w, n)
        statistic = _bonferroni_statistic(p, weights)
        return _Rows(statistic, _clamp_p(statistic), weights_normalized=normalized)
    if kind == "fisher":
        statistic = _fisher_statistic(p)
        return _Rows(statistic, _clamp_p(special._poisson_tail_array(n, statistic / 2.0)))
    weights = _sum_weights(kind, n, d, w)
    x, low = _transform(p, d)
    statistic = _weighted_sum(x, weights)
    kappa = _kappa(weights, d)
    saturated = None if low is None else low.any(axis=1)
    return _Rows(statistic, _clamp_p(kappa * d.survival(statistic)), kappa, saturated)


def _combine(kind: str, p, d: HeavyTailDistribution | None = None, w=None) -> CombinedResult:
    arr = _validate_pvalues(p)
    rows = _combine_rows(kind, arr[None, :], d, w)
    return CombinedResult(
        method=kind,
        n=arr.size,
        statistic=float(rows.statistic[0]),
        combined_p=float(rows.combined_p[0]),
        kappa=rows.kappa,
        saturated=rows.saturated is not None and bool(rows.saturated[0]),
        weights_normalized=rows.weights_normalized,
    )


def combine_weighted(p, w, d: HeavyTailDistribution) -> CombinedResult:
    """Weighted combination test: combined p = kappa * F_bar(sum w_i X_i)."""
    return _combine("weighted", p, d, w)


def combine_standard(p, d: HeavyTailDistribution) -> CombinedResult:
    """Sum-based combination test: combined p = n * F_bar(S_n)."""
    return _combine("standard", p, d)


def combine_average(p, d: HeavyTailDistribution) -> CombinedResult:
    """Average-based combination test; requires tail index 1."""
    return _combine("average", p, d)


def bonferroni(p, w=None) -> CombinedResult:
    """Weighted Bonferroni test: reject when min p_i / w_i < alpha.

    Weights are normalized to sum to one; the result records whether
    normalization actually changed them.
    """
    return _combine("bonferroni", p, w=w)


def bonferroni_as_max_statistic(p, w, d: HeavyTailDistribution, alpha: float) -> bool:
    """Bonferroni decision in transformed space: max w_i X_i > Q_F(1 - alpha/kappa).

    Matches the Definition-4 decision with mapped weights
    w*_i = w_i^gamma / kappa.  When alpha/kappa >= 1 the threshold collapses
    to the lower support bound and the test rejects almost surely.
    """
    arr = _validate_pvalues(p)
    weights = _validate_weights(w, arr.size)
    _check_alpha(alpha)
    x, _ = _transform(arr, d)
    return bool(np.max(weights * x) > _thresholds(d, [alpha], _kappa(weights, d))[0])


def fisher(p) -> CombinedResult:
    """Fisher's method: -2 sum log p_i against the chi-square(2n) upper tail."""
    return _combine("fisher", p)


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
