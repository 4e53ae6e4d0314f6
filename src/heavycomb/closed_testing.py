"""Closed testing of the standard combination test.

Rejects an individual hypothesis when every subset containing it is
rejected by the sum-based combination test, which controls the
family-wise error rate.  The shortcut runs in O(n log n) for decisions
and O(n^2) for adjusted p-values; the brute force enumerates all 2^n
subsets and serves as the reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combine import _validate_pvalues
from .distributions import HeavyTailDistribution
from .errors import CapacityError, DomainError

_BRUTE_FORCE_MAX_N = 20


@dataclass(frozen=True)
class ClosedTestingResult:
    """Per-hypothesis adjusted p-values and decisions at a given alpha."""

    adjusted_p: np.ndarray  # input order
    rejected: np.ndarray    # bool, input order
    rejection_cut: int      # 1-based J: exactly the J-1 smallest p-values rejected
    alpha: float


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0,1), got {alpha!r}")
    return float(alpha)


def closed_test_shortcut(p, d: HeavyTailDistribution, alpha: float) -> ClosedTestingResult:
    """Step-down shortcut over the sorted p-values.

    With p_(1) <= ... <= p_(n), x_i = H(p_(i)) and thresholds
    c_1 = H(alpha), c_k = H(alpha/k) - sum of the k-1 smallest x's, the
    first rank i with x_i < max(c_1, ..., c_{n-i+1}) stops the procedure;
    every earlier rank is rejected.  Adjusted p-values maximize
    k * F_bar(max{H(p_i), x_(n-k+1)} + tail sum) over the subset size k.
    """
    alpha = _check_alpha(alpha)
    arr = _validate_pvalues(p)
    n = arr.size
    order = np.argsort(arr, kind="stable")
    ps = arr[order]
    x = np.asarray(d.inverse_survival(ps), dtype=np.float64)
    # Sums may overflow, and only an overflowed transform (+inf, always at
    # x[0]) can meet a -inf (p = 1); that NaN sum reads as +inf.
    overflowed = x[0] == np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        # tail_sums[k] = sum of x over the k largest p-values (k = 0..n-1 used as k-1)
        suffix = np.concatenate(([0.0], np.cumsum(x[::-1])))
        if overflowed:
            suffix[np.isnan(suffix)] = np.inf

        ks = np.arange(1, n + 1)
        h_alpha = np.asarray(d.inverse_survival(alpha / ks), dtype=np.float64)
        c = h_alpha - suffix[ks - 1]  # c_k = H(alpha/k) - sum_{j=n-k+2}^{n} x_j
        cmax = np.maximum.accumulate(c)

        limits = cmax[::-1]  # limits[i-1] = max(c_1, ..., c_{n-i+1})
        fails = x < limits
        cut = int(np.argmax(fails)) + 1 if fails.any() else n + 1

        rejected_sorted = np.arange(1, n + 1) < cut
        rejected = np.empty(n, dtype=bool)
        rejected[order] = rejected_sorted

        adjusted = np.empty(n)
        if n == 1:
            adjusted[0] = ps[0]
        else:
            k_hi = np.arange(2, n + 1)
            tail = suffix[k_hi - 1]          # sum of the (k-1) largest p-values' x
            x_ref = x[n - k_hi]              # x at sorted rank n-k+1
            for j in range(n):
                s = np.maximum(x[j], x_ref) + tail
                if overflowed:
                    s[np.isnan(s)] = np.inf
                p_ik = np.minimum(k_hi * np.asarray(d.survival(s), dtype=np.float64), 1.0)
                adjusted[order[j]] = max(ps[j], float(p_ik.max()))
    return ClosedTestingResult(adjusted, rejected, cut, alpha)


def closed_test_bruteforce(p, d: HeavyTailDistribution, alpha: float) -> ClosedTestingResult:
    """Reference implementation enumerating all nonempty subsets."""
    alpha = _check_alpha(alpha)
    arr = _validate_pvalues(p)
    n = arr.size
    if n > _BRUTE_FORCE_MAX_N:
        raise CapacityError(f"brute force limited to n <= {_BRUTE_FORCE_MAX_N}, got {n}")
    x = np.asarray(d.inverse_survival(arr), dtype=np.float64)

    sums = np.zeros(1)
    sizes = np.zeros(1, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            sums = np.concatenate([sums, sums + x[i]])
            sizes = np.concatenate([sizes, sizes + 1])
    sums[np.isnan(sums)] = np.inf  # +inf plus -inf: the overflowed transform wins
    with np.errstate(invalid="ignore"):
        subset_p = np.minimum(sizes[1:] * np.asarray(d.survival(sums[1:]), dtype=np.float64), 1.0)

    masks = np.arange(1, 2 ** n)
    adjusted = np.empty(n)
    for i in range(n):
        has_i = (masks >> i) & 1 == 1
        adjusted[i] = float(subset_p[has_i].max())

    rejected = adjusted <= alpha
    cut = int(rejected.sum()) + 1
    return ClosedTestingResult(adjusted, rejected, cut, alpha)
