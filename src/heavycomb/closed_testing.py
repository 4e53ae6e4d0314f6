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

from .combine import _CHUNK, _check_alpha, _validate_pvalues
from .distributions import HeavyTailDistribution
from .errors import CapacityError

_BRUTE_FORCE_MAX_N = 20


@dataclass(frozen=True)
class ClosedTestingResult:
    """Per-hypothesis adjusted p-values and decisions at a given alpha."""

    adjusted_p: np.ndarray  # input order
    rejected: np.ndarray    # bool, input order
    rejection_cut: int      # 1-based J: exactly the J-1 smallest p-values rejected
    alpha: float


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
    adjusted, rejected, cut = _shortcut_rows(arr[None, :], d, alpha)
    return ClosedTestingResult(adjusted[0], rejected[0], int(cut[0]), alpha)


def _shortcut_rows(p: np.ndarray, d: HeavyTailDistribution, alpha: float):
    """The shortcut on each row of a validated ``(rows, n)`` block.

    Returns the adjusted p-values and decisions (``(rows, n)``, input order)
    and the 1-based cut of each row.  Every row gets the bits of a one-row
    call.
    """
    g, n = p.shape
    rows = np.arange(g)[:, None]
    order = p.argsort(axis=1, kind="stable")
    ps = p[rows, order]
    x = np.asarray(d.inverse_survival(ps), dtype=np.float64)
    # Sums may overflow, and only an overflowed transform (+inf, always at
    # x[:, 0]) can meet a -inf (p = 1); that NaN sum reads as +inf.
    overflowed = x[:, 0].max() == np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        # suffix[:, k] = sum of x over the k largest p-values (k = 0..n-1 used as k-1)
        suffix = np.zeros((g, n + 1))
        x[:, ::-1].cumsum(axis=1, out=suffix[:, 1:])
        if overflowed:
            suffix[np.isnan(suffix)] = np.inf

        ks = np.arange(1, n + 1)
        h_alpha = np.asarray(d.inverse_survival(alpha / ks), dtype=np.float64)
        c = h_alpha - suffix[:, :n]  # c_k = H(alpha/k) - sum_{j=n-k+2}^{n} x_j
        limits = np.maximum.accumulate(c, axis=1)[:, ::-1]  # max(c_1, ..., c_{n-i+1})
        fails = np.ones((g, n + 1), dtype=bool)  # no failing rank: the cut is n + 1
        np.less(x, limits, out=fails[:, :n])
        cut = fails.argmax(axis=1) + 1

        # adjusted p of sorted rank j: the largest k * F_bar(max(x_j, x_(n-k+1))
        # + tail sum) over k = 2..n, in blocks of at most _CHUNK elements of the
        # (rows, n, n - 1) array of (row, rank j, k)
        best = ps.copy()
        k_hi = ks[1:]
        tail = suffix[:, None, 1:n]    # sum of the (k-1) largest p-values' x
        x_ref = x[:, None, ::-1][:, :, 1:]  # x at sorted rank n-k+1
        x_j = x[:, :, None]
        width = max(n - 1, 1)
        g_step = max(1, _CHUNK // (n * width))
        j_step = max(1, _CHUNK // width)
        for i in range(0, g, g_step):
            grp = slice(i, i + g_step)
            for j in range(0, n, j_step):
                ranks = slice(j, j + j_step)
                for k in range(0, n - 1, _CHUNK):
                    sizes = slice(k, k + _CHUNK)
                    s = np.maximum(x_j[grp, ranks], x_ref[grp, :, sizes]) + tail[grp, :, sizes]
                    if overflowed:
                        s[np.isnan(s)] = np.inf
                    p_ik = np.minimum(k_hi[sizes] * d.survival(s), 1.0)
                    np.maximum(best[grp, ranks], p_ik.max(axis=2), out=best[grp, ranks])
    adjusted = np.empty((g, n))
    adjusted[rows, order] = best
    rejected = np.empty((g, n), dtype=bool)
    rejected[rows, order] = ks < cut[:, None]
    return adjusted, rejected, cut


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
    subset_p[(1 << np.arange(n)) - 1] = arr  # a singleton's p is exact, not F_bar(H(p))

    masks = np.arange(1, 2 ** n)
    adjusted = np.empty(n)
    for i in range(n):
        has_i = (masks >> i) & 1 == 1
        adjusted[i] = float(subset_p[has_i].max())

    rejected = adjusted <= alpha
    cut = int(rejected.sum()) + 1
    return ClosedTestingResult(adjusted, rejected, cut, alpha)
