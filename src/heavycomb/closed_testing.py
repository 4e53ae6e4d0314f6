"""Closed testing of the standard combination test.

Rejects an individual hypothesis when every subset containing it is
rejected by the sum-based combination test, which controls the
family-wise error rate: its adjusted p-value is <= alpha.  The shortcut
forms the adjusted p-values in O(n^2); the brute force enumerates all 2^n
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
    rejection_cut: int      # 1-based J: J-1 adjusted_p are <= alpha, at the smallest p-values
    alpha: float


def closed_test_shortcut(p, d: HeavyTailDistribution, alpha: float) -> ClosedTestingResult:
    """Shortcut over the sorted p-values p_(1) <= ... <= p_(n), x_i = H(p_(i)).

    The adjusted p-value of rank j is the largest of p_(j) and, over subset
    sizes k, k * F_bar(max{x_j, x_(n-k+1)} + sum of x over the k-1 largest
    p-values); it rises with the rank, so the rejections (adjusted p <= alpha,
    as in the brute force) are the smallest p-values.
    """
    alpha = _check_alpha(alpha)
    adjusted = _shortcut_rows(_validate_pvalues(p)[None, :], d)[0]
    rejected, cut = _decide(adjusted, alpha)
    return ClosedTestingResult(adjusted, rejected, int(cut), alpha)


def _decide(adjusted: np.ndarray, alpha: float):
    """Reject when the adjusted p-value is <= alpha; the cut counts them plus one."""
    rejected = adjusted <= alpha
    return rejected, rejected.sum(axis=-1) + 1


def _shortcut_rows(p: np.ndarray, d: HeavyTailDistribution) -> np.ndarray:
    """The adjusted p-values (input order) of each row of a validated ``(rows, n)``
    block.  Every row gets the bits of a one-row call."""
    g, n = p.shape
    rows = np.arange(g)[:, None]
    order = p.argsort(axis=1, kind="stable")
    ps = p[rows, order]
    x = np.asarray(d.inverse_survival(ps), dtype=np.float64)
    # Sums may overflow, and only an overflowed transform (+inf, always at
    # x[:, 0]) can meet a -inf (p = 1); that NaN sum reads as +inf.
    overflowed = x[:, 0].max() == np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        tail = x[:, None, :0:-1].cumsum(axis=2)  # [..., k-2]: x summed over the k-1 largest p
        if overflowed:
            tail[np.isnan(tail)] = np.inf
        # adjusted p of sorted rank j: the largest k * F_bar(max(x_j, x_(n-k+1))
        # + tail sum) over k = 2..n, in blocks of at most _CHUNK elements of the
        # (rows, n, n - 1) array of (row, rank j, k)
        best = ps.copy()
        k_hi = np.arange(2, n + 1)
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
    return adjusted


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

    rejected, cut = _decide(adjusted, alpha)
    return ClosedTestingResult(adjusted, rejected, int(cut), alpha)
