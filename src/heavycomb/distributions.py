"""Regularly varying tailed distribution families.

Each family exposes the survival function, CDF, quantile, inverse survival
(the workhorse for p-value transforms, computed directly from the tail
probability to avoid ``1 - u`` cancellation), its tail index, and the lower
support bound.  Survival/CDF/inverse-survival accept scalars or numpy
arrays wherever a closed form exists; the Student-t (general degrees of
freedom) and inverse-gamma quantiles fall back to bracketed root finding.

Two survival formulas are implemented in corrected form:

* log-gamma uses ``x**-gamma`` on [1, inf) (the upper-tail integral of a
  unit-shape gamma in log x; the raw table expression increases to 1 and
  cannot be a survival function),
* log-Cauchy uses ``1/2 - arctan(log x)/pi`` on (0, inf), which matches
  ``arctan(1/log x)/pi`` for x > 1 and stays a valid survival below 1.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from . import special
from .errors import ConvergenceError, DomainError, InfiniteQuantileError
from .special import RootBracket, find_root

ArrayLike = Union[float, np.ndarray]

_TINY = np.finfo(np.float64).smallest_subnormal


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    arr = np.asarray(x, dtype=np.float64)
    if np.isnan(arr).any():
        raise DomainError("distribution argument contains NaN")
    return arr, scalar


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr[()]) if scalar and arr.ndim == 0 else arr


class HeavyTailDistribution:
    """Base class; subclasses fill in tail behaviour and closed forms."""

    name: str = ""

    @property
    def tail_index(self) -> float:
        raise NotImplementedError

    @property
    def support_lower(self) -> float:
        raise NotImplementedError

    def survival(self, x: ArrayLike) -> ArrayLike:
        """Upper tail probability P(X > x); 1 below the support."""
        arr, scalar = _as_float_array(x)
        return _maybe_scalar(self._sf(arr), scalar)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        arr, scalar = _as_float_array(x)
        return _maybe_scalar(self._cdf(arr), scalar)

    def quantile(self, u: ArrayLike) -> ArrayLike:
        """Q_F(u) for u strictly inside (0, 1)."""
        arr, scalar = _as_float_array(u)
        if np.any(arr <= 0.0) or np.any(arr >= 1.0):
            bad = arr[(arr <= 0.0) | (arr >= 1.0)].ravel()
            if np.any((bad == 0.0) | (bad == 1.0)):
                raise InfiniteQuantileError(f"{self.name}: quantile at u in {{0,1}}")
            raise DomainError(f"{self.name}: quantile argument outside (0, 1)")
        return _maybe_scalar(self._quantile(arr), scalar)

    def inverse_survival(self, q: ArrayLike) -> ArrayLike:
        """x with survival(x) = q.  q = 1 maps to the lower support bound."""
        arr, scalar = _as_float_array(q)
        if np.any(arr <= 0.0) or np.any(arr > 1.0):
            raise DomainError(f"{self.name}: inverse_survival argument outside (0, 1]")
        out = np.where(arr == 1.0, self.support_lower, self._isf(np.where(arr == 1.0, 0.5, arr)))
        return _maybe_scalar(np.asarray(out, dtype=np.float64), scalar)

    def _sf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _isf(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        # Default route: exact complement; symmetric families override.
        return self._isf(np.asarray(1.0 - u, dtype=np.float64))

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"

    def __eq__(self, other):
        return type(self) is type(other) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())


class Cauchy(HeavyTailDistribution):
    """Standard Cauchy; survival arctan(1/x)/pi for x > 0, tail index 1."""

    name = "cauchy"

    @property
    def tail_index(self) -> float:
        return 1.0

    @property
    def support_lower(self) -> float:
        return -math.inf

    def _sf(self, x):
        with np.errstate(divide="ignore"):
            pos = np.arctan(np.divide(1.0, x, where=x > 0, out=np.ones_like(x))) / np.pi
        return np.where(x > 0, pos, 0.5 - np.arctan(x) / np.pi)

    def _cdf(self, x):
        return self._sf(-x)

    def _isf(self, q):
        with np.errstate(divide="ignore", over="ignore"):
            lowq = 1.0 / np.tan(np.pi * np.where(q <= 0.5, q, 0.25))
            highq = -1.0 / np.tan(np.pi * np.where(q > 0.5, 1.0 - q, 0.25))
        return np.where(q == 0.5, 0.0, np.where(q <= 0.5, lowq, highq))

    def _quantile(self, u):
        return -self._isf(u)

    def spec_string(self):
        return "cauchy"


class LogCauchy(HeavyTailDistribution):
    """Log-Cauchy on (0, inf); slowly varying tail (index 0)."""

    name = "log_cauchy"

    @property
    def tail_index(self) -> float:
        return 0.0

    @property
    def support_lower(self) -> float:
        return 0.0

    def _sf(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(np.where(x > 0, x, 1.0))
        return np.where(x > 0, 0.5 - np.arctan(logs) / np.pi, 1.0)

    def _cdf(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(np.where(x > 0, x, 1.0))
        return np.where(x > 0, 0.5 + np.arctan(logs) / np.pi, 0.0)

    def _isf(self, q):
        with np.errstate(over="ignore"):
            return np.exp(Cauchy()._isf(q))

    def spec_string(self):
        return "log_cauchy"


class Levy(HeavyTailDistribution):
    """Standard Levy on (0, inf); survival 2*Phi(x^-1/2) - 1, tail index 1/2."""

    name = "levy"

    @property
    def tail_index(self) -> float:
        return 0.5

    @property
    def support_lower(self) -> float:
        return 0.0

    def _sf(self, x):
        with np.errstate(divide="ignore"):
            t = np.where(x > 0, 1.0 / np.sqrt(2.0 * np.abs(x)), 0.0)
        return np.where(x > 0, special.erf_array(t), 1.0)

    def _cdf(self, x):
        with np.errstate(divide="ignore"):
            t = np.where(x > 0, 1.0 / np.sqrt(2.0 * np.abs(x)), 0.0)
        return np.where(x > 0, special.erfc_array(t), 0.0)

    # Q = Phi^-1(1/2 + h)^-2.  The offset h and the tail mass are passed
    # separately, so a q or u near 0 is not rounded away by forming 1/2 + h.
    # Below q = 6e-155 the true isf overflows: +inf, quietly.  u / 2 rounds
    # only for a subnormal u; it is kept above 0 there.
    def _isf(self, q):
        z = special._ndtri_split(0.5 * q, 0.5 * (1.0 - q))
        with np.errstate(divide="ignore", over="ignore"):
            return z ** -2.0

    def _quantile(self, u):
        z = special._ndtri_split(0.5 - 0.5 * u, np.maximum(0.5 * u, _TINY))
        with np.errstate(divide="ignore", over="ignore"):
            return z ** -2.0

    def spec_string(self):
        return "levy"


class Pareto(HeavyTailDistribution):
    """Pareto on [1, inf) with survival x^-gamma."""

    name = "pareto"

    def __init__(self, gamma: float):
        if not (gamma > 0.0) or not math.isfinite(gamma):
            raise DomainError(f"{self.name}: tail index must be positive, got {gamma!r}")
        self.gamma = float(gamma)

    @property
    def tail_index(self) -> float:
        return self.gamma

    @property
    def support_lower(self) -> float:
        return 1.0

    def _sf(self, x):
        with np.errstate(invalid="ignore"):
            tail = np.where(x >= 1.0, x, 1.0) ** -self.gamma
        return np.where(x >= 1.0, tail, 1.0)

    def _cdf(self, x):
        with np.errstate(invalid="ignore"):
            body = -np.expm1(-self.gamma * np.log(np.where(x >= 1.0, x, 1.0)))
        return np.where(x >= 1.0, body, 0.0)

    def _isf(self, q):
        with np.errstate(over="ignore"):
            return q ** (-1.0 / self.gamma)

    def spec_string(self):
        return f"pareto:{self.gamma:g}"


class LogGamma(Pareto):
    """Log-gamma with unit shape: survival x^-gamma on [1, inf).

    Numerically coincides with Pareto but kept as a distinct family.
    """

    name = "log_gamma"

    def spec_string(self):
        return f"log_gamma:{self.gamma:g}"


class Frechet(HeavyTailDistribution):
    """Frechet on (0, inf) with survival 1 - exp(-x^-gamma)."""

    name = "frechet"

    def __init__(self, gamma: float):
        if not (gamma > 0.0) or not math.isfinite(gamma):
            raise DomainError(f"{self.name}: tail index must be positive, got {gamma!r}")
        self.gamma = float(gamma)

    @property
    def tail_index(self) -> float:
        return self.gamma

    @property
    def support_lower(self) -> float:
        return 0.0

    def _sf(self, x):
        with np.errstate(divide="ignore", over="ignore"):
            inner = np.where(x > 0, x, 1.0) ** -self.gamma
        return np.where(x > 0, -np.expm1(-inner), 1.0)

    def _cdf(self, x):
        with np.errstate(divide="ignore", over="ignore"):
            inner = np.where(x > 0, x, 1.0) ** -self.gamma
        return np.where(x > 0, np.exp(-inner), 0.0)

    def _isf(self, q):
        with np.errstate(over="ignore"):
            return (-np.log1p(-q)) ** (-1.0 / self.gamma)

    def _quantile(self, u):
        return (-np.log(u)) ** (-1.0 / self.gamma)

    def spec_string(self):
        return f"frechet:{self.gamma:g}"


class InverseGamma(HeavyTailDistribution):
    """Inverse gamma on (0, inf); survival P(gamma, 1/x) (lower reg. gamma)."""

    name = "inv_gamma"

    def __init__(self, gamma: float):
        if not (gamma > 0.0) or not math.isfinite(gamma):
            raise DomainError(f"{self.name}: tail index must be positive, got {gamma!r}")
        self.gamma = float(gamma)

    @property
    def tail_index(self) -> float:
        return self.gamma

    @property
    def support_lower(self) -> float:
        return 0.0

    def _sf_scalar(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        if math.isinf(x):
            return 0.0
        return special.reg_gamma_lower(self.gamma, 1.0 / x)

    def _cdf_scalar(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if math.isinf(x):
            return 1.0
        return special.reg_gamma_upper(self.gamma, 1.0 / x)

    def _isf_scalar(self, q: float) -> float:
        # Solve P(gamma, y) = q in y (increasing), then x = 1/y.  The small-y
        # leading term y ~ (q * gamma * Gamma(gamma))^(1/gamma) seeds the bracket.
        g = self.gamma
        y0 = math.exp((math.log(q) + math.lgamma(g + 1.0)) / g)
        lo, hi = 0.5 * y0, 2.0 * y0
        flo = special.reg_gamma_lower(g, lo) - q
        for _ in range(200):
            if flo <= 0.0:
                break
            lo /= 4.0
            flo = special.reg_gamma_lower(g, lo) - q
        fhi = special.reg_gamma_lower(g, hi) - q
        for _ in range(200):
            if fhi >= 0.0:
                break
            hi *= 4.0
            fhi = special.reg_gamma_lower(g, hi) - q
        y = find_root(
            lambda t: special.reg_gamma_lower(g, t) - q,
            RootBracket(lo, hi, rel_tol=1e-14),
        )
        return 1.0 / y

    def _sf(self, x):
        return np.asarray(np.frompyfunc(self._sf_scalar, 1, 1)(x), dtype=np.float64)

    def _cdf(self, x):
        return np.asarray(np.frompyfunc(self._cdf_scalar, 1, 1)(x), dtype=np.float64)

    def _isf(self, q):
        return np.asarray(np.frompyfunc(self._isf_scalar, 1, 1)(q), dtype=np.float64)

    def spec_string(self):
        return f"inv_gamma:{self.gamma:g}"


class StudentT(HeavyTailDistribution):
    """Student t; survival I_{g/(x^2+g)}(g/2, 1/2)/2 for x >= 0, symmetric below."""

    name = "t"

    def __init__(self, gamma: float):
        if not (gamma > 0.0) or not math.isfinite(gamma):
            raise DomainError(f"{self.name}: tail index must be positive, got {gamma!r}")
        self.gamma = float(gamma)

    @property
    def tail_index(self) -> float:
        return self.gamma

    @property
    def support_lower(self) -> float:
        return -math.inf

    def _half_sf(self, x: float) -> float:
        # Survival at x >= 0.
        if math.isinf(x):
            return 0.0
        g = self.gamma
        return 0.5 * special.reg_beta(g / (x * x + g), 0.5 * g, 0.5)

    def _sf(self, x):
        g = self.gamma
        ax = np.abs(x)
        if g == 1.0:
            half = np.arctan2(1.0, ax) / np.pi
        elif g == 2.0:
            # stable form of (1 - x/sqrt(x^2+2))/2 for large x
            s = np.sqrt(ax * ax + 2.0)
            half = 1.0 / (s * (s + ax))
        else:
            half = np.asarray(np.frompyfunc(self._half_sf, 1, 1)(ax), dtype=np.float64)
        return np.where(x >= 0, half, 1.0 - half)

    def _cdf(self, x):
        return self._sf(-x)

    def _isf_scalar(self, q: float) -> float:
        g = self.gamma
        if q == 0.5:
            return 0.0
        if q > 0.5:
            return -self._isf_scalar(1.0 - q)
        if g == 1.0:
            return 1.0 / math.tan(math.pi * q)
        if g == 2.0:
            return (1.0 - 2.0 * q) * math.sqrt(2.0 / (4.0 * q * (1.0 - q)))
        # Root-find on the positive half line; regular-variation asymptotics
        # seed the bracket when q is deep in the tail.
        lo, hi = 0.0, 1.0
        if q < 1e-6:
            log_c = (0.5 * g - 1.0) * math.log(g) - (
                math.lgamma(0.5 * g) + math.lgamma(0.5) - math.lgamma(0.5 * g + 0.5)
            )
            x0 = math.exp((log_c - math.log(q)) / g)
            lo, hi = 0.5 * x0, 2.0 * x0
            while self._half_sf(lo) < q and lo > 0.0:
                lo /= 4.0
        for _ in range(400):
            if self._half_sf(hi) <= q:
                break
            hi *= 4.0
        else:
            raise ConvergenceError(f"{self.name}: could not bracket quantile for q={q}")
        return find_root(lambda t: self._half_sf(t) - q, RootBracket(lo, hi, rel_tol=1e-14))

    def _isf(self, q):
        g = self.gamma
        if g == 1.0:
            return Cauchy()._isf(q)
        if g == 2.0:
            with np.errstate(over="ignore"):
                return (1.0 - 2.0 * q) * np.sqrt(2.0 / (4.0 * q * (1.0 - q)))
        return np.asarray(np.frompyfunc(self._isf_scalar, 1, 1)(q), dtype=np.float64)

    def _quantile(self, u):
        return -self._isf(u)

    def spec_string(self):
        return f"t:{self.gamma:g}"


class TruncatedT(HeavyTailDistribution):
    """Student t conditioned on [c, inf) with c the (1 - p0) parent quantile."""

    name = "trunc_t"

    def __init__(self, gamma: float, p0: float):
        if not (0.0 < p0 < 1.0):
            raise DomainError(f"{self.name}: truncation threshold must be in (0,1), got {p0!r}")
        self.parent = StudentT(gamma)
        self.gamma = self.parent.gamma
        self.p0 = float(p0)
        self.c = float(self.parent.inverse_survival(p0))
        self._denom = float(self.parent.survival(self.c))

    @property
    def tail_index(self) -> float:
        return self.gamma

    @property
    def support_lower(self) -> float:
        return self.c

    @property
    def truncation_point(self) -> float:
        return self.c

    def _sf(self, x):
        parent = self.parent._sf(np.maximum(x, self.c))
        return np.where(x < self.c, 1.0, np.minimum(parent / self._denom, 1.0))

    def _cdf(self, x):
        parent = self.parent._sf(np.maximum(x, self.c))
        return np.where(x < self.c, 0.0, np.maximum((self._denom - parent) / self._denom, 0.0))

    def _isf(self, q):
        return self.parent._isf(q * self._denom)

    def spec_string(self):
        return f"trunc_t:{self.gamma:g}:{self.p0:g}"


def truncation_point(gamma: float, p0: float) -> float:
    """Lower endpoint c = Q_t(1 - p0) of the truncated-t construction."""
    if not (gamma > 0.0):
        raise DomainError(f"truncation_point: tail index must be positive, got {gamma!r}")
    if not (0.0 < p0 < 1.0):
        raise DomainError(f"truncation_point: threshold must be in (0,1), got {p0!r}")
    return float(StudentT(gamma).inverse_survival(p0))


_PARAMETRIC = {
    "pareto": (Pareto, 1),
    "frechet": (Frechet, 1),
    "inv_gamma": (InverseGamma, 1),
    "log_gamma": (LogGamma, 1),
    "t": (StudentT, 1),
    "trunc_t": (TruncatedT, 2),
}
_PARAMETER_FREE = {"cauchy": Cauchy, "log_cauchy": LogCauchy, "levy": Levy}


def parse_distribution(spec: str) -> HeavyTailDistribution:
    """Build a distribution from its CLI grammar string.

    Accepted forms: ``cauchy``, ``log_cauchy``, ``levy``, ``pareto:g``,
    ``frechet:g``, ``inv_gamma:g``, ``log_gamma:g``, ``t:g``,
    ``trunc_t:g:p0``.
    """
    parts = str(spec).strip().split(":")
    head = parts[0]
    if head in _PARAMETER_FREE:
        if len(parts) != 1:
            raise DomainError(f"distribution '{head}' takes no parameters: {spec!r}")
        return _PARAMETER_FREE[head]()
    if head in _PARAMETRIC:
        cls, nargs = _PARAMETRIC[head]
        if len(parts) != 1 + nargs:
            raise DomainError(f"distribution '{head}' expects {nargs} parameter(s): {spec!r}")
        try:
            params = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise DomainError(f"unparseable distribution parameters in {spec!r}") from exc
        return cls(*params)
    raise DomainError(f"unknown distribution spec {spec!r}")
