"""Regularly varying tailed distribution families.

Each family exposes the survival function, CDF, quantile, inverse survival
(the workhorse for p-value transforms, computed directly from the tail
probability to avoid ``1 - u`` cancellation), its tail index, and the lower
support bound.  Every method takes scalars or numpy arrays and runs as
array code.  The Student t (general degrees of freedom) and the inverse
gamma evaluate their tails with the array incomplete beta and gamma of
``special`` (integer t degrees of freedom use the finite sums of A&S
26.7.3-4 away from the tail), and invert them by a safeguarded Halley
iteration in log x seeded from closed-form approximations.

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
from .errors import DomainError, InfiniteQuantileError
from .special import find_root  # noqa: F401  (perfbench/tracing.py patches this name)

__all__ = ["Cauchy", "Frechet", "HeavyTailDistribution", "InverseGamma", "Levy", "LogCauchy",
           "LogGamma", "Pareto", "StudentT", "TruncatedT", "parse_distribution",
           "truncation_point"]

ArrayLike = Union[float, np.ndarray]

_TINY = np.finfo(np.float64).smallest_subnormal
_TINY_NORMAL = np.finfo(np.float64).tiny
_MAX = np.finfo(np.float64).max
_WIDEN = 1e-9  # relative margin on computed bracket ends
_MAX_FINITE_SUM_NU = 100  # the t's finite sums have about nu / 2 terms
_NORMAL_NU = 1e150  # t quantiles past this nu are the normal's (they differ by O(z^3 / nu))
_MAX_INV_GAMMA_SHAPE = 1e8  # the incomplete gamma takes ~8 sqrt(s) terms, 80000 at 1e8


def _reject_nan(arr: np.ndarray) -> None:
    if np.isnan(arr).any():
        raise DomainError("distribution argument contains NaN")


def _as_float_array(x, nan_check: bool = True) -> tuple[np.ndarray, bool]:
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    arr = np.asarray(x, dtype=np.float64)
    if nan_check:
        _reject_nan(arr)
    return arr, scalar


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr[()]) if scalar and arr.ndim == 0 else arr


def _spec_number(v: float) -> str:
    """``%g`` where it reads back as ``v``, else ``repr``: a spec string names one distribution."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


class HeavyTailDistribution:
    """Base class; subclasses set ``name``, ``tail_index`` and ``support_lower``
    and fill in tail behaviour and closed forms."""

    name: str = ""
    tail_index: float
    support_lower: float

    def __init__(self):
        """A family without parameters (``parse_distribution`` reads each
        family's parameters from its ``__init__``)."""

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
        arr, scalar = _as_float_array(q, nan_check=False)
        if not ((arr > 0.0) & (arr <= 1.0)).all():  # one pass; NaN fails it too
            _reject_nan(arr)  # and keeps its own message
            raise DomainError(f"{self.name}: inverse_survival argument outside (0, 1]")
        one = arr == 1.0
        if one.any():
            out = np.where(one, self.support_lower, self._isf(np.where(one, 0.5, arr)))
        else:
            out = self._isf(arr)
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
        return self.name

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"

    def __eq__(self, other):
        return type(self) is type(other) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())


class Cauchy(HeavyTailDistribution):
    """Standard Cauchy; survival arctan(1/x)/pi for x > 0, tail index 1."""

    name = "cauchy"
    tail_index = 1.0
    support_lower = -math.inf

    def _sf(self, x):
        with np.errstate(divide="ignore"):
            pos = np.arctan(np.divide(1.0, x, where=x > 0, out=np.ones_like(x))) / np.pi
        return np.where(x > 0, pos, 0.5 - np.arctan(x) / np.pi)

    def _cdf(self, x):
        return self._sf(-x)

    def _isf(self, q):
        # sign(1/2 - q) / tan(pi r) on the nearer tail r = min(q, 1 - q): one
        # tan, no masked select, and 0 at q = 1/2 (1 - q is exact above 1/2)
        with np.errstate(divide="ignore", over="ignore"):
            return np.sign(0.5 - q) / np.tan(np.pi * np.minimum(q, 1.0 - q))

    def _quantile(self, u):
        return -self._isf(u)


class LogCauchy(HeavyTailDistribution):
    """Log-Cauchy on (0, inf); slowly varying tail (index 0)."""

    name = "log_cauchy"
    tail_index = 0.0
    support_lower = 0.0

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


class Levy(HeavyTailDistribution):
    """Standard Levy on (0, inf); survival 2*Phi(x^-1/2) - 1, tail index 1/2."""

    name = "levy"
    tail_index = 0.5
    support_lower = 0.0

    @staticmethod
    def _t(x):
        """1 / sqrt(2x) above 0, else 0.  Beyond max/2, where 2x overflows, it
        is 0.5 / sqrt(x/2): the same value, with the same roundings."""
        ax = np.abs(x)
        with np.errstate(divide="ignore", over="ignore"):
            t = np.where(x > 0, 1.0 / np.sqrt(2.0 * ax), 0.0)
        big = ax > 0.5 * _MAX
        if big.any():
            t[big] = 0.5 / np.sqrt(0.5 * ax[big])
        return t

    def _sf(self, x):
        return np.where(x > 0, special.erf_array(self._t(x)), 1.0)

    def _cdf(self, x):
        return np.where(x > 0, special.erfc_array(self._t(x)), 0.0)

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


class _Shape(HeavyTailDistribution):
    """A family whose positive shape parameter ``gamma`` is its tail index."""

    def __init__(self, gamma: float):
        if not (0.0 < gamma < math.inf):
            bound = "finite" if gamma == math.inf else "positive"
            raise DomainError(f"{self.name}: tail index must be {bound}, got {gamma!r}")
        self.gamma = float(gamma)

    @property
    def tail_index(self) -> float:
        return self.gamma

    def spec_string(self):
        return f"{self.name}:{_spec_number(self.gamma)}"


class Pareto(_Shape):
    """Pareto on [1, inf) with survival x^-gamma."""

    name = "pareto"
    support_lower = 1.0

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


class LogGamma(Pareto):
    """Log-gamma with unit shape: survival x^-gamma on [1, inf).

    Numerically coincides with Pareto but kept as a distinct family.
    """

    name = "log_gamma"


class Frechet(_Shape):
    """Frechet on (0, inf) with survival 1 - exp(-x^-gamma)."""

    name = "frechet"
    support_lower = 0.0

    def _sf(self, x):
        with np.errstate(divide="ignore", over="ignore"):
            inner = np.where(x > 0, x, 1.0) ** -self.gamma
        return np.where(x > 0, -np.expm1(-inner), 1.0)

    def _cdf(self, x):
        with np.errstate(divide="ignore", over="ignore"):
            inner = np.where(x > 0, x, 1.0) ** -self.gamma
        return np.where(x > 0, np.exp(-inner), 0.0)

    # np.power, not **: a ufunc of a 0-d array returns a numpy scalar, whose ** is
    # C pow, not the array loop, so a scalar call would round differently
    def _isf(self, q):
        with np.errstate(over="ignore"):
            return np.power(-np.log1p(-q), -1.0 / self.gamma)

    def _quantile(self, u):
        return np.power(-np.log(u), -1.0 / self.gamma)


class InverseGamma(_Shape):
    """Inverse gamma on (0, inf); survival P(gamma, 1/x) (lower reg. gamma).

    Shape 1 is Frechet with tail index 1, whose closed forms ``__init__`` binds;
    a shape above ``_MAX_INV_GAMMA_SHAPE`` is refused.
    """

    name = "inv_gamma"
    support_lower = 0.0

    def __init__(self, gamma: float):
        super().__init__(gamma)
        if self.gamma > _MAX_INV_GAMMA_SHAPE:
            raise DomainError(f"{self.name}: tail index must be at most "
                              f"{_MAX_INV_GAMMA_SHAPE:g}, got {gamma!r}")
        if self.gamma == 1.0:
            frechet = Frechet(1.0)
            self._sf, self._cdf, self._isf, self._quantile = (
                frechet._sf, frechet._cdf, frechet._isf, frechet._quantile)

    def _tails(self, x):
        """(survival, cdf, y^g e^-y / Gamma(g)) at x, with y = 1/x."""
        flat = x.ravel()
        sf = np.ones_like(flat)
        cdf = np.zeros_like(flat)
        dens = np.zeros_like(flat)
        pos = flat > 0.0
        with np.errstate(over="ignore"):  # 1/x of a subnormal x
            y = np.minimum(1.0 / flat[pos], _MAX)
        sf[pos], cdf[pos], dens[pos] = special._reg_gamma_array(self.gamma, y)
        return sf.reshape(x.shape), cdf.reshape(x.shape), dens.reshape(x.shape)

    def _sf(self, x):
        return self._tails(x)[0]

    def _cdf(self, x):
        return self._tails(x)[1]

    def _isf(self, q):
        upper = q <= 0.5
        return self._invert(upper, np.where(upper, q, 1.0 - q))

    def _quantile(self, u):
        upper = u > 0.5
        return self._invert(upper, np.where(upper, 1.0 - u, u))

    def _invert(self, upper, tail):
        """x whose survival (where ``upper``) or cdf (elsewhere) is ``tail`` <= 1/2.

        Halley on the log of that tail in log x: the log-gamma density is
        log-concave, so both tails are log-concave in log x.  The true root
        overflows where a survival ``tail`` is below the survival at the
        largest double, or (for a shape below about 1/700, where that survival
        exceeds 1/2) a cdf ``tail`` is above the cdf there: +inf there.
        """
        g = self.gamma
        up = upper.ravel()
        t = tail.ravel()
        out = np.full_like(t, np.inf)
        sf_max = math.exp(-g * math.log(_MAX) - math.lgamma(g + 1.0))  # P(g, y) ~ y^g / Gamma(g+1)
        todo = np.where(up, t >= sf_max, t <= 1.0 - sf_max)
        up, t = up[todo], t[todo]
        lower_p = np.where(up, t, 1.0 - t)  # P(g, 1/x) at the root
        # P(g, y) <= y^g / Gamma(g + 1) puts the root's y above y_low: x below 1/y_low
        with np.errstate(divide="ignore", over="ignore"):
            y_low = np.exp((np.log(lower_p) + math.lgamma(g + 1.0)) / g)
            hi = np.minimum(1.0 / y_low * (1.0 + _WIDEN), _MAX)  # widened past its rounding
            # Wilson-Hilferty in the centre
            z = special._ndtri_split(np.where(up, t - 0.5, 0.5 - t), t)
            y_wh = g * (1.0 - 1.0 / (9.0 * g) + z / (3.0 * math.sqrt(g))) ** 3
            seed = np.minimum(1.0 / np.maximum(y_low, y_wh), hi)

        def evaluate(x, lanes):
            sf, cdf, dens = self._tails(x)
            sided = up[lanes]
            f = np.where(sided, sf, cdf)
            h = dens / f
            r = np.log(f / t[lanes])
            # G = log(P/t) (decreasing in x), or -log(Q/t); G' = -h both ways
            return np.where(sided, r, -r), -h, np.where(sided, h, -h) + 1.0 / x - g

        out[todo] = special._solve_decreasing(seed, np.full_like(t, _TINY_NORMAL), hi, evaluate)
        return out.reshape(tail.shape)


class StudentT(_Shape):
    """Student t; survival I_{g/(x^2+g)}(g/2, 1/2)/2 for x >= 0, symmetric below."""

    name = "t"
    support_lower = -math.inf

    def _upper(self, ax):
        """(sf, 1/2 - sf, x f(x), x^2 / (x^2 + nu)) at finite ax >= 0 (1-D, nu not 1 or 2).

        With w = nu / (x^2 + nu), the power w^(nu/2) (1 - w)^(1/2) is formed
        from w directly (rounding amplified by nu/2), or, where x^2 overflows,
        from sqrt(w) = sqrt(nu) / hypot(sqrt(nu), x).  Above nu = 100, where
        x^2 < nu, it is formed from log w = -log1p(x^2 / nu), and the tail there
        is ``special._beta_large_a``'s expansion in log w.  Integer nu up to 100
        uses the finite sums of A&S 26.7.3-4 where they give sf >= 1/20, so that their
        cancellation costs at most a factor 10; the tail beyond, where it
        would cost everything, is left to the continued fraction.
        """
        nu = self.gamma
        root = math.sqrt(nu)
        hyp = np.hypot(root, ax)
        s = root / hyp
        cs = ax / hyp
        y = cs * cs
        with np.errstate(over="ignore"):
            w = nu / (nu + ax * ax)
        power = w ** (0.5 * nu) * cs
        huge = ax > 1e150
        if huge.any():
            power[huge] = s[huge] ** nu * cs[huge]
        if nu > _MAX_FINITE_SUM_NU:
            # w rounds, and near 1 it has lost the digits of 1 - w that both
            # the power and the continued fraction need: there, use log w
            near = np.flatnonzero(ax < root)
            log_w = -np.log1p((ax[near] / root) ** 2)
            power[near] = np.exp(0.5 * nu * log_w) * cs[near]
            tail = -(0.5 * nu - 0.25) * log_w >= 0.25  # sf below about 1/4
            rest = np.ones(ax.size, dtype=bool)
            rest[near[tail]] = False
            i_w, i_y = np.empty_like(w), np.empty_like(w)
            i_w[rest], i_y[rest], _ = special._reg_beta_array(
                w[rest], y[rest], 0.5 * nu, 0.5, power[rest])
            i_w[~rest] = special._beta_large_a(0.5 * nu, log_w[tail])
            i_y[~rest] = 1.0 - i_w[~rest]
            dens = power * math.exp(special._log_gamma_half_ratio(0.5 * nu) - math.lgamma(0.5))
            return 0.5 * i_w, 0.5 * i_y, dens, y
        if nu != int(nu):
            i_w, i_y, dens = special._reg_beta_array(w, y, 0.5 * nu, 0.5, power)
            return 0.5 * i_w, 0.5 * i_y, dens, y
        # a finite series in w = cos^2(theta), theta = arctan(x / sqrt(nu))
        odd = nu % 2 == 1
        coef, total = 1.0, np.ones_like(w)
        for j in range(1, (int(nu) - 1) // 2 if odd else int(nu) // 2):
            coef *= (2.0 * j) / (2.0 * j + 1.0) if odd else (2.0 * j - 1.0) / (2.0 * j)
            total += coef * w ** j
        if odd:  # 1 - 2 sf = (2/pi)(theta + sin(theta) cos(theta) total)
            t = s * cs * total
            sf = (np.arctan2(root, ax) - t) / np.pi  # pi/2 - theta
            mid = (np.arctan2(ax, root) + t) / np.pi
        else:  # 1 - 2 sf = sin(theta) total
            mid = 0.5 * cs * total
            sf = 0.5 - mid
        dens = power * math.exp(special._log_gamma_half_ratio(0.5 * nu) - 0.5 * math.log(math.pi))
        tail = sf < 0.05
        if tail.any():
            i_w, _, _ = special._reg_beta_array(w[tail], y[tail], 0.5 * nu, 0.5, power[tail])
            sf[tail] = 0.5 * i_w
            mid[tail] = 0.5 - sf[tail]
        return sf, mid, dens, y

    def _sf(self, x):
        nu = self.gamma
        ax = np.abs(x)
        if nu == 2.0:
            # 1/2 (1 - x / s), s = sqrt(x^2 + 2): in stable form above 0; below 0
            # it is 1 where s overflows
            with np.errstate(over="ignore", invalid="ignore"):
                s = np.sqrt(ax * ax + 2.0)
                below = np.where(s < np.inf, 0.5 + ax / (2.0 * s), 1.0)
                return np.where(x > 0, 1.0 / (s * (s + ax)), below)
        if nu == 1.0:
            half = np.arctan2(1.0, ax) / np.pi
        else:
            flat = ax.ravel()
            half = np.zeros_like(flat)
            finite = flat < np.inf
            half[finite] = self._upper(flat[finite])[0]
            half = half.reshape(ax.shape)
        return np.where(x >= 0, half, 1.0 - half)

    def _cdf(self, x):
        return self._sf(-x)

    def _isf(self, q):
        g = self.gamma
        if g == 1.0:
            return Cauchy()._isf(q)
        if g > _NORMAL_NU:  # Hill's a^2 = (nu - 1/2)^-2 underflows from about 7e161
            return -special.normal_quantile_array(q)
        if g == 2.0:
            # below 2^-1022, 2 / (4q(1 - q)) overflows, and 1 - 2q and 1 - q are 1
            with np.errstate(over="ignore"):
                x = (1.0 - 2.0 * q) * np.sqrt(2.0 / (4.0 * q * (1.0 - q)))
            return np.where(q < _TINY_NORMAL, 1.0 / np.sqrt(2.0 * q), x)
        x = self._upper_isf(np.where(q < 0.5, q, 1.0 - q))
        return np.where(q > 0.5, -x, x)

    def _upper_isf(self, tail):
        """x >= 0 with survival ``tail`` <= 1/2, by Halley on a log tail in log x.

        |T| has a log-concave density in log x, so both log sf and
        log(1/2 - sf) are concave there.  Above ``tail`` = 1/4 the solve is on
        1/2 - sf, whose target 1/2 - tail is exact, so that an x near 0 keeps
        its relative accuracy.  The bracket: sf is convex on x > 0, so
        sf(x) >= 1/2 - f(0) x; and sf(x) <= C x^-nu, the regular-variation
        bound.  The true isf overflows where ``tail`` is below the survival at
        the largest double: +inf there.
        """
        nu = self.gamma
        flat = tail.ravel()
        out = np.zeros_like(flat)
        lgam = special._log_gamma_half_ratio(0.5 * nu) - 0.5 * math.log(math.pi)
        log_c = lgam + (0.5 * nu - 1.0) * math.log(nu)  # sf(x) ~ C x^-nu
        sf_max = math.exp(log_c - nu * math.log(_MAX))  # exact to rounding that far out
        out[flat < sf_max] = np.inf
        todo = (flat < 0.5) & (flat >= sf_max)
        t = flat[todo]
        # both bounds are widened by far more than their rounding
        lo = (0.5 - t) / math.exp(lgam - 0.5 * math.log(nu)) * (1.0 - _WIDEN)  # f(0)
        with np.errstate(over="ignore"):
            hi = np.minimum(np.exp((log_c - np.log(t)) / nu) * (1.0 + _WIDEN), _MAX)
        seed = hi if nu < 1.0 else np.fmin(np.fmax(self._hill(t), lo), hi)
        centre = t > 0.25
        target = np.where(centre, 0.5 - t, t)
        sign = np.where(centre, -1.0, 1.0)

        def evaluate(x, lanes):
            sf, half_minus_sf, xf, y = self._upper(x)
            f = np.where(centre[lanes], half_minus_sf, sf)
            h = xf / f
            sg = sign[lanes]
            # G = log(sf / t), or -log((1/2 - sf) / (1/2 - t)); G' = -h both ways
            return sg * np.log(f / target[lanes]), -h, 1.0 - (nu + 1.0) * y + sg * h

        out[todo] = special._solve_decreasing(seed, lo, hi, evaluate)
        return out.reshape(tail.shape)

    def _hill(self, t):
        """Hill (1970), CACM Algorithm 396: x > 0 with sf(x) near t, for nu > 1."""
        n = self.gamma
        a = 1.0 / (n - 0.5)
        b = 48.0 / (a * a)
        c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
        d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * n
        out = np.empty_like(t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            y = (2.0 * d * t) ** (2.0 / n)
            centre = y > 0.05 + a
            if n < 2.1:
                centre |= t > 0.25
            # expansion about the normal quantile
            z = special._ndtri_split(t[centre] - 0.5, t[centre])  # Phi^-1(t) < 0
            zz = z * z
            cz = c + 0.3 * (n - 4.5) * (z + 0.6) if n < 5.0 else c
            cz = (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + b + cz
            w = (((((0.4 * zz + 6.3) * zz + 36.0) * zz + 94.5) / cz - zz - 3.0) / b + 1.0) * z
            out[centre] = np.expm1(a * w * w)
            # tail expansion; y underflows to 0 for a t far out, which the
            # caller's bracket clips
            y = y[~centre]
            out[~centre] = ((1.0 / (((n + 6.0) / (n * y) - 0.089 * d - 0.822) * (n + 2.0) * 3.0)
                             + 0.5 / (n + 4.0)) * y - 1.0) * (n + 1.0) / (n + 2.0) + 1.0 / y
            return np.sqrt(n * out)

    def _quantile(self, u):
        return -self._isf(u)


class TruncatedT(_Shape):
    """Student t conditioned on [c, inf) with c the (1 - p0) parent quantile."""

    name = "trunc_t"

    def __init__(self, gamma: float, p0: float):
        if not (0.0 < p0 < 1.0):
            raise DomainError(f"{self.name}: truncation threshold must be in (0,1), got {p0!r}")
        super().__init__(gamma)
        self.p0 = float(p0)
        self.parent = StudentT(self.gamma)
        self.c = self.support_lower = float(self.parent.inverse_survival(p0))
        self._denom = float(self.parent.survival(self.c))
        if not math.isfinite(self.c) or self._denom == 0.0:  # +inf leaves an empty support
            raise DomainError(f"{self.name}: truncation point overflows at tail index "
                              f"{self.gamma!r} and threshold {p0!r}")

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
        # q * denom rounds to 0 for a subnormal q once denom <= 1/2: +inf there,
        # as where the parent's isf overflows
        t = q * self._denom
        return np.where(t > 0.0, self.parent._isf(np.where(t > 0.0, t, 0.5)), np.inf)

    def spec_string(self):
        return f"{super().spec_string()}:{_spec_number(self.p0)}"


def truncation_point(gamma: float, p0: float) -> float:
    """Lower endpoint c = Q_t(1 - p0) of the truncated-t construction.

    Raises ``DomainError`` where ``TruncatedT(gamma, p0)`` does."""
    return TruncatedT(gamma, p0).c


_FAMILIES = {cls.name: cls for cls in (Cauchy, LogCauchy, Levy, Pareto, LogGamma, Frechet,
                                        InverseGamma, StudentT, TruncatedT)}


def parse_distribution(spec: str) -> HeavyTailDistribution:
    """Build a distribution from its CLI grammar string.

    Accepted forms: ``cauchy``, ``log_cauchy``, ``levy``, ``pareto:g``,
    ``frechet:g``, ``inv_gamma:g``, ``log_gamma:g``, ``t:g``,
    ``trunc_t:g:p0``.
    """
    parts = str(spec).strip().split(":")
    head = parts[0]
    if head not in _FAMILIES:
        raise DomainError(f"unknown distribution spec {spec!r}")
    cls = _FAMILIES[head]
    nargs = cls.__init__.__code__.co_argcount - 1  # the constructor's parameters after self
    if len(parts) != 1 + nargs:
        if not nargs:
            raise DomainError(f"distribution '{head}' takes no parameters: {spec!r}")
        raise DomainError(f"distribution '{head}' expects {nargs} parameter(s): {spec!r}")
    try:
        params = [float(v) for v in parts[1:]]
    except ValueError as exc:
        raise DomainError(f"unparseable distribution parameters in {spec!r}") from exc
    return cls(*params)
