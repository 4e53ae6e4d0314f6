"""Special functions, their array kernels, and a bracketed root finder.

Everything here is pure, thread-safe and numpy only.  The scalar normal CDF
leans on the C library's ``erfc``; the array kernels are rational
approximations evaluated branch by branch: erf/erfc from Cephes ``ndtr.c``
with exp(-x^2) split so that its exponent is exact (``expx2``), and the
normal quantile from Wichura's AS 241 (PPND16), which the scalar quantile
shares.  The regularized incomplete gamma and beta functions use the classic
series / continued-fraction split evaluated with the modified Lentz
algorithm, as scalars and as private array kernels; a safeguarded Halley
solver inverts the array kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError, InfiniteQuantileError

_SQRT2 = math.sqrt(2.0)
_EPS = 2.220446049250313e-16
_FPMIN = 1e-300
_MAX_ITER_CF = 500


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    if not math.isfinite(x):
        raise DomainError(f"normal_cdf: non-finite input {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(u: float) -> float:
    """Inverse standard normal CDF (one element of :func:`normal_quantile_array`).

    Raises
    ------
    InfiniteQuantileError
        if ``u`` is exactly 0 or 1.
    DomainError
        if ``u`` lies outside ``[0, 1]``.
    """
    return float(normal_quantile_array(u))


def log_gamma(a: float) -> float:
    """log Gamma(a) for a > 0."""
    if not (a > 0.0):
        raise DomainError(f"log_gamma: argument must be positive, got {a!r}")
    return math.lgamma(a)


def _gamma_series(s: float, x: float) -> float:
    # Lower regularized gamma by series, valid for x < s + 1.
    ap = s
    total = 1.0 / s
    term = total
    for _ in range(_MAX_ITER_CF):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ConvergenceError(f"reg_gamma series failed for s={s}, x={x}")


def _gamma_cf(s: float, x: float) -> float:
    # Upper regularized gamma by continued fraction (modified Lentz).
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER_CF + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ConvergenceError(f"reg_gamma continued fraction failed for s={s}, x={x}")


def reg_gamma_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x)."""
    if not (s > 0.0) or math.isnan(x) or x < 0.0:
        raise DomainError(f"reg_gamma_lower: invalid arguments s={s!r}, x={x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if x < s + 1.0:
        return _gamma_series(s, x)
    return 1.0 - _gamma_cf(s, x)


def reg_gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = 1 - P(s, x)."""
    if not (s > 0.0) or math.isnan(x) or x < 0.0:
        raise DomainError(f"reg_gamma_upper: invalid arguments s={s!r}, x={x!r}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x < s + 1.0:
        return 1.0 - _gamma_series(s, x)
    return _gamma_cf(s, x)


def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (modified Lentz).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER_CF + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError(f"reg_beta continued fraction failed for a={a}, b={b}, x={x}")


def reg_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not (a > 0.0) or not (b > 0.0) or math.isnan(x) or x < 0.0 or x > 1.0:
        raise DomainError(f"reg_beta: invalid arguments x={x!r}, a={a!r}, b={b!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # Continued fraction converges fast on its own side of the split.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class RootBracket:
    """Bracket and stopping rule for :func:`find_root`."""

    lo: float
    hi: float
    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_iter: int = 200

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise DomainError(f"RootBracket: need lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("RootBracket: tolerances must be positive")
        if self.max_iter < 1:
            raise DomainError("RootBracket: max_iter must be a positive integer")


def find_root(f: Callable[[float], float], bracket: RootBracket) -> float:
    """Brent-style root of a monotone scalar function on a sign-changing bracket.

    Combines inverse quadratic interpolation and secant steps with a
    bisection fallback; deterministic for a given ``f`` and bracket.
    """
    a, b = bracket.lo, bracket.hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"find_root: no sign change on [{a}, {b}] (f: {fa}, {fb})")
    c, fc = a, fa
    d = e = b - a
    for _ in range(bracket.max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * max(bracket.abs_tol, bracket.rel_tol * abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += math.copysign(tol1, xm)
        fb = f(b)
    raise ConvergenceError(f"find_root: no convergence in {bracket.max_iter} iterations")




# ---------------------------------------------------------------------------
# Array kernels used by the simulation hot paths.  Each branch of a piecewise
# approximation runs only on its own elements (boolean compress, in-place
# Horner, scatter back), so no element pays for a branch it does not take.


def _horner(x: np.ndarray, coefs: tuple) -> np.ndarray:
    # Polynomial with coefficients from the highest degree down.
    y = x * coefs[0]
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


# Cephes ndtr.c rational approximations: erf(x) = x T(x^2) / U(x^2) on
# |x| < 1, erfc(x) = exp(-x^2) P(x) / Q(x) on [1, 8) and exp(-x^2) R(x) / S(x)
# from 8 on.  The denominators carry their leading 1 explicitly.
_ERF_T = (
    9.60497373987051638749e00, 9.00260197203842689217e01, 2.23200534594684319226e03,
    7.00332514112805075473e03, 5.55923013010394962768e04,
)
_ERF_U = (
    1.0, 3.35617141647503099647e01, 5.21357949780152679795e02, 4.59432382970980127987e03,
    2.26290000613890934246e04, 4.92673942608635921086e04,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-01, 7.46321056442269912687e00,
    4.86371970985681366614e01, 1.96520832956077098242e02, 5.26445194995477358631e02,
    9.34528527171957607540e02, 1.02755188689515710272e03, 5.57535335369399327526e02,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e01, 8.67072140885989742329e01, 3.54937778887819891062e02,
    9.75708501743205489753e02, 1.82390916687909736289e03, 2.24633760818710981792e03,
    1.65666309194161350182e03, 5.57535340817727675546e02,
)
_ERFC_R = (
    5.64189583547755073984e-01, 1.27536670759978104416e00, 5.01905042251180477414e00,
    6.16021097993053585195e00, 7.40974269950448939160e00, 2.97886665372100240670e00,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e00, 9.39603524938001434673e00, 1.20489539808096656605e01,
    1.70814450747565897222e01, 9.60896809063285878198e00, 3.36907645100081516050e00,
)
# erfc(x) underflows to 0 beyond about 27.23; clamping there keeps inf finite.
_ERFC_ZERO_AT = 28.0


def _erfc_tail(a: np.ndarray) -> np.ndarray:
    """erfc(a) for a >= 1 (NaN passes through)."""
    a = np.minimum(a, _ERFC_ZERO_AT)
    out = np.empty_like(a)
    mid = a < 8.0
    for sel, num, den in ((mid, _ERFC_P, _ERFC_Q), (~mid, _ERFC_R, _ERFC_S)):
        x = a[sel]
        ratio = _horner(x, num)
        ratio /= _horner(x, den)
        # exp(-x^2) with the exponent split as m^2 + (2m + f) f, m = x rounded
        # to 1/128 so m^2 is exact (Cephes expx2).  exp(-m^2 / 2) is applied
        # twice so that a subnormal result is rounded once, at the end.
        m = np.floor(x * 128.0 + 0.5)
        m *= 1.0 / 128.0
        f = x - m
        half = np.exp(-0.5 * m * m)
        f *= m + m + f
        ratio *= np.exp(np.negative(f, out=f), out=f)
        ratio *= half
        ratio *= half
        out[sel] = ratio
    return out


def _erf_pair(x, upper: bool) -> np.ndarray:
    """erfc(x) if ``upper`` else erf(x), elementwise over the real line."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small = np.abs(x) < 1.0
    xs = x[small]
    z = xs * xs
    e = _horner(z, _ERF_T)
    e /= _horner(z, _ERF_U)
    e *= xs
    out[small] = 1.0 - e if upper else e
    large = ~small
    xl = x[large]
    c = _erfc_tail(np.abs(xl))
    if upper:  # erfc(-a) = 2 - erfc(a)
        neg = xl < 0.0
        c[neg] = 2.0 - c[neg]
    else:  # erf(a) = 1 - erfc(a), odd in a
        c = np.copysign(1.0 - c, xl)
    out[large] = c
    return out


def erfc_array(x: np.ndarray) -> np.ndarray:
    """Elementwise complementary error function, numpy only (Cephes ndtr.c)."""
    return _erf_pair(x, upper=True)


def erf_array(x: np.ndarray) -> np.ndarray:
    """Elementwise error function, numpy only (Cephes ndtr.c)."""
    return _erf_pair(x, upper=False)


def normal_sf_array(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 - Phi(x) for float arrays."""
    return 0.5 * erfc_array(np.asarray(x, dtype=np.float64) / _SQRT2)


# Wichura (1988), Algorithm AS 241 PPND16: relative error about 1e-16.
_AS241_A = (
    2.5090809287301226727e03, 3.3430575583588128105e04, 6.7265770927008700853e04,
    4.5921953931549871457e04, 1.3731693765509461125e04, 1.9715909503065514427e03,
    1.3314166789178437745e02, 3.3871328727963666080e00,
)
_AS241_B = (
    5.2264952788528545610e03, 2.8729085735721942674e04, 3.9307895800092710610e04,
    2.1213794301586595867e04, 5.3941960214247511077e03, 6.8718700749205790830e02,
    4.2313330701600911252e01, 1.0,
)
_AS241_C = (
    7.74545014278341407640e-04, 2.27238449892691845833e-02, 2.41780725177450611770e-01,
    1.27045825245236838258e00, 3.64784832476320460504e00, 5.76949722146069140550e00,
    4.63033784615654529590e00, 1.42343711074968357734e00,
)
_AS241_D = (
    1.05075007164441684324e-09, 5.47593808499534494600e-04, 1.51986665636164571966e-02,
    1.48103976427480074590e-01, 6.89767334985100004550e-01, 1.67638483018380384940e00,
    2.05319162663775882187e00, 1.0,
)
_AS241_E = (
    2.01033439929228813265e-07, 2.71155556874348757815e-05, 1.24266094738807843860e-03,
    2.65321895265761230930e-02, 2.96560571828504891230e-01, 1.78482653991729133580e00,
    5.46378491116411436990e00, 6.65790464350110377720e00,
)
_AS241_F = (
    2.04426310338993978564e-15, 1.42151175831644588870e-07, 1.84631831751005468180e-05,
    7.86869131145613259100e-04, 1.48753612908506148525e-02, 1.36929880922735805310e-01,
    5.99832206555887937690e-01, 1.0,
)


def _ndtri_split(h: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Phi^-1(1/2 + h) from h and the smaller tail mass min(u, 1 - u).

    Both are passed so that callers who hold them exactly (a tail mass near 0,
    or an offset near 1/2) lose nothing to forming u.  ``tail`` is read only
    where |h| > 0.425 and must be positive there.
    """
    out = np.empty_like(h)
    central = np.abs(h) <= 0.425
    hc = h[central]
    r = 0.180625 - hc * hc
    z = _horner(r, _AS241_A)
    z /= _horner(r, _AS241_B)
    z *= hc
    out[central] = z
    outer = ~central
    r = np.sqrt(-np.log(tail[outer]))
    z = np.empty_like(r)
    near = r <= 5.0
    for sel, shift, num, den in ((near, 1.6, _AS241_C, _AS241_D),
                                 (~near, 5.0, _AS241_E, _AS241_F)):
        s = r[sel]
        s -= shift
        v = _horner(s, num)
        v /= _horner(s, den)
        z[sel] = v
    np.copysign(z, h[outer], out=z)
    out[outer] = z
    return out


def normal_quantile_array(u: np.ndarray) -> np.ndarray:
    """Elementwise inverse normal CDF for float arrays, numpy only (AS 241).

    Raises
    ------
    InfiniteQuantileError
        if an element is exactly 0 or 1.
    DomainError
        if an element is NaN or lies outside ``[0, 1]``.
    """
    u = np.asarray(u, dtype=np.float64)
    inside = (u > 0.0) & (u < 1.0)
    if not inside.all():
        bad = u[~inside]
        edge = (bad == 0.0) | (bad == 1.0)
        if not edge.all():
            raise DomainError(f"normal_quantile: argument {float(bad[~edge][0])!r} outside [0, 1]")
        raise InfiniteQuantileError(f"normal_quantile: infinite quantile at u={float(bad[0])}")
    return _ndtri_split(u - 0.5, np.minimum(u, 1.0 - u))


# ---------------------------------------------------------------------------
# Array incomplete beta and gamma, and a safeguarded Halley solver.  Every
# loop keeps a per-lane active set: finished lanes are scattered out and the
# rest compressed, so the loop runs only as long as its slowest lane.  A front
# factor that reaches far into a tail is built from separately rounded powers
# and exponentials (or supplied by the caller): one exponential of a long
# summed logarithm would carry its rounding, |log| * eps, into the result
# (1e-13 relative at log = -700).  The Gamma-function constants are taken in
# log space.

_ITER_TOL = 2.0 * _EPS
_MAX_ITER_SOLVE = 100
_HALLEY_DONE = 1e-5  # a Halley step this small leaves an error of order its cube


def _retire(done, out, idx, result, *lanes):
    """Scatter ``result`` of the finished lanes into ``out``; compress the rest.

    The series and continued fractions call it only once a quarter of their
    lanes are done: compressing costs a pass over every lane array, and a
    finished lane left in place only converges further.  The solver, whose
    every step costs an evaluation, retires lanes as they finish.
    """
    out[idx[done]] = result[done]
    live = ~done
    return (idx[live], result[live]) + tuple(a[live] for a in lanes)


def _beta_cf_array(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Continued fraction of I_x(a, b) (modified Lentz) on a 1-D array.

    Converges quickly for x < (a + 1) / (a + b + 2); x = 0 gives 1.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / (1.0 - (a + b) / (a + 1.0) * x)
    h = d.copy()
    t = np.empty_like(x)
    for m in range(1, _MAX_ITER_CF + 1):
        if not idx.size:
            return out
        for coef in (m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1.0))):
            # in place: d = 1 / (1 + t d), c = 1 + t / c, h *= d c with t = coef x
            np.multiply(x, coef, out=t)
            d *= t
            d += 1.0
            np.reciprocal(d, out=d)
            np.divide(t, c, out=c)
            c += 1.0
            np.multiply(d, c, out=t)
            h *= t
        t -= 1.0
        done = np.abs(t, out=t) <= _ITER_TOL
        if 4 * np.count_nonzero(done) >= idx.size:
            idx, h, x, c, d, t = _retire(done, out, idx, h, x, c, d, t)
    raise ConvergenceError(f"incomplete beta: no convergence for a={a}, b={b}")


def _reg_beta_array(x: np.ndarray, y: np.ndarray, a: float, b: float, power: np.ndarray):
    """``(I_x(a, b), I_y(b, a), power / B(a, b))`` on 1-D arrays with x + y = 1.

    ``power`` is x^a y^b, formed by the caller, which alone can form it
    without underflow for its parametrisation.  The continued fraction runs
    on x below (a + 1) / (a + b + 2) and on y above, where each converges
    fast; a lane whose I_y comes out above 1/2 is computed again on x (up to
    x = 0.99, beyond which that fraction needs hundreds of terms), so that
    the complement, 1 minus the value computed directly, loses at most a bit
    to cancellation.
    """
    dens = power * math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    i_x = np.empty_like(x)
    i_y = np.empty_like(x)
    low = x < (a + 1.0) / (a + b + 2.0)
    high = ~low
    i_y[high] = dens[high] / b * _beta_cf_array(y[high], b, a)
    low[high] = (i_y[high] > 0.5) & (x[high] <= 0.99)
    i_x[low] = dens[low] / a * _beta_cf_array(x[low], a, b)
    high = ~low
    i_y[low] = 1.0 - i_x[low]
    i_x[high] = 1.0 - i_y[high]
    return i_x, i_y, dens


def _gamma_series_array(s: float, y: np.ndarray) -> np.ndarray:
    """sum_n y^n / ((s + 1) ... (s + n)) on a 1-D array with y < s + 1."""
    out = np.empty_like(y)
    idx = np.arange(y.size)
    term = np.ones_like(y)
    total = np.ones_like(y)
    for n in range(1, _MAX_ITER_CF + 1):
        if not idx.size:
            return out
        term *= y
        term /= s + n
        total += term
        done = term <= total * _ITER_TOL
        if 4 * np.count_nonzero(done) >= idx.size:
            idx, total, y, term = _retire(done, out, idx, total, y, term)
    raise ConvergenceError(f"incomplete gamma: series failed for s={s}")


def _gamma_cf_array(s: float, y: np.ndarray) -> np.ndarray:
    """Continued fraction of Q(s, y) e^y y^-s Gamma(s) (modified Lentz), y >= s + 1."""
    out = np.empty_like(y)
    idx = np.arange(y.size)
    b = y + (1.0 - s)
    d = 1.0 / b
    c = np.full_like(y, 1.0 / _FPMIN)
    h = d.copy()
    for i in range(1, _MAX_ITER_CF + 1):
        if not idx.size:
            return out
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) <= _ITER_TOL
        if 4 * np.count_nonzero(done) >= idx.size:
            idx, h, b, c, d = _retire(done, out, idx, h, b, c, d)
    raise ConvergenceError(f"incomplete gamma: continued fraction failed for s={s}")


def _reg_gamma_array(s: float, y: np.ndarray):
    """``(P(s, y), Q(s, y), y^s e^-y / Gamma(s))`` on a 1-D array of finite y >= 0.

    Below y = s + 1, P is the series (front (y e^(-y/s) / Gamma(s+1)^(1/s))^s,
    a power of a base below 1; for s below 1/699, where e^(-y/s) can
    underflow, one exponential of an exponent above -2.1); above, Q is the continued fraction, whose
    front e^-y y^s / Gamma(s) is a product of separately rounded factors
    below y = 708 (and y^s < e^700), one exponential of the summed logarithms
    beyond.  The value computed directly is accurate to relative error, the
    other is 1 minus it: below 1/2 on either side for s >= 1; for small s,
    Q below s + 1 is small and known only to absolute error.
    """
    p = np.empty_like(y)
    q = np.empty_like(y)
    dens = np.empty_like(y)
    low = y < s + 1.0
    yl = y[low]
    if 700.0 * s < s + 1.0:
        # y / s may pass 700, where e^(-y/s) underflows; here y < 1.0015 and
        # s |log y| < 1.07, so the exponent lies in (-2.1, 0.01)
        with np.errstate(divide="ignore"):
            front = np.exp(s * np.log(yl) - yl - math.lgamma(s + 1.0))
    else:
        front = (yl * np.exp(-yl / s) * math.exp(-math.lgamma(s + 1.0) / s)) ** s
    p[low] = front * _gamma_series_array(s, yl)
    dens[low] = s * front
    high = ~low
    yh = y[high]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = s * np.log(yh)
        front = np.where((yh < 708.0) & (logs < 700.0),
                         np.exp(-yh) * yh ** s * math.exp(-math.lgamma(s)),
                         np.exp(logs - yh - math.lgamma(s)))
    q[high] = front * _gamma_cf_array(s, yh)
    dens[high] = front
    q[low] = 1.0 - p[low]
    p[high] = 1.0 - q[high]
    return p, q, dens


def _solve_decreasing(x, lo, hi, evaluate):
    """Root of a decreasing function G on 1-D arrays, by Halley steps in log x.

    ``evaluate(x, lanes)`` returns, at the points ``x`` of the lanes
    ``lanes`` (indices into the caller's arrays), G, dG/dlog x and the ratio
    G''/G' of the log-x derivatives.  ``lo <= x <= hi`` must bracket each
    root (G(lo) >= 0 >= G(hi)); a step that leaves the bracket, which shrinks
    with every evaluation, is replaced by bisection in log x.  x is updated
    multiplicatively, so its relative rounding does not grow with |log x|.
    A lane stops after a step below ``_HALLEY_DONE``, or when its bracket
    closes; a lane still running after ``_MAX_ITER_SOLVE`` evaluations
    raises ``ConvergenceError``.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    # a lane evaluated where its tail underflows yields an inf or NaN step;
    # the bracket check turns it into bisection
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER_SOLVE):
            if not idx.size:
                return out
            g, slope, curv = evaluate(x, idx)
            above = g < 0.0
            lo = np.where(above, lo, x)
            hi = np.where(above, x, hi)
            newton = -g / slope
            nc = newton * curv
            step = np.where(np.abs(nc) < 1.0, newton / (1.0 + 0.5 * nc), newton)
            new = x * np.exp(step)
            inside = (new >= lo) & (new <= hi)
            if not inside.all():
                new = np.where(inside, new, np.sqrt(lo) * np.sqrt(hi))
            finished = (inside & (np.abs(step) <= _HALLEY_DONE)) | (hi <= lo * (1.0 + 4.0 * _EPS))
            if finished.any():
                idx, new, lo, hi = _retire(finished, out, idx, new, lo, hi)
            x = new
    if idx.size:
        raise ConvergenceError(
            f"inverse survival: {idx.size} values not converged in {_MAX_ITER_SOLVE} steps")
    return out
