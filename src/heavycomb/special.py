"""Special functions as numpy array kernels, and a bisecting root finder.

Everything here is pure, thread-safe and numpy only, with one implementation
of each function.  erf/erfc follow Cephes ``ndtr.c``, with exp(-x^2) split
so that its exponent is exact (``expx2``), and the normal quantile is
Wichura's AS 241 (PPND16).  The regularized incomplete gamma and beta are a
series / continued-fraction split (modified Lentz) over arrays, inverted by
a safeguarded Halley solver; ``reg_gamma_*`` and ``reg_beta`` are views of
them.  Fisher's chi-square tail is the closed-form Poisson sum, which
``find_root(f, lo, hi)`` bisects to a fixed rule (width 1e-13 relative, 200 steps).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError, InfiniteQuantileError

_SQRT2 = math.sqrt(2.0)
_EPS = 2.220446049250313e-16
_FPMIN = 1e-300
_MAX_ITER_CF = 500
_ROOT_REL_TOL = 1e-13  # find_root's stopping rule
_ROOT_MAX_ITER = 200


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a monotone scalar function on a sign-changing bracket [lo, hi], by bisection.

    Halves the bracket on the sign of ``f`` at its midpoint ``m`` until it is
    no wider than ``2 eps |m| + max(1e-300, 1e-13 |m|)``, and returns ``m``:
    ``BracketError`` if f(lo) and f(hi) share a sign, ``ConvergenceError`` after 200 halvings.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"find_root: no sign change on [{lo}, {hi}] (f: {flo}, {fhi})")
    for _ in range(_ROOT_MAX_ITER):
        m = lo + 0.5 * (hi - lo)
        if hi - lo <= 2.0 * _EPS * abs(m) + max(_FPMIN, _ROOT_REL_TOL * abs(m)):
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = m, fm
        else:
            hi = m
    raise ConvergenceError(f"find_root: no convergence in {_ROOT_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# Array kernels used by the simulation hot paths.  A piecewise approximation
# runs its central branch on every element, where it is finite and raises no
# warning (erf clips its argument to [-1, 1] for that), then overwrites the
# elements of each outer branch by index (flatnonzero, take, put), so each
# element gets exactly its own branch's operations.


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
    """erfc(a) for a 1-d array of a >= 1 (NaN passes through)."""
    a = np.minimum(a, _ERFC_ZERO_AT)
    ratio = _horner(a, _ERFC_P)
    ratio /= _horner(a, _ERFC_Q)
    far = np.flatnonzero(~(a < 8.0))  # NaN takes this branch too
    if far.size:
        x = a.take(far)
        ratio.put(far, _horner(x, _ERFC_R) / _horner(x, _ERFC_S))
    # exp(-a^2) with the exponent split as m^2 + (2m + f) f, m = a rounded to
    # 1/128 so m^2 is exact (Cephes expx2).  exp(-m^2 / 2) is applied twice
    # so that a subnormal result is rounded once, at the end.
    m = np.floor(a * 128.0 + 0.5)
    m *= 1.0 / 128.0
    f = a - m
    half = np.exp(-0.5 * m * m)
    f *= m + m + f
    ratio *= np.exp(np.negative(f, out=f), out=f)
    ratio *= half
    ratio *= half
    return ratio


def _erf_pair(x, upper: bool) -> np.ndarray:
    """erfc(x) if ``upper`` else erf(x), elementwise over the real line."""
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    x = np.ravel(x)  # 1-d, so that put reaches the result of a 0-d call
    xs = np.clip(x, -1.0, 1.0)  # exact below |x| = 1; the rest is overwritten
    z = xs * xs
    out = _horner(z, _ERF_T)
    out /= _horner(z, _ERF_U)
    out *= xs
    if upper:
        np.subtract(1.0, out, out=out)
    tail = np.flatnonzero(~(np.abs(x) < 1.0))
    if tail.size:
        xl = x.take(tail)
        c = _erfc_tail(np.abs(xl))
        if upper:  # erfc(-a) = 2 - erfc(a)
            neg = np.flatnonzero(xl < 0.0)
            c.put(neg, 2.0 - c.take(neg))
        else:  # erf(a) = 1 - erfc(a), odd in a
            c = np.copysign(1.0 - c, xl)
        out.put(tail, c)
    return out.reshape(shape)


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

    The central rational runs on every element (it is finite for |h| <= 1/2);
    the outer branch, then its far part (r > 5), overwrite their elements by
    index, so each element gets exactly its own branch's operations.
    """
    shape = np.shape(h)
    h = np.ravel(h)  # 1-d, so that put reaches the result of a 0-d call
    r = 0.180625 - h * h
    out = _horner(r, _AS241_A)
    out /= _horner(r, _AS241_B)
    out *= h
    outer = np.flatnonzero(np.abs(h) > 0.425)
    if outer.size:
        r = np.sqrt(-np.log(np.ravel(tail).take(outer)))
        z = r - 1.6
        z = _horner(z, _AS241_C) / _horner(z, _AS241_D)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            s = r.take(far)
            s -= 5.0
            z.put(far, _horner(s, _AS241_E) / _horner(s, _AS241_F))
        np.copysign(z, h.take(outer), out=z)
        out.put(outer, z)
    return out.reshape(shape)


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


def _retire(done, out, idx, result, *lanes, quarter=False):
    """Scatter ``result`` of the lanes first done now into ``out`` (so a lane's
    bits never depend on the lanes beside it) and compress the finished lanes
    away; with ``quarter`` (the cheap steps of the series and continued
    fractions) they stay, at index -1, until they are a quarter of all."""
    first = done & (idx >= 0)
    if not first.any():  # nothing to scatter, and the quarter test reads as last time
        return (idx, result) + lanes
    out[idx[first]] = result[first]
    idx[first] = -1
    live = idx >= 0
    if quarter and 4 * np.count_nonzero(~live) < idx.size:
        return (idx, result) + lanes
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
        idx, h, x, c, d, t = _retire(done, out, idx, h, x, c, d, t, quarter=True)
    raise ConvergenceError(f"incomplete beta: no convergence for a={a}, b={b}")


def _log_gamma_half_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a), for a > 0.

    The difference of two ``lgamma`` values cancels: its error grows with a
    (2.6e-14 at a = 50, 1.9e-4 at 5e11).  From a = 15 on it is the
    asymptotic series 1/2 log a - 1/(8a) + 1/(192a^3) - 1/(640a^5)
    + 17/(14336a^7) - 31/(18432a^9), from the Bernoulli polynomials at 1/2,
    whose next term is below 3e-16 there.
    """
    if a < 15.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    tail = 1 / 8 - r * (1 / 192 - r * (1 / 640 - r * (17 / 14336 - r * (31 / 18432))))
    return 0.5 * math.log(a) - tail / a


def _bgrat_coefficients(b: float, terms: int) -> list[float]:
    """The x-free coefficients d_1, d_2, ... of ``_beta_large_a``'s expansion."""
    c, d, cn = [], [], 1.0
    for n in range(1, terms + 1):
        cn /= (2.0 * n) * (2.0 * n + 1.0)
        c.append(cn)
        s = sum((i * b - n) * c[i - 1] * d[n - 1 - i] for i in range(1, n))
        d.append((b - 1.0) * cn + s / n)
    return d


_BGRAT_HALF = _bgrat_coefficients(0.5, 30)


def _beta_large_a(a: float, log_x: np.ndarray) -> np.ndarray:
    """I_x(a, 1/2) for a >= 15 from log x, on a 1-D array with x >= 1/2, z >= 1/4.

    The asymptotic expansion BGRAT of DiDonato & Morris (1992, ACM TOMS 708),
    in powers of 1/T^2 with T = a - 1/4 and z = -T log x:
    I = Gamma(a + 1/2) / (Gamma(a) sqrt(T)) r (J_0 + sum_n d_n J_n), with
    r = e^-z sqrt(z / pi) and J_0 = erfc(sqrt z) / r.  Every factor comes
    from log x, so that x near 1, where 1 - x has no digits left, keeps its
    accuracy.  Beyond z = 700, where r nears the underflow, J_0 is its
    asymptotic series (1/z) sum_k (-1)^k (2k - 1)!! / (2z)^k.  The series in
    (log x)^2 / 4 needs |log x| well below 2 pi: x >= 1/2 keeps it short.
    """
    t_big = a - 0.25
    z = -t_big * log_x
    r = np.exp(0.5 * np.log(z / math.pi) - z)
    j = np.empty_like(z)
    mid = z <= 700.0
    j[mid] = erfc_array(np.sqrt(z[mid])) / r[mid]
    zf = z[~mid]
    term, series = np.ones_like(zf), np.ones_like(zf)
    for k in range(1, 12):  # the 12th term is below 1e-19 from z = 700 on
        term *= -(2.0 * k - 1.0) / (2.0 * zf)
        series += term
    j[~mid] = series / zf
    v = 0.25 / (t_big * t_big)
    t2 = 0.25 * log_x * log_x
    total = j.copy()
    t = np.ones_like(z)
    live = np.ones(z.shape, dtype=bool)  # each lane stops at its own last term
    for n, d_n in enumerate(_BGRAT_HALF, start=1):
        bp2n = 2.0 * n - 1.5  # b + 2(n - 1)
        j = (bp2n * (bp2n + 1.0) * j + (z + bp2n + 1.0) * t) * v
        t *= t2
        dj = d_n * j
        total += np.where(live, dj, 0.0)
        live &= np.abs(dj) > _ITER_TOL * total
        if not live.any():
            break
    else:
        raise ConvergenceError(f"incomplete beta: no convergence of the expansion at a={a}")
    return math.exp(_log_gamma_half_ratio(a) - 0.5 * math.log(t_big)) * r * total


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
    if b == 0.5:  # the Student t's shape, where lgamma(a + b) - lgamma(a) cancels
        dens = power * math.exp(_log_gamma_half_ratio(a) - math.lgamma(b))
    else:
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


def _gamma_max_terms(s: float) -> int:
    # the incomplete gamma series and fraction need about 8 sqrt(s) terms at
    # large s (263 at s = 1e3, 793 at 1e4, 7483 at 1e6)
    return _MAX_ITER_CF + 10 * math.ceil(math.sqrt(s))


def _gamma_series_array(s: float, y: np.ndarray) -> np.ndarray:
    """sum_n y^n / ((s + 1) ... (s + n)) on a 1-D array with y < s + 1."""
    out = np.empty_like(y)
    idx = np.arange(y.size)
    term = np.ones_like(y)
    total = np.ones_like(y)
    for n in range(1, _gamma_max_terms(s) + 1):
        if not idx.size:
            return out
        term *= y
        term /= s + n
        total += term
        done = term <= total * _ITER_TOL
        idx, total, y, term = _retire(done, out, idx, total, y, term, quarter=True)
    raise ConvergenceError(f"incomplete gamma: series failed for s={s}")


def _gamma_cf_array(s: float, y: np.ndarray) -> np.ndarray:
    """Continued fraction of Q(s, y) e^y y^-s Gamma(s) (modified Lentz), y >= s + 1."""
    out = np.empty_like(y)
    idx = np.arange(y.size)
    b = y + (1.0 - s)
    d = 1.0 / b
    c = np.full_like(y, 1.0 / _FPMIN)
    h = d.copy()
    for i in range(1, _gamma_max_terms(s) + 1):
        if not idx.size:
            return out
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) <= _ITER_TOL
        idx, h, b, c, d = _retire(done, out, idx, h, b, c, d, quarter=True)
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


# ---------------------------------------------------------------------------
# Scalars.  ``perfbench/tracing.py`` looks up ``reg_beta``, ``reg_gamma_lower``,
# ``reg_gamma_upper`` and ``find_root`` by name; the first three are views of
# the array kernels.


def _reg_gamma_view(name: str, s: float, x: float) -> tuple[float, float]:
    if not (0.0 < s < math.inf) or math.isnan(x) or x < 0.0:
        raise DomainError(f"{name}: invalid arguments s={s!r}, x={x!r}")
    if math.isinf(x):
        return 1.0, 0.0
    p, q, _ = _reg_gamma_array(s, np.array([float(x)]))
    return float(p[0]), float(q[0])


def reg_gamma_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x)."""
    return _reg_gamma_view("reg_gamma_lower", s, x)[0]


def reg_gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = 1 - P(s, x)."""
    return _reg_gamma_view("reg_gamma_upper", s, x)[1]


def reg_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    x^a (1 - x)^b and 1 / B(a, b) are separate factors, so with a and b both
    large (a + b beyond about 1000) the second overflows: ``OverflowError``.
    """
    if not (a > 0.0) or not (b > 0.0) or math.isnan(x) or x < 0.0 or x > 1.0:
        raise DomainError(f"reg_beta: invalid arguments x={x!r}, a={a!r}, b={b!r}")
    xs = np.array([float(x)])
    ys = 1.0 - xs
    return float(_reg_beta_array(xs, ys, a, b, xs ** a * ys ** b)[0][0])


def _poisson_tail(k: int, y: float) -> float:
    """Q(k, y) = e^-y sum_{j<k} y^j / j!, the chi-square(2k) survival at 2y (k >= 1, y >= 0).

    The terms are summed by recursion from e^-y.  Beyond y = 708, where e^-y
    underflows, it is taken as m = 2^i factors e^(-y/m), each exponent exact:
    the sum starts from one factor, takes in another whenever it passes 1e280,
    and the rest at the end.
    """
    m = 1
    while y / m >= 708.0:
        m *= 2
    factor = math.exp(-y / m)
    term = total = factor
    left = m - 1
    for j in range(1, k):
        term *= y / j
        total += term
        if left and total > 1e280:
            term *= factor
            total *= factor
            left -= 1
        if j > y and term < 1e-20 * total:  # past the largest term they fall geometrically
            break
    for _ in range(left):
        total *= factor
    return total
