import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from heavycomb import special
from heavycomb.distributions import parse_distribution
from heavycomb.errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InfiniteQuantileError,
)
from heavycomb.special import (
    erf_array,
    erfc_array,
    find_root,
    normal_quantile_array,
    normal_sf_array,
    reg_beta,
    reg_gamma_lower,
    reg_gamma_upper,
)

# mpmath (30 digits): Phi(1.959964) = 0.975000000903557595697504894747
PHI_AT_1959964 = 0.9750000009035576
# 16 ulp: relative in the normal range, 16 subnormal steps below it.
ULP16_REL = 3.6e-15
ULP16_ABS = 16 * np.finfo(np.float64).smallest_subnormal


def _phi(x: float) -> float:
    """Standard normal CDF from the array kernel: Phi(x) = 1 - Phi(-x)."""
    return float(normal_sf_array(-x))


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert _phi(0.0) == 0.5

    def test_limit_at_40(self):
        assert abs(_phi(40.0) - 1.0) < 1e-300

    def test_high_precision_point(self):
        assert _phi(1.959964) == pytest.approx(PHI_AT_1959964, rel=1e-15)

    def test_symmetry_identity(self):
        for x in np.concatenate([np.linspace(-8, 8, 41), [-30.0, 30.0]]):
            assert abs(_phi(x) + _phi(-x) - 1.0) <= 1e-15

    def test_against_scipy(self):
        xs = np.linspace(-10, 10, 201)
        ours = np.array([_phi(x) for x in xs])
        assert np.allclose(ours, sps.ndtr(xs), rtol=5e-13, atol=0)


class TestNormalQuantile:
    """The array quantile on scalar arguments."""

    def test_median(self):
        assert normal_quantile_array(0.5) == 0.0

    def test_known_point(self):
        assert normal_quantile_array(0.975) == pytest.approx(1.9599639845400545, abs=1e-12)

    def test_antisymmetry(self):
        for u in (0.01, 0.1, 0.3, 0.45):
            assert normal_quantile_array(u) == pytest.approx(-normal_quantile_array(1 - u),
                                                             abs=1e-13)

    def test_roundtrip_grid(self):
        # log-spaced grid 1e-12 .. 1 - 1e-12 in both tails
        lows = np.logspace(-12, -0.31, 60)
        grid = np.concatenate([lows, 1.0 - lows])
        for u in grid:
            assert abs(_phi(normal_quantile_array(u)) - u) <= 1e-12

    def test_bounds(self):
        with pytest.raises(InfiniteQuantileError):
            normal_quantile_array(0.0)
        with pytest.raises(InfiniteQuantileError):
            normal_quantile_array(1.0)
        with pytest.raises(DomainError):
            normal_quantile_array(-0.1)
        with pytest.raises(DomainError):
            normal_quantile_array(1.1)


def _with_neighbours(points):
    pts = np.asarray(points, dtype=np.float64)
    return np.concatenate([pts, np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf)])


class TestArrayKernels:
    """Array kernels against libm (``math.erfc``) and ``scipy.special.ndtri``."""

    def test_erfc_against_libm(self):
        # Branch points of the kernel: |x| = 1 and 8; 0 for the sign.
        xs = np.concatenate([np.linspace(-6.0, 27.0, 66_001),
                             _with_neighbours([-1.0, 0.0, 1.0, 8.0])])
        ref = np.array([math.erfc(x) for x in xs])
        got = erfc_array(xs)
        assert np.all(np.abs(got - ref) <= ULP16_REL * ref + ULP16_ABS)

    def test_normal_sf_against_libm(self):
        xs = np.concatenate([np.linspace(-38.0, 38.0, 76_001),
                             _with_neighbours([-8 * math.sqrt(2), -math.sqrt(2), math.sqrt(2),
                                               8 * math.sqrt(2)])])
        ref = np.array([0.5 * math.erfc(x / math.sqrt(2.0)) for x in xs])
        got = normal_sf_array(xs)
        assert np.all(np.abs(got - ref) <= ULP16_REL * ref + ULP16_ABS)

    def test_normal_quantile_against_ndtri(self):
        # Branch points: |u - 1/2| = 0.425 and a tail mass of exp(-25).
        lows = np.concatenate([np.logspace(-300, math.log10(0.5), 30_001),
                               _with_neighbours([math.exp(-25.0), 0.075])])
        highs = 1.0 - np.logspace(-16, math.log10(0.5), 10_001)
        us = np.concatenate([lows, highs, _with_neighbours([0.925, 1.0 - math.exp(-25.0)])])
        ref = sps.ndtri(us)
        got = normal_quantile_array(us)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    def test_exact_values(self):
        assert normal_quantile_array(np.array([0.5]))[0] == 0.0
        assert normal_quantile_array(0.5) == 0.0
        assert np.array_equal(normal_sf_array(np.array([np.inf, -np.inf])), [0.0, 1.0])
        assert np.array_equal(erfc_array(np.array([np.inf, -np.inf, 0.0])), [0.0, 2.0, 1.0])

    def test_shape_and_nan(self):
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert normal_sf_array(grid).shape == (3, 4)
        assert normal_quantile_array(normal_sf_array(grid)).shape == (3, 4)
        assert np.isnan(erfc_array(np.array([np.nan]))[0])

    @pytest.mark.parametrize("kernel, points", [
        (erf_array, [1.0, 8.0]),
        (erfc_array, [1.0, 8.0]),
        (normal_sf_array, [1.0, 8.0, math.sqrt(2), 8 * math.sqrt(2)]),
    ])
    def test_each_element_as_if_alone(self, kernel, points):
        # branch points and their neighbours on both sides, signed zeros,
        # infinities, NaN and the largest magnitudes, mixed with ordinary values
        pts = np.asarray(points)
        xs = np.concatenate([_with_neighbours(np.concatenate([pts, -pts])),
                             [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 0.3, -27.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = kernel(xs)
            alone = np.array([kernel(np.array([x]))[0] for x in xs])
            scalars = np.array([kernel(x) for x in xs])
        assert np.array_equal(got, alone, equal_nan=True)
        assert np.array_equal(got, scalars, equal_nan=True)
        assert np.array_equal(kernel(xs.reshape(3, -1)), got.reshape(3, -1), equal_nan=True)

    def test_return_types(self):
        assert type(normal_sf_array(0.3)) is np.float64
        for kernel in (erf_array, erfc_array):
            for x in (0.3, 1.5, np.float64(-9.0), np.array(0.3)):
                got = kernel(x)
                assert isinstance(got, np.ndarray) and got.ndim == 0
        assert normal_sf_array(np.array([0.3])).shape == (1,)

    @pytest.mark.parametrize("u, error", [
        (0.0, InfiniteQuantileError),
        (1.0, InfiniteQuantileError),
        (math.nan, DomainError),
        (-0.1, DomainError),
        (1.1, DomainError),
    ])
    def test_quantile_errors_match_scalar(self, u, error):
        with pytest.raises(error):
            normal_quantile_array(u)
        with pytest.raises(error):
            normal_quantile_array(np.array([0.3, u, 0.7]))


class TestRegGamma:
    def test_shape_one_closed_form(self):
        for x in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert reg_gamma_upper(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)

    def test_at_zero(self):
        for s in (0.3, 1.0, 4.5):
            assert reg_gamma_upper(s, 0.0) == 1.0
            assert reg_gamma_lower(s, 0.0) == 0.0
            assert reg_gamma_upper(s, math.inf) == 0.0
            assert reg_gamma_lower(s, math.inf) == 1.0

    def test_shape_two_closed_form(self):
        # Q(2, x) = (1 + x) e^-x; at x = 1 this is 2/e
        assert reg_gamma_upper(2.0, 1.0) == pytest.approx(0.7357588823428847, rel=1e-13)

    def test_monotone_decreasing_in_x(self):
        for s in (0.5, 1.7, 6.0):
            values = [reg_gamma_upper(s, x) for x in np.linspace(0, 30, 400)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_complement(self):
        for s in (0.4, 2.3, 9.0):
            for x in (0.2, 1.0, 5.0, 20.0):
                assert reg_gamma_lower(s, x) + reg_gamma_upper(s, x) == pytest.approx(1.0, abs=1e-14)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = rng.uniform(0.05, 40)
            x = rng.uniform(0, 60)
            assert reg_gamma_upper(s, x) == pytest.approx(sps.gammaincc(s, x), rel=1e-11, abs=1e-300)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_gamma_upper(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_gamma_upper(1.0, -0.5)


class TestRegBeta:
    def test_endpoints(self):
        assert reg_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_case(self):
        assert reg_beta(0.5, 1.0, 1.0) == 0.5

    def test_arcsine_point(self):
        # I_x(1/2, 1/2) = (2/pi) arcsin(sqrt(x)); at x = 1/4 this is 1/3
        assert reg_beta(0.25, 0.5, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_reflection_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = rng.uniform(0.1, 50)
            b = rng.uniform(0.1, 50)
            x = rng.uniform(0, 1)
            assert abs(reg_beta(x, a, b) - (1.0 - reg_beta(1.0 - x, b, a))) <= 1e-13

    def test_monotone_in_x(self):
        for a, b in ((0.5, 0.5), (2.0, 5.0), (7.0, 0.3)):
            values = [reg_beta(x, a, b) for x in np.linspace(0, 1, 500)]
            assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = rng.uniform(0.05, 60)
            b = rng.uniform(0.05, 60)
            x = rng.uniform(0, 1)
            assert reg_beta(x, a, b) == pytest.approx(sps.betainc(a, b, x), rel=1e-11, abs=1e-295)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reg_beta(0.5, 1.0, -2.0)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 3.0, 0.0, 10.0) == pytest.approx(3.0, abs=1e-12)

    def test_normal_quantile_equivalent(self):
        root = find_root(lambda x: _phi(x) - 0.975, 0.0, 10.0)
        assert root == pytest.approx(1.9599639845400545, abs=1e-10)

    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_root_at_a_bracket_end(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0

        assert find_root(f, 1.0, 3.0) == 1.0
        assert calls == [1.0, 3.0]  # the two ends only, no bisection step
        calls.clear()
        assert find_root(f, -1.0, 1.0) == 1.0
        assert calls == [-1.0, 1.0]

    def test_decreasing(self):
        root = find_root(lambda x: 2.0 - x * x, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_tiny_root_to_relative_precision(self):
        # the stopping rule scales with |m|, so a root near 1e-8 is not
        # settled at an absolute width of 1e-12
        root = find_root(lambda x: x * x - 1e-16, 0.0, 1.0)
        assert root == pytest.approx(1e-8, rel=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_iteration_budget(self):
        # 200 halvings of [0, 1] leave a width near 6e-61, far above the 1e-300
        # floor that a root near 1e-310 needs
        with pytest.raises(ConvergenceError, match="no convergence in 200 iterations"):
            find_root(lambda x: x - 1e-310, 0.0, 1.0)


class TestIncompleteArrays:
    """The private array incomplete beta and gamma and the Halley solver."""

    @pytest.mark.parametrize("spec", ["t:2.5", "t:3", "t:150", "trunc_t:3:0.9", "inv_gamma:0.7"])
    def test_each_lane_as_if_alone(self, spec):
        # a lane stops at its own convergence, so its bits do not depend on
        # the lanes beside it (nor on the block or tile they share)
        d = parse_distribution(spec)
        rng = np.random.default_rng(51)
        x = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-3.0, 4.0, 3000)
        q = 10.0 ** rng.uniform(-300.0, 0.0, 3000)
        sf, isf = d.survival(x), d.inverse_survival(q)
        for i in range(0, 3000, 15):
            assert d.survival(x[i:i + 1])[0] == sf[i], x[i]
            assert d.inverse_survival(q[i:i + 1])[0] == isf[i], q[i]

    def test_beta_against_scipy(self):
        x = np.concatenate([[0.0, 1e-300, 1e-12], np.linspace(0.01, 0.99, 99), [1 - 1e-9, 1.0]])
        y = 1.0 - x
        for a, b in ((0.25, 0.5), (1.5, 0.5), (3.5, 0.5), (15.0, 0.5), (0.5, 1.5), (2.0, 3.0)):
            i_x, i_y, dens = special._reg_beta_array(x, y, a, b, x ** a * y ** b)
            assert np.allclose(i_x, sps.betainc(a, b, x), rtol=1e-13, atol=1e-300), (a, b)
            # y = 1 - x is rounded, so scipy's I_y(b, a) is not the complement
            # near x = 0; the identity is checked instead
            assert np.all(np.abs(i_x + i_y - 1.0) <= 2.3e-16), (a, b)
            assert np.allclose(dens, x ** a * y ** b / sps.beta(a, b), rtol=1e-13, atol=0), (a, b)
            # the value computed directly is the smaller one, near 1/2 at most
            assert np.all(np.minimum(i_x, i_y) <= 0.6)

    def test_gamma_against_scipy(self):
        y = np.concatenate([[0.0, 1e-300, 1e-20], np.logspace(-5, 2.8, 200)])
        # below s = 1/699, y / s passes 700 (e^(-y/s) underflows) below y = s + 1
        for s in (1e-5, 1e-3, 0.01, 0.5, 1.0, 3.5, 20.0):
            p, q, dens = special._reg_gamma_array(s, y)
            assert np.allclose(p, sps.gammainc(s, y), rtol=1e-13, atol=1e-300), s
            # below s + 1, Q = 1 - P is known to absolute error only
            assert np.allclose(q, sps.gammaincc(s, y), rtol=1e-13, atol=2e-15), s
            with np.errstate(divide="ignore"):
                ref = np.exp(s * np.log(y) - y - sps.gammaln(s))
            assert np.allclose(dens, ref, rtol=1e-12, atol=0), s

    def test_gamma_upper_tail_front(self):
        # e^-y y^s / Gamma(s) taken as one exponential of summed logarithms
        # carries their rounding, |log| * eps: 2.2e-14 at y = 300
        y = np.array([5.0, 50.0, 300.0, 699.0])
        with mpmath.workdps(30):
            for s in (0.5, 3.5):
                q = special._reg_gamma_array(s, y)[1]
                for yi, qi in zip(y, q):
                    exact = mpmath.gammainc(s, yi, mpmath.inf, regularized=True)
                    assert abs(qi / exact - 1) <= 5e-15, (s, yi)

    def test_empty_lane_sets(self):
        empty = np.empty(0)
        assert special._beta_cf_array(empty, 1.5, 0.5).size == 0
        assert all(v.size == 0 for v in special._reg_gamma_array(2.0, empty))

    def test_solver_converges_and_bisects(self):
        # G = log(c / x) is exactly linear in log x: one Halley step lands on c.
        c = np.array([1e-200, 0.5, 3.0, 1e250])

        def linear(x, lanes):
            return np.log(c[lanes] / x), -np.ones_like(x), np.zeros_like(x)

        x0 = c * np.array([1e3, 0.9, 1.1, 1e-3])
        got = special._solve_decreasing(x0, c / 1e4, c * 1e4, linear)
        assert np.allclose(got, c, rtol=1e-15)

        # a useless slope forces bisection inside the bracket
        def flat(x, lanes):
            return np.log(c[lanes] / x), np.full_like(x, -1e-30), np.zeros_like(x)

        got = special._solve_decreasing(c * 7.0, c / 10.0, c * 10.0, flat)
        assert np.allclose(got, c, rtol=1e-13)

    def test_solver_raises_when_steps_never_shrink(self):
        # every step is -2e-5 in log x and stays inside the bracket: the lane
        # never finishes, and its value after the last step is no root
        def creeping(x, lanes):
            return np.full_like(x, -1.0), np.full_like(x, -5e4), np.zeros_like(x)

        x0 = np.array([1.0, 2.0])
        with pytest.raises(ConvergenceError):
            special._solve_decreasing(x0, x0 / 2.0, x0 * 2.0, creeping)


    def test_log_gamma_half_ratio_against_mpmath(self):
        # the asymptotic series from a = 15; lgamma's difference below
        with mpmath.workdps(40):
            for a in (0.5, 3.0, 14.9, 15.0, 50.0, 500.25, 5e5, 5e11, 5e19):
                exact = mpmath.loggamma(mpmath.mpf(a) + 0.5) - mpmath.loggamma(a)
                got = special._log_gamma_half_ratio(a)
                tol = 1e-15 if a >= 15.0 else 6e-15
                assert abs(mpmath.exp(got - exact) - 1) <= tol, a

    def test_beta_large_a_against_mpmath(self):
        # z = -(a - 1/4) log x from 1/4 to past 700, where J_0 is a series,
        # with x >= 1/2; e^-z carries z's rounding, z eps relative
        with mpmath.workdps(30):
            for a in (15.0, 50.0, 500.25, 5e5):
                z = np.array([0.25, 1.0, 8.0, 32.0, 200.0, 699.0, 702.0])
                z = z[z <= (a - 0.25) * math.log(2.0)]
                got = special._beta_large_a(a, -z / (a - 0.25))
                for zi, gi in zip(z, got):
                    x = mpmath.exp(-mpmath.mpf(zi) / (mpmath.mpf(a) - 0.25))
                    exact = mpmath.betainc(a, 0.5, 0, x, regularized=True)
                    assert abs(gi / exact - 1) <= 4e-16 * max(zi, 8.0), (a, zi)

class TestPoissonTail:
    """Q(k, y) for k and y beyond Fisher's test grid: large k, and y >= 708 on
    both sides of k - 1 = y, where e^-y is taken as 2^i exact factors."""

    @pytest.mark.parametrize("k, y", [(1, 708.0), (740, 750.0), (751, 750.0), (800, 750.0),
                                      (2000, 713.0), (5000, 300.0)])
    def test_against_mpmath(self, k, y):
        with mpmath.workdps(30):
            exact = mpmath.gammainc(k, y, mpmath.inf, regularized=True)
            assert abs(special._poisson_tail(k, y) / exact - 1) <= 1e-14

    def test_beyond_708_against_mpmath(self):
        # Fisher statistics from 1416 to 10000; Q below 1e-300 may underflow
        with mpmath.workdps(30):
            for k in (1, 2, 7, 50, 120, 199):
                for y in np.linspace(708.0, 5000.0, 12).tolist():
                    exact = mpmath.gammainc(k, y, mpmath.inf, regularized=True)
                    got = special._poisson_tail(k, y)
                    if exact < 1e-300:
                        assert got < 1e-300, (k, y)
                    else:
                        assert abs(got / exact - 1) <= 1e-14, (k, y)

