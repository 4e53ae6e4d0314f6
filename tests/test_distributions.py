import inspect
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings, strategies as hst

from heavycomb import special

from heavycomb.distributions import (
    Cauchy,
    Frechet,
    InverseGamma,
    Levy,
    LogCauchy,
    LogGamma,
    Pareto,
    StudentT,
    TruncatedT,
    _FAMILIES,
    parse_distribution,
    truncation_point,
)
from heavycomb.errors import DomainError, InfiniteQuantileError

MAX_DOUBLE = sys.float_info.max


def all_families():
    return [
        Cauchy(),
        LogCauchy(),
        Levy(),
        Pareto(1.0),
        Frechet(1.0),
        InverseGamma(1.0),
        LogGamma(1.0),
        StudentT(2.0),
        TruncatedT(1.0, 0.9),
    ]


def bisect_inverse(fn, target, lo, hi, iters=200):
    """Independent quantile oracle: plain bisection on a decreasing fn."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cauchy_pdf_integral(a, b, steps=200_001):
    """Simpson quadrature of the standard Cauchy density over [a, b]."""
    xs = np.linspace(a, b, steps)
    ys = 1.0 / (np.pi * (1.0 + xs * xs))
    h = (b - a) / (steps - 1)
    return h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum())


class TestSurvival:
    def test_cauchy_at_one(self):
        assert Cauchy().survival(1.0) == pytest.approx(0.25, abs=1e-15)

    def test_pareto_closed_form(self):
        assert Pareto(1.0).survival(20.0) == pytest.approx(0.05, abs=1e-15)

    def test_truncated_t_versus_quadrature(self):
        # survival of truncated t1 (p0 = 1/2, c = 0) at 1: Cauchy mass on
        # (1, inf) renormalized to (0, inf)
        d = TruncatedT(1.0, 0.5)
        assert d.c == pytest.approx(0.0, abs=1e-15)
        tail_above_one = 0.5 - cauchy_pdf_integral(0.0, 1.0)
        assert d.survival(1.0) == pytest.approx(tail_above_one / 0.5, abs=1e-9)
        assert d.survival(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            Cauchy().survival(float("nan"))

    def test_extended_reals(self):
        for d in all_families():
            assert d.survival(math.inf) == pytest.approx(0.0, abs=1e-300)
            assert d.survival(-math.inf) == 1.0

    def test_below_support_is_one(self):
        assert Pareto(2.0).survival(0.5) == 1.0
        assert Frechet(1.0).survival(-3.0) == 1.0
        assert TruncatedT(1.0, 0.9).survival(-1e9) == 1.0


class TestCdf:
    def test_cauchy_center(self):
        assert Cauchy().cdf(0.0) == 0.5

    def test_frechet_lower_limit(self):
        assert Frechet(1.0).cdf(1e-12) == pytest.approx(0.0, abs=1e-300)

    def test_truncated_at_lower_endpoint(self):
        d = TruncatedT(1.0, 0.9)
        assert d.cdf(d.c) == 0.0

    def test_complement_identity(self):
        xs = np.linspace(-5, 60, 301)
        for d in all_families():
            sf = np.asarray(d.survival(xs))
            cdf = np.asarray(d.cdf(xs))
            assert np.max(np.abs(sf + cdf - 1.0)) <= 1e-14


class TestQuantile:
    def test_cauchy_closed_form(self):
        assert Cauchy().quantile(0.75) == pytest.approx(1.0, abs=1e-12)

    def test_pareto_against_bisection(self):
        d = Pareto(1.0)
        oracle = bisect_inverse(d.survival, 0.1, 1.0, 1e6)
        assert d.quantile(0.9) == pytest.approx(10.0, rel=1e-12)
        assert d.quantile(0.9) == pytest.approx(oracle, rel=1e-9)

    def test_student_t2_against_bisection_and_closed_form(self):
        d = StudentT(2.0)
        u = 0.95
        closed = (2 * u - 1) * math.sqrt(2.0 / (4.0 * u * (1.0 - u)))
        oracle = bisect_inverse(d.survival, 1.0 - u, 0.0, 1e3)
        q = d.quantile(u)
        assert q == pytest.approx(2.9199855803537256, rel=1e-12)
        assert q == pytest.approx(closed, rel=1e-13)
        assert q == pytest.approx(oracle, rel=1e-9)

    def test_invalid_levels(self):
        d = Pareto(1.0)
        with pytest.raises(InfiniteQuantileError):
            d.quantile(1.0)
        with pytest.raises(InfiniteQuantileError):
            d.quantile(0.0)
        with pytest.raises(DomainError):
            d.quantile(1.5)

    def test_inverse_survival_at_one_is_support_bound(self):
        assert Cauchy().inverse_survival(1.0) == -math.inf
        assert Pareto(1.5).inverse_survival(1.0) == 1.0
        assert Levy().inverse_survival(1.0) == 0.0
        d = TruncatedT(1.0, 0.9)
        assert d.inverse_survival(1.0) == d.c

    @pytest.mark.parametrize("spec", [
        "cauchy", "log_cauchy", "levy", "pareto:1", "pareto:2.5", "frechet:1", "frechet:0.5",
        "inv_gamma:1", "inv_gamma:2.5", "log_gamma:1", "t:1", "t:2", "t:3", "t:2.5",
        "trunc_t:1:0.9", "trunc_t:3:0.9",
    ])
    def test_inverse_survival_only_masks_when_a_q_is_one(self, spec):
        # q = 1 maps to the support bound with the bits of the masked form;
        # without a q = 1 the transform is the family's _isf itself
        d = parse_distribution(spec)
        q = np.array([1.0, 0.3, 1e-300, 1.0, 0.5, 1.0 - 2.0**-53, 5e-324])
        one = q == 1.0
        masked = np.where(one, d.support_lower, d._isf(np.where(one, 0.5, q)))
        assert np.asarray(d.inverse_survival(q)).tobytes() == masked.tobytes()
        assert d.inverse_survival(1.0) == d.support_lower
        assert isinstance(d.inverse_survival(1.0), float)
        rest = q[~one]
        assert np.asarray(d.inverse_survival(rest)).tobytes() == np.asarray(d._isf(rest)).tobytes()
        for v in rest.tolist():
            got = d.inverse_survival(v)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == masked[q == v][0].tobytes()

    @pytest.mark.parametrize("q, message", [
        (math.nan, "distribution argument contains NaN"),
        (0.0, "cauchy: inverse_survival argument outside (0, 1]"),
        (1.5, "cauchy: inverse_survival argument outside (0, 1]"),
        ([math.nan, 2.0], "distribution argument contains NaN"),
        ([2.0, math.nan], "distribution argument contains NaN"),
    ])
    def test_inverse_survival_messages(self, q, message):
        # a NaN anywhere names the NaN, whatever else is out of range
        with pytest.raises(DomainError) as err:
            Cauchy().inverse_survival(q)
        assert str(err.value) == message

    def test_cauchy_one_tan_matches_two_tan_formula(self):
        def two_tan(q):
            with np.errstate(divide="ignore", over="ignore"):
                low = 1.0 / np.tan(np.pi * np.where(q <= 0.5, q, 0.25))
                high = -1.0 / np.tan(np.pi * np.where(q > 0.5, 1.0 - q, 0.25))
            return np.where(q == 0.5, 0.0, np.where(q <= 0.5, low, high))

        rng = np.random.default_rng(46)
        edges = [5e-324, 1e-310, sys.float_info.min, 0.25, 0.5, np.nextafter(0.5, 0.0),
                 np.nextafter(0.5, 1.0), 0.75, 1.0 - 2.0**-53, 1.0]
        q = np.concatenate([rng.random(1_000_000), 10.0 ** -rng.uniform(0.0, 323.0, 800_000),
                            1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 200_000), edges])
        q = q[q > 0.0]
        assert q.size >= 2_000_000
        assert Cauchy()._isf(q).tobytes() == two_tan(q).tobytes()


class TestTruncationPoint:
    def test_median(self):
        assert truncation_point(1.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_quarter(self):
        assert truncation_point(1.0, 0.25) == pytest.approx(1.0, rel=1e-12)

    def test_point_nine(self):
        # mpmath: tan(pi (0.1 - 1/2)) = -3.07768353717525340257
        c = truncation_point(1.0, 0.9)
        assert c == pytest.approx(-3.0776835371752534, rel=1e-12)
        assert TruncatedT(1.0, 0.9).truncation_point == c
        assert StudentT(1.0).cdf(c) == pytest.approx(0.1, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            truncation_point(-1.0, 0.5)
        with pytest.raises(DomainError):
            truncation_point(1.0, 1.0)

    @pytest.mark.parametrize("gamma,p0", [(1e-3, 0.01), (1e-3, 0.9), (0.1, 1e-300)])
    def test_overflowing_truncation_point_rejected(self, gamma, p0):
        # c = +inf (an empty support, 0/0 in the sf) or -inf: no distribution,
        # and no point from the public helper either
        with pytest.raises(DomainError, match="trunc_t: truncation point overflows"):
            TruncatedT(gamma, p0)
        with pytest.raises(DomainError, match="trunc_t: truncation point overflows"):
            truncation_point(gamma, p0)


# every registered family: constructor arguments, tail index, lower support bound
FAMILIES = {
    "cauchy": ((), 1.0, -math.inf),
    "log_cauchy": ((), 0.0, 0.0),
    "levy": ((), 0.5, 0.0),
    "pareto": ((1.0,), 1.0, 1.0),
    "frechet": ((0.5,), 0.5, 0.0),
    "inv_gamma": ((2.0,), 2.0, 0.0),
    "log_gamma": ((1.5,), 1.5, 1.0),
    "t": ((2.0,), 2.0, -math.inf),
    "trunc_t": ((1.0, 0.9), 1.0, truncation_point(1.0, 0.9)),
}
SHAPE_FAMILIES = sorted(name for name, (params, _, _) in FAMILIES.items() if params)


class TestFamilies:
    """Each family of the registry, by its name."""

    def test_registry(self):
        assert set(_FAMILIES) == set(FAMILIES)
        assert all(cls.name == name for name, cls in _FAMILIES.items())

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family(self, name):
        cls = _FAMILIES[name]
        params, tail_index, support_lower = FAMILIES[name]
        d = cls(*params)
        assert d.tail_index == tail_index
        assert d.support_lower == support_lower
        # the spec string, its round trip, equality and hash
        spec = ":".join([name] + [f"{v:g}" for v in params])
        assert d.spec_string() == spec
        again = parse_distribution(spec)
        assert again == d and hash(again) == hash(d) and again is not d
        assert repr(d) == f"<{cls.__name__} {spec}>"
        assert all(d != _FAMILIES[other](*FAMILIES[other][0]) for other in FAMILIES
                   if other != name)
        # the arity and the parse messages
        nargs = len(params)
        assert len(inspect.signature(cls).parameters) == nargs
        for count in {0, 1, 2, 3} - {nargs}:
            bad = ":".join([name] + ["1"] * count)
            message = (f"distribution '{name}' takes no parameters: {bad!r}" if not nargs else
                       f"distribution '{name}' expects {nargs} parameter(s): {bad!r}")
            with pytest.raises(DomainError) as err:
                parse_distribution(bad)
            assert str(err.value) == message
        if not nargs:
            return
        bad = ":".join([name] + ["zero"] * nargs)
        with pytest.raises(DomainError) as err:
            parse_distribution(bad)
        assert str(err.value) == f"unparseable distribution parameters in {bad!r}"
        # the shape check, through the constructor and the parser
        assert d.gamma == params[0]
        for shape in (0.0, -1.0, math.inf, math.nan):
            bound = "finite" if shape == math.inf else "positive"
            message = f"{name}: tail index must be {bound}, got {shape!r}"
            with pytest.raises(DomainError) as err:
                cls(shape, *params[1:])
            assert str(err.value) == message
            with pytest.raises(DomainError) as err:
                parse_distribution(":".join([name, repr(shape)] + [f"{v:g}" for v in params[1:]]))
            assert str(err.value) == message

    @pytest.mark.parametrize("name", SHAPE_FAMILIES)
    def test_negative_infinite_shape_is_not_positive(self, name):
        # only +inf is named as not finite; -inf is below zero first
        params = FAMILIES[name][0]
        with pytest.raises(DomainError) as err:
            _FAMILIES[name](-math.inf, *params[1:])
        assert str(err.value) == f"{name}: tail index must be positive, got -inf"


class TestInvariants:
    LEVELS = np.concatenate([np.logspace(-10, -1, 19), [0.3, 0.5, 0.7], 1 - np.logspace(-6, -1, 11)])

    def test_quantile_cdf_roundtrip(self):
        for d in all_families():
            if isinstance(d, LogCauchy):
                continue
            for u in self.LEVELS:
                assert abs(float(d.cdf(d.quantile(u))) - u) <= 1e-9, (d, u)

    def test_log_cauchy_roundtrip_on_representable_range(self):
        # exp(tan(pi(u - 1/2))) only fits in a double for u in roughly
        # (4.3e-4, 1 - 4.5e-4); outside that band the quantile saturates
        # at 0 / inf and the roundtrip error equals the level itself.
        d = LogCauchy()
        lows = np.logspace(-3, -1, 15)
        for u in np.concatenate([lows, [0.3, 0.5, 0.7], 1.0 - lows]):
            assert abs(float(d.cdf(d.quantile(u))) - u) <= 1e-9, u
        assert d.quantile(1e-8) == 0.0
        assert float(d.cdf(d.quantile(1e-8))) == 0.0
        assert d.quantile(1.0 - 1e-8) == math.inf
        assert float(d.cdf(d.quantile(1.0 - 1e-8))) == 1.0

    def test_regular_variation_at_1e8(self):
        dists = [
            Cauchy(), Levy(), Pareto(1.0), Pareto(0.5), Frechet(1.0), Frechet(1.5),
            InverseGamma(1.0), InverseGamma(0.7), LogGamma(1.2), StudentT(2.0),
            StudentT(1.0), TruncatedT(1.0, 0.9), TruncatedT(2.0, 0.5),
        ]
        x = 1e8
        for d in dists:
            gamma = d.tail_index
            ratio = float(d.survival(2 * x)) / float(d.survival(x))
            assert abs(ratio - 2.0 ** -gamma) <= 1e-3, d

    def test_log_cauchy_slow_variation(self):
        d = LogCauchy()
        ratios = [float(d.survival(2 * x)) / float(d.survival(x)) for x in (1e2, 1e4, 1e8)]
        assert ratios[0] < ratios[1] < ratios[2] < 1.0
        x = 1e8
        assert ratios[2] == pytest.approx(math.log(x) / math.log(2 * x), abs=1e-4)

    def test_truncated_matches_parent_tail(self):
        for gamma, p0 in ((1.0, 0.9), (1.0, 0.5), (2.0, 0.7), (0.5, 0.9)):
            d = TruncatedT(gamma, p0)
            parent = d.parent
            denom = float(parent.survival(d.c))
            xs = np.linspace(d.c, d.c + 50.0, 97)
            for x in xs:
                lhs = float(d.survival(x)) * denom
                rhs = float(parent.survival(x))
                assert abs(lhs - rhs) <= 1e-12

    def test_survival_monotone_on_grid(self):
        xs = np.linspace(-20.0, 100.0, 10_000)
        for d in all_families():
            sf = np.asarray(d.survival(xs))
            assert np.all(np.diff(sf) <= 1e-15), d
            assert np.all((sf >= 0.0) & (sf <= 1.0)), d

    def test_left_tail_condition(self):
        # bounded-support families: no mass below; symmetric t: F(-x) = sf(x)
        bounded = [LogCauchy(), Levy(), Pareto(1.0), Frechet(1.0), InverseGamma(1.0),
                   LogGamma(1.0), TruncatedT(1.0, 0.9)]
        for d in bounded:
            x_low = d.support_lower - 10.0 if math.isfinite(d.support_lower) else -10.0
            assert d.cdf(x_low) == 0.0, d
        for d in (Cauchy(), StudentT(2.0), StudentT(3.7)):
            for x in (0.0, 0.3, 1.0, 4.0, 25.0):
                assert float(d.survival(x)) == float(d.cdf(-x)), d


class TestAgainstScipy:
    CASES = [
        (Cauchy(), st.cauchy),
        (Levy(), st.levy),
        (Pareto(1.3), st.pareto(1.3)),
        (Frechet(0.8), st.invweibull(0.8)),
        (InverseGamma(2.2), st.invgamma(2.2)),
        (StudentT(3.5), st.t(3.5)),
    ]

    def test_survival_matches(self):
        xs = np.linspace(0.1, 40.0, 80)
        for ours, ref in self.CASES:
            assert np.allclose(np.asarray(ours.survival(xs)), ref.sf(xs), rtol=1e-9, atol=1e-13)

    def test_quantiles_match(self):
        us = np.array([0.2, 0.5, 0.9, 0.99, 0.9999])
        for ours, ref in self.CASES:
            got = np.array([float(ours.quantile(u)) for u in us])
            assert np.allclose(got, ref.ppf(us), rtol=1e-8), ours


class TestLevyOracle:
    GRID = np.concatenate([np.logspace(-150, 0, 15_001), [0.5, 0.85, 0.9]])

    def test_inverse_survival_against_scipy(self):
        q = self.GRID
        ref = st.levy.isf(q)
        got = np.asarray(Levy().inverse_survival(q))
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    def test_quantile_against_scipy(self):
        u = self.GRID[self.GRID < 1.0]
        ref = st.levy.ppf(u)
        got = np.asarray(Levy().quantile(u))
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extremes_are_quiet(self):
        levy = Levy()
        isf = levy.inverse_survival(np.array([1e-300, 1e-12, 1.0]))
        assert isf[0] == math.inf
        assert isf[1] == pytest.approx(st.levy.isf(1e-12), rel=1e-14)
        assert isf[2] == 0.0
        sf = levy.survival(np.array([1e-300, 1.0, 1e300]))
        assert sf[0] == 1.0
        assert sf[1] == pytest.approx(st.levy.sf(1.0), rel=1e-15)
        assert sf[2] == pytest.approx(st.levy.sf(1e300), rel=1e-15)
        assert np.array_equal(special.normal_sf_array(np.array([40.0, -40.0, np.inf, -np.inf])),
                              [0.0, 1.0, 0.0, 1.0])
        z = special.normal_quantile_array(np.array([5e-324, 1.0 - 2.0**-53]))
        assert np.all(np.isfinite(z))
        assert z[0] < -38.0 < 8.0 < z[1]


    def test_survival_and_cdf_beyond_half_max(self):
        # 2x overflowed beyond max/2, so the sf (about 1e-154 there) read 0
        x = np.geomspace(1e307, 1.79e308, 401)
        x = np.concatenate([x, [8.99e307, 0.5 * MAX_DOUBLE, MAX_DOUBLE]])
        sf = np.asarray(Levy().survival(x))
        assert np.all(np.abs(sf / st.levy.sf(x) - 1.0) <= 1e-15)
        assert np.array_equal(Levy().cdf(x), st.levy.cdf(x))
        assert Levy().survival(1e308) == pytest.approx(st.levy.sf(1e308), rel=1e-15)

class TestParseGrammar:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(name=hst.sampled_from(SHAPE_FAMILIES),
           gamma=hst.floats(min_value=0.05, max_value=50.0),
           p0=hst.floats(min_value=0.05, max_value=0.95))
    def test_spec_names_one_distribution(self, name, gamma, p0):
        # %g keeps 6 digits: a spec must not merge shapes that differ beyond them
        cls = _FAMILIES[name]
        args = (gamma, p0)[:len(FAMILIES[name][0])]
        d = cls(*args)
        again = parse_distribution(d.spec_string())
        assert again == d and hash(again) == hash(d)
        assert again.gamma == gamma
        if name == "trunc_t":
            assert again.p0 == p0
        shape = float(f"{gamma:g}")
        near, far = cls(shape * (1.0 + 1e-6), *args[1:]), cls(shape, *args[1:])  # 7th digit
        assert near != far and near.spec_string() != far.spec_string()

    def test_rejects_unknown(self):
        for spec in ("weibull:1", "", "Cauchy", "t 2", ":2"):
            with pytest.raises(DomainError) as err:
                parse_distribution(spec)
            assert str(err.value) == f"unknown distribution spec {spec!r}"

    def test_rejects_bad_parameters(self):
        # a bad shape or an unparseable one is TestFamilies' case
        for p0 in (1.5, 0.0, 1.0):
            with pytest.raises(DomainError) as err:
                parse_distribution(f"trunc_t:1:{p0}")
            assert str(err.value) == f"trunc_t: truncation threshold must be in (0,1), got {p0!r}"


class TestGeneralNuOracle:
    """Student t and inverse gamma against mpmath on a log grid of q in [1e-300, 1).

    ``scipy.stats.t.isf`` is not an oracle here: below q ~ 1e-220 it is wrong
    (at nu = 2.5, q = 1.53e-221 the sf of its answer is 9 q), and scipy's t sf
    underflows to 0 for x beyond about 1e154.  mpmath evaluates the exact sf
    of each returned double.
    """

    # 1 - 3e-4 puts the inverse gamma root with shape 1e-3 at 1/y, y / gamma > 700
    Q = np.concatenate([np.logspace(-300, 0, 61)[:-1], [0.2, 0.3, 0.45, 0.5 - 1e-9, 0.5,
                                                         0.55, 0.7, 0.9, 0.99, 1.0 - 3e-4,
                                                         1.0 - 1e-9]])
    NUS = (0.5, 1.5, 2.5, 3.0, 7.0)
    GAMMAS = (1e-5, 1e-3, 0.5, 1.0, 3.5)  # below 1/700, e^(-y/gamma) underflows in P
    TOL = 1e-14

    @staticmethod
    def t_sf(nu, x):
        nu = mpmath.mpf(nu)
        x = mpmath.mpf(float(x))
        half = mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + x * x), regularized=True) / 2
        return half if x >= 0 else 1 - half

    @staticmethod
    def inv_gamma_sf(g, x):
        return mpmath.gammainc(mpmath.mpf(g), 0, 1 / mpmath.mpf(float(x)), regularized=True)

    def check(self, d, sf_exact):
        x = np.asarray(d.inverse_survival(self.Q))
        sf = np.asarray(d.survival(x))
        with mpmath.workdps(30):
            overflow = sf_exact(MAX_DOUBLE)
            for q, xi, ours in zip(self.Q, x, sf):
                if xi == np.inf:  # the true isf overflows: quiet +inf
                    assert overflow > q, (d, q)
                    continue
                exact = sf_exact(xi)
                assert abs(exact / q - 1) <= self.TOL, (d, q, xi)  # isf round trip
                assert abs(ours / exact - 1) <= self.TOL, (d, q, xi)

    def test_student_t(self):
        for nu in self.NUS:
            self.check(StudentT(nu), lambda x, nu=nu: self.t_sf(nu, x))

    def test_inverse_gamma(self):
        for g in self.GAMMAS:
            self.check(InverseGamma(g), lambda x, g=g: self.inv_gamma_sf(g, x))

    def test_large_inverse_gamma_shape(self):
        # the incomplete gamma series and fraction need about 8 sqrt(shape) terms
        q = np.array([1e-10, 0.01, 0.3, 0.9])
        got = InverseGamma(1e4).inverse_survival(q)
        assert np.allclose(got, st.invgamma.isf(q, 1e4), rtol=1e-12, atol=0)

    def test_inverse_gamma_shape_bound(self):
        # the incomplete gamma's cost grows as sqrt(shape): inv_gamma:1e300 ran for minutes
        with pytest.raises(DomainError) as err:
            parse_distribution("inv_gamma:1e300")
        assert str(err.value) == "inv_gamma: tail index must be at most 1e+08, got 1e+300"
        assert InverseGamma(1e8).tail_index == 1e8

    @pytest.mark.parametrize("nu", [1e200, 1e300, MAX_DOUBLE])
    def test_huge_nu_is_the_normal_limit(self, nu):
        # Hill's start divided by (nu - 1/2)^-2, which underflows to 0 from about 7e161
        q = np.array([1e-300, 1e-20, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-9])
        d = StudentT(nu)
        assert np.allclose(d.inverse_survival(q), st.norm.isf(q), rtol=0, atol=1e-12)
        assert np.allclose(d.quantile(q), st.norm.ppf(q), rtol=0, atol=1e-12)
        assert parse_distribution(f"trunc_t:{nu!r}:0.5").inverse_survival(0.5) == pytest.approx(
            st.norm.isf(0.25), abs=1e-12)

    def test_integer_nu_centre(self):
        # integer nu takes the centre (sf >= 1/20) from the finite sums of
        # A&S 26.7.3-4, 1.7e-16 (nu = 7) and 3.1e-16 (nu = 20) off here; the
        # incomplete beta alone would be 1.2e-15 and 3.4e-15 off
        x = np.linspace(0.0, 1.6, 81)
        with mpmath.workdps(30):
            for nu in (7.0, 20.0):
                for xi, cdf in zip(x, StudentT(nu).cdf(x)):
                    assert abs(cdf / (1 - self.t_sf(nu, xi)) - 1) <= 1e-15, (nu, xi)

    @pytest.mark.parametrize("nu", [1000.5, 1e6 + 0.5, 1e12, 1e20])
    def test_large_nu_against_scipy(self, nu):
        # lgamma(nu/2 + 1/2) - lgamma(nu/2) cancelled and w = nu / (nu + x^2)
        # rounded towards 1: 4.5e-13 off at nu = 1000.5, 2e-4 at 1e12, and
        # t:1e20 gave 0.5 at x = 2
        x = np.linspace(-5.0, 8.0, 261)
        d = StudentT(nu)
        assert np.allclose(d.survival(x), st.t.sf(x, nu), rtol=5e-14, atol=0)
        q = np.logspace(-15, math.log10(0.45), 40)
        assert np.allclose(d.inverse_survival(q), st.t.isf(q, nu), rtol=1e-14, atol=0)

    def test_deep_tail_isf_is_finite_where_the_true_one_is(self):
        # t:1.5 at 1e-295 sits near 1e196; t:0.5 and inv_gamma:0.5 overflow
        x = StudentT(1.5).inverse_survival(1e-295)
        assert 1e195 < x < 1e197
        with mpmath.workdps(30):
            assert abs(self.t_sf(1.5, x) / 1e-295 - 1) <= self.TOL
        assert StudentT(0.5).inverse_survival(1e-200) == math.inf
        assert InverseGamma(0.5).inverse_survival(1e-200) == math.inf

    def test_t2_isf_at_subnormal_targets(self):
        # 2 / (4q(1 - q)) overflows below q = 2.8e-309; the isf is 7.07e154 at 1e-310
        q = np.array([5e-324, 1e-320, 1e-310, 2.5e-309, 2.0 ** -1022, 1e-300])
        got = StudentT(2.0).inverse_survival(q)
        with mpmath.workdps(40):
            for qi, xi in zip(q.tolist(), got.tolist()):
                m = mpmath.mpf(qi)
                exact = (1 - 2 * m) / mpmath.sqrt(2 * m * (1 - m))
                assert abs(xi - exact) <= 2 * math.ulp(float(exact)), qi

    @pytest.mark.filterwarnings("error")
    def test_extremes_are_quiet(self):
        q = np.array([5e-324, 1e-320, 1e-300, 1e-200, 1e-100, 1e-10, 0.25, 0.5, 0.75, 1.0])
        dists = [StudentT(nu) for nu in self.NUS] + [InverseGamma(g) for g in self.GAMMAS]
        dists += [TruncatedT(nu, 0.9) for nu in self.NUS]
        for d in dists:
            x = np.asarray(d.inverse_survival(q))
            assert not np.isnan(x).any(), d
            assert np.all(x[1:] <= x[:-1]), d
            sf = np.asarray(d.survival(x))
            assert np.all((sf >= 0.0) & (sf <= 1.0)), d
            u = np.asarray(d.quantile(q[:-1]))
            assert not np.isnan(u).any() and np.all(u[1:] >= u[:-1]), d
            assert not np.isnan(np.asarray(d.cdf(u))).any(), d

    def test_inv_gamma_1_is_frechet_1(self):
        ig, fr = InverseGamma(1.0), Frechet(1.0)
        q = np.concatenate([np.logspace(-300, 0, 31), [0.3, 0.5, 0.9]])
        assert np.array_equal(ig.inverse_survival(q), fr.inverse_survival(q))
        assert np.array_equal(ig.quantile(q[:-4]), fr.quantile(q[:-4]))
        x = np.logspace(-300, 300, 61)
        assert np.array_equal(ig.survival(x), fr.survival(x))
        assert np.array_equal(ig.cdf(x), fr.cdf(x))
        assert ig.inverse_survival(0.25) == -1.0 / math.log1p(-0.25)
