
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.stats as st

from heavycomb.combine import (
    _bonferroni_statistic,
    _combine_rows,
    _weighted_sum,
    bh_adjust,
    bonferroni,
    bonferroni_as_max_statistic,
    combine_average,
    combine_standard,
    combine_weighted,
    fisher,
    transform,
)
from heavycomb.distributions import (
    Cauchy,
    Frechet,
    Levy,
    Pareto,
    StudentT,
    TruncatedT,
    parse_distribution,
)
from heavycomb.errors import DomainError, MethodMisuseError, ShapeError


def bisect_inverse(fn, target, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTransform:
    def test_cauchy_points(self):
        x = transform([0.5, 0.25], Cauchy())
        assert x[0] == 0.0
        assert x[1] == pytest.approx(1.0, abs=1e-12)

    def test_pareto_against_bisection(self):
        d = Pareto(1.0)
        oracle = bisect_inverse(d.survival, 0.1, 1.0, 1e6)
        assert transform([0.1], d)[0] == pytest.approx(oracle, rel=1e-9)
        assert transform([0.1], d)[0] == pytest.approx(10.0, rel=1e-12)

    def test_strictly_decreasing_in_p(self):
        ps = np.linspace(0.001, 1.0, 200)
        for d in (Cauchy(), Pareto(1.0), Levy(), TruncatedT(1.0, 0.9)):
            x = transform(ps, d)
            assert np.all(np.diff(x) < 0), d

    def test_p_of_one_maps_to_support_bound(self):
        assert transform([1.0], Pareto(2.0))[0] == 1.0
        assert transform([1.0], Levy())[0] == 0.0
        d = TruncatedT(1.0, 0.9)
        assert transform([1.0], d)[0] == d.c
        # unbounded support: substituted by the most negative double
        assert transform([1.0], Cauchy())[0] == -1.7976931348623157e308

    def test_rejects_zero_and_out_of_range(self):
        with pytest.raises(DomainError):
            transform([0.0], Cauchy())
        with pytest.raises(DomainError):
            transform([1.2], Cauchy())
        with pytest.raises(DomainError):
            transform([-0.1], Cauchy())
        for shape in ([], [[0.1, 0.2]]):
            with pytest.raises(ShapeError, match="nonempty 1-D vector"):
                transform(shape, Cauchy())


class TestCombineStandard:
    def test_two_halves(self):
        res = combine_standard([0.5, 0.5], Cauchy())
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.combined_p == 1.0  # clamped from 2 * 0.5

    def test_single_p_is_identity(self):
        for d in (Cauchy(), Pareto(1.0), Levy(), Frechet(2.0), TruncatedT(1.0, 0.9)):
            assert combine_standard([0.05], d).combined_p == pytest.approx(0.05, abs=1e-12)

    def test_cauchy_frozen_example(self):
        # mpmath: S = tan(0.49 pi) = 31.8205159537739580..., combined p = 0.02
        res = combine_standard([0.01, 0.5], Cauchy())
        assert res.statistic == pytest.approx(31.820515953773958, rel=1e-14)
        assert res.combined_p == pytest.approx(0.02, rel=1e-13)

    def test_saturation_flag(self):
        assert combine_standard([1.0, 0.2], Cauchy()).saturated
        assert not combine_standard([0.9, 0.2], Cauchy()).saturated
        assert not combine_standard([1.0, 0.2], Pareto(1.0)).saturated


class TestSaturationIsQuiet:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extremes_emit_no_warning(self):
        # two p = 1 give -MAX + -MAX = -inf: statistic -inf, combined p 1
        res = combine_standard([1.0, 1.0, 0.001], Cauchy())
        assert res.statistic == -math.inf
        assert res.combined_p == 1.0
        # the overflowed transform wins the NaN sum, in either order
        for p in ([1.0, 1.0, 5e-324], [5e-324, 1.0, 1.0]):
            res = combine_standard(p, Cauchy())
            assert res.statistic == math.inf
            assert res.combined_p == np.finfo(float).tiny
        # trunc_t with p0 <= 1/2 takes q * p0, which rounds to 0, as +inf
        for spec in ("cauchy", "frechet:1", "trunc_t:1:0.9", "trunc_t:2:0.5", "trunc_t:3:0.1"):
            assert parse_distribution(spec).inverse_survival(5e-324) == math.inf
        # t:2 stays finite: 1 / sqrt(2q)
        assert parse_distribution("t:2").inverse_survival(5e-324) == 1.0 / math.sqrt(1e-323)


class TestCombineAverage:
    def test_two_halves(self):
        assert combine_average([0.5, 0.5], Cauchy()).combined_p == pytest.approx(0.5, abs=1e-12)

    def test_constant_vector_reproduces_p(self):
        for n in (2, 3, 7):
            for p0 in (0.03, 0.4, 0.97):
                res = combine_average([p0] * n, Cauchy())
                assert res.combined_p == pytest.approx(p0, rel=1e-12)

    def test_pareto_frozen_example(self):
        # mpmath: M = 25.51020408163265306..., combined p = 0.0392
        res = combine_average([0.02, 0.98], Pareto(1.0))
        assert res.statistic == pytest.approx(25.510204081632654, rel=1e-14)
        assert res.combined_p == pytest.approx(0.0392, rel=1e-13)

    def test_requires_unit_tail_index(self):
        with pytest.raises(MethodMisuseError):
            combine_average([0.1, 0.2], Pareto(2.0))
        with pytest.raises(MethodMisuseError):
            combine_average([0.1, 0.2], Levy())

    def test_unit_tail_index_families_accepted(self):
        for d in (Cauchy(), Pareto(1.0), Frechet(1.0), StudentT(1.0), TruncatedT(1.0, 0.9)):
            combine_average([0.1, 0.2], d)


class TestCombineWeighted:
    def test_unit_weights_equal_standard_bitwise(self):
        rng = np.random.default_rng(0)
        for d in (Cauchy(), Pareto(0.7), Levy(), TruncatedT(2.0, 0.7)):
            for _ in range(20):
                p = rng.uniform(0.001, 1.0, size=rng.integers(1, 8))
                a = combine_weighted(p, np.ones(p.size), d)
                b = combine_standard(p, d)
                assert a.statistic == b.statistic and a.combined_p == b.combined_p

    def test_uniform_weights_equal_average_bitwise(self):
        rng = np.random.default_rng(1)
        for d in (Cauchy(), Pareto(1.0), TruncatedT(1.0, 0.9)):
            for _ in range(20):
                p = rng.uniform(0.001, 1.0, size=rng.integers(1, 8))
                a = combine_weighted(p, np.full(p.size, 1.0 / p.size), d)
                b = combine_average(p, d)
                assert a.statistic == b.statistic and a.combined_p == b.combined_p

    def test_equal_half_weights_match_average(self):
        a = combine_weighted([0.5, 0.5], [0.5, 0.5], Cauchy())
        assert a.combined_p == pytest.approx(0.5, abs=1e-12)

    def test_pareto_frozen_example(self):
        res = combine_weighted([0.1, 0.5], [2.0, 1.0], Pareto(1.0))
        assert res.statistic == pytest.approx(22.0, rel=1e-13)
        assert res.kappa == pytest.approx(3.0, abs=0)
        assert res.combined_p == pytest.approx(3.0 / 22.0, rel=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            combine_weighted([0.1, 0.2], [1.0], Cauchy())
        with pytest.raises(ShapeError, match="needs 2 weights, none were given"):
            combine_weighted([0.1, 0.2], None, Cauchy())

    def test_nonpositive_weights(self):
        with pytest.raises(DomainError):
            combine_weighted([0.1, 0.2], [1.0, 0.0], Cauchy())

    @pytest.mark.parametrize("w,outcome", [
        ([1e-200, 1e-200], "underflows to 0"),
        ([1e300, 1.0], "overflows"),
        ([5.6e102, 5.6e102], "overflows"),  # each power is finite, their sum is not
    ], ids=["underflow", "power-overflow", "sum-overflow"])
    def test_kappa_outside_the_doubles(self, w, outcome):
        # positive finite weights whose kappa = sum w_i^gamma is 0 or inf
        # have no combined p-value, and no RuntimeWarning escapes
        with pytest.raises(DomainError, match=(
                rf"^kappa, the sum of the weights to the power of the tail index 3.0, {outcome}$")):
            combine_weighted([0.1, 0.2], w, Pareto(3.0))

    def test_one_underflowed_power_keeps_kappa(self):
        res = combine_weighted([0.1, 0.2], [1e-200, 1.0], Pareto(3.0))
        assert res.kappa == 1.0
        assert res.combined_p == combine_standard([0.2], Pareto(3.0)).combined_p


class TestBonferroni:
    def test_equal_weights(self):
        res = bonferroni([0.01, 0.04, 0.9])
        assert res.combined_p == pytest.approx(0.03, rel=1e-13)
        assert not res.weights_normalized

    def test_given_weights(self):
        res = bonferroni([0.09, 0.02], [0.9, 0.1])
        assert res.combined_p == pytest.approx(0.1, rel=1e-13)

    def test_clamped(self):
        assert bonferroni([0.5, 0.5]).combined_p == 1.0

    def test_normalization_recorded(self):
        res = bonferroni([0.1, 0.2], [2.0, 2.0])
        assert res.weights_normalized
        assert res.combined_p == pytest.approx(0.2, rel=1e-13)

    def test_weights_whose_sum_overflows(self):
        # each weight is finite and their sum is not: the test of equal weights,
        # with no RuntimeWarning
        res, equal = bonferroni([0.1, 0.2], [1e308, 1e308]), bonferroni([0.1, 0.2])
        assert (res.statistic, res.combined_p) == (equal.statistic, equal.combined_p) == (0.2, 0.2)
        assert res.weights_normalized


class TestColumnReductions:
    """The block sum and minimum of a row keep its bits in any block."""

    @pytest.fixture
    def block(self):
        rng = np.random.default_rng(48)
        x = rng.standard_cauchy((300, 7)) * 10.0 ** rng.integers(-5, 300, (300, 7))
        x[5, 2], x[9, 0], x[9, 4], x[11, 1] = np.inf, np.inf, -np.inf, -np.inf
        return x

    def test_weighted_sum_is_the_left_to_right_row_sum(self, block):
        w = np.array([0.5, 2.0, 1.0, 3.0, 0.25, 1.5, 7.0])
        with np.errstate(over="ignore", invalid="ignore"):
            loop = [float(row[0] * w[0]) for row in block]
            for r, row in enumerate(block):
                for i in range(1, row.size):
                    loop[r] = loop[r] + float(row[i] * w[i])
        expected = np.array([math.inf if math.isnan(v) else v for v in loop])
        got = _weighted_sum(block, w)
        assert got.tobytes() == expected.tobytes()
        assert got[9] == math.inf  # +inf meeting -inf reads as +inf
        assert all(_weighted_sum(block[r:r + 1], w)[0] == got[r] for r in range(0, 300, 7))

    def test_bonferroni_statistic_is_the_row_minimum(self):
        p = 1.0 - np.random.default_rng(49).random((300, 7))
        w = np.linspace(0.05, 0.3, 7)
        assert _bonferroni_statistic(p, w).tobytes() == (p / w).min(axis=-1).tobytes()
        assert _bonferroni_statistic(p).tobytes() == p.min(axis=-1).tobytes()
        assert _bonferroni_statistic(p[3], w) == (p[3] / w).min()


    @pytest.mark.parametrize("spec", ["t:2.5", "t:3", "t:150", "trunc_t:3:0.9", "inv_gamma:1"])
    def test_block_rows_match_one_row_calls(self, spec):
        # the file commands' batched core; its transforms iterate per lane
        d = parse_distribution(spec)
        rng = np.random.default_rng(52)
        p = rng.uniform(size=(256, 6))
        p[::7, 0] = 10.0 ** rng.uniform(-300.0, -2.0, p[::7, 0].size)
        rows = _combine_rows("standard", p, d)
        one = [combine_standard(row, d) for row in p]
        assert rows.statistic.tolist() == [r.statistic for r in one]
        assert rows.combined_p.tolist() == [r.combined_p for r in one]


class TestBonferroniMaxStatistic:
    def test_rejects_small_p(self):
        assert bonferroni_as_max_statistic([0.01, 0.5], [1.0, 1.0], Cauchy(), 0.05)

    def test_accepts_borderline(self):
        assert not bonferroni_as_max_statistic([0.03, 0.5], [1.0, 1.0], Cauchy(), 0.05)

    def test_agreement_with_decision_rule_pareto(self):
        # exact power-law tails make the rewrite exact for arbitrary weights
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            gamma = float(rng.choice([0.5, 1.0, 1.5]))
            n = int(rng.integers(1, 7))
            p = rng.uniform(1e-6, 1.0, n)
            w = rng.uniform(0.1, 10.0, n)
            kappa = float(np.sum(w**gamma))
            alpha = float(rng.uniform(1e-6, min(0.25, 0.9 * kappa)))
            d = Pareto(gamma)
            mapped = w**gamma / kappa
            ref = bool(np.min(p / mapped) < alpha)
            assert bonferroni_as_max_statistic(p, w, d, alpha) == ref

    def test_threshold_collapses_when_alpha_exceeds_kappa(self):
        # kappa < alpha pushes the quantile level past 1; the threshold then
        # sits at the lower support bound: unbounded-below families reject
        # almost surely, bounded ones whenever a score clears the bound
        w = [0.001, 0.001]  # kappa = 0.002 << alpha
        assert bonferroni_as_max_statistic([0.5, 0.9], w, Cauchy(), 0.05)
        assert not bonferroni_as_max_statistic([0.5, 0.9], w, Pareto(1.0), 0.05)
        assert bonferroni_as_max_statistic([1e-4, 0.9], w, Pareto(1.0), 0.05)

    def test_equal_weight_agreement_across_families(self):
        rng = np.random.default_rng(43)
        dists = [Cauchy(), Levy(), Frechet(1.0), StudentT(2.0), TruncatedT(1.0, 0.9)]
        for _ in range(2_000):
            d = dists[int(rng.integers(len(dists)))]
            n = int(rng.integers(1, 7))
            p = rng.uniform(1e-6, 1.0, n)
            alpha = float(rng.uniform(1e-4, 0.25))
            ref = bool(n * p.min() < alpha)
            assert bonferroni_as_max_statistic(p, np.ones(n), d, alpha) == ref


class TestFisher:
    def test_single_p_identity(self):
        assert fisher([0.2]).combined_p == pytest.approx(0.2, rel=1e-13)

    def test_all_ones(self):
        res = fisher([1.0, 1.0])
        assert res.statistic == 0.0
        assert res.combined_p == 1.0

    def test_frozen_example(self):
        # mpmath: stat = -4 log(0.05) = 11.98292909421596..., p = 0.01747866136776995
        res = fisher([0.05, 0.05])
        assert res.statistic == pytest.approx(11.982929094215963, rel=1e-14)
        assert res.combined_p == pytest.approx(0.017478661367769955, rel=1e-13)

    def test_against_poisson_sum(self):
        # the chi-square(2n) survival at 2y is e^-y sum_{j<n} y^j / j!; mpmath
        # evaluates it at the returned statistic.  Beyond y = 708 the sum's
        # scale is one exponential of a logarithm near y, so about y * eps.
        with mpmath.workdps(30):
            for n in range(1, 61):
                for y in np.logspace(-3, math.log10(900.0), 40):
                    p = np.full(n, math.exp(-y / n))
                    if p[0] == 0.0:
                        continue
                    res = fisher(p)
                    half = mpmath.mpf(res.statistic) / 2
                    exact = mpmath.exp(-half) * mpmath.fsum(
                        half ** j / mpmath.factorial(j) for j in range(n))
                    if exact < sys.float_info.min:
                        assert res.combined_p == sys.float_info.min, (n, y)
                        continue
                    tol = 2e-15 if half < 708 else 1.5e-13
                    assert abs(res.combined_p / exact - 1) <= tol, (n, y)

    def test_against_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.uniform(0.001, 1.0, size=rng.integers(1, 10))
            stat, ref = st.combine_pvalues(p, method="fisher")
            res = fisher(p)
            assert res.statistic == pytest.approx(stat, rel=1e-12)
            assert res.combined_p == pytest.approx(ref, rel=1e-9)


class TestBhAdjust:
    def test_step_up_hand_example(self):
        assert np.allclose(bh_adjust([0.01, 0.02, 0.03, 0.04]), [0.04] * 4, rtol=1e-13)

    def test_singleton_identity(self):
        assert bh_adjust([0.37])[0] == pytest.approx(0.37, abs=0)

    def test_two_values(self):
        adj = bh_adjust([0.001, 1.0])
        assert adj[0] == pytest.approx(0.002, rel=1e-13)
        assert adj[1] == 1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.uniform(1e-6, 1.0, size=rng.integers(1, 40))
            assert np.allclose(bh_adjust(p), st.false_discovery_control(p, method="bh"), rtol=1e-12)

    def test_monotone_in_sorted_order(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0, 1, 100) + 1e-9
        adj = bh_adjust(p)
        order = np.argsort(p)
        assert np.all(np.diff(adj[order]) >= -1e-15)


class TestMonotonicityInEachP:
    def test_all_methods(self):
        rng = np.random.default_rng(7)
        dists = [Cauchy(), Pareto(1.0), Levy(), TruncatedT(1.0, 0.9), Frechet(1.0)]
        for _ in range(60):
            n = int(rng.integers(2, 7))
            p = rng.uniform(0.01, 1.0, n)
            i = int(rng.integers(n))
            q = p.copy()
            q[i] = p[i] * rng.uniform(0.05, 0.95)
            d = dists[int(rng.integers(len(dists)))]
            w = rng.uniform(0.5, 2.0, n)
            assert combine_standard(q, d).combined_p <= combine_standard(p, d).combined_p
            assert combine_weighted(q, w, d).combined_p <= combine_weighted(p, w, d).combined_p
            assert bonferroni(q, w).combined_p <= bonferroni(p, w).combined_p
            assert fisher(q).combined_p <= fisher(p).combined_p
            if abs(d.tail_index - 1.0) < 1e-12:
                assert combine_average(q, d).combined_p <= combine_average(p, d).combined_p

    def test_combined_p_always_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            p = rng.uniform(0.0, 1.0, n)
            p[p == 0.0] = 1e-12
            for d in (Cauchy(), Pareto(0.5), Levy()):
                res = combine_standard(p, d)
                assert 0.0 < res.combined_p <= 1.0


class TestPerfectCorrelationLimit:
    """All-equal p-values: rejection probability F_bar(Q(1-a/n)/n) over alpha
    approaches n^(gamma-1) as alpha -> 0 (equal weights)."""

    @staticmethod
    def ratio(d, n, alpha):
        threshold = float(d.inverse_survival(alpha / n)) / n
        return float(d.survival(threshold)) / alpha

    def test_cauchy(self):
        r = self.ratio(Cauchy(), 5, 1e-6)
        assert abs(r - 1.0) / 1.0 <= 0.02

    def test_levy_n5(self):
        r = self.ratio(Levy(), 5, 1e-6)
        limit = 5.0 ** -0.5
        assert abs(r - limit) / limit <= 0.02

    def test_pareto_exact(self):
        assert self.ratio(Pareto(1.0), 5, 1e-6) == pytest.approx(1.0, rel=1e-12)
