import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heavycomb import closed_testing
from heavycomb.closed_testing import closed_test_bruteforce, closed_test_shortcut
from heavycomb.combine import combine_standard
from heavycomb.distributions import Cauchy, Levy, Pareto, TruncatedT, parse_distribution
from heavycomb.errors import CapacityError, DomainError

# mpmath: P_{12} = 2 * F_bar(H(0.01) + H(0.02)) = 0.0133401609348637792449
P12_CAUCHY = 0.013340160934863779


def random_instance(rng):
    n = int(rng.integers(1, 11))
    if rng.random() < 0.5:
        p = rng.uniform(1e-5, 1.0, n)
    else:
        # highly correlated copies: a base value plus small jitter
        base = rng.uniform(1e-4, 0.99)
        p = np.clip(base * (1.0 + 0.01 * rng.standard_normal(n)), 1e-6, 1.0)
    alpha = float(rng.choice([0.01, 0.05, 0.2]))
    return p, alpha


class TestExamples:
    def test_single_hypothesis(self):
        res = closed_test_shortcut([0.03], Cauchy(), 0.05)
        assert res.rejected.tolist() == [True]
        assert res.adjusted_p[0] == pytest.approx(0.03, abs=1e-15)
        assert res.rejection_cut == 2

    def test_two_halves_nothing_rejected(self):
        res = closed_test_shortcut([0.5, 0.5], Cauchy(), 0.049)
        assert np.allclose(res.adjusted_p, [1.0, 1.0])
        assert not res.rejected.any()
        assert res.rejection_cut == 1

    def test_pairwise_frozen_values(self):
        res = closed_test_bruteforce([0.01, 0.02], Cauchy(), 0.05)
        assert res.adjusted_p[0] == pytest.approx(max(0.01, P12_CAUCHY), rel=1e-13)
        assert res.adjusted_p[1] == pytest.approx(max(0.02, P12_CAUCHY), rel=1e-13)
        assert res.rejected.tolist() == [True, True]

    def test_single_matches_bruteforce(self):
        a = closed_test_shortcut([0.03], Pareto(1.0), 0.05)
        b = closed_test_bruteforce([0.03], Pareto(1.0), 0.05)
        assert a.adjusted_p[0] == b.adjusted_p[0]
        assert a.rejected.tolist() == b.rejected.tolist()

    def test_p_equal_to_alpha_is_rejected_by_both(self):
        # t:2's sf(isf(0.01)) rounds above 0.01; a singleton's p is exact
        d = parse_distribution("t:2")
        for res in (closed_test_shortcut([0.01], d, 0.01), closed_test_bruteforce([0.01], d, 0.01)):
            assert res.adjusted_p[0] == 0.01
            assert res.rejected.tolist() == [True]


class TestShortcutEqualsBruteForce:
    DISTS = [Cauchy(), Pareto(1.0), TruncatedT(1.0, 0.9), Levy()]

    def test_random_instances(self):
        rng = np.random.default_rng(20240712)
        for k in range(400):
            p, alpha = random_instance(rng)
            d = self.DISTS[k % len(self.DISTS)]
            a = closed_test_shortcut(p, d, alpha)
            b = closed_test_bruteforce(p, d, alpha)
            assert a.rejected.tolist() == b.rejected.tolist(), (p, alpha, d)
            assert a.rejection_cut == b.rejection_cut
            assert np.max(np.abs(a.adjusted_p - b.adjusted_p)) <= 1e-12

    def test_exhaustive_n3_grid(self):
        grid = [0.001, 0.01, 0.1, 0.5]
        d = Cauchy()
        for p1 in grid:
            for p2 in grid:
                for p3 in grid:
                    p = [p1, p2, p3]
                    a = closed_test_shortcut(p, d, 0.05)
                    b = closed_test_bruteforce(p, d, 0.05)
                    assert a.rejected.tolist() == b.rejected.tolist(), p
                    assert np.max(np.abs(a.adjusted_p - b.adjusted_p)) <= 1e-12

    def test_pvalue_of_one_included(self):
        p = [0.001, 0.02, 1.0]
        a = closed_test_shortcut(p, Cauchy(), 0.05)
        b = closed_test_bruteforce(p, Cauchy(), 0.05)
        assert a.rejected.tolist() == b.rejected.tolist()
        assert np.max(np.abs(a.adjusted_p - b.adjusted_p)) <= 1e-12


# p-values from (0, 1]: exact 1, the smallest subnormal, and repeats drawn
# from a small pool so that groups hold ties
_SPECIAL_P = st.sampled_from([1.0, 5e-324, 1e-300, 1e-8, 0.5])
_ANY_P = st.floats(min_value=5e-324, max_value=1.0, allow_subnormal=True)


@st.composite
def _groups(draw):
    pool = draw(st.lists(st.one_of(_SPECIAL_P, _ANY_P), min_size=1, max_size=12))
    n = draw(st.integers(1, 12))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=_groups(),
       spec=st.sampled_from(["cauchy", "levy", "t:2", "trunc_t:1:0.9", "trunc_t:2:0.5",
                             "trunc_t:3:0.1", "pareto:1"]),
       alpha=st.sampled_from([0.01, 0.05, 0.2]))
def test_shortcut_equals_bruteforce_property(p, spec, alpha):
    d = parse_distribution(spec)
    a = closed_test_shortcut(p, d, alpha)
    b = closed_test_bruteforce(p, d, alpha)
    assert a.rejected.tolist() == b.rejected.tolist()
    assert a.rejection_cut == b.rejection_cut
    assert np.max(np.abs(a.adjusted_p - b.adjusted_p)) <= 1e-12


def _adjusted_one_at_a_time(p, d):
    """The shortcut's adjusted p-values, one hypothesis per survival call."""
    order = np.argsort(p, kind="stable")
    ps = p[order]
    n = ps.size
    x = np.asarray(d.inverse_survival(ps), dtype=np.float64)
    k = np.arange(2, n + 1)
    out = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        suffix = np.concatenate(([0.0], np.cumsum(x[::-1])))
        suffix[np.isnan(suffix)] = np.inf
        for j in range(n):
            s = np.maximum(x[j], x[n - k]) + suffix[k - 1]
            s[np.isnan(s)] = np.inf
            p_jk = np.minimum(k * np.asarray(d.survival(s), dtype=np.float64), 1.0)
            out[order[j]] = max(ps[j], float(p_jk.max(initial=0.0)))
    return out


class TestChunkedAdjustedP:
    """The adjusted p-values are formed in blocks of at most ``_CHUNK`` elements."""

    @staticmethod
    def _group(n, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(1e-6, 1.0, n)
        p[rng.integers(n, size=n // 10)] = 1e-300
        p[rng.integers(n, size=3)] = 1.0
        p[rng.integers(n)] = 5e-324
        return p

    def test_group_spanning_several_chunks(self):
        p = self._group(1500, 15)  # 1500 * 1499 elements: three blocks of rows
        assert p.size * (p.size - 1) > 2 * closed_testing._CHUNK
        d = Cauchy()
        res = closed_test_shortcut(p, d, 0.05)
        np.testing.assert_array_equal(res.adjusted_p, _adjusted_one_at_a_time(p, d))

    @pytest.mark.parametrize("chunk", [1, 7, 39, 40, 41, 1000])
    def test_any_chunk_size(self, monkeypatch, chunk):
        # below n - 1 a block is part of one hypothesis's row
        p = self._group(41, 16)
        d = Levy()
        whole = closed_test_shortcut(p, d, 0.05)
        monkeypatch.setattr(closed_testing, "_CHUNK", chunk)
        res = closed_test_shortcut(p, d, 0.05)
        np.testing.assert_array_equal(res.adjusted_p, whole.adjusted_p)
        np.testing.assert_array_equal(res.adjusted_p, _adjusted_one_at_a_time(p, d))


class TestOverflowedTransform:
    """p = 5e-324 overflows the transform to +inf; p = 1 maps to -inf (or -MAX).

    Their NaN sum reads as +inf, so the shortcut matches the brute force
    and the combined p-value does not depend on the input order.
    """

    CASES = [[5e-324, 1.0], [5e-324, 5e-324, 1.0, 1.0], [1e-300, 1.0, 1.0],
             [1.0, 5e-324, 1.0, 0.2]]

    @pytest.mark.parametrize("spec", ["cauchy", "t:2", "trunc_t:1:0.9", "trunc_t:2:0.9",
                                      "frechet:1", "pareto:1", "levy", "log_cauchy"])
    def test_every_order_agrees(self, spec):
        d = parse_distribution(spec)
        for case in self.CASES:
            combined = set()
            for p in sorted(set(itertools.permutations(case))):
                a = closed_test_shortcut(p, d, 0.05)
                b = closed_test_bruteforce(p, d, 0.05)
                assert a.rejected.tolist() == b.rejected.tolist(), p
                assert a.rejection_cut == b.rejection_cut
                assert np.max(np.abs(a.adjusted_p - b.adjusted_p)) <= 1e-12
                res = combine_standard(p, d)
                combined.add((res.statistic, res.combined_p))
            assert len(combined) == 1, (case, combined)


class TestStructuralProperties:
    def test_adjusted_at_least_raw(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p, alpha = random_instance(rng)
            res = closed_test_shortcut(p, Cauchy(), alpha)
            assert np.all(res.adjusted_p >= p - 1e-15)

    def test_rejections_monotone_in_alpha(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            p, _ = random_instance(rng)
            r1 = closed_test_shortcut(p, Cauchy(), 0.01).rejected
            r2 = closed_test_shortcut(p, Cauchy(), 0.05).rejected
            r3 = closed_test_shortcut(p, Cauchy(), 0.2).rejected
            assert np.all(r2[r1])  # r1 subset of r2
            assert np.all(r3[r2])

    def test_rejection_is_prefix_of_sorted_order(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p, alpha = random_instance(rng)
            res = closed_test_shortcut(p, Cauchy(), alpha)
            order = np.argsort(p, kind="stable")
            flags = res.rejected[order]
            assert res.rejection_cut == int(flags.sum()) + 1
            assert np.all(flags[: int(flags.sum())])

    def test_decisions_consistent_with_adjusted(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p, alpha = random_instance(rng)
            res = closed_test_shortcut(p, Cauchy(), alpha)
            assert np.array_equal(res.rejected, res.adjusted_p <= alpha)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            closed_test_shortcut([0.1], Cauchy(), 0.0)
        with pytest.raises(DomainError):
            closed_test_shortcut([0.1], Cauchy(), 1.0)


class TestScaling:
    def test_bruteforce_capacity(self):
        with pytest.raises(CapacityError):
            closed_test_bruteforce([0.5] * 21, Cauchy(), 0.05)

    def test_shortcut_handles_n_1000(self):
        rng = np.random.default_rng(14)
        p = rng.uniform(1e-6, 1.0, 1000)
        start = time.perf_counter()
        res = closed_test_shortcut(p, Cauchy(), 0.05)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert res.adjusted_p.shape == (1000,)
        assert np.all(res.adjusted_p >= p - 1e-15)
