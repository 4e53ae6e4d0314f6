import dataclasses
import math
import os
import re
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings, strategies as hst

from heavycomb import cli, combine, presets, simulate
from heavycomb.distributions import Cauchy, Levy, LogCauchy, Pareto, StudentT, parse_distribution
from heavycomb.errors import ConfigError, DomainError, InsufficientEventsError
from heavycomb.simulate import (
    BLOCK_SIZE,
    ExchangeableModel,
    ExperimentConfig,
    MethodSpec,
    calibrate_minp,
    chi_square_upper_quantile,
    estimate_equivalence_ratio,
    estimate_rejection_rate,
    pvalue_covariance,
    _compile_method,
    _compile_methods,
    _cov_moments,
    _cuts,
    _draw,
    _equivalence_plan,
    _equivalence_reports,
    _equivalence_tallies,
    _minp_calibrations,
    _rate_counts,
    _rejection_reports,
    _run_blocks,
    replication_rng,
    sample_statistics,
    statistics_to_pvalues,
    tail_dependence_t,
)


class TestModelValidation:
    def test_rho_constraint_message(self):
        with pytest.raises(ConfigError, match=r"-1/\(n-1\)"):
            ExchangeableModel("normal", 5, -0.3)

    def test_rho_upper_bound(self):
        with pytest.raises(ConfigError):
            ExchangeableModel("normal", 5, 1.2)
        ExchangeableModel("normal", 5, 1.0)  # rho = 1 admissible

    def test_family_and_nu(self):
        with pytest.raises(ConfigError):
            ExchangeableModel("poisson", 3, 0.0)
        with pytest.raises(ConfigError):
            ExchangeableModel("student_t", 3, 0.0)  # missing nu

    def test_mean_length(self):
        with pytest.raises(ConfigError):
            ExchangeableModel("normal", 3, 0.0, mean=(1.0, 2.0))

    def test_nu_must_be_finite(self):
        with pytest.raises(ConfigError, match="finite degrees of freedom, got nu=inf"):
            ExchangeableModel("student_t", 3, 0.2, nu=math.inf)

    @pytest.mark.parametrize("n", [10**400, 1e300])
    def test_n_beyond_any_array_is_a_config_error(self, n):
        # not an OverflowError from -1/(n-1)
        with pytest.raises(ConfigError, match="n must fit an array dimension"):
            ExchangeableModel("normal", n, 0.5)

    def test_nan_mean_named(self):
        with pytest.raises(ConfigError, match=r"mean vector has a NaN entry: \(0.0, nan, 1.0\)"):
            ExchangeableModel("normal", 3, 0.0, mean=(0.0, math.nan, 1.0))

    def test_infinite_mean_rejects_always(self):
        # +inf floors its p-value at the smallest double; -inf gives p = 1
        model = ExchangeableModel("normal", 3, 0.5, mean=(math.inf, -math.inf, 0.0))
        methods = (MethodSpec("standard", "cauchy"), MethodSpec("bonferroni"),
                   MethodSpec("fisher"), MethodSpec("minp", cutoff=0.02))
        report = estimate_rejection_rate(ExperimentConfig(model, methods, (0.05,), 1000, 3))
        assert [row.rejections for row in report.rows] == [1000] * 4


class TestLibrarySettings:
    """The dataclasses check the values they take, as the CLI's config reader did:
    a ConfigError that names the key, and no conversion of a value's type."""

    @pytest.mark.parametrize("build,message", [
        (lambda: ExchangeableModel("normal", 2, "0.5"), "rho must be a number, got '0.5'"),
        (lambda: ExchangeableModel("student_t", 2, 0.5, nu="3"), "nu must be a number, got '3'"),
        (lambda: ExchangeableModel("normal", 2, 0.5, nu=10**400),
         "nu must be a number within the double range"),
        (lambda: ExchangeableModel("normal", 2, 0.5, nu=3),
         "nu does not apply to the normal family, got nu=3"),
        (lambda: ExchangeableModel("normal", 2, 0.5, mean=("a", "b")),
         "mean must be a number, got 'a'"),
        (lambda: ExchangeableModel("normal", 2, True), "rho must be a number, got True"),
        (lambda: MethodSpec("weighted", "cauchy", weights="ab"),
         "weights must be a number, got 'ab'"),
        (lambda: MethodSpec("bonferroni", weights=(1.0, None)), "weights must be a number, got None"),
        (lambda: MethodSpec("minp", cutoff="0.1"), "cutoff must be a number, got '0.1'"),
        (lambda: MethodSpec("minp", cutoff=0.1, label=3),
         "label must be a string with no comma or line break, got 3"),
        (lambda: MethodSpec("fisher", label="a\nb"),
         "label must be a string with no comma or line break, got 'a\\nb'"),
    ], ids=["rho-str", "nu-str", "nu-1e400-int", "nu-on-normal", "mean-str", "rho-bool",
            "weights-str", "weights-none", "cutoff-str", "label-int", "label-newline"])
    def test_wrong_value_names_its_key(self, build, message):
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == message

    def test_sequences_are_tuples_of_the_same_values(self):
        listed = ExchangeableModel("normal", 2, 0.5, mean=[1.0, 2.0])
        assert listed == ExchangeableModel("normal", 2, 0.5, mean=(1.0, 2.0))
        assert hash(listed) == hash(ExchangeableModel("normal", 2, 0.5, mean=(1.0, 2.0)))
        assert MethodSpec("bonferroni", weights=[1, 2]).weights == (1, 2)
        assert MethodSpec("bonferroni", weights=np.ones(2)).weights == (1.0, 1.0)
        model = ExchangeableModel("student_t", 2, 0, nu=3, mean=(0, 1))
        assert (type(model.rho), type(model.nu), type(model.mean[1])) == (int, int, int)
        assert type(MethodSpec("minp", cutoff=np.float64(0.1)).cutoff) is np.float64


class TestSampler:
    def test_iid_moments(self):
        model = ExchangeableModel("normal", 4, 0.0)
        t = sample_statistics(model, replication_rng(1, 0), 100_000)
        se_mean = 1.0 / math.sqrt(100_000)
        assert np.all(np.abs(t.mean(axis=0)) < 4 * se_mean)
        se_var = math.sqrt(2.0 / 100_000)
        assert np.all(np.abs(t.var(axis=0) - 1.0) < 4 * se_var)

    @pytest.mark.parametrize("rho", [-0.2, 0.0, 0.5, 0.9, 0.99])
    def test_exchangeable_correlation(self, rho):
        model = ExchangeableModel("normal", 5, rho)
        t = sample_statistics(model, replication_rng(2, 0), 100_000)
        corr = np.corrcoef(t.T)
        off = corr[np.triu_indices(5, 1)]
        assert np.all(np.abs(off - rho) < 0.02), (rho, off)
        assert np.allclose(np.diag(corr), 1.0)

    def test_student_t_marginal_variance_heavy(self):
        # nu=2 has infinite variance; check median absolute deviation instead
        model = ExchangeableModel("student_t", 2, 0.0, nu=2)
        t = sample_statistics(model, replication_rng(3, 0), 200_000)
        # median of |T| for t2 is its 0.75 quantile = sqrt(2)*... use scipy
        expected = st.t(2).ppf(0.75)
        assert np.median(np.abs(t)) == pytest.approx(expected, rel=0.02)

    def test_mean_shift_applied_after_scaling(self):
        model = ExchangeableModel("student_t", 3, 0.0, nu=2, mean=(0.0, 0.0, 4.0))
        t = sample_statistics(model, replication_rng(4, 0), 200_000)
        assert abs(np.median(t[:, 2]) - 4.0) < 0.05
        assert abs(np.median(t[:, 0])) < 0.05

    def test_single_draw_shape(self):
        model = ExchangeableModel("normal", 3, 0.5)
        t = sample_statistics(model, replication_rng(5, 0))
        assert t.shape == (3,)


    @pytest.mark.parametrize("model", [
        ExchangeableModel("normal", 4, -0.2),
        ExchangeableModel("normal", 3, 1.0, mean=(0.0, 1.5, -2.0)),
        ExchangeableModel("student_t", 5, 0.7, nu=2, sided="two_sided"),
        ExchangeableModel("student_t", 2, 0.3, nu=3.5, mean=(1.0, 0.0)),
    ], ids=["normal", "normal-rho1-mean", "t2", "t3.5-mean"])
    def test_bits_of_the_spectral_form(self, model):
        # the formula the block pass splits into a shared draw and a per-rho shape
        rng = replication_rng(41, 3)
        z = rng.standard_normal((5000, model.n))
        zbar = z.mean(axis=1, keepdims=True)
        lam1 = max(1.0 + (model.n - 1) * model.rho, 0.0)
        x = math.sqrt(max(1.0 - model.rho, 0.0)) * (z - zbar) + math.sqrt(lam1) * zbar
        if model.family == "student_t":
            x = x / np.sqrt(rng.chisquare(model.nu, size=(5000, 1)) / model.nu)
        expected = x + model.mean_vector()
        got = sample_statistics(model, replication_rng(41, 3), 5000)
        assert got.tobytes() == expected.tobytes()


class TestPValues:
    def test_normal_one_sided_center(self):
        model = ExchangeableModel("normal", 1, 0.0)
        assert statistics_to_pvalues(np.array([[0.0]]), model)[0, 0] == 0.5

    def test_normal_two_sided_quantile(self):
        model = ExchangeableModel("normal", 1, 0.0, sided="two_sided")
        p = statistics_to_pvalues(np.array([[1.959964]]), model)[0, 0]
        assert p == pytest.approx(0.05, abs=1e-7)

    def test_t_center(self):
        model = ExchangeableModel("student_t", 1, 0.0, nu=2)
        assert statistics_to_pvalues(np.array([[0.0]]), model)[0, 0] == 0.5

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.5])
    def test_t_against_scipy(self, nu):
        model = ExchangeableModel("student_t", 1, 0.0, nu=nu)
        ts = np.linspace(-30, 30, 121).reshape(-1, 1)
        ours = statistics_to_pvalues(ts, model).ravel()
        assert np.allclose(ours, st.t(nu).sf(ts.ravel()), rtol=1e-9, atol=1e-300)

    def test_two_sided_t(self):
        model = ExchangeableModel("student_t", 1, 0.0, nu=2, sided="two_sided")
        ts = np.linspace(-8, 8, 33).reshape(-1, 1)
        ours = statistics_to_pvalues(ts, model).ravel()
        assert np.allclose(ours, 2 * st.t(2).sf(np.abs(ts.ravel())), rtol=1e-9)

    def test_null_uniformity_dkw(self):
        # empirical CDF of each marginal p-value within the DKW-style band
        r = 100_000
        bound = 3.0 * math.sqrt(math.log(2.0 / 1e-3) / (2.0 * r))
        for model in (
            ExchangeableModel("normal", 3, 0.6, sided="one_sided"),
            ExchangeableModel("normal", 3, 0.6, sided="two_sided"),
            ExchangeableModel("student_t", 3, 0.5, nu=2, sided="one_sided"),
        ):
            t = sample_statistics(model, replication_rng(6, 0), r)
            p = statistics_to_pvalues(t, model)
            grid = np.linspace(0.001, 0.999, 200)
            for j in range(model.n):
                ecdf = np.searchsorted(np.sort(p[:, j]), grid, side="right") / r
                assert np.max(np.abs(ecdf - grid)) <= bound


class TestRejectionRates:
    def test_bonferroni_independent_analytic(self):
        model = ExchangeableModel("normal", 5, 0.0)
        config = ExperimentConfig(
            model, (MethodSpec("bonferroni"),), (0.05,), 100_000, seed=11, workers=1
        )
        report = estimate_rejection_rate(config)
        row = report.rows[0]
        exact = 1.0 - (1.0 - 0.05 / 5) ** 5
        assert abs(row.estimate - exact) < 3 * row.std_error + 1e-12

    def test_estimates_and_counts_consistent(self):
        model = ExchangeableModel("normal", 2, 0.3)
        methods = (MethodSpec("standard", "cauchy"), MethodSpec("fisher"))
        config = ExperimentConfig(model, methods, (0.05, 0.01), 20_000, seed=12, workers=1)
        report = estimate_rejection_rate(config)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.estimate == row.rejections / 20_000
            assert row.std_error == pytest.approx(
                math.sqrt(row.estimate * (1 - row.estimate) / 20_000)
            )

    def test_bonferroni_weights_whose_sum_overflows(self):
        # finite weights whose sum is not: the counts of equal weights
        model = ExchangeableModel("normal", 2, 0.0)
        configs = [ExperimentConfig(model, (MethodSpec("bonferroni", weights=w),), (0.05,), 2000,
                                    seed=1) for w in ((1e308, 1e308), None)]
        counts = [estimate_rejection_rate(c).rows[0].rejections for c in configs]
        assert counts[0] == counts[1] > 0

    def test_worker_invariance(self):
        model = ExchangeableModel("normal", 3, 0.4)
        methods = (MethodSpec("standard", "cauchy"), MethodSpec("bonferroni"))
        reports = [
            estimate_rejection_rate(
                ExperimentConfig(model, methods, (0.05,), BLOCK_SIZE * 2 + 17, seed=13, workers=w)
            )
            for w in (1, 2, 3)
        ]
        base = [(r.method, r.alpha, r.rejections, r.estimate) for r in reports[0].rows]
        for rep in reports[1:]:
            assert [(r.method, r.alpha, r.rejections, r.estimate) for r in rep.rows] == base

    def test_threshold_decisions_match_library_pvalues(self):
        # the engine decides via S > Q_F(1 - alpha/kappa); the library via
        # kappa * sf(S) < alpha -- identical events for continuous draws
        from heavycomb.combine import (
            bonferroni as lib_bonferroni,
            combine_average,
            combine_standard,
            combine_weighted,
            fisher as lib_fisher,
        )
        from heavycomb.distributions import parse_distribution

        model = ExchangeableModel("student_t", 4, 0.6, nu=2)
        weights = (2.0, 1.0, 1.0, 0.5)
        methods = (
            MethodSpec("standard", "cauchy"),
            MethodSpec("average", "trunc_t:1:0.9"),
            MethodSpec("weighted", "pareto:1", weights=weights),
            MethodSpec("bonferroni"),
            MethodSpec("fisher"),
        )
        reps = 20_000
        config = ExperimentConfig(model, methods, (0.05, 0.01), reps, seed=555)
        report = estimate_rejection_rate(config)
        engine = {(r.method, r.alpha): r.rejections for r in report.rows}

        t = sample_statistics(model, replication_rng(555, 0), reps)
        p = statistics_to_pvalues(t, model)
        d_cau = parse_distribution("cauchy")
        d_tr = parse_distribution("trunc_t:1:0.9")
        d_par = parse_distribution("pareto:1")
        for alpha in (0.05, 0.01):
            counts = {
                "standard[cauchy]": sum(
                    combine_standard(row, d_cau).combined_p < alpha for row in p
                ),
                "average[trunc_t:1:0.9]": sum(
                    combine_average(row, d_tr).combined_p < alpha for row in p
                ),
                "weighted[pareto:1]": sum(
                    combine_weighted(row, weights, d_par).combined_p < alpha for row in p
                ),
                "bonferroni": sum(lib_bonferroni(row).combined_p < alpha for row in p),
                "fisher": sum(lib_fisher(row).combined_p < alpha for row in p),
            }
            for label, count in counts.items():
                assert engine[(label, alpha)] == count, (label, alpha)

    def test_minp_method_uses_cutoff(self):
        model = ExchangeableModel("normal", 5, 0.0)
        cal = calibrate_minp(model, 0.05, 50_000, seed=14)
        config = ExperimentConfig(
            model,
            (MethodSpec("minp", cutoff=cal.cutoff), MethodSpec("bonferroni")),
            (0.05,),
            50_000,
            seed=15,
        )
        report = estimate_rejection_rate(config)
        minp_row = next(r for r in report.rows if r.method == "minp")
        assert abs(minp_row.estimate - 0.05) < 0.006


_ALL_KINDS = (
    MethodSpec("standard", "cauchy"),
    MethodSpec("standard", "levy"),
    MethodSpec("standard", "t:3"),
    MethodSpec("average", "pareto:1"),
    MethodSpec("weighted", "trunc_t:1:0.9", weights=(1.0, 2.0, 0.5, 3.0)),
    MethodSpec("bonferroni", weights=(1.0, 2.0, 0.5, 3.0), label="wbonf"),
    MethodSpec("bonferroni"),
    MethodSpec("fisher"),
    MethodSpec("minp", cutoff=0.02),
)
_ONE_PASS_MODELS = {
    "normal": dict(family="normal"),
    "t2": dict(family="student_t", nu=2.0, sided="two_sided"),
    "t3": dict(family="student_t", nu=3.0),
}
_ONE_PASS_RHOS = (0.0, 0.6, -0.25, 0.99)


def _scenarios(kind, **fields):
    return [ExchangeableModel(n=4, rho=rho, **_ONE_PASS_MODELS[kind], **fields)
            for rho in _ONE_PASS_RHOS]


class TestOnePass:
    """Every rho of a command shares one block pass, and gets the bits of a
    run of its own."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("replications", [BLOCK_SIZE + 4321, 3000])
    @pytest.mark.parametrize("kind", sorted(_ONE_PASS_MODELS))
    def test_rejection_rates(self, kind, replications, workers):
        models = _scenarios(kind, mean=(0.0, 0.5, 0.0, 1.0))
        config = ExperimentConfig(models[0], _ALL_KINDS, (0.05, 0.01), replications, 42, workers)
        shared = list(_rejection_reports(config, models))
        assert len(shared) == len(models)
        for model, report in zip(models, shared):
            alone = estimate_rejection_rate(dataclasses.replace(config, model=model))
            assert report.rows == alone.rows
            assert (report.replications, report.seed, report.workers) == (
                alone.replications, alone.seed, alone.workers)
        # the pass's time is every report's
        assert len({report.runtime_seconds for report in shared}) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("replications", [BLOCK_SIZE + 4321, 3000])
    @pytest.mark.parametrize("kind", sorted(_ONE_PASS_MODELS))
    def test_minp_calibrations(self, kind, replications, workers):
        models = _scenarios(kind)
        config = ExperimentConfig(models[0], (), (0.05,), replications, 43, workers)
        shared = list(_minp_calibrations(config, models))
        assert shared == [calibrate_minp(m, 0.05, replications, 43, workers) for m in models]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("replications", [BLOCK_SIZE + 4321, 3000])
    @pytest.mark.parametrize("kind", sorted(_ONE_PASS_MODELS))
    def test_equivalence_ratios(self, kind, replications, workers):
        models = _scenarios(kind)
        config = ExperimentConfig(models[0], (), (0.05, 0.02), replications, 44, workers)
        weights = (1.0, 2.0, 3.0, 0.5)
        plan = _equivalence_plan(config, Cauchy(), weights)
        shared = list(_equivalence_reports(config, models, plan))
        for model, report in zip(models, shared):
            alone = estimate_equivalence_ratio(dataclasses.replace(config, model=model), Cauchy(),
                                               weights)
            assert report.rows == alone.rows

    def test_later_scenario_fails_after_earlier_reports(self):
        # a rho without rejections raises at its own report, not before
        models = [ExchangeableModel("normal", 2, rho) for rho in (0.9, 0.0)]
        config = ExperimentConfig(models[0], (), (5e-4,), 2000, 4)
        reports = _equivalence_reports(config, models, _equivalence_plan(config, Cauchy()))
        assert next(reports).rows[0].bonferroni_rejections == 1
        with pytest.raises(InsufficientEventsError):
            next(reports)


class TestRowTiles:
    """A block is computed in row tiles; every reduction is per row or a count."""

    @pytest.mark.parametrize("kind", sorted(_ONE_PASS_MODELS))
    def test_results_do_not_depend_on_tile_size(self, kind):
        models, alphas = _scenarios(kind, mean=(0.0, 0.5, 0.0, 1.0)), (0.05, 0.01)
        plan = _compile_methods(_ALL_KINDS, alphas, 4)
        config = ExperimentConfig(models[0], (), alphas, 1500, 47)
        equiv = (_equivalence_plan(config, Cauchy(), (1.0, 2.0, 3.0, 0.5)), alphas)

        def run(tile_rows):
            args = (models, 47, 1500, 1)
            counts = _run_blocks(*args, _rate_counts, plan, alphas, block_size=600,
                                 tile_rows=tile_rows)
            minima = _run_blocks(*args, combine._bonferroni_statistic, block_size=600,
                                 tile_rows=tile_rows)
            tallies = _run_blocks(*args, _equivalence_tallies, *equiv, block_size=600,
                                  tile_rows=tile_rows)
            return ([sum(c).tolist() for c in counts], [np.concatenate(m) for m in minima],
                    [sum(t).tolist() for t in tallies])

        whole_blocks = run(600)
        for tile_rows in (13, 250):
            got = run(tile_rows)
            assert got[0] == whole_blocks[0] and got[2] == whole_blocks[2]
            for a, b in zip(got[1], whole_blocks[1]):
                assert np.array_equal(a, b)

    def test_block_working_set(self):
        # one block of table2a's plan at its four rho: row tiles keep numpy's
        # buffers (which tracemalloc sees) to a few MiB; 16.6 MiB untiled
        cfg = presets.get_preset("table2a")
        models = [ExchangeableModel("student_t", 5, rho, nu=2) for rho in cfg["model"]["rho"]]
        specs = tuple(MethodSpec(m["kind"], m.get("distribution"), label=m["label"])
                      for m in cfg["methods"])
        plan = _compile_methods(specs, (0.05,), 5)
        _run_blocks(models, 48, BLOCK_SIZE, 1, _rate_counts, plan, (0.05,))
        tracemalloc.start()
        try:
            _run_blocks(models, 48, BLOCK_SIZE, 1, _rate_counts, plan, (0.05,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestWorkerSplit:
    """Workers take contiguous row ranges cut at tile boundaries, the calling
    process the first; a block cut by a boundary is drawn whole on both sides."""

    @pytest.mark.parametrize("family,nu", [("normal", None), ("student_t", 2.5)])
    def test_results_do_not_depend_on_workers(self, family, nu):
        # 600-row blocks in 70-row tiles (the last one of 40), and a short last
        # block: from 2 workers on, some cut falls inside a block
        rows, block_size, tile_rows, alphas = 2750, 600, 70, (0.05, 0.01)
        models = [ExchangeableModel(family, 4, rho, nu=nu, mean=(0.0, 0.5, 0.0, 1.0))
                  for rho in (0.0, 0.6)]
        pairs = [ExchangeableModel(family, 2, rho, nu=nu) for rho in (0.0, -0.5)]
        plan = _compile_methods(_ALL_KINDS, alphas, 4)
        config = ExperimentConfig(models[0], (), alphas, rows, 49)
        equiv = (_equivalence_plan(config, Cauchy(), (1.0, 2.0, 3.0, 0.5)), alphas)

        def run(workers):
            kw = dict(block_size=block_size, tile_rows=tile_rows)
            runs = [_run_blocks(models, 49, rows, workers, _rate_counts, plan, alphas, **kw),
                    _run_blocks(models, 49, rows, workers, combine._bonferroni_statistic, **kw),
                    _run_blocks(models, 49, rows, workers, _equivalence_tallies, *equiv, **kw),
                    _run_blocks(pairs, 49, rows, workers, _cov_moments, **kw)]
            return [[[tile.tobytes() for tile in tiles] for tiles in run] for run in runs]

        serial = run(1)
        for workers in range(2, 6):
            cuts = _cuts(rows, workers, block_size, tile_rows)
            assert any(cut % block_size for cut in cuts[1:-1])
            assert -(-rows // block_size) >= workers  # as many ranges as workers
            assert run(workers) == serial, workers

    @pytest.mark.parametrize("rows,block_size,tile_rows", [
        (100_000, BLOCK_SIZE, 16384 // 5),  # table2a and tableS3
        (50_000, BLOCK_SIZE, 16384 // 2),  # tableS1
        (1_000_000, BLOCK_SIZE, 16384 // 5),  # fig3
        (2750, 600, 70),
        (1485, 94, 5),
        (705, 344, 344),
        (280, 21, 7),  # from here on every tile has the same height
        (2750, 600, 50),
        (99, 9, 9),
    ])
    def test_ranges_are_near_equal(self, rows, block_size, tile_rows):
        blocks = -(-rows // block_size)
        for parts in range(1, min(blocks, 8) + 1):
            cuts = _cuts(rows, parts, block_size, tile_rows)
            assert cuts[0] == 0 and cuts[-1] == rows and cuts == sorted(cuts)
            # every cut is a tile boundary, and every range within a tile of its share
            assert all(cut == rows or cut % block_size % tile_rows == 0 for cut in cuts)
            sizes = np.diff(cuts)
            assert (np.abs(sizes - rows / parts) <= tile_rows).all(), (parts, cuts)
            if parts == 2 or (block_size % tile_rows == 0 and rows % tile_rows == 0):
                assert sizes.max() - sizes.min() <= tile_rows, (parts, cuts)

    def test_pool_size(self, monkeypatch):
        # no child below two blocks' rows, whatever the workers (the
        # heavy-tails path and tableS1); otherwise min(workers, blocks) - 1
        children = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(simulate.os, "fork", counting_fork)
        model = [ExchangeableModel("normal", 3, 0.2)]
        for rows, workers in [(600, 1), (600, 2), (600, 8), (601, 8), (1199, 8)]:
            _run_blocks(model, 50, rows, workers, combine._bonferroni_statistic, block_size=600)
        assert children == []
        for rows, workers, forked in [(1200, 8, 1), (2750, 8, 4), (2750, 3, 2), (2750, 2, 1)]:
            _run_blocks(model, 50, rows, workers, combine._bonferroni_statistic, block_size=600)
            assert len(children) == forked, (rows, workers)
            children.clear()

    def test_error_in_a_child_range(self):
        # at nu = 0.02 and seed 0 only the last of five blocks has a divisor
        # that underflows, so from 2 workers on the error is a child's
        model = ExchangeableModel("student_t", 2, 0.0, nu=0.02)
        for index in range(4):
            _draw(model, replication_rng(0, index), 600)
        with pytest.raises(DomainError) as serial:
            _draw(model, replication_rng(0, 4), 600)
        for workers in (1, 2, 3):
            assert workers == 1 or _cuts(3000, workers, 600, 100)[1] <= 2400  # a child's block
            with pytest.raises(DomainError) as got:
                _run_blocks([model], 0, 3000, workers, combine._bonferroni_statistic,
                            block_size=600, tile_rows=100)
            assert str(got.value) == str(serial.value), workers

    def test_without_fork(self, monkeypatch):
        # where os.fork is missing, the calling process computes every range
        monkeypatch.delattr(simulate.os, "fork")
        callers = []
        range_ = simulate._range

        def recording(payload):
            callers.append(os.getpid())
            return range_(payload)

        monkeypatch.setattr(simulate, "_range", recording)
        models = [ExchangeableModel("student_t", 3, rho, nu=2.5) for rho in (0.0, 0.5)]
        runs = [_run_blocks(models, 51, 2750, workers, combine._bonferroni_statistic,
                            block_size=600, tile_rows=70) for workers in (1, 2)]
        for serial, split in zip(*runs):
            assert [tile.tobytes() for tile in serial] == [tile.tobytes() for tile in split]
        assert callers == [os.getpid()] * 2  # one range at each worker count


class TestChildProcesses:
    """Each range after the first runs in a forked child; on success or error,
    every child is reaped before ``_run_blocks`` returns or raises."""

    model = [ExchangeableModel("normal", 3, 0.2)]

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def run(self, workers=2, reduce_p=combine._bonferroni_statistic, rows=2750):
        return _run_blocks(self.model, 50, rows, workers, reduce_p, block_size=600)

    def test_error_in_the_callers_range_kills_the_child(self, monkeypatch):
        range_ = simulate._range

        def failing(payload):
            if payload[2] == 0:  # the first range: the calling process's
                raise DomainError("first range")
            time.sleep(60)  # the child's: only a kill ends it in time
            return range_(payload)

        monkeypatch.setattr(simulate, "_range", failing)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="first range"):
            self.run()
        assert time.perf_counter() - start < 30
        self.assert_no_child()

    def test_a_child_without_a_result(self, monkeypatch):
        range_ = simulate._range
        monkeypatch.setattr(simulate, "_range",
                            lambda payload: range_(payload) if payload[2] == 0 else os._exit(3))
        with pytest.raises(ChildProcessError, match=r"without a result \(exit status 3\)"):
            self.run()
        self.assert_no_child()

    def test_a_child_killed_while_writing(self, monkeypatch):
        # the child writes half its pickle, then a SIGKILL ends it: the error
        # names the signal, not the truncated pickle
        open_ = open

        class HalfWrite:
            def __init__(self, fd):
                self.file = open_(fd, "wb")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                self.file.write(data[:len(data) // 2])
                self.file.flush()
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(simulate, "open",
                            lambda fd, mode: HalfWrite(fd) if mode == "wb" else open_(fd, mode),
                            raising=False)
        with pytest.raises(ChildProcessError,
                           match=rf"without a result \(exit status {-signal.SIGKILL}\)"):
            self.run()
        self.assert_no_child()

    def test_a_result_that_cannot_be_pickled(self):
        # the child sends nothing and exits with status 1, not 0
        with pytest.raises(ChildProcessError, match=r"without a result \(exit status 1\)"):
            self.run(reduce_p=lambda p: lambda: p)
        self.assert_no_child()

    def test_a_result_larger_than_the_pipe(self):
        # every p-value comes back, 72 kB from the child: more than a pipe's
        # 64 kB buffer; the reducer is a lambda, since only results are pickled
        serial, split = (self.run(workers, lambda p: p.copy(), 6000) for workers in (1, 2))
        assert [tile.tobytes() for tile in serial[0]] == [tile.tobytes() for tile in split[0]]
        assert (6000 - _cuts(6000, 2, 600, 16384 // 3)[1]) * 3 * 8 > 2**16  # the child's rows
        self.assert_no_child()


class TestColumnBlocks:
    """A block is n contiguous columns, drawn in row chunks, and each element
    gets the bits of one row-major ``(rows, n)`` draw centred by its row means."""

    @pytest.mark.parametrize("family,nu", [("normal", None), ("student_t", 2.5)])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_draw_bits(self, n, family, nu):
        rows = 2 * (combine._CHUNK // n) + 7  # a ragged last chunk
        rho = 0.3
        model = ExchangeableModel(family, n, rho, nu=nu, mean=tuple(np.linspace(-1.0, 1.0, n)))
        rng = replication_rng(61, n)
        z = rng.standard_normal((rows, n))
        zbar = z.mean(axis=1, keepdims=True)
        z -= zbar
        scale = np.sqrt(rng.chisquare(nu, size=(rows, 1)) / nu) if nu else None
        centred, means, got_scale = _draw(model, replication_rng(61, n), rows)
        assert centred.shape == (n, rows) and centred.flags.c_contiguous
        assert centred.tobytes() == np.ascontiguousarray(z.T).tobytes()
        assert means.tobytes() == zbar.ravel().tobytes()
        if scale is None:
            assert got_scale is None
        else:
            assert got_scale.tobytes() == scale.ravel().tobytes()
        x = math.sqrt(1.0 - rho) * z + math.sqrt(1.0 + (n - 1) * rho) * zbar
        if scale is not None:
            x = x / scale
        x = x + model.mean_vector()
        got = sample_statistics(model, replication_rng(61, n), rows)
        assert got.flags.c_contiguous and got.tobytes() == x.tobytes()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_fisher_bits_on_either_layout(self, n):
        p = 1.0 - np.random.default_rng(n).random((700, n))
        want = -2.0 * np.log(p).sum(axis=-1)  # the row-major formula
        assert combine._fisher_statistic(p).tobytes() == want.tobytes()
        assert combine._fisher_statistic(np.asfortranarray(p)).tobytes() == want.tobytes()

    def test_reducers_on_a_column_view(self):
        n, alphas = 9, (0.05, 0.01, 1e-3)
        w = tuple(np.linspace(0.5, 3.0, n))
        specs = (
            MethodSpec("standard", "cauchy"),
            MethodSpec("standard", "levy"),
            MethodSpec("standard", "t:3"),
            MethodSpec("average", "pareto:1"),
            MethodSpec("weighted", "trunc_t:1:0.9", weights=w),
            MethodSpec("bonferroni", weights=w, label="wbonf"),
            MethodSpec("bonferroni"),
            MethodSpec("fisher"),
            MethodSpec("minp", cutoff=0.002),
        )
        plan = _compile_methods(specs, alphas, n)
        model = ExchangeableModel("student_t", n, 0.4, nu=2.0, mean=(1.5,) + (0.0,) * (n - 1))
        p = statistics_to_pvalues(sample_statistics(model, replication_rng(63, 0), 4000), model)
        view = np.ascontiguousarray(p.T).T  # the engine's (rows, n) view of n columns
        assert view.flags.f_contiguous and np.array_equal(view, p)
        assert _rate_counts(view, plan, alphas).tolist() == _rate_counts(p, plan, alphas).tolist()
        for method in plan:
            if method.dist is not None:
                got, want = (combine._weighted_sum(combine._transform(q, method.dist)[0],
                                                   method.weights) for q in (view, p))
            elif method.kind == "fisher":
                got, want = combine._fisher_statistic(view), combine._fisher_statistic(p)
            else:
                got, want = (combine._bonferroni_statistic(q, method.weights) for q in (view, p))
            assert got.tobytes() == want.tobytes(), method.label


class TestStrongSignal:
    @pytest.mark.parametrize("sided", ["one_sided", "two_sided"])
    def test_rate_one_for_every_method(self, sided):
        # normal_sf underflows to 0 beyond x = 39; the p-values are floored
        # at the smallest positive double instead
        model = ExchangeableModel("normal", 4, 0.5, mean=(45.0,) * 4, sided=sided)
        methods = _ALL_KINDS + tuple(
            MethodSpec("standard", spec)
            for spec in ("pareto:1", "frechet:1", "t:2", "t:2.5", "inv_gamma:1", "log_cauchy"))
        report = estimate_rejection_rate(
            ExperimentConfig(model, methods, (0.05, 0.01), 2000, seed=45))
        assert [row.rejections for row in report.rows] == [2000] * len(report.rows)

    def test_log_cauchy_rejects_where_its_threshold_overflows(self):
        # exp(cot(pi alpha/n)) is +inf once alpha/n < 4.5e-4; the engine then
        # decides as CombinedResult.reject does, on kappa * sf(S) < alpha
        d, alpha, reps = LogCauchy(), 1e-6, 1000
        assert combine._thresholds(d, [alpha], 3.0)[0] == math.inf
        model = ExchangeableModel("normal", 3, 0.5, mean=(45.0,) * 3)
        methods = (MethodSpec("standard", "log_cauchy"),
                   MethodSpec("weighted", "log_cauchy", weights=(1.0, 2.0, 3.0)))
        report = estimate_rejection_rate(
            ExperimentConfig(model, methods, (alpha, 0.05), reps, seed=46))
        p = statistics_to_pvalues(sample_statistics(model, replication_rng(46, 0), reps), model)
        library = sum(combine.combine_standard(row, d).reject(alpha) for row in p)
        assert library == reps
        assert [row.rejections for row in report.rows] == [reps] * 4
        equiv = estimate_equivalence_ratio(ExperimentConfig(model, (), (alpha,), reps, 46), d)
        assert (equiv.rows[0].weighted_rejections, equiv.rows[0].disagreements) == (reps, 0)

    def test_pvalues_floored_not_zero(self):
        model = ExchangeableModel("normal", 1, 0.0)
        p = statistics_to_pvalues(np.array([[45.0], [1e300], [np.inf]]), model)
        assert p.ravel().tolist() == [5e-324] * 3


class TestEquivalenceRatio:
    def test_single_hypothesis_is_degenerate(self):
        model = ExchangeableModel("normal", 1, 0.0)
        rep = estimate_equivalence_ratio(
            ExperimentConfig(model, (), (0.05,), 50_000, seed=16), Cauchy()
        )
        assert rep.rows[0].ratio == 0.0
        assert rep.rows[0].disagreements == 0

    def test_perfect_correlation_limit_is_n_minus_1(self):
        # rho = 1: combination rejects at X > Q(1-a/n)/n, Bonferroni at
        # X > Q(1-a/n); ratio tends to n-1 as alpha -> 0
        model = ExchangeableModel("normal", 5, 1.0)
        rep = estimate_equivalence_ratio(
            ExperimentConfig(model, (), (0.01,), 400_000, seed=17), Cauchy()
        )
        assert rep.rows[0].ratio == pytest.approx(4.0, abs=0.5)

    def test_ratio_decreasing_in_alpha(self):
        model = ExchangeableModel("normal", 5, 0.5)
        rep = estimate_equivalence_ratio(
            ExperimentConfig(model, (), (0.05, 0.005), 200_000, seed=18), Cauchy()
        )
        assert rep.rows[0].ratio > rep.rows[1].ratio

    def test_insufficient_events(self):
        model = ExchangeableModel("normal", 2, 0.0)
        with pytest.raises(InsufficientEventsError) as info:
            estimate_equivalence_ratio(
                ExperimentConfig(model, (), (1e-9,), 2_000, seed=19), Cauchy()
            )
        assert "bonferroni" in info.value.counts

    @pytest.mark.parametrize("w", [None, (1.0, 2.0)], ids=["standard", "weighted"])
    def test_no_alphas_is_a_config_error(self, w):
        # it was a ValueError from max() of the empty thresholds
        config = ExperimentConfig(ExchangeableModel("normal", 2, 0.0), (), (), 2000, 22)
        with pytest.raises(ConfigError) as err:
            estimate_equivalence_ratio(config, Cauchy(), w)
        assert str(err.value) == "at least one alpha is required"

    @pytest.mark.parametrize("w", [(1e-300, 1.0), (1e-200, 1e-200)], ids=["one", "all"])
    def test_underflowed_mapped_weight_is_named(self, w):
        # w^3 underflows to 0: no Bonferroni weight (and, for all, no kappa) to pair with
        config = ExperimentConfig(ExchangeableModel("normal", 2, 0.0), (), (0.05,), 2000, 22)
        with pytest.raises(DomainError, match=(
                rf"^weight {w[0]!r} to the power of the tail index 3.0 underflows to 0$")):
            estimate_equivalence_ratio(config, Pareto(3.0), w)

    def test_worker_invariance(self):
        model = ExchangeableModel("normal", 3, 0.5)
        reps = [
            estimate_equivalence_ratio(
                ExperimentConfig(model, (), (0.05,), 60_000, seed=20, workers=w), Cauchy()
            )
            for w in (1, 3)
        ]
        assert reps[0].rows == reps[1].rows

    @pytest.mark.parametrize("d", [Cauchy(), Levy()], ids=["cauchy", "levy"])
    @pytest.mark.parametrize("rho", [0.0, 0.6])
    def test_counts_are_the_rejection_rates_of_both_tests(self, rho, d):
        # both estimators decide through one kernel: the weighted test and
        # Bonferroni on the mapped weights reject the same rows in either
        w, alphas = (1.0, 2.0, 3.0, 0.5), (0.05, 0.01)
        config = ExperimentConfig(ExchangeableModel("normal", 4, rho), (), alphas, 20_000, 21)
        mapped = tuple(combine._mapped_weights(np.array(w), d).tolist())
        methods = (MethodSpec("weighted", d.spec_string(), weights=w, label="weighted"),
                   MethodSpec("bonferroni", weights=mapped))
        rates = estimate_rejection_rate(dataclasses.replace(config, methods=methods))
        counts = {(row.method, row.alpha): row.rejections for row in rates.rows}
        equiv = estimate_equivalence_ratio(config, d, w)
        for row in equiv.rows:
            assert row.weighted_rejections == counts["weighted", row.alpha] > 0
            assert row.bonferroni_rejections == counts["bonferroni", row.alpha] > 0


class TestUnderflowedDivisor:
    """A t family chi-square divisor of exactly 0 (most draws at nu = 1e-3)
    would make the statistics infinite; the draw refuses it."""

    @pytest.mark.parametrize("workers,replications", [(1, 2000), (2, BLOCK_SIZE + 100)])
    def test_engine_raises(self, workers, replications):
        model = ExchangeableModel("student_t", 2, 0.0, nu=1e-3)
        config = ExperimentConfig(model, (MethodSpec("bonferroni"),), (0.05,), replications, 5,
                                  workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="nu=0.001: a chi-square divisor underflowed"):
                estimate_rejection_rate(config)
            with pytest.raises(DomainError, match="nu=0.001: a chi-square divisor underflowed"):
                sample_statistics(model, replication_rng(5, 0), 100)

    def test_small_nu_still_runs(self):
        model = ExchangeableModel("student_t", 2, 0.0, nu=0.05)
        config = ExperimentConfig(model, (MethodSpec("bonferroni"),), (0.05,), 20_000, 5)
        row = estimate_rejection_rate(config).rows[0]
        assert row.estimate < 0.05 + 4 * row.std_error  # Bonferroni's size is at most alpha


class TestMinPCalibration:
    def test_independent_case_analytic(self):
        # alpha-quantile of min of 5 iid uniforms: 1 - 0.95^(1/5) = 0.0102062
        model = ExchangeableModel("normal", 5, 0.0)
        cal = calibrate_minp(model, 0.05, 100_000, seed=21)
        assert cal.cutoff == pytest.approx(0.010206218, abs=4e-4)
        assert cal.cutoff_ratio == pytest.approx(1.0206, abs=0.04)
        assert not cal.unstable

    def test_unstable_flag(self):
        model = ExchangeableModel("normal", 2, 0.0)
        assert calibrate_minp(model, 0.05, 500, seed=22).unstable

    def test_requires_null_model(self):
        model = ExchangeableModel("normal", 2, 0.0, mean=(1.0, 0.0))
        with pytest.raises(ConfigError):
            calibrate_minp(model, 0.05, 1_000, seed=23)

    def test_worker_invariance(self):
        model = ExchangeableModel("normal", 4, 0.5)
        cals = [calibrate_minp(model, 0.05, BLOCK_SIZE + 999, seed=24, workers=w) for w in (1, 3)]
        assert cals[0] == cals[1]


class TestTailDependence:
    # mpmath: 2*F_{t,3}(-sqrt(3(1-rho)/(1+rho)))
    CASES = [
        (0.0, 0.18169011381620933),
        (0.5, 0.3910022189557706),
        (0.9, 0.7176856442107860),
        (0.99, 0.9100434511144656),
    ]

    def test_frozen_values(self):
        for rho, lam in self.CASES:
            assert tail_dependence_t(2.0, rho) == pytest.approx(lam, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_dependence_t(0.0, 0.5)
        with pytest.raises(DomainError):
            tail_dependence_t(2.0, -1.0)
        # the message names the caller's nu, not the t(nu + 1) built from it
        for nu, message in [(math.inf, "nu must be finite, got inf"),
                            (math.nan, "nu must be positive, got nan"),
                            (-2.0, "nu must be positive, got -2.0")]:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                tail_dependence_t(nu, 0.5)
        assert tail_dependence_t(1e308, 0.5) == 0.0  # finite, however large

    def test_joint_exceedance_trends_toward_lambda(self):
        model = ExchangeableModel("student_t", 2, 0.5, nu=2)
        t = sample_statistics(model, replication_rng(123, 0), 600_000)
        d = StudentT(2.0)
        lam = 0.3910022189557706
        gaps = []
        for u in (0.75, 0.95, 0.995):
            q = float(d.quantile(u))
            both = np.mean((t[:, 0] > q) & (t[:, 1] > q))
            cond = both / np.mean(t[:, 1] > q)
            gaps.append(abs(cond - lam))
        assert gaps[0] > gaps[1] > gaps[2]


class TestPValueCovariance:
    def test_independent_is_zero(self):
        model = ExchangeableModel("normal", 2, 0.0)
        est = pvalue_covariance(model, 200_000, seed=25)
        assert abs(est.covariance) <= 3 * est.std_error

    def test_one_sided_sign_matches_rho(self):
        pos = pvalue_covariance(ExchangeableModel("normal", 2, 0.9), 200_000, seed=26)
        assert pos.covariance > 3 * pos.std_error
        neg = pvalue_covariance(ExchangeableModel("normal", 2, -0.9), 200_000, seed=27)
        assert neg.covariance < -3 * neg.std_error

    def test_two_sided_nonnegative(self):
        model = ExchangeableModel("normal", 2, -0.9, sided="two_sided")
        est = pvalue_covariance(model, 200_000, seed=28)
        assert est.covariance >= -3 * est.std_error

    def test_requires_n2(self):
        with pytest.raises(DomainError):
            pvalue_covariance(ExchangeableModel("normal", 3, 0.0), 1_000, seed=29)

    def test_one_replication_has_no_standard_error(self):
        est = pvalue_covariance(ExchangeableModel("normal", 2, 0.0), 1, seed=29)
        assert est.covariance == 0.0 and math.isnan(est.std_error)

    def test_worker_invariance(self):
        model = ExchangeableModel("normal", 2, 0.5)
        ests = [pvalue_covariance(model, 50_000, seed=30, workers=w) for w in (1, 3)]
        assert ests[0] == ests[1]


class TestChiSquareQuantile:
    def test_against_scipy(self):
        for n, alpha in ((1, 0.05), (2, 0.05), (5, 0.01), (10, 0.001)):
            assert chi_square_upper_quantile(float(n), alpha) == pytest.approx(
                st.chi2.isf(alpha, 2 * n), rel=1e-10
            )

    @pytest.mark.parametrize("n,alpha", [(1, 1e-8), (3, 1e-12), (50, 1e-6), (1000, 0.05),
                                         (1, 1e-300)])
    def test_far_tails_and_many_pairs(self, n, alpha):
        # the first three quantiles lie past the first bracket end 4n + 10, so
        # the bracket is doubled before it is bisected
        assert chi_square_upper_quantile(float(n), alpha) == pytest.approx(
            st.chi2.isf(alpha, 2 * n), rel=1e-12
        )

    def test_needs_whole_pairs(self):
        for bad in (0.0, 2.5):
            with pytest.raises(DomainError):
                chi_square_upper_quantile(bad, 0.05)


class TestConfigValidation:
    def test_replications_positive(self):
        model = ExchangeableModel("normal", 2, 0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(model, (MethodSpec("fisher"),), (0.05,), 0, seed=1)

    def test_alpha_range(self):
        model = ExchangeableModel("normal", 2, 0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(model, (MethodSpec("fisher"),), (1.5,), 10, seed=1)

    @pytest.mark.parametrize("key,value", [
        ("replications", 1000.5), ("replications", True), ("replications", "1000"),
        ("seed", 3.7), ("seed", None), ("seed", math.nan), ("workers", 2.5), ("workers", False),
        ("workers", math.inf),
    ])
    def test_counts_are_whole_numbers(self, key, value):
        settings = {"replications": 1000, "seed": 1, "workers": 1, key: value}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(ExchangeableModel("normal", 2, 0.0), (MethodSpec("fisher"),),
                             (0.05,), **settings)
        assert str(err.value) == f"{key} must be a whole number, got {value!r}"

    @pytest.mark.parametrize("key", ["replications", "seed", "workers"])
    def test_counts_are_within_the_doubles(self, key):
        settings = {"replications": 1000, "seed": 1, "workers": 1, key: 10**400}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(ExchangeableModel("normal", 2, 0.0), (MethodSpec("fisher"),),
                             (0.05,), **settings)
        assert str(err.value) == f"{key} must be a number within the double range"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_is_a_philox_key_word(self, seed):
        # the key was seed & (2^64 - 1): seeds 2^64 apart ran the same draws
        model = ExchangeableModel("normal", 2, 0.0)
        message = f"seed must be in 0..2**64-1, got {seed}"
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(model, (), (0.05,), 1000, seed)
        assert str(err.value) == message
        with pytest.raises(ConfigError) as err:
            replication_rng(seed, 0)
        assert str(err.value) == message
        assert ExperimentConfig(model, (), (0.05,), 1000, 2**64 - 1).seed == 2**64 - 1
        assert replication_rng(2**64 - 1, 0).random() != replication_rng(0, 0).random()

    def test_whole_counts_of_any_number_type(self):
        model = ExchangeableModel("normal", 2, 0.0)
        for count in (2000.0, np.int64(2000), np.float64(2000.0)):
            config = ExperimentConfig(model, (), (0.05,), count, count, count // 1000)
            assert (config.replications, config.seed, config.workers) == (2000, 2000, 2)
            assert {type(config.replications), type(config.seed), type(config.workers)} == {int}
            assert calibrate_minp(model, 0.05, count, 1, count // 1000) == calibrate_minp(
                model, 0.05, 2000, 1, 2)
            assert pvalue_covariance(model, count, 1, count // 1000) == pvalue_covariance(
                model, 2000, 1, 2)

    @pytest.mark.parametrize("alpha", ["0.05", None, 0.05j])
    def test_alphas_are_numbers(self, alpha):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(ExchangeableModel("normal", 2, 0.0), (MethodSpec("fisher"),),
                             (0.05, alpha), 10, seed=1)
        assert str(err.value) == f"alphas must be a number, got {alpha!r}"

    def test_unknown_method_kind(self):
        model = ExchangeableModel("normal", 2, 0.0)
        config = ExperimentConfig(model, (MethodSpec("stouffer"),), (0.05,), 10, seed=1)
        with pytest.raises(ConfigError):
            estimate_rejection_rate(config)

    @pytest.mark.parametrize("methods,message", [
        ((MethodSpec("stouffer", "cauchy", weights=(1.0, 2.0)),), "unknown method kind 'stouffer'"),
        ((MethodSpec("standard", "cauchy", weights=(1.0, 2.0)),),
         "method standard[cauchy]: 'weights' does not apply to kind 'standard'"),
        ((MethodSpec("average", "cauchy", cutoff=0.01),),
         "method average[cauchy]: 'cutoff' does not apply to kind 'average'"),
        ((MethodSpec("fisher", "cauchy"),),
         "method fisher[cauchy]: 'distribution' does not apply to kind 'fisher'"),
        ((MethodSpec("fisher", weights=(1.0, 2.0)),),
         "method fisher: 'weights' does not apply to kind 'fisher'"),
        ((MethodSpec("bonferroni", "cauchy"),),
         "method bonferroni[cauchy]: 'distribution' does not apply to kind 'bonferroni'"),
        ((MethodSpec("bonferroni", cutoff=0.01),),
         "method bonferroni: 'cutoff' does not apply to kind 'bonferroni'"),
        ((MethodSpec("minp", "cauchy", cutoff=0.01),),
         "method minp[cauchy]: 'distribution' does not apply to kind 'minp'"),
        ((MethodSpec("minp", weights=(1.0, 2.0), cutoff=0.01),),
         "method minp: 'weights' does not apply to kind 'minp'"),
        ((MethodSpec("minp", cutoff=math.nan),), "method minp: cutoff must be in (0, 1], got nan"),
        ((MethodSpec("minp", cutoff=0.0),), "method minp: cutoff must be in (0, 1], got 0.0"),
        ((MethodSpec("minp", cutoff=1.5),), "method minp: cutoff must be in (0, 1], got 1.5"),
        ((MethodSpec("minp"),), "method minp: minp needs a calibrated cutoff"),
        ((MethodSpec("standard"),), "method standard: transform kinds need a distribution"),
        ((), "at least one method is required"),
        ((MethodSpec("fisher"), MethodSpec("bonferroni")), "at least one alpha is required"),
    ], ids=["unknown-kind-first", "standard-weights", "average-cutoff", "fisher-distribution",
            "fisher-weights", "bonferroni-distribution", "bonferroni-cutoff",
            "minp-distribution", "minp-weights", "minp-cutoff-nan", "minp-cutoff-0",
            "minp-cutoff-1.5", "minp-no-cutoff", "standard-no-distribution", "no-methods",
            "no-alphas"])
    def test_method_parameters(self, methods, message):
        # a parameter that does not apply to its kind is refused, not ignored; the
        # last row's config has no alphas (a config of calibrate_minp has none either)
        alphas = () if message == "at least one alpha is required" else (0.05,)
        config = ExperimentConfig(ExchangeableModel("normal", 2, 0.0), methods, alphas, 10, 1)
        with pytest.raises(ConfigError) as err:
            estimate_rejection_rate(config)
        assert str(err.value) == message

    def test_average_requires_unit_tail_index(self):
        model = ExchangeableModel("normal", 2, 0.0)
        config = ExperimentConfig(
            model, (MethodSpec("average", "pareto:2"),), (0.05,), 10, seed=1
        )
        with pytest.raises(ConfigError):
            estimate_rejection_rate(config)

    @pytest.mark.parametrize("replications,workers,message", [
        (0, 1, "replications must be >= 1, got 0"),
        (1_000, 0, "workers must be >= 1, got 0"),
        (10**400, 1, "replications must be a number within the double range"),
    ], ids=["replications-0", "workers-0", "replications-1e400"])
    def test_minp_and_covariance_check_their_settings(self, replications, workers, message):
        # the checks of ExperimentConfig, before any block is drawn
        model = ExchangeableModel("normal", 2, 0.0)
        for run in (lambda: calibrate_minp(model, 0.05, replications, 1, workers),
                    lambda: pvalue_covariance(model, replications, 1, workers)):
            with pytest.raises(ConfigError) as err:
                run()
            assert str(err.value) == message

    def test_minp_level_is_a_config_error(self):
        model = ExchangeableModel("normal", 2, 0.0)
        with pytest.raises(ConfigError) as err:
            calibrate_minp(model, 1.5, 1_000, 1)
        assert str(err.value) == "alpha must be in (0,1), got 1.5"

    @pytest.mark.parametrize("n", [2.5, True, "2", math.inf, math.nan, 0, -1])
    def test_n_is_a_positive_whole_number(self, n):
        with pytest.raises(ConfigError) as err:
            ExchangeableModel("normal", n, 0.0)
        assert str(err.value) == f"n must be a positive integer, got {n!r}"

    def test_whole_n_of_any_number_type(self):
        for n in (3, 3.0, np.int64(3), np.float64(3.0)):
            assert type(ExchangeableModel("normal", n, 0.0).n) is int

    def test_unknown_distribution_spec_is_a_config_error(self):
        model = ExchangeableModel("normal", 2, 0.0)
        config = ExperimentConfig(model, (MethodSpec("standard", "zz"),), (0.05,), 10, seed=1)
        with pytest.raises(ConfigError) as err:
            estimate_rejection_rate(config)
        assert str(err.value) == "method standard[zz]: unknown distribution spec 'zz'"


_THRESHOLD_KINDS = {"standard": None, "average": None, "weighted": (1.0, 2.0, 0.5),
                    "weighted-small": (1e-3, 4e-3, 1e-3)}  # alpha/kappa >= 1 at gamma <= 1
_THRESHOLD_CASES = [
    (spec, kind) for spec in ("t:2.5", "t:3", "trunc_t:3:0.9", "inv_gamma:0.7", "cauchy",
                              "log_cauchy", "levy", "pareto:1", "pareto:2.5", "frechet:1",
                              "frechet:0.5", "log_gamma:1.5", "inv_gamma:1", "trunc_t:1:0.9")
    for kind in _THRESHOLD_KINDS
    if kind != "average" or parse_distribution(spec).tail_index == 1.0]  # needs tail index 1


class TestCompiledThresholds:
    """A transform method's thresholds come from one inverse_survival call and its
    bound from one survival call, with the bits of one scalar call each."""

    @pytest.mark.parametrize("spec,kind", _THRESHOLD_CASES)
    def test_bits_of_the_scalar_calls(self, spec, kind):
        d, n, alphas = parse_distribution(spec), 3, (0.05, 1e-3, 1e-12)
        weights, kind = _THRESHOLD_KINDS[kind], kind.removesuffix("-small")
        method = _compile_method(MethodSpec(kind, weights=weights), alphas, n, d)
        w = combine._sum_weights(kind, n, d, weights)
        kappa = combine._kappa(w, d)
        thr = [float(d.inverse_survival(min(a / kappa, 1.0))) for a in alphas]
        bound = (max(float(d.survival(t / w.sum())) for t in thr)
                 if all(map(math.isfinite, thr)) else 1.0)
        assert np.array(method.thresholds).tobytes() == np.array(thr).tobytes()
        assert np.float64(method.bound).tobytes() == np.float64(bound).tobytes()
        assert method.kappa == kappa

    def test_overflowed_threshold_leaves_no_bound(self):
        # exp(cot(pi alpha/n)) is past the doubles at alpha = 1e-6
        method = _compile_method(MethodSpec("standard"), (0.05, 1e-6), 3, LogCauchy())
        assert method.thresholds[0] < math.inf == method.thresholds[1]
        assert method.bound == 1.0

    @pytest.mark.parametrize("alphas", [(0.05,), (0.05, 0.01), (0.2, 0.05, 0.01, 1e-3, 1e-6)])
    @pytest.mark.parametrize("spec", ["t:3", "trunc_t:3:0.9", "inv_gamma:1", "cauchy"])
    def test_one_call_each(self, spec, alphas, monkeypatch):
        d, calls = parse_distribution(spec), []

        def counted(name):
            method = getattr(d, name)

            def call(x):
                calls.append(name)
                return method(x)
            return call

        for name in ("inverse_survival", "survival"):
            monkeypatch.setattr(d, name, counted(name))
        for kind, weights in (("standard", None), ("weighted", (1.0, 2.0, 0.5, 4.0, 3.0))):
            calls.clear()
            _compile_method(MethodSpec(kind, weights=weights), alphas, 5, d)
            assert sorted(calls) == ["inverse_survival", "survival"], kind


def _unscreened(model, bound):
    return -math.inf


_SCREEN_DISTS = ("cauchy", "levy", "pareto:1", "frechet:1", "trunc_t:1:0.9", "t:3",
                 "inv_gamma:1", "log_cauchy")


@hst.composite
def _screen_cases(draw):
    """A model, a plan's specs, alphas, and an equivalence pair (distribution, weights)."""
    family, nu = draw(hst.sampled_from([("normal", None), ("student_t", 2.0), ("student_t", 3.0)]))
    n = draw(hst.integers(1, 6))
    mean = draw(hst.sampled_from([(), (1.5,) + (0.0,) * (n - 1)]))
    model = ExchangeableModel(family, n, draw(hst.sampled_from([0.0, 0.5, 0.95, 1.0, -0.15])),
                              nu=nu, mean=mean,
                              sided=draw(hst.sampled_from(["one_sided", "two_sided"])))
    weights = tuple(draw(hst.lists(hst.floats(0.1, 10.0), min_size=n, max_size=n)))
    dist = draw(hst.sampled_from(_SCREEN_DISTS))
    specs = [MethodSpec("standard", dist), MethodSpec("average", "pareto:1"),
             MethodSpec("weighted", dist, weights=weights), MethodSpec("bonferroni"),
             MethodSpec("bonferroni", weights=weights, label="wbonf"), MethodSpec("fisher"),
             MethodSpec("minp", cutoff=draw(hst.floats(1e-4, 0.1)))]
    methods = draw(hst.lists(hst.sampled_from(specs), min_size=1, max_size=3,
                             unique_by=MethodSpec.resolved_label))
    alphas = draw(hst.lists(hst.sampled_from([0.2, 0.05, 0.01, 1e-3, 1e-6]), min_size=1,
                            max_size=3, unique=True))
    return model, tuple(methods), tuple(alphas), parse_distribution(dist), draw(
        hst.sampled_from([None, weights]))


def _near_the_cut(models, cuts):
    """``_draw``, with two rows in three moved so that one model's largest statistic
    (largest |x| when two-sided, of either sign) is within 4 ulp of its cut, and so
    is the screen's bound on it.  Every centred draw of the first row is the
    extreme one; in the second the rest are clipped between the extremes.  The
    models take turns.  A moved row has row mean 0 and scale 1, and its extreme
    centred draw is solved for (its row mean, where rho = 1 zeroes the centred
    part) at the coordinate of the largest mean (the smallest, for a negative
    statistic)."""
    draw = simulate._draw

    def moved(model, rng, rows):
        centred, zbar, scale = draw(model, rng, rows)
        j = np.arange(rows)
        for turn, m in enumerate(models):
            cut, mu = cuts[m], m.mean_vector()
            if cut == -math.inf:
                continue
            a, b = math.sqrt(max(1.0 - m.rho, 0.0)), math.sqrt(max(1.0 + (m.n - 1) * m.rho, 0.0))
            r = j[(j // 3 % len(models) == turn) & (j % 3 < 2)]
            two = m.sided == "two_sided"
            sign = np.where(two & (r // (3 * len(models)) % 2 == 1), -1.0, 1.0)
            target = sign * (cut + (r % 5 - 2) * np.spacing(cut))
            k = np.where(sign > 0, np.argmax(mu), np.argmin(mu))
            c, z = np.zeros(len(r)), np.zeros(len(r))
            for _ in range(4):  # Newton steps on the exact shape
                x = simulate._shape(m, (c, z, None), mu[k])
                if a > 0.0:
                    c += (target - x) / a
                else:
                    z += (target - x) / b
            zbar[r] = z
            if scale is not None:
                scale[r] = 1.0
            if a > 0.0:
                hi = np.where(sign > 0, c, (cut - mu.max()) / a)
                lo = np.where(sign < 0, c, (-cut - mu.min()) / a if two else -np.inf)
                rest = np.clip(centred[:, r], lo, hi)
                rest[k, np.arange(len(r))] = c
                centred[:, r] = np.where(r % 3 == 0, c, rest)
            x = simulate._shape(m, (centred[:, r], zbar[r], None), mu[:, None])
            ulps = ((np.abs(x) if two else x).max(axis=0) - cut) / np.spacing(cut)
            assert (np.abs(ulps) <= 4).all(), ulps
        return centred, zbar, scale
    return moved


class TestRowScreen:
    """A row whose largest statistic is at or below the cut of the plan's bound
    rejects nothing; only the other rows get p-values."""

    def test_bound_of_each_kind(self):
        n, alphas, w = 4, (0.05, 1e-3), (1.0, 2.0, 0.5, 4.0)
        specs = (MethodSpec("standard", "cauchy"), MethodSpec("weighted", "levy", weights=w),
                 MethodSpec("bonferroni", weights=w), MethodSpec("fisher"),
                 MethodSpec("minp", cutoff=0.02), MethodSpec("standard", "log_cauchy"))
        cauchy, levy, bonf, fisher, minp, overflowed = _compile_methods(specs, alphas, n)
        assert cauchy.bound == Cauchy().survival(cauchy.thresholds[0] / n)
        assert levy.bound == Levy().survival(levy.thresholds[0] / sum(w))
        assert bonf.bound == 0.05 * (4.0 / 7.5)
        assert fisher.bound == math.exp(-fisher.thresholds[0] / (2 * n))
        assert minp.bound == 0.02
        assert overflowed.thresholds[1] == math.inf and overflowed.bound == 1.0
        assert 0.0 < fisher.bound < 1.0 and 0.0 < cauchy.bound < 0.06

    def test_cut(self):
        normal = ExchangeableModel("normal", 3, 0.5)
        t2 = ExchangeableModel("student_t", 3, 0.5, nu=2.0, sided="two_sided")
        assert simulate._cut(normal, 0.01) == pytest.approx(st.norm.isf(0.01 * (1 + 1e-6)),
                                                            rel=1e-14)
        assert simulate._cut(t2, 0.01) == pytest.approx(st.t.isf(0.005 * (1 + 1e-6), 2),
                                                        rel=1e-13)
        assert simulate._cut(normal, 0.5) == simulate._cut(t2, 1.0) == -math.inf
        # a subnormal tail has too few bits for the margin; a t tail past the doubles
        # would screen a row of +inf statistics
        assert simulate._cut(normal, 1e-310) == -math.inf
        assert simulate._cut(ExchangeableModel("student_t", 3, 0.5, nu=0.005), 1e-3) == -math.inf

    @settings(max_examples=80, deadline=None)
    @given(_screen_cases(), hst.integers(0, 2**32 - 1))
    @example((ExchangeableModel("normal", 3, 0.5), (MethodSpec("standard", "log_cauchy"),
              MethodSpec("bonferroni")), (1e-6, 0.05), LogCauchy(), None), 5)  # overflowed
    def test_counts_of_every_tile_are_the_unscreened_counts(self, case, seed):
        model, specs, alphas, d, w = case
        models = [model, dataclasses.replace(model, rho=0.25)]
        config = ExperimentConfig(model, (), alphas, 700, seed)
        passes = [(_rate_counts, _compile_methods(specs, alphas, model.n))]
        try:
            passes.append((_equivalence_tallies, _equivalence_plan(config, d, w)))
        except DomainError:  # mapped weights outside the doubles
            pass
        for reduce_p, plan in passes:
            bound = max(m.bound for m in plan)
            cuts = {m: simulate._cut(m, bound) for m in models}
            kept = []

            def counting(p, *args):
                kept.append(len(p))
                return reduce_p(p, *args)

            def run():
                tiles = _run_blocks(models, seed, 700, 1, counting, plan, alphas,
                                    block_size=300, tile_rows=64, bound=bound)
                return [sum(per_model).tolist() for per_model in tiles]  # kept rows regroup

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulate, "_draw", _near_the_cut(models, cuts))
                screened = run()
                rows_screened, kept[:] = sum(kept), []
                mp.setattr(simulate, "_cut", _unscreened)
                assert run() == screened
            assert sum(kept) == 2 * 700
            if cuts[model] > -math.inf:  # the rows at or below the cut got no p-values
                assert rows_screened < sum(kept)

    @settings(max_examples=300, deadline=None)
    @given(hst.data())
    def test_screen_keeps_the_rows_above_the_cut(self, data):
        # shaped with their mean, the extreme draws of each run of coordinates that
        # share a mean give the row's largest statistic (largest |x| when two-sided)
        # bit for bit, so at a cut of that statistic, or one step below it, the
        # screen drops or keeps the row as the full shape would
        n, rows = data.draw(hst.integers(1, 12), "n"), data.draw(hst.integers(1, 8), "rows")
        rho = data.draw(hst.sampled_from([r for r in (-0.25, 0.0, 0.99, 1.0)
                                          if n < 5 or r > -0.25]))  # admissible
        family, nu = data.draw(hst.sampled_from([("normal", None), ("student_t", 2.0)]))
        value = hst.one_of(hst.sampled_from([0.0, 1.25, -1.25]), hst.floats(-30.0, 30.0))  # ties
        mean = data.draw(hst.one_of(hst.just([]), hst.lists(value, min_size=n, max_size=n)))
        model = ExchangeableModel(family, n, rho, nu=nu, mean=mean,
                                  sided=data.draw(hst.sampled_from(["one_sided", "two_sided"])))
        centred = np.array(data.draw(hst.lists(value, min_size=n * rows, max_size=n * rows)))
        draw = (centred.reshape(n, rows), np.array(data.draw(
            hst.lists(hst.floats(-30.0, 30.0), min_size=rows, max_size=rows))), None)
        if family == "student_t":
            draw = draw[:2] + (np.array(data.draw(
                hst.lists(hst.floats(0.05, 20.0), min_size=rows, max_size=rows))),)
        x = simulate._shape(model, draw, model.mean_vector()[:, None] if mean else None)
        largest = (np.abs(x) if model.sided == "two_sided" else x).max(axis=0)
        for cut in [*largest, *np.nextafter(largest, -np.inf)]:
            kept = np.concatenate(simulate._screen([model], cut, draw, 0, rows, 3)[0])
            assert np.array_equal(kept, np.flatnonzero(largest > cut)), (cut, largest)

    def test_a_part_with_no_kept_row_yields_zero_counts(self):
        # no normal row of 700 reaches isf(1e-12), about 7.03: each of the three
        # blocks still makes one call per model, on no rows
        models = [ExchangeableModel("normal", 3, rho) for rho in (0.0, 0.5)]
        plan = _compile_methods((MethodSpec("bonferroni"),), (1e-12,), 3)
        shapes = []

        def recording(p, *args):
            shapes.append(p.shape)
            return _rate_counts(p, *args)

        got = _run_blocks(models, 3, 700, 1, recording, plan, (1e-12,), block_size=300,
                          tile_rows=64, bound=plan[0].bound)
        assert shapes == [(0, 3)] * 6
        assert [[c.tolist() for c in per_model] for per_model in got] == [[[[0]]] * 3] * 2

    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_preset_bytes_without_the_screen(self, tmp_path, monkeypatch, name):
        command = presets.PRESETS[name]["command"]

        def run(workers):
            out = tmp_path / f"{name}.csv"
            argv = [command, "--preset", name, "--workers", str(workers), "-o", str(out)]
            assert cli.main(argv) == 0
            return out.read_bytes()

        screened = [run(workers) for workers in (1, 3)]
        monkeypatch.setattr(simulate, "_cut", _unscreened)
        assert [run(workers) for workers in (1, 3)] == screened
        assert screened[0] == screened[1]

    def test_minp_fallback_pass(self, monkeypatch):
        # at rho = 1 a row's statistics are one draw; at seed 1 fewer than k = 5 of
        # 100 rows have p below alpha, so the k-th minimum lies among the screened
        # rows and the unscreened pass finds it
        models = [ExchangeableModel("normal", 3, rho) for rho in (1.0, 0.5)]
        config = ExperimentConfig(models[0], (), (0.05,), 100, 1)
        bounds = []
        run_blocks = simulate._run_blocks

        def recording(models, *args, bound=1.0, **kw):
            bounds.append((len(models), bound))
            return run_blocks(models, *args, bound=bound, **kw)

        monkeypatch.setattr(simulate, "_run_blocks", recording)
        got = list(_minp_calibrations(config, models))
        assert bounds == [(2, 0.05), (1, 1.0)]
        assert got[0].cutoff >= 0.05 > got[1].cutoff
        monkeypatch.setattr(simulate, "_cut", _unscreened)
        assert list(_minp_calibrations(config, models)) == got
