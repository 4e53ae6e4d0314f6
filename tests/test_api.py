"""The public API, the first part of the behaviour contract: ``heavycomb.__all__``."""

import heavycomb

PUBLIC = [
    "__version__",
    # combine
    "CombinedResult", "bh_adjust", "bonferroni", "bonferroni_as_max_statistic",
    "combine_average", "combine_standard", "combine_weighted", "fisher", "transform",
    # closed_testing
    "ClosedTestingResult", "closed_test_bruteforce", "closed_test_shortcut",
    # distributions
    "Cauchy", "Frechet", "HeavyTailDistribution", "InverseGamma", "Levy", "LogCauchy",
    "LogGamma", "Pareto", "StudentT", "TruncatedT", "parse_distribution", "truncation_point",
    # simulate
    "CovarianceEstimate", "EquivalenceReport", "ExchangeableModel", "ExperimentConfig",
    "ExperimentReport", "MethodSpec", "MinPCalibration", "calibrate_minp",
    "estimate_equivalence_ratio", "estimate_rejection_rate", "pvalue_covariance",
    "replication_rng", "sample_statistics", "statistics_to_pvalues", "tail_dependence_t",
]


def test_all_names_the_public_api():
    assert heavycomb.__all__ == PUBLIC
    assert len(PUBLIC) == 40


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(heavycomb, name) is not None, name
