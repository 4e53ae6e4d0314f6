"""Seeded Monte Carlo engine for dependent test statistics.

Generates exchangeable multivariate normal or multivariate t statistics,
converts them to one- or two-sided p-values, and estimates rejection
rates (type-I error and power), Bonferroni-equivalence ratios, minP
calibration cutoffs, and empirical p-value covariance.

Reproducibility contract: replications are split into fixed-size blocks,
each driven by its own counter-based Philox stream keyed by
``(seed, block index)``.  Workers process whole blocks and partial
results are reduced in block order, so results are bit-identical for any
worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import special
from .combine import _transform
from .distributions import HeavyTailDistribution, StudentT, parse_distribution
from .errors import ConfigError, DomainError, InsufficientEventsError, ShapeError
from .special import RootBracket, find_root

BLOCK_SIZE = 32768

_FAMILIES = ("normal", "student_t")
_SIDES = ("one_sided", "two_sided")


@dataclass(frozen=True)
class ExchangeableModel:
    """Null/alternative generator with equicorrelated statistics.

    ``mean`` is either empty (all zeros) or one value per coordinate;
    the covariance has unit diagonal and constant off-diagonal ``rho``.
    """

    family: str
    n: int
    rho: float
    nu: float | None = None
    mean: tuple[float, ...] = ()
    sided: str = "one_sided"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown statistic family {self.family!r}")
        if self.sided not in _SIDES:
            raise ConfigError(f"sided must be one of {_SIDES}, got {self.sided!r}")
        if int(self.n) != self.n or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        lower = -1.0 / (self.n - 1) if self.n > 1 else -1.0
        if not (lower < self.rho <= 1.0):
            raise ConfigError(
                f"rho={self.rho} not admissible: the exchangeable covariance needs "
                f"rho > -1/(n-1) = {lower:.6g} (and rho <= 1)"
            )
        if self.family == "student_t":
            if self.nu is None or not (self.nu > 0):
                raise ConfigError("student_t family needs degrees of freedom nu > 0")
        if self.mean and len(self.mean) != self.n:
            raise ConfigError(f"mean vector has length {len(self.mean)}, expected {self.n}")

    def mean_vector(self) -> np.ndarray:
        if not self.mean:
            return np.zeros(self.n)
        return np.asarray(self.mean, dtype=np.float64)


@dataclass(frozen=True)
class MethodSpec:
    """One test to evaluate: kind plus its parameters.

    ``kind`` is one of standard / average / weighted / bonferroni /
    fisher / minp.  ``distribution`` is a spec string such as ``cauchy``
    or ``trunc_t:1:0.9`` for the transform-based kinds; ``weights`` feeds
    the weighted and bonferroni kinds; ``cutoff`` is the calibrated
    min-p threshold for ``minp``.
    """

    kind: str
    distribution: str | None = None
    weights: tuple[float, ...] | None = None
    cutoff: float | None = None
    label: str | None = None

    def resolved_label(self) -> str:
        if self.label:
            return self.label
        if self.distribution:
            return f"{self.kind}[{self.distribution}]"
        return self.kind


@dataclass(frozen=True)
class ExperimentConfig:
    model: ExchangeableModel
    methods: tuple[MethodSpec, ...]
    alphas: tuple[float, ...]
    replications: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers!r}")
        for a in self.alphas:
            if not (0.0 < a < 1.0):
                raise ConfigError(f"alpha must be in (0,1), got {a!r}")


@dataclass(frozen=True)
class RateEstimate:
    method: str
    alpha: float
    estimate: float
    std_error: float
    rejections: int


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[RateEstimate, ...]
    replications: int
    seed: int
    workers: int
    runtime_seconds: float


def replication_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one block/replication, keyed by (seed, index)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_statistics(model: ExchangeableModel, rng: np.random.Generator, size: int | None = None):
    """Draw test statistics with exchangeable covariance.

    Uses the spectral form sqrt(1-rho) (Z - Zbar) + sqrt(1+(n-1)rho) Zbar,
    which is exact for the whole admissible rho range including negative
    values.  For the t family one chi-square divisor is shared across all
    coordinates, then the mean shift is applied.
    """
    rows = 1 if size is None else int(size)
    n = model.n
    z = rng.standard_normal((rows, n))
    zbar = z.mean(axis=1, keepdims=True)
    lam1 = max(1.0 + (n - 1) * model.rho, 0.0)
    lam2 = max(1.0 - model.rho, 0.0)
    x = math.sqrt(lam2) * (z - zbar) + math.sqrt(lam1) * zbar
    if model.family == "student_t":
        s = rng.chisquare(model.nu, size=(rows, 1))
        x = x / np.sqrt(s / model.nu)
    t = x + model.mean_vector()
    return t[0] if size is None else t


def statistics_to_pvalues(t, model: ExchangeableModel) -> np.ndarray:
    """Marginal p-values (exactly uniform under the zero-mean null)."""
    arr = np.asarray(t, dtype=np.float64)
    if model.family == "normal":
        if model.sided == "one_sided":
            return special.normal_sf_array(arr)
        return 2.0 * special.normal_sf_array(np.abs(arr))
    # the draws are finite, so the NaN check of StudentT.survival is skipped
    sf = StudentT(model.nu)._sf
    if model.sided == "one_sided":
        return sf(arr)
    return 2.0 * sf(np.abs(arr))


def chi_square_upper_quantile(dof_pairs: float, alpha: float) -> float:
    """Upper-tail quantile of chi-square with 2*dof_pairs degrees of freedom."""
    f = lambda t: special.reg_gamma_upper(dof_pairs, t / 2.0) - alpha
    hi = 4.0 * dof_pairs + 10.0
    while f(hi) > 0.0:
        hi *= 2.0
    return find_root(f, RootBracket(1e-12, hi, rel_tol=1e-13))


@dataclass(frozen=True)
class _CompiledMethod:
    label: str
    kind: str
    dist: HeavyTailDistribution | None = None
    weights: tuple[float, ...] | None = None
    thresholds: tuple[float, ...] = ()
    cutoff: float | None = None


def _compile_methods(methods, alphas, n) -> tuple[_CompiledMethod, ...]:
    compiled = []
    for spec in methods:
        label = spec.resolved_label()
        kind = spec.kind
        if kind in ("standard", "average", "weighted"):
            if not spec.distribution:
                raise ConfigError(f"method {label}: transform kinds need a distribution")
            dist = parse_distribution(spec.distribution)
            if kind == "standard":
                thr = tuple(float(dist.inverse_survival(a / n)) for a in alphas)
                compiled.append(_CompiledMethod(label, kind, dist, None, thr))
            elif kind == "average":
                if abs(dist.tail_index - 1.0) > 1e-12:
                    raise ConfigError(f"method {label}: average kind needs tail index 1")
                thr = tuple(float(dist.inverse_survival(a)) for a in alphas)
                compiled.append(_CompiledMethod(label, kind, dist, None, thr))
            else:
                if spec.weights is None or len(spec.weights) != n:
                    raise ConfigError(f"method {label}: weighted kind needs {n} weights")
                w = np.asarray(spec.weights, dtype=np.float64)
                if (w <= 0).any():
                    raise ConfigError(f"method {label}: weights must be positive")
                kappa = float(np.sum(w ** dist.tail_index))
                thr = tuple(float(dist.inverse_survival(min(a / kappa, 1.0))) for a in alphas)
                compiled.append(_CompiledMethod(label, kind, dist, tuple(w), thr))
        elif kind == "bonferroni":
            if spec.weights is not None:
                w = np.asarray(spec.weights, dtype=np.float64)
                if len(w) != n or (w <= 0).any():
                    raise ConfigError(f"method {label}: bad bonferroni weights")
                w = w / w.sum()
                compiled.append(_CompiledMethod(label, kind, None, tuple(w)))
            else:
                compiled.append(_CompiledMethod(label, kind))
        elif kind == "fisher":
            thr = tuple(chi_square_upper_quantile(float(n), a) for a in alphas)
            compiled.append(_CompiledMethod(label, kind, thresholds=thr))
        elif kind == "minp":
            if spec.cutoff is None:
                raise ConfigError(f"method {label}: minp needs a calibrated cutoff")
            compiled.append(_CompiledMethod(label, kind, cutoff=float(spec.cutoff)))
        else:
            raise ConfigError(f"unknown method kind {kind!r}")
    return tuple(compiled)


def _block(payload):
    model, seed, index, rows, reduce_p, args = payload
    t = sample_statistics(model, replication_rng(seed, index), rows)
    return reduce_p(statistics_to_pvalues(t, model), *args)


def _run_blocks(model, seed, replications, workers, reduce_p, *args, block_size=BLOCK_SIZE):
    """``reduce_p(p, *args)`` of each block's p-values, in block order.

    Block ``i`` holds the next ``block_size`` replications, drawn from
    ``replication_rng(seed, i)``; blocks run serially or on a fork pool.
    """
    payloads = [
        (model, seed, index, min(block_size, replications - start), reduce_p, args)
        for index, start in enumerate(range(0, replications, block_size))
    ]
    if workers <= 1 or len(payloads) <= 1:
        return [_block(p) for p in payloads]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        ctx = multiprocessing.get_context()
    max_workers = min(workers, len(payloads))
    with ProcessPoolExecutor(max_workers=max_workers, mp_context=ctx) as pool:
        return list(pool.map(_block, payloads, chunksize=max(1, len(payloads) // max_workers)))


def _rate_counts(p, plan, alphas):
    counts = np.zeros((len(plan), len(alphas)), dtype=np.int64)
    cache: dict[str, np.ndarray] = {}
    logs = None
    for mi, method in enumerate(plan):
        if method.kind in ("standard", "average", "weighted"):
            key = method.dist.spec_string()
            x = cache.get(key)
            if x is None:
                x = cache[key] = _transform(p, method.dist)[0]
            if method.kind == "standard":
                stat = x.sum(axis=1)
            elif method.kind == "average":
                stat = x.mean(axis=1)
            else:
                stat = x @ np.asarray(method.weights)
            for ai, thr in enumerate(method.thresholds):
                counts[mi, ai] = int(np.count_nonzero(stat > thr))
        elif method.kind == "bonferroni":
            if method.weights is None:
                stat = p.min(axis=1) * p.shape[1]
            else:
                stat = (p / np.asarray(method.weights)).min(axis=1)
            for ai, a in enumerate(alphas):
                counts[mi, ai] = int(np.count_nonzero(stat < a))
        elif method.kind == "fisher":
            if logs is None:
                logs = -2.0 * np.log(p).sum(axis=1)
            for ai, thr in enumerate(method.thresholds):
                counts[mi, ai] = int(np.count_nonzero(logs > thr))
        else:  # minp
            stat = p.min(axis=1)
            for ai in range(len(alphas)):
                counts[mi, ai] = int(np.count_nonzero(stat < method.cutoff))
    return counts


def estimate_rejection_rate(config: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo rejection rates for each (method, alpha) pair.

    Under a zero mean vector this is the empirical type-I error; with
    signal in the mean it is power.  Deterministic for fixed
    (seed, replications) regardless of ``workers``.
    """
    start = time.perf_counter()
    if not config.methods:
        raise ConfigError("at least one method is required")
    plan = _compile_methods(config.methods, config.alphas, config.model.n)
    counts = sum(_run_blocks(config.model, config.seed, config.replications, config.workers,
                             _rate_counts, plan, config.alphas))
    r = config.replications
    rows = []
    for mi, method in enumerate(plan):
        for ai, alpha in enumerate(config.alphas):
            k = int(counts[mi, ai])
            est = k / r
            rows.append(RateEstimate(method.label, alpha, est, math.sqrt(est * (1.0 - est) / r), k))
    return ExperimentReport(
        rows=tuple(rows),
        replications=r,
        seed=config.seed,
        workers=config.workers,
        runtime_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Equivalence ratio between the weighted combination test and Bonferroni.


@dataclass(frozen=True)
class EquivalenceEstimate:
    alpha: float
    ratio: float
    std_error: float
    disagreements: int
    weighted_rejections: int
    bonferroni_rejections: int


@dataclass(frozen=True)
class EquivalenceReport:
    rows: tuple[EquivalenceEstimate, ...]
    replications: int
    seed: int
    workers: int
    runtime_seconds: float


def _equivalence_tallies(p, dist, weights, mapped, thresholds, alphas):
    stat = _transform(p, dist)[0] @ weights
    bon_stat = (p / mapped).min(axis=1)
    tallies = np.zeros((len(alphas), 5), dtype=np.int64)
    for ai, alpha in enumerate(alphas):
        wgt = stat > thresholds[ai]
        bon = bon_stat < alpha
        dis = wgt != bon
        tallies[ai] = (
            int(wgt.sum()),
            int(bon.sum()),
            int(dis.sum()),
            int((dis & wgt).sum()),
            int((dis & bon).sum()),
        )
    return tallies


def estimate_equivalence_ratio(
    config: ExperimentConfig, d: HeavyTailDistribution, w=None
) -> EquivalenceReport:
    """Shared-sample estimate of Pr(tests disagree) / min(rejection rates).

    The weighted combination test uses weights ``w`` (default: all ones);
    the Bonferroni side uses the tail-index-mapped weights
    w*_i = w_i^gamma / kappa so the two tests are asymptotically paired.
    Standard errors come from the delta method on the shared sample.
    """
    start = time.perf_counter()
    n = config.model.n
    weights = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    if weights.size != n or (weights <= 0).any():
        raise ShapeError(f"need {n} positive weights")
    gamma = d.tail_index
    kappa = float(np.sum(weights ** gamma))
    mapped = weights ** gamma / kappa
    thresholds = tuple(float(d.inverse_survival(min(a / kappa, 1.0))) for a in config.alphas)
    tallies = sum(_run_blocks(config.model, config.seed, config.replications, config.workers,
                              _equivalence_tallies, d, weights, mapped, thresholds, config.alphas))
    r = config.replications
    rows = []
    for ai, alpha in enumerate(config.alphas):
        n_wgt, n_bon, n_dis, n_dis_wgt, n_dis_bon = (int(v) for v in tallies[ai])
        n_min = min(n_wgt, n_bon)
        if n_min == 0:
            raise InsufficientEventsError(
                f"no rejections at alpha={alpha}; increase replications",
                counts={"weighted": n_wgt, "bonferroni": n_bon, "disagree": n_dis},
            )
        a_hat = n_dis / r
        b_hat = n_min / r
        joint = (n_dis_wgt if n_wgt <= n_bon else n_dis_bon) / r
        var_a = a_hat * (1.0 - a_hat)
        var_b = b_hat * (1.0 - b_hat)
        cov_ab = joint - a_hat * b_hat
        var_ratio = (
            var_a / b_hat**2
            + a_hat**2 * var_b / b_hat**4
            - 2.0 * a_hat * cov_ab / b_hat**3
        ) / r
        rows.append(
            EquivalenceEstimate(
                alpha=alpha,
                ratio=a_hat / b_hat,
                std_error=math.sqrt(max(var_ratio, 0.0)),
                disagreements=n_dis,
                weighted_rejections=n_wgt,
                bonferroni_rejections=n_bon,
            )
        )
    return EquivalenceReport(
        rows=tuple(rows),
        replications=r,
        seed=config.seed,
        workers=config.workers,
        runtime_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# minP calibration.


@dataclass(frozen=True)
class MinPCalibration:
    cutoff: float
    cutoff_ratio: float
    alpha: float
    n: int
    replications: int
    seed: int
    unstable: bool


def calibrate_minp(
    model: ExchangeableModel, alpha: float, replications: int, seed: int, workers: int = 1
) -> MinPCalibration:
    """Empirical alpha-quantile of min(p_1..p_n) under the null model.

    ``cutoff_ratio`` divides the cutoff by the Bonferroni threshold
    alpha/n; values above 1 quantify how conservative Bonferroni is for
    the model's dependence.  Flagged unstable when alpha*replications < 50.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0,1), got {alpha!r}")
    if any(model.mean):
        raise ConfigError("minP calibration requires the null model (zero mean)")
    # np.min(p, 1): the smallest p-value of each replication
    mins = np.concatenate(_run_blocks(model, seed, replications, workers, np.min, 1))
    k = max(1, int(math.floor(alpha * replications)))
    cutoff = float(np.partition(mins, k - 1)[k - 1])
    return MinPCalibration(
        cutoff=cutoff,
        cutoff_ratio=cutoff / (alpha / model.n),
        alpha=alpha,
        n=model.n,
        replications=replications,
        seed=seed,
        unstable=alpha * replications < 50.0,
    )


# ---------------------------------------------------------------------------
# Tail dependence and p-value covariance.


def tail_dependence_t(nu: float, rho: float) -> float:
    """Upper tail dependence of a bivariate t with dof nu and correlation rho.

    Evaluates 2 * F_{t,nu+1}(-sqrt((nu+1)(1-rho)/(1+rho))).
    """
    if not (nu > 0.0):
        raise DomainError(f"nu must be positive, got {nu!r}")
    if not (-1.0 < rho <= 1.0):
        raise DomainError(f"rho must be in (-1, 1], got {rho!r}")
    arg = math.sqrt((nu + 1.0) * (1.0 - rho) / (1.0 + rho))
    return 2.0 * float(StudentT(nu + 1.0).survival(arg))


@dataclass(frozen=True)
class CovarianceEstimate:
    covariance: float
    std_error: float
    replications: int
    seed: int


def _cov_moments(p):
    return np.array([len(p), p[:, 0].sum(), p[:, 1].sum(), (p[:, 0] * p[:, 1]).sum()])


def pvalue_covariance(
    model: ExchangeableModel, replications: int, seed: int, workers: int = 1
) -> CovarianceEstimate:
    """Empirical covariance of the two p-values with a block-jackknife SE."""
    if model.n != 2:
        raise DomainError("pvalue_covariance requires an n=2 model")
    block_size = min(BLOCK_SIZE, max(1, replications // 16)) if replications >= 32 else 1
    stats = np.vstack(_run_blocks(model, seed, replications, workers, _cov_moments,
                                  block_size=block_size))
    total = stats.sum(axis=0)

    def cov_from(m):
        cnt, s1, s2, s12 = m
        return s12 / cnt - (s1 / cnt) * (s2 / cnt)

    cov = float(cov_from(total))
    b = stats.shape[0]
    if b < 2:
        return CovarianceEstimate(cov, float("nan"), replications, seed)
    loo = np.array([cov_from(total - stats[i]) for i in range(b)])
    se = math.sqrt((b - 1) / b * float(np.sum((loo - loo.mean()) ** 2)))
    return CovarianceEstimate(cov, se, replications, seed)
