"""Seeded Monte Carlo engine for dependent test statistics.

Generates exchangeable multivariate normal or multivariate t statistics,
converts them to one- or two-sided p-values, and estimates rejection
rates (type-I error and power), Bonferroni-equivalence ratios, minP
calibration cutoffs, and empirical p-value covariance.

Reproducibility contract: replications are split into fixed-size blocks,
each driven by its own counter-based Philox stream keyed by
``(seed, block index)``.  Workers process whole blocks and partial
results are reduced in block order, so results are bit-identical for any
worker count.  The scenarios of one command (its values of ``rho``) share
each block's draws and one pass over the blocks, so a scenario gets the
bits it would get on its own.  A block is held as n contiguous columns and
computed in row tiles of about ``combine._CHUNK`` elements; reductions are
per row or counts (see README).
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import combine, special
from .distributions import HeavyTailDistribution, StudentT, parse_distribution
from .errors import ConfigError, DomainError, InsufficientEventsError, MethodMisuseError, ShapeError
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
        if type(self.n) is bool or not isinstance(self.n, numbers.Real) or self.n % 1 or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n > np.iinfo(np.intp).max:  # beyond any array's length
            raise ConfigError(f"n must fit an array dimension, got {self.n.bit_length()} bits")
        lower = -1.0 / (self.n - 1) if self.n > 1 else -1.0
        if not (lower < self.rho <= 1.0):
            raise ConfigError(
                f"rho={self.rho} not admissible: the exchangeable covariance needs "
                f"rho > -1/(n-1) = {lower:.6g} (and rho <= 1)"
            )
        if self.family == "student_t":
            if self.nu is None or not (self.nu > 0):
                raise ConfigError("student_t family needs degrees of freedom nu > 0")
            if not math.isfinite(self.nu):
                raise ConfigError(
                    f"student_t family needs finite degrees of freedom, got nu={self.nu!r}")
        if self.mean and len(self.mean) != self.n:
            raise ConfigError(f"mean vector has length {len(self.mean)}, expected {self.n}")
        if any(math.isnan(m) for m in self.mean):
            raise ConfigError(f"mean vector has a NaN entry: {self.mean!r}")

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


def _tile_rows(n: int) -> int:
    """Rows of one tile: about ``combine._CHUNK`` elements."""
    return max(1, combine._CHUNK // n)


def _draw(model: ExchangeableModel, rng: np.random.Generator, rows: int):
    """A block's draws, shared by every rho: centred normals as ``(n, rows)``
    contiguous columns, row means and t scale sqrt(s/nu), each ``(rows,)``.

    Drawn a tile of rows at a time in stream order, so the normals have the bits
    of one ``(rows, n)`` draw and the chi-square divisors follow them.  A row
    mean has the bits of ``z.mean(axis=1)``: numpy sums fewer than 8 terms left
    to right, as the column sum does, and pairwise from 8 on.
    """
    n = model.n
    step = _tile_rows(n)
    z, zbar = np.empty((n, rows)), np.empty(rows)
    for lo in range(0, rows, step):
        chunk = rng.standard_normal((min(step, rows - lo), n))
        cols, mean = z[:, lo:lo + len(chunk)], zbar[lo:lo + len(chunk)]
        cols[...] = chunk.T
        if n < 8:
            np.copyto(mean, cols[0])
            for col in cols[1:]:
                mean += col
            mean /= n
        else:
            chunk.mean(axis=1, out=mean)
        cols -= mean
    t_family = model.family == "student_t"
    scale = np.sqrt(rng.chisquare(model.nu, size=rows) / model.nu) if t_family else None
    return z, zbar, scale


def _shape(model: ExchangeableModel, draw) -> np.ndarray:
    """The statistics of ``model`` from a block's draws, as ``(n, rows)`` columns
    (see sample_statistics)."""
    centred, zbar, scale = draw
    x = math.sqrt(max(1.0 - model.rho, 0.0)) * centred
    x += math.sqrt(max(1.0 + (model.n - 1) * model.rho, 0.0)) * zbar
    if scale is not None:
        x /= scale
    if model.mean:
        x += model.mean_vector()[:, None]
    return x


def sample_statistics(model: ExchangeableModel, rng: np.random.Generator, size: int | None = None):
    """Draw test statistics with exchangeable covariance.

    Uses the spectral form sqrt(1-rho) (Z - Zbar) + sqrt(1+(n-1)rho) Zbar,
    which is exact for the whole admissible rho range including negative
    values.  For the t family one chi-square divisor is shared across all
    coordinates, then the mean shift is applied.
    """
    rows = 1 if size is None else int(size)
    t = np.ascontiguousarray(_shape(model, _draw(model, rng, rows)).T)
    return t[0] if size is None else t


def statistics_to_pvalues(t, model: ExchangeableModel) -> np.ndarray:
    """Marginal p-values (exactly uniform under the zero-mean null).

    A tail probability that underflows to 0 is floored at the smallest
    positive double, so a strong signal still yields p-values in (0, 1].
    """
    arr = np.asarray(t, dtype=np.float64)
    # the draws are finite, so the NaN check of StudentT.survival is skipped
    sf = special.normal_sf_array if model.family == "normal" else StudentT(model.nu)._sf
    p = sf(arr) if model.sided == "one_sided" else 2.0 * sf(np.abs(arr))
    return np.maximum(p, 5e-324)


def chi_square_upper_quantile(dof_pairs: float, alpha: float) -> float:
    """Upper-tail quantile of chi-square with 2*dof_pairs (a whole number) degrees of freedom."""
    k = int(dof_pairs)
    if k != dof_pairs or k < 1:
        raise DomainError(f"chi_square_upper_quantile: dof_pairs {dof_pairs!r} is not in 1, 2, ...")
    f = lambda t: special._poisson_tail(k, t / 2.0) - alpha
    hi = 4.0 * dof_pairs + 10.0
    while f(hi) > 0.0:
        hi *= 2.0
    return find_root(f, RootBracket(1e-12, hi, rel_tol=1e-13))


@dataclass(frozen=True)
class _CompiledMethod:
    """Per-alpha thresholds: Bonferroni and minP reject below, the rest above."""

    label: str
    kind: str
    thresholds: tuple[float, ...]
    dist: HeavyTailDistribution | None = None
    weights: np.ndarray | None = None
    kappa: float | None = None


def _compile_methods(methods, alphas, n) -> tuple[_CompiledMethod, ...]:
    compiled = []
    for spec in methods:
        label, kind, dist, w, kappa = spec.resolved_label(), spec.kind, None, None, None
        try:
            if kind in ("standard", "average", "weighted"):
                if not spec.distribution:
                    raise ConfigError(f"method {label}: transform kinds need a distribution")
                dist = parse_distribution(spec.distribution)
                w = combine._sum_weights(kind, n, dist, spec.weights)
                kappa = combine._kappa(w, dist)
                thr = tuple(combine._threshold(dist, a, kappa) for a in alphas)
            elif kind == "bonferroni":
                w, thr = combine._bonferroni_weights(spec.weights, n)[0], tuple(alphas)
            elif kind == "fisher":
                thr = tuple(chi_square_upper_quantile(float(n), a) for a in alphas)
            elif kind == "minp":
                if spec.cutoff is None:
                    raise ConfigError(f"method {label}: minp needs a calibrated cutoff")
                thr = (float(spec.cutoff),) * len(alphas)
            else:
                raise ConfigError(f"unknown method kind {kind!r}")
        except (DomainError, ShapeError, MethodMisuseError) as exc:
            raise ConfigError(f"method {label}: {exc}") from exc
        compiled.append(_CompiledMethod(label, kind, thr, dist, w, kappa))
    return tuple(compiled)


def _block(payload):
    """``reduce_p(p, *args)`` of each row tile of one block, for every model;
    ``p`` is a ``(tile rows, n)`` view of contiguous columns."""
    models, seed, index, rows, tile_rows, reduce_p, args = payload
    centred, zbar, scale = _draw(models[0], replication_rng(seed, index), rows)
    out = [[] for _ in models]
    for lo in range(0, rows, tile_rows):
        cut = slice(lo, lo + tile_rows)
        tile = (centred[:, cut], zbar[cut], None if scale is None else scale[cut])
        for model, parts in zip(models, out):
            p = statistics_to_pvalues(_shape(model, tile), model)
            if not (p <= 1.0).all():  # a NaN fails too; the floor keeps p > 0
                raise DomainError(f"rho={model.rho}: p-values outside (0, 1] in block {index}")
            parts.append(reduce_p(p.T, *args))
    return out


def _run_blocks(models, seed, replications, workers, reduce_p, *args, block_size=BLOCK_SIZE,
                tile_rows=None):
    """``reduce_p(p, *args)`` of each row tile's p-values, one list per model in
    row order, for models that share ``family``, ``n`` and ``nu``.

    Block ``i`` holds the next ``block_size`` replications, drawn once from
    ``replication_rng(seed, i)`` and shaped for every model ``tile_rows`` rows
    (default ``combine._CHUNK // n``) at a time; blocks run serially or on one pool.
    """
    tile_rows = tile_rows or _tile_rows(models[0].n)
    payloads = [
        (models, seed, index, min(block_size, replications - start), tile_rows, reduce_p, args)
        for index, start in enumerate(range(0, replications, block_size))
    ]
    if workers <= 1 or len(payloads) <= 1:
        blocks = [_block(p) for p in payloads]
    else:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = multiprocessing.get_context()
        max_workers = min(workers, len(payloads))
        with ProcessPoolExecutor(max_workers=max_workers, mp_context=ctx) as pool:
            chunksize = max(1, len(payloads) // max_workers)
            blocks = list(pool.map(_block, payloads, chunksize=chunksize))
    return [[tile for block in blocks for tile in block[m]] for m in range(len(models))]


def _sum_rejects(stat, thr, method, alpha):
    """Above the threshold or, where that overflowed to +inf, the clamped
    kappa * sf(stat) < alpha of ``CombinedResult.reject``."""
    return stat > thr if thr < math.inf else (
        combine._clamp_p(method.kappa * method.dist.survival(stat)) < alpha)


def _rate_counts(p, plan, alphas):
    counts = np.zeros((len(plan), len(alphas)), dtype=np.int64)
    scores: dict[str, np.ndarray] = {}
    fisher = None
    for mi, method in enumerate(plan):
        if method.dist is not None:
            key = method.dist.spec_string()
            if key not in scores:
                scores[key] = combine._transform(p, method.dist)[0]
            stat = combine._weighted_sum(scores[key], method.weights)
        elif method.kind == "fisher":
            if fisher is None:
                fisher = combine._fisher_statistic(p)
            stat = fisher
        elif method.kind == "bonferroni":
            stat = combine._bonferroni_statistic(p, method.weights)
        else:  # minp
            stat = combine._bonferroni_statistic(p)
        below = method.kind in ("bonferroni", "minp")
        for ai, (thr, alpha) in enumerate(zip(method.thresholds, alphas)):
            reject = stat < thr if below else _sum_rejects(stat, thr, method, alpha)
            counts[mi, ai] = np.count_nonzero(reject)
    return counts


def _rejection_reports(configs):
    """Each config's ExperimentReport, in order, from one block pass over
    configs that differ only in their model's ``rho``; each report is made
    when it is asked for."""
    start = time.perf_counter()
    first = configs[0]
    if not first.methods:
        raise ConfigError("at least one method is required")
    plan = _compile_methods(first.methods, first.alphas, first.model.n)
    per_model = _run_blocks([c.model for c in configs], first.seed, first.replications,
                            first.workers, _rate_counts, plan, first.alphas)
    runtime = time.perf_counter() - start
    r = first.replications
    for blocks in per_model:
        counts = sum(blocks)
        rows = []
        for mi, method in enumerate(plan):
            for ai, alpha in enumerate(first.alphas):
                k = int(counts[mi, ai])
                est = k / r
                se = math.sqrt(est * (1.0 - est) / r)
                rows.append(RateEstimate(method.label, alpha, est, se, k))
        yield ExperimentReport(tuple(rows), r, first.seed, first.workers, runtime)


def estimate_rejection_rate(config: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo rejection rates for each (method, alpha) pair.

    Under a zero mean vector this is the empirical type-I error; with
    signal in the mean it is power.  Deterministic for fixed
    (seed, replications) regardless of ``workers``.
    """
    return next(_rejection_reports([config]))


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


def _equivalence_tallies(p, method, mapped, alphas):
    stat = combine._weighted_sum(combine._transform(p, method.dist)[0], method.weights)
    bon_stat = combine._bonferroni_statistic(p, mapped)
    tallies = np.zeros((len(alphas), 5), dtype=np.int64)
    for ai, (thr, alpha) in enumerate(zip(method.thresholds, alphas)):
        wgt, bon = _sum_rejects(stat, thr, method, alpha), bon_stat < alpha
        dis = wgt != bon
        tallies[ai] = tuple(map(np.count_nonzero, (wgt, bon, dis, dis & wgt, dis & bon)))
    return tallies


def _equivalence_reports(configs, d: HeavyTailDistribution, w=None):
    """Each config's EquivalenceReport, as ``_rejection_reports`` makes its reports."""
    start = time.perf_counter()
    first = configs[0]
    weights = combine._sum_weights("standard" if w is None else "weighted", first.model.n, d, w)
    kappa = combine._kappa(weights, d)
    mapped = combine._mapped_weights(weights, d)
    thresholds = tuple(combine._threshold(d, a, kappa) for a in first.alphas)
    method = _CompiledMethod("weighted", "weighted", thresholds, d, weights, kappa)
    per_model = _run_blocks([c.model for c in configs], first.seed, first.replications,
                            first.workers, _equivalence_tallies, method, mapped, first.alphas)
    runtime = time.perf_counter() - start
    r = first.replications
    for blocks in per_model:
        tallies = sum(blocks)
        rows = []
        for ai, alpha in enumerate(first.alphas):
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
            var_a, var_b = a_hat * (1.0 - a_hat), b_hat * (1.0 - b_hat)
            cov_ab = joint - a_hat * b_hat
            var_ratio = (var_a / b_hat**2 + a_hat**2 * var_b / b_hat**4
                         - 2.0 * a_hat * cov_ab / b_hat**3) / r
            rows.append(EquivalenceEstimate(alpha, a_hat / b_hat, math.sqrt(max(var_ratio, 0.0)),
                                            n_dis, n_wgt, n_bon))
        yield EquivalenceReport(tuple(rows), r, first.seed, first.workers, runtime)


def estimate_equivalence_ratio(
    config: ExperimentConfig, d: HeavyTailDistribution, w=None
) -> EquivalenceReport:
    """Shared-sample estimate of Pr(tests disagree) / min(rejection rates).

    The weighted combination test uses weights ``w`` (default: all ones);
    the Bonferroni side uses the tail-index-mapped weights
    w*_i = w_i^gamma / kappa so the two tests are asymptotically paired.
    Standard errors come from the delta method on the shared sample.
    """
    return next(_equivalence_reports([config], d, w))


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


def _minp_calibrations(models, alpha: float, replications: int, seed: int, workers: int):
    """Each model's MinPCalibration, as ``_rejection_reports`` makes its reports."""
    ExperimentConfig(models[0], (), (alpha,), replications, seed, workers)  # checks the settings
    if any(any(model.mean) for model in models):
        raise ConfigError("minP calibration requires the null model (zero mean)")
    # the smallest p-value of each replication
    per_model = _run_blocks(models, seed, replications, workers, combine._bonferroni_statistic)
    k = max(1, int(math.floor(alpha * replications)))
    for model, blocks in zip(models, per_model):
        cutoff = float(np.partition(np.concatenate(blocks), k - 1)[k - 1])
        yield MinPCalibration(cutoff, cutoff / (alpha / model.n), alpha, model.n, replications,
                              seed, alpha * replications < 50.0)


def calibrate_minp(
    model: ExchangeableModel, alpha: float, replications: int, seed: int, workers: int = 1
) -> MinPCalibration:
    """Empirical alpha-quantile of min(p_1..p_n) under the null model.

    ``cutoff_ratio`` divides the cutoff by the Bonferroni threshold
    alpha/n; values above 1 quantify how conservative Bonferroni is for
    the model's dependence.  Flagged unstable when alpha*replications < 50.
    """
    return next(_minp_calibrations([model], alpha, replications, seed, workers))


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
    """Empirical covariance of the two p-values, block-jackknife SE; a block is one tile."""
    if model.n != 2:
        raise DomainError("pvalue_covariance requires an n=2 model")
    ExperimentConfig(model, (), (), replications, seed, workers)  # checks the settings
    block_size = min(BLOCK_SIZE, max(1, replications // 16)) if replications >= 32 else 1
    stats = np.vstack(_run_blocks([model], seed, replications, workers, _cov_moments,
                                  block_size=block_size, tile_rows=block_size)[0])
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
