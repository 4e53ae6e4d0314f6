"""Seeded Monte Carlo engine for dependent test statistics.

Generates exchangeable multivariate normal or multivariate t statistics,
converts them to one- or two-sided p-values, and estimates rejection
rates (type-I error and power), Bonferroni-equivalence ratios, minP
calibration cutoffs, and empirical p-value covariance.

Reproducibility contract: replications are split into fixed-size blocks,
each driven by its own counter-based Philox stream keyed by
``(seed, block index)``.  Workers take contiguous ranges of rows cut at
tile boundaries, at most one per block: the calling process computes the
first, and a child forked with ``os.fork`` each other one, on the memory it
inherits, sending back only its pickled result.  Partial results are reduced
in row order, so results are bit-identical for any worker count.  Below two
blocks' rows, or where ``os.fork`` is missing, the calling process computes
all the rows.
The scenarios of one command (its values of ``rho``) share each block's
draws and one pass over the blocks, so a scenario gets the bits it would
get on its own.  A block is held as n contiguous columns.  Each block's part
of a range is screened once, on each row's extreme draws, for the rows that
can reject (see ``_screen``); only those are shaped, turned into p-values and
reduced, in row tiles of about ``combine._CHUNK`` elements.  Reductions are
per row or counts (see README).
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import combine, special
from .distributions import HeavyTailDistribution, StudentT, parse_distribution
from .errors import ConfigError, DomainError, InsufficientEventsError, MethodMisuseError, ShapeError
from .special import find_root

__all__ = ["CovarianceEstimate", "EquivalenceReport", "ExchangeableModel", "ExperimentConfig",
           "ExperimentReport", "MethodSpec", "MinPCalibration", "calibrate_minp",
           "estimate_equivalence_ratio", "estimate_rejection_rate", "pvalue_covariance",
           "replication_rng", "sample_statistics", "statistics_to_pvalues", "tail_dependence_t"]

BLOCK_SIZE = 32768

_FAMILIES = ("normal", "student_t")
_SIDES = ("one_sided", "two_sided")


def _whole(value) -> bool:
    """Whether ``value`` is a whole real number and not a bool (numpy integers pass)."""
    return type(value) is not bool and isinstance(value, numbers.Real) and not value % 1


def _number(key: str, value):
    """``value`` if it is a real number, not a bool, that a double holds; else a
    ConfigError naming ``key``."""
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{key} must be a number within the double range")
    return value


def _count(key: str, value) -> int:
    """``value`` as an int if it is a whole number that a double holds; else a ConfigError."""
    if not _whole(value):
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(_number(key, value))


def _numbers(key: str, value) -> tuple:
    """A list, tuple or array of numbers, or one number, as a tuple of the same values."""
    items = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
    return tuple(_number(key, v) for v in items)


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
        if not _whole(self.n) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n > np.iinfo(np.intp).max:  # beyond any array's length
            raise ConfigError(f"n must fit an array dimension, got {self.n.bit_length()} bits")
        lower = -1.0 / (self.n - 1) if self.n > 1 else -1.0
        if not (lower < _number("rho", self.rho) <= 1.0):
            raise ConfigError(
                f"rho={self.rho} not admissible: the exchangeable covariance needs "
                f"rho > -1/(n-1) = {lower:.6g} (and rho <= 1)"
            )
        if self.nu is not None:
            _number("nu", self.nu)
            if self.family == "normal":
                raise ConfigError(f"nu does not apply to the normal family, got nu={self.nu!r}")
        if self.family == "student_t":
            if self.nu is None or not (self.nu > 0):
                raise ConfigError("student_t family needs degrees of freedom nu > 0")
            if not math.isfinite(self.nu):
                raise ConfigError(
                    f"student_t family needs finite degrees of freedom, got nu={self.nu!r}")
        object.__setattr__(self, "mean", _numbers("mean", self.mean))  # a list is hashed as a tuple
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

    def __post_init__(self):
        if self.weights is not None:
            object.__setattr__(self, "weights", _numbers("weights", self.weights))
        if self.cutoff is not None:
            _number("cutoff", self.cutoff)
        if self.label is not None and (type(self.label) is not str
                                       or any(c in self.label for c in ",\r\n")):
            raise ConfigError(
                f"label must be a string with no comma or line break, got {self.label!r}")

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
        for key in ("replications", "seed", "workers"):  # the one check of a run's counts
            object.__setattr__(self, key, _count(key, getattr(self, key)))
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications!r}")
        _check_seed(self.seed)
        _check_workers(self.workers)
        for a in self.alphas:
            if not (0.0 < _number("alphas", a) < 1.0):
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


_MAX_SEED = 2**64 - 1  # a seed is one word of the Philox key


def _check_seed(seed: int) -> int:
    if not 0 <= seed <= _MAX_SEED:
        raise ConfigError(f"seed must be in 0..2**64-1, got {seed!r}")
    return seed


def _check_workers(workers: int):
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers!r}")


def replication_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one block/replication, keyed by (seed in 0..2^64-1, index)."""
    key = np.array([_check_seed(seed), index & _MAX_SEED], dtype=np.uint64)
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
    if t_family and not scale.all():  # a divisor of 0 would make the statistics infinite
        raise DomainError(f"nu={model.nu}: a chi-square divisor underflowed to 0")
    return z, zbar, scale


def _shape(model: ExchangeableModel, draw, mean) -> np.ndarray:
    """The statistics of ``model`` from draws ``(centred, zbar, scale)`` plus ``mean``
    (None: no mean), as ``(n, rows)`` columns (see sample_statistics).

    Each step is monotone in ``centred``, and rounding is too, so shaping the largest
    centred draw of a row's coordinates that share a mean, with that mean, gives
    their largest statistic bit for bit (the same for the smallest)."""
    centred, zbar, scale = draw
    x = math.sqrt(max(1.0 - model.rho, 0.0)) * centred
    x += math.sqrt(max(1.0 + (model.n - 1) * model.rho, 0.0)) * zbar
    if scale is not None:
        x /= scale
    if mean is not None:
        x += mean
    return x


def _mean_column(model: ExchangeableModel):
    return model.mean_vector()[:, None] if model.mean else None


def sample_statistics(model: ExchangeableModel, rng: np.random.Generator, size: int | None = None):
    """Draw test statistics with exchangeable covariance.

    Uses the spectral form sqrt(1-rho) (Z - Zbar) + sqrt(1+(n-1)rho) Zbar,
    which is exact for the whole admissible rho range including negative
    values.  For the t family one chi-square divisor is shared across all
    coordinates, then the mean shift is applied.
    """
    rows = 1 if size is None else int(size)
    t = np.ascontiguousarray(_shape(model, _draw(model, rng, rows), _mean_column(model)).T)
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
    return find_root(f, 1e-12, hi)


@dataclass(frozen=True)
class _CompiledMethod:
    """Per-alpha thresholds: Bonferroni and minP reject below, the rest above.
    ``bound`` is the largest smallest p-value of a row that the method can
    reject at any of its alphas (1: no bound)."""

    label: str
    kind: str
    thresholds: tuple[float, ...]
    dist: HeavyTailDistribution | None = None
    weights: np.ndarray | None = None
    kappa: float | None = None
    bound: float = 1.0


_KINDS = {  # each method kind, and the MethodSpec parameters that apply to it
    "standard": ("distribution",), "average": ("distribution",),
    "weighted": ("distribution", "weights"), "bonferroni": ("weights",), "fisher": (),
    "minp": ("cutoff",),
}


def _compile_method(spec: MethodSpec, alphas, n, dist=None) -> _CompiledMethod:
    """``spec`` on ``n`` p-values; a transform kind uses ``dist`` or parses its own."""
    label, kind, w, kappa, bound = spec.resolved_label(), spec.kind, None, None, 1.0
    if type(kind) is not str or kind not in _KINDS:
        raise ConfigError(f"unknown method kind {kind!r}")
    for name in ("distribution", "weights", "cutoff"):
        if getattr(spec, name) is not None and name not in _KINDS[kind]:
            raise ConfigError(f"method {label}: {name!r} does not apply to kind {kind!r}")
    if kind in ("standard", "average", "weighted"):
        if dist is None and not spec.distribution:
            raise ConfigError(f"method {label}: transform kinds need a distribution")
        dist = parse_distribution(spec.distribution) if dist is None else dist
        w = combine._sum_weights(kind, n, dist, spec.weights)
        kappa = combine._kappa(w, dist)
        thr = combine._thresholds(dist, alphas, kappa)
        if np.isfinite(thr).all():  # S <= sum(w) * Q(p_min)
            bound = float(dist.survival(thr / w.sum()).max())
        thr = tuple(thr.tolist())
    elif kind == "bonferroni":
        w, thr = combine._bonferroni_weights(spec.weights, n)[0], tuple(alphas)
        bound = max(thr) * float(w.max())
    elif kind == "fisher":
        thr = tuple(chi_square_upper_quantile(float(n), a) for a in alphas)
        bound = math.exp(-min(thr) / (2 * n))  # -2 sum log p_i <= -2n log p_min
    else:  # minp
        if spec.cutoff is None:
            raise ConfigError(f"method {label}: minp needs a calibrated cutoff")
        cutoff = float(spec.cutoff)
        if not 0.0 < cutoff <= 1.0:  # a NaN too
            raise ConfigError(f"method {label}: cutoff must be in (0, 1], got {spec.cutoff!r}")
        thr, bound = (cutoff,) * len(alphas), cutoff
    return _CompiledMethod(label, kind, thr, dist, w, kappa, bound)


def _compile_methods(methods, alphas, n) -> tuple[_CompiledMethod, ...]:
    compiled = []
    for spec in methods:
        try:
            compiled.append(_compile_method(spec, alphas, n))
        except (DomainError, ShapeError, MethodMisuseError) as exc:
            raise ConfigError(f"method {spec.resolved_label()}: {exc}") from exc
    return tuple(compiled)


def _cut(model: ExchangeableModel, bound: float) -> float:
    """The statistic at or below which a row's smallest p-value is above ``bound``
    by a relative margin of 1e-6; -inf (no row) when that takes a tail of 1/2 or
    more, a subnormal one (too coarse for the margin), or no finite statistic."""
    q = bound * (1.0 + 1e-6) / (2.0 if model.sided == "two_sided" else 1.0)
    if not sys.float_info.min <= q < 0.5:
        return -math.inf
    if model.family == "normal":
        return float(-special.normal_quantile_array(np.array(q)))
    cut = float(StudentT(model.nu).inverse_survival(q))
    return cut if cut < math.inf else -math.inf


def _screen(models, cut, draw, first, last, tile_rows):
    """Per model, the rows of ``first:last`` whose largest statistic (largest |x| when
    two-sided) is above ``cut`` or NaN, as index arrays of at most ``tile_rows`` rows,
    at least one array (maybe empty).  In each run of coordinates that share a mean,
    each row's largest centred draw (and smallest, two-sided) is taken once; each
    model shapes it to the run's largest (smallest) statistic of the row, bit for
    bit (see ``_shape``)."""
    centred, zbar, scale = draw
    mean, n, two = models[0].mean, models[0].n, models[0].sided == "two_sided"
    span = slice(first, last)
    rest = (zbar[span], None if scale is None else scale[span])
    edges = [0, *(i for i in range(1, n) if mean and mean[i] != mean[i - 1]), n]
    ends = [(mean[a] if mean else None, centred[a:b, span].max(axis=0),
             centred[a:b, span].min(axis=0) if two else None) for a, b in zip(edges, edges[1:])]
    kept = []
    for model in models:
        top = None
        for value, high, low in ends:
            x = _shape(model, (high, *rest), value)
            if two:
                np.maximum(x, -_shape(model, (low, *rest), value), out=x)
            top = x if top is None else np.maximum(top, x, out=top)
        rows = np.flatnonzero(~(top <= cut)) + first  # a NaN row is kept, to fail the check
        kept.append([rows[k:k + tile_rows] for k in range(0, max(len(rows), 1), tile_rows)])
    return kept


def _range(payload):
    """``reduce_p(p, *args)`` of rows ``lo:hi``, at most ``tile_rows`` rows a call,
    for every model; ``p`` is a ``(rows, n)`` view of contiguous columns.  Only the
    rows whose largest statistic is above ``cut`` are reduced (see ``_cut``): each
    block's part of the range is screened once on its rows' extreme draws (see
    ``_screen``), then its kept rows are gathered, shaped and reduced.  At a cut of
    -inf, a part is reduced in contiguous tiles.  Every block that the range enters
    is drawn whole, so a row has the same bits in any range."""
    models, seed, lo, hi, replications, block_size, tile_rows, cut, reduce_p, args = payload
    mean = _mean_column(models[0])
    out = [[] for _ in models]
    for index in range(lo // block_size, -(-hi // block_size)):
        start = index * block_size
        rows = min(block_size, replications - start)
        draw = _draw(models[0], replication_rng(seed, index), rows)
        first, last = max(lo - start, 0), min(hi - start, rows)
        if cut == -math.inf:
            tiles = [slice(k, min(k + tile_rows, last)) for k in range(first, last, tile_rows)]
            kept = [tiles] * len(models)
        else:
            kept = _screen(models, cut, draw, first, last, tile_rows)
        centred, zbar, scale = draw
        for model, tiles, parts in zip(models, kept, out):
            for tile in tiles:
                x = _shape(model, (centred[:, tile], zbar[tile],
                                   None if scale is None else scale[tile]), mean)
                p = statistics_to_pvalues(x, model)
                if not (p <= 1.0).all():  # a NaN fails too; the floor keeps p > 0
                    raise DomainError(f"rho={model.rho}: p-values outside (0, 1] in block {index}")
                parts.append(reduce_p(p.T, *args))
        del draw, centred, zbar, scale, kept  # freed before the next draw reuses their pages
    return out


def _cuts(replications, parts, block_size, tile_rows):
    """Row bounds of ``parts`` contiguous ranges: cut ``k`` is the tile boundary (a
    block start plus a multiple of ``tile_rows``, or ``replications``) nearest to
    ``k * replications / parts``, so each range is within a tile of an equal share."""
    cuts = []
    for k in range(parts + 1):
        share = k * replications  # the cut's target times parts, to stay exact
        start = share // parts // block_size * block_size
        below = start + (share // parts - start) // tile_rows * tile_rows
        above = min(below + tile_rows, start + block_size, replications)
        cuts.append(below if share - parts * below <= parts * above - share else above)
    return cuts


def _run_blocks(models, seed, replications, workers, reduce_p, *args, block_size=BLOCK_SIZE,
                tile_rows=None, bound=1.0):
    """``reduce_p(p, *args)`` of each row tile's p-values, one list per model in
    row order, for models that differ only in ``rho``; with
    ``bound`` below 1 only of the rows whose smallest p-value can be at most
    ``bound``: its cut (see ``_cut``) is made once, before any child is forked,
    and each range screens on it (see ``_range``).

    Block ``i`` holds the next ``block_size`` replications, drawn from
    ``replication_rng(seed, i)`` and shaped for every model at most ``tile_rows``
    rows (default ``combine._CHUNK // n``) at a time.  The rows are cut into
    ``min(workers, blocks)`` ranges (see ``_cuts``); the calling process computes
    the first while a forked child computes each other one (see ``_forked``).
    A range draws every block it enters whole, so below two blocks' rows,
    where the second of two ranges would draw both blocks, the calling process
    computes all the rows, as it does where ``os.fork`` is missing.  The bits
    are the same.
    """
    tile_rows = tile_rows or _tile_rows(models[0].n)
    blocks = -(-replications // block_size)
    split = hasattr(os, "fork") and replications >= 2 * block_size
    cuts = _cuts(replications, min(workers, blocks) if split else 1, block_size, tile_rows)
    cut = _cut(models[0], bound)
    payloads = [(models, seed, lo, hi, replications, block_size, tile_rows, cut, reduce_p, args)
                for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    with _forked(_range, payloads[1:]) as others:
        ranges = [_range(payloads[0]), *others]
    return [[tile for part in ranges for tile in part[m]] for m in range(len(models))]


def _fork(run, payload):
    """A forked child that computes ``run(payload)`` on the memory it inherits
    and pickles ``(ok, result or exception)`` into a pipe: (its pid, the read end).
    The child exits with status 0 only once the whole pickle is written."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:  # the child never returns into the caller's frames nor flushes their buffers
            os.close(read)
            try:
                result = (True, run(payload))
            except BaseException as exc:
                result = (False, exc)
            data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


@contextlib.contextmanager
def _forked(run, payloads):
    """Fork a child that computes ``run(payload)`` for each of ``payloads`` (see
    ``_fork``), and give an iterator over their results in order, which raises
    a child's error in its turn.  A child that exits with a non-zero status
    sent no whole result.  On leaving, every child still at work is killed;
    every child is reaped."""
    for stream in (sys.stdout, sys.stderr):  # so a child's write cannot repeat their buffers
        with contextlib.suppress(AttributeError, ValueError):  # None or closed
            stream.flush()
    children = {}  # the read end of each child not yet reaped, in payload order
    try:
        for payload in payloads:
            pid, pipe = _fork(run, payload)
            children[pid] = pipe
        yield _results(children)
    finally:
        for pid, pipe in children.items():
            os.kill(pid, signal.SIGKILL)  # an exited child is a zombie until reaped
            pipe.close()
            os.waitpid(pid, 0)


def _results(children):
    """Each child's result, in order, once it has exited (see ``_forked``)."""
    for pid, pipe in list(children.items()):
        data = pipe.read()  # to EOF before waitpid: a result may outgrow the pipe
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del children[pid]
        pipe.close()
        if status != 0:
            raise ChildProcessError(f"a worker ended without a result (exit status {status})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        yield value


def _rejections(p, plan, alphas):
    """Each method's per-row rejection flags, one per alpha: the engine's only test
    decision.  Methods on one distribution share its transformed scores."""
    scores, fisher = {}, None  # transformed scores per distribution spec; Fisher's statistic
    for method in plan:
        if method.dist is not None:
            key = method.dist.spec_string()
            if key not in scores:
                scores[key] = combine._transform(p, method.dist)[0]
            stat = combine._weighted_sum(scores[key], method.weights)
        elif method.kind == "fisher":
            if fisher is None:
                fisher = combine._fisher_statistic(p)
            stat = fisher
        else:  # bonferroni, or minp with no weights
            stat = combine._bonferroni_statistic(p, method.weights)
        flags = []
        for thr, alpha in zip(method.thresholds, alphas):
            if method.kind in ("bonferroni", "minp"):
                flags.append(stat < thr)
            elif thr < math.inf:
                flags.append(stat > thr)
            else:  # overflowed: the clamped kappa * sf(stat) < alpha of CombinedResult.reject
                flags.append(combine._clamp_p(method.kappa * method.dist.survival(stat)) < alpha)
        yield flags


def _rate_counts(p, plan, alphas):
    counts = np.zeros((len(plan), len(alphas)), dtype=np.int64)
    for mi, flags in enumerate(_rejections(p, plan, alphas)):
        counts[mi] = list(map(np.count_nonzero, flags))
    return counts


def _rejection_reports(config: ExperimentConfig, models):
    """The ExperimentReport of ``config`` at each of ``models``, in order, from
    one block pass over models that differ from ``config.model`` only in
    ``rho``; each report is made when it is asked for."""
    start = time.perf_counter()
    if not config.methods:
        raise ConfigError("at least one method is required")
    if not config.alphas:
        raise ConfigError("at least one alpha is required")
    plan = _compile_methods(config.methods, config.alphas, config.model.n)
    per_model = _run_blocks(models, config.seed, config.replications, config.workers,
                            _rate_counts, plan, config.alphas, bound=max(m.bound for m in plan))
    runtime = time.perf_counter() - start
    r = config.replications
    for blocks in per_model:
        rows = []
        for method, row in zip(plan, sum(blocks).tolist()):
            for alpha, k in zip(config.alphas, row):
                est = k / r
                se = math.sqrt(est * (1.0 - est) / r)
                rows.append(RateEstimate(method.label, alpha, est, se, k))
        yield ExperimentReport(tuple(rows), r, config.seed, config.workers, runtime)


def estimate_rejection_rate(config: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo rejection rates for each (method, alpha) pair.

    Under a zero mean vector this is the empirical type-I error; with
    signal in the mean it is power.  Deterministic for fixed
    (seed, replications) regardless of ``workers``.
    """
    return next(_rejection_reports(config, [config.model]))


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


def _equivalence_tallies(p, plan, alphas):
    """Rows that the weighted test, Bonferroni and both reject, per alpha."""
    weighted, bonferroni = _rejections(p, plan, alphas)
    tallies = np.zeros((len(alphas), 3), dtype=np.int64)
    for ai, (wgt, bon) in enumerate(zip(weighted, bonferroni)):
        tallies[ai] = np.count_nonzero(wgt), np.count_nonzero(bon), np.count_nonzero(wgt & bon)
    return tallies


def _equivalence_plan(config: ExperimentConfig, d: HeavyTailDistribution, w=None):
    """The weighted test on ``d`` (standard without ``w``) and Bonferroni on the
    mapped weights w_i^gamma / kappa, compiled at ``config``'s alphas."""
    if not config.alphas:
        raise ConfigError("at least one alpha is required")
    n, kind = config.model.n, "standard" if w is None else "weighted"
    # the mapped weights first: a power outside the doubles would make kappa 0 or inf
    mapped = combine._mapped_weights(combine._sum_weights(kind, n, d, w), d)
    return (_compile_method(MethodSpec(kind, weights=w), config.alphas, n, d),
            _compile_method(MethodSpec("bonferroni", weights=tuple(mapped.tolist())),
                            config.alphas, n))


def _equivalence_reports(config: ExperimentConfig, models, plan):
    """The EquivalenceReport of ``plan`` (from ``_equivalence_plan``) at each of
    ``models``; the pass runs at the call, each report when it is asked for."""
    start = time.perf_counter()
    per_model = _run_blocks(models, config.seed, config.replications, config.workers,
                            _equivalence_tallies, plan, config.alphas,
                            bound=max(m.bound for m in plan))
    return _reports_from_tallies(config, per_model, time.perf_counter() - start)


def _reports_from_tallies(config, per_model, runtime):
    """Each model's EquivalenceReport from its tallies, made when it is asked for."""
    r = config.replications
    for blocks in per_model:
        rows = []
        for alpha, (n_wgt, n_bon, n_both) in zip(config.alphas, sum(blocks).tolist()):
            n_dis, n_min = n_wgt + n_bon - 2 * n_both, min(n_wgt, n_bon)
            if n_min == 0:
                raise InsufficientEventsError(
                    f"no rejections at alpha={alpha}; increase replications",
                    counts={"weighted": n_wgt, "bonferroni": n_bon, "disagree": n_dis})
            a_hat, b_hat = n_dis / r, n_min / r
            var_a, var_b = a_hat * (1.0 - a_hat), b_hat * (1.0 - b_hat)
            cov_ab = (n_min - n_both) / r - a_hat * b_hat  # joint: only the rarer test rejects
            var_ratio = (var_a / b_hat**2 + a_hat**2 * var_b / b_hat**4
                         - 2.0 * a_hat * cov_ab / b_hat**3) / r
            rows.append(EquivalenceEstimate(alpha, a_hat / b_hat, math.sqrt(max(var_ratio, 0.0)),
                                            n_dis, n_wgt, n_bon))
        yield EquivalenceReport(tuple(rows), r, config.seed, config.workers, runtime)


def estimate_equivalence_ratio(
    config: ExperimentConfig, d: HeavyTailDistribution, w=None
) -> EquivalenceReport:
    """Shared-sample estimate of Pr(tests disagree) / min(rejection rates).

    The weighted combination test uses weights ``w`` (default: all ones);
    the Bonferroni side uses the tail-index-mapped weights
    w*_i = w_i^gamma / kappa so the two tests are asymptotically paired.
    Standard errors come from the delta method on the shared sample.
    """
    return next(_equivalence_reports(config, [config.model], _equivalence_plan(config, d, w)))


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


def _minp_calibrations(config: ExperimentConfig, models):
    """The MinPCalibration at ``config``'s one alpha of each of ``models``, as
    ``_rejection_reports`` makes its reports."""
    if any(any(model.mean) for model in models):
        raise ConfigError("minP calibration requires the null model (zero mean)")
    (alpha,), r, seed = config.alphas, config.replications, config.seed
    k = max(1, int(math.floor(alpha * r)))

    def kth_minimum(models, bound=1.0):  # the k-th smallest p-value minimum of the rows kept
        for blocks in _run_blocks(models, seed, r, config.workers, combine._bonferroni_statistic,
                                  bound=bound):
            minima = np.concatenate(blocks)
            yield float(np.partition(minima, k - 1)[k - 1]) if minima.size >= k else math.inf

    # a row screened at alpha has a minimum above alpha, so a k-th minimum below it is exact
    for model, cutoff in zip(models, kth_minimum(models, alpha)):
        if not cutoff < alpha:
            cutoff = next(kth_minimum([model]))
        yield MinPCalibration(cutoff, cutoff / (alpha / model.n), alpha, model.n, r, seed,
                              alpha * r < 50.0)


def calibrate_minp(
    model: ExchangeableModel, alpha: float, replications: int, seed: int, workers: int = 1
) -> MinPCalibration:
    """Empirical alpha-quantile of min(p_1..p_n) under the null model.

    ``cutoff_ratio`` divides the cutoff by the Bonferroni threshold
    alpha/n; values above 1 quantify how conservative Bonferroni is for
    the model's dependence.  Flagged unstable when alpha*replications < 50.
    """
    config = ExperimentConfig(model, (), (alpha,), replications, seed, workers)
    return next(_minp_calibrations(config, [model]))


# ---------------------------------------------------------------------------
# Tail dependence and p-value covariance.


def tail_dependence_t(nu: float, rho: float) -> float:
    """Upper tail dependence of a bivariate t with dof nu and correlation rho.

    Evaluates 2 * F_{t,nu+1}(-sqrt((nu+1)(1-rho)/(1+rho))).
    """
    if not (nu > 0.0):
        raise DomainError(f"nu must be positive, got {nu!r}")
    if not math.isfinite(nu):
        raise DomainError(f"nu must be finite, got {nu!r}")
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
    config = ExperimentConfig(model, (), (), replications, seed, workers)  # checks the settings
    replications, seed, workers = config.replications, config.seed, config.workers
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
    loo = cov_from((total - stats).T)
    se = math.sqrt((b - 1) / b * float(np.sum((loo - loo.mean()) ** 2)))
    return CovarianceEstimate(cov, se, replications, seed)
