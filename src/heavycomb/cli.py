"""Command-line front end.

Subcommands: combine, closed-test, adjust-bh, simulate, calibrate-minp,
tail-dep, equiv-ratio.  Exit codes: 0 success, 1 input validation error (or a
closed stdout), 2 configuration/usage error, 3 numerical failure (or a worker
that ended without a result).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from itertools import chain, count, repeat

from . import __version__, closed_testing, combine as comb, presets, simulate as sim
from .closed_testing import closed_test_shortcut  # noqa: F401  (perfbench/tracing.py patches it)
from .distributions import parse_distribution
from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    DomainError,
    HeavyCombError,
    InsufficientEventsError,
    MethodMisuseError,
    ShapeError,
    ValidationError,
)
from .simulate import (  # noqa: F401  (perfbench/tracing.py patches the public engine names)
    ExchangeableModel,
    ExperimentConfig,
    MethodSpec,
    calibrate_minp,
    estimate_equivalence_ratio,
    estimate_rejection_rate,
    tail_dependence_t,
)

_ENV_WORKERS = "HEAVYCOMB_WORKERS"
_DEFAULT_SEED = 20240501
_FLAGS = {"csv": ("false", "true"), "json": (False, True)}  # a flag column, per --format


_CSV_FIELDS = {str: "%s", int: "%d", float: "%.17g"}  # no bool: flags come from _FLAGS


def _open(path, mode: str, what: str, errors=None):
    """``open(path, mode)``; an OSError is a ConfigError naming the file's role."""
    try:
        return open(path, mode, newline="", errors=errors)
    except OSError as exc:
        raise ConfigError(f"cannot {what} file: {exc}") from exc


def _csv_lines(rows):
    """``rows`` (tuples) as CSV lines: ``fmt % row``, ``fmt`` built from the first
    row's field types (a bool or numpy scalar is a KeyError)."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return iter(())
    fmt = ",".join(_CSV_FIELDS[type(field)] for field in first) + "\n"
    return map(fmt.__mod__, chain((first,), rows))


def _emit(args, header, rows, config_echo, tail=()) -> int:
    """Write ``rows`` (tuples) and the run's manifest to ``--output`` (default stdout).

    CSV rows (see ``_csv_lines``) are written as they are produced, then the
    CSV text of ``tail``, so an error part-way leaves the rows so far and no
    manifest; a JSON document is written only once complete.  A header with an
    event-count column has its rows flagged as they pass (see
    ``_flag_few_events``).  The manifest takes the run's seed, workers and start
    time from ``args``, and, when a row was flagged, a ``health`` section that
    lists them; an output file gets it as ``<stem>.manifest.json``.
    """
    few_events = []
    if not _EVENTS.isdisjoint(header):
        rows = _flag_few_events(few_events, header, rows)
    to_file = args.output not in (None, "-")
    stream = _open(args.output, "w", "write output") if to_file else sys.stdout
    try:
        if args.format == "csv":
            stream.write(",".join(header) + "\n")
            stream.writelines(_csv_lines(rows))
            stream.writelines(tail)
        else:
            records = [dict(zip(header, row)) for row in rows]
        manifest = {
            "command": " ".join(args.argv),
            "config": config_echo,
            "seed": args.seed,
            "workers": args.workers,
            "version": __version__,
            "runtime_seconds": time.perf_counter() - args.start,
        }
        if few_events:
            manifest["health"] = {"few_events": few_events}
        if args.format == "json":
            json.dump({"rows": records, "manifest": manifest}, stream, indent=2)
            stream.write("\n")
    finally:
        if to_file:
            stream.close()
    if to_file:
        with _open(os.path.splitext(args.output)[0] + ".manifest.json", "w", "write output") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return 0


def _open_input(path):
    """The input file; a byte that is not text reads as a lone surrogate, so that
    ``groupfile._iter_groups`` can name its line."""
    return _open(path, "r", "read input", errors="surrogateescape")


def _emit_groups(args, fh, header, compute, echo, workers: int) -> int:
    """``_emit`` of each group's rows, from ``compute(block, ids)`` on a
    ``(groups, n)`` block of the input open as ``fh`` and its group ids.  A CSV
    is split across up to ``workers`` processes (see ``groupfile._rows``); a
    JSON document is written whole, by this process alone."""
    from . import groupfile  # only the file commands read one, so no other command loads it

    workers = workers if args.format == "csv" else 1
    with groupfile._rows(args.input, fh, compute, _csv_lines, workers) as (rows, tail):
        return _emit(args, header, rows, echo, tail)


def _dist_from_arg(spec: str):
    try:
        return parse_distribution(spec)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _check_level(flag: str, value: float | None) -> None:
    if value is not None and not (0.0 < value < 1.0):
        raise ConfigError(f"{flag} must be in (0,1), got {value!r}")


def _parse_weights_arg(text):
    try:
        weights = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"unparseable weights: {text!r}") from None
    if not weights:
        raise ConfigError("empty weight list")
    return weights


def _env_workers() -> int:
    """``$HEAVYCOMB_WORKERS``, or 1 when it is unset or empty: the worker count of a
    command given no ``--workers`` (nor, for an engine command, a config's), held
    to the flag's rule."""
    env = os.environ.get(_ENV_WORKERS)
    try:
        workers = int(env) if env else 1
    except ValueError:
        raise ConfigError(f"{_ENV_WORKERS} must be an integer, got {env!r}") from None
    sim._check_workers(workers)
    return workers


def cmd_combine(args) -> int:
    workers = args.workers or _env_workers()  # see _emit_groups
    method, takes = args.method, sim._KINDS[args.method]
    dist = None
    if "distribution" in takes:
        if not args.dist:
            raise ConfigError(f"method {method!r} requires --dist")
        dist = _dist_from_arg(args.dist)
        if method == "average":
            try:
                comb._sum_weights("average", 1, dist)  # checks the tail index
            except MethodMisuseError:
                raise ConfigError(
                    f"method 'average' needs a tail-index-1 distribution, got {args.dist!r}"
                ) from None
    elif args.dist is not None:
        raise ConfigError(f"--dist does not apply to method {method!r}")
    _check_level("--alpha", args.alpha)
    if args.weights is not None and "weights" not in takes:
        raise ConfigError(f"--weights does not apply to method {method!r}")
    weights = None if args.weights is None else _parse_weights_arg(args.weights)
    if weights is not None:
        try:  # the values and kappa once, before any output; the count is per group
            checked = comb._validate_weights(weights, len(weights))
            if method == "weighted":
                comb._kappa(checked, dist)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
    header = ["group_id", "n", "statistic", "combined_p"]
    if args.alpha is not None:
        header.append("reject")
    flag = _FLAGS[args.format]

    def compute(block, ids):  # one row a group
        res = comb._combine_rows(method, block, dist, weights)
        cols = [ids, repeat(block.shape[1]), res.statistic.tolist(), res.combined_p.tolist()]
        if args.alpha is not None:
            cols.append(map(flag.__getitem__, (res.combined_p < args.alpha).tolist()))
        return zip(zip(*cols))

    echo = {"input": args.input, "method": method, "dist": args.dist,
            "weights": args.weights, "alpha": args.alpha}
    with _open_input(args.input) as fh:  # before any output
        if method == "weighted" and weights is None:  # after the header, whatever the input
            missing = ConfigError("method 'weighted' requires --weights")
            return _emit(args, header, _raising(missing), echo)
        return _emit_groups(args, fh, header, compute, echo, workers)


def _raising(exc):  # rows whose first ``next`` raises ``exc``
    raise exc
    yield


def cmd_closed_test(args) -> int:
    workers = args.workers or _env_workers()  # see _emit_groups
    dist = _dist_from_arg(args.dist)
    _check_level("--alpha", args.alpha)
    mark = _FLAGS[args.format].__getitem__

    def compute(block, ids):  # a group's lists are made as its rows are written, not a chunk's
        adjusted = closed_testing._shortcut_rows(block, dist)
        rejected = closed_testing._decide(adjusted, args.alpha)[0]
        return (zip(repeat(gid), count(1), p.tolist(), adj.tolist(), map(mark, rej.tolist()))
                for gid, p, adj, rej in zip(ids, block, adjusted, rejected))

    header = ["group_id", "hypothesis", "p_value", "adjusted_p", "reject"]
    echo = {"input": args.input, "dist": args.dist, "alpha": args.alpha}
    with _open_input(args.input) as fh:  # before any output
        return _emit_groups(args, fh, header, compute, echo, workers)


def cmd_adjust_bh(args) -> int:
    from . import groupfile  # as in _emit_groups

    _check_level("--q", args.q)

    def compute(block, ids):  # a group's id and its one p-value
        if block.shape[1] != 1:
            raise ShapeError(
                f"adjust-bh expects one combined p-value per group, got {block.shape[1]}")
        return zip(zip(ids, block[:, 0].tolist()))

    ids, pvals = [], []
    with _open_input(args.input) as fh:  # the step-up needs every p-value
        for group_id, p in chain.from_iterable(groupfile._batched_rows(fh, compute, 1, None)):
            ids.append(group_id)
            pvals.append(p)
    adjusted = comb.bh_adjust(pvals).tolist() if pvals else []
    flag = _FLAGS[args.format]
    rows = ((gid, p, adj, flag[adj <= args.q]) for gid, p, adj in zip(ids, pvals, adjusted))
    header = ["group_id", "p_value", "adjusted_p", "discovery"]
    return _emit(args, header, rows, {"input": args.input, "q": args.q})


def _numbers(key: str, value) -> tuple[float, ...]:
    """A nonempty list of numbers, or one number, as a tuple of floats."""
    items = sim._numbers(key, value)
    if not items:
        raise ConfigError(f"config lists no {key}")
    return tuple(map(float, items))


def _typed(key: str, value, kind=dict):
    if type(value) is not kind:
        raise ConfigError(f"{key} must be a {kind.__name__}, got {value!r}")
    return value


def _known(where: str, section, keys):
    """``section``, a dict whose every key is in ``keys``; else a ConfigError naming
    the first other key, since nothing would read it."""
    for key in _typed(where, section):
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return section


def _fields(cls) -> set:
    return {field.name for field in dataclasses.fields(cls)}


_MODEL = {"family": "normal", "n": None, "rho": None, "nu": None, "sided": "one_sided"}
_DEFAULTS = {  # each engine command's run settings, with their defaults
    "simulate": {"alphas": [0.05], "replications": 0, "methods": []},
    "calibrate-minp": {"alpha": 0.05, "replications": 100_000},
    "equiv-ratio": {"distribution": "cauchy", "alphas": [0.05], "replications": 100_000,
                    "weights": None},
}
_CONFIG_KEYS = {"command", "model", "seed", "workers"}.union(*_DEFAULTS.values())


def _read_config(args, command: str):
    """Return ``(config echo, run settings, models)``.  The echo starts as the preset,
    the config file or, given ``--n`` and ``--rho``, ``_MODEL`` (also a config model's
    defaults) and the command's ``_DEFAULTS``; each flag given then sets its key: in
    ``model`` for ``_MODEL``'s keys, else at the top level.  The run settings are the
    defaults overlaid by the echo.  A key that no engine command reads is refused.  Set
    ``args.seed`` and ``args.workers`` to the run's, as ExperimentConfig checks them (the
    flags were checked in ``main``); with no workers set, ``_env_workers()``.  A bad type
    names its key."""
    defaults = _DEFAULTS[command]
    if args.preset:
        cfg = presets.get_preset(args.preset)
    elif args.config:
        with _open(args.config, "r", "read config") as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:  # also an integer past Python's int digit limit
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    elif not hasattr(args, "n"):  # simulate takes no model flags
        raise ConfigError("either --config FILE or --preset NAME is required")
    elif args.n is None or args.rho is None:
        raise ConfigError(f"{command} needs --config/--preset or --n and --rho")
    else:
        cfg = {"model": dict(_MODEL), **defaults}
    declared = _known("config", cfg, _CONFIG_KEYS).pop("command", command)
    if declared != command:
        raise ConfigError(f"config declares command {declared!r} but was passed to {command!r}")
    model = {key: getattr(args, key) for key in _MODEL if getattr(args, key, None) is not None}
    if model:
        _typed("model", cfg.setdefault("model", {})).update(model)
    for key in (*defaults, "seed", "workers"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    cfg.setdefault("seed", _DEFAULT_SEED)
    if "workers" not in cfg:  # the environment is read only when nothing else sets it
        cfg["workers"] = _env_workers()
    workers = cfg["workers"] if args.preset or args.config else cfg.pop("workers")  # flags: no echo
    if "model" not in cfg:
        raise ConfigError("config is missing the 'model' section")
    mc = _known("model", cfg["model"], _fields(ExchangeableModel))
    rhos = _numbers("rho", mc.get("rho", 0.0))
    # n is checked before the mean, which needs it
    model = ExchangeableModel(**{**_MODEL, "n": 0, **mc, "rho": rhos[0], "mean": ()})
    mean = _build_mean(model.n, mc.get("mean"))
    models = [dataclasses.replace(model, rho=rho, mean=mean) for rho in rhos]
    run = ExperimentConfig(models[0], (), (), 1, cfg["seed"], workers)  # checks seed, workers
    args.seed, args.workers = run.seed, run.workers
    return cfg, {**defaults, **cfg}, models


def _build_mean(n: int, spec):
    if spec is None or isinstance(spec, list):
        return spec or ()  # ExchangeableModel checks the values
    kind = _typed("mean", spec).get("kind")
    if kind not in ("dense", "sparse"):
        raise ConfigError(f"unknown mean kind {kind!r}")
    _known("mean", spec, ("kind", "value", "count") if kind == "sparse" else ("kind", "value"))
    value = float(sim._number("mean value", spec.get("value", 0.0)))
    if kind == "dense":
        return (value,) * n
    count = sim._count("mean count", spec.get("count", 1))
    if not (1 <= count <= n):
        raise ConfigError(f"sparse mean count must be in 1..{n}")
    return (0.0,) * (n - count) + (value,) * count


def _method_specs(methods) -> tuple[MethodSpec, ...]:
    keys = _fields(MethodSpec)
    out = tuple(MethodSpec(**{"kind": None, **_known("method", m, keys)})
                for m in _typed("methods", methods, list))
    if not out:
        raise ConfigError("config lists no methods")
    return out


_MODEL_HEADER = list(_MODEL)


def _model_cols(model: ExchangeableModel) -> tuple:
    return model.family, model.n, model.rho, "" if model.nu is None else model.nu, model.sided


_FEW_EVENTS = 10  # a rate's row that rests on fewer events is flagged
_EVENTS = {"rejections", "disagreements", "weighted_rejections", "bonferroni_rejections"}


def _flag_few_events(flagged: list, header, rows):
    """``rows``, each flagged when one of its event counts (its ``_EVENTS``
    columns) is below ``_FEW_EVENTS``: a line on stderr, and an entry in
    ``flagged`` for the manifest, named by its number (from 1) and its rho,
    method and alpha.  Its estimate and delta-method std_error then rest on a
    handful of events, so they can be far off; the counts are also CSV columns."""
    places = [(i, key) for i, key in enumerate(header) if key in ("rho", "method", "alpha")]
    columns = [(i, key) for i, key in enumerate(header) if key in _EVENTS]
    for number, row in enumerate(rows, 1):
        events = {key: row[i] for i, key in columns}
        if min(events.values()) < _FEW_EVENTS:
            where = {key: row[i] for i, key in places}
            flagged.append({"row": number, **where, "events": events})
            place = ", ".join(f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
                              for key, value in where.items())
            counts = ", ".join(f"{value} {key}" for key, value in events.items())
            print(f"warning: row {number} ({place}) rests on {counts}: fewer than {_FEW_EVENTS} "
                  "events", file=sys.stderr)
        yield row


def cmd_simulate(args) -> int:
    cfg, run, models = _read_config(args, "simulate")
    methods = _method_specs(run["methods"])
    alphas = _numbers("alphas", run["alphas"])
    config = ExperimentConfig(models[0], methods, alphas, run["replications"], args.seed,
                              args.workers)
    # the whole run, and so every check of the config, before any output
    reports = list(sim._rejection_reports(config, models))

    def rows():
        for model, report in zip(models, reports):
            for row in report.rows:
                yield _model_cols(model) + (
                    row.method, row.alpha, row.estimate, row.std_error,
                    row.rejections, report.replications, report.seed,
                )
            print(f"[simulate] rho={model.rho:g}: {report.replications} replications "
                  f"in {report.runtime_seconds:.1f}s", file=sys.stderr)

    header = _MODEL_HEADER + ["method", "alpha", "estimate", "std_error", "rejections",
                              "replications", "seed"]
    return _emit(args, header, rows(), cfg)


def cmd_calibrate_minp(args) -> int:
    cfg, run, models = _read_config(args, "calibrate-minp")
    alpha = float(sim._number("alpha", run["alpha"]))
    config = ExperimentConfig(models[0], (), (alpha,), run["replications"], args.seed, args.workers)
    # the whole run, and so every check of the settings, before any output
    cals = list(sim._minp_calibrations(config, models))
    flag = _FLAGS[args.format]

    rows = (_model_cols(model) + (cal.alpha, cal.cutoff, cal.cutoff_ratio, cal.replications,
                                  cal.seed, flag[cal.unstable]) for model, cal in zip(models, cals))
    header = _MODEL_HEADER + ["alpha", "cutoff", "cutoff_ratio", "replications", "seed",
                              "unstable"]
    return _emit(args, header, rows, cfg)


def cmd_tail_dep(args) -> int:
    rhos = _numbers("rho", args.rho)  # an empty list is a usage error
    try:  # every value before any output
        rows = [(args.nu, rho, tail_dependence_t(args.nu, rho)) for rho in rhos]
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    echo = {"nu": args.nu, "rho": args.rho}
    return _emit(args, ["nu", "rho", "tail_dependence"], rows, echo)


def cmd_equiv_ratio(args) -> int:
    args.weights = None if args.weights is None else _parse_weights_arg(args.weights)
    cfg, run, models = _read_config(args, "equiv-ratio")
    alphas = _numbers("alphas", run["alphas"])
    weights = None if run["weights"] is None else _numbers("weights", run["weights"])
    dist = _dist_from_arg(run["distribution"])
    config = ExperimentConfig(models[0], (), alphas, run["replications"], args.seed, args.workers)
    try:  # the weights, their mapped powers and kappa before any output
        plan = sim._equivalence_plan(config, dist, weights)
    except (DomainError, ShapeError) as exc:
        raise ConfigError(str(exc)) from None
    # the block pass before any output; a scenario without rejections fails at its rows
    reports = sim._equivalence_reports(config, models, plan)

    rows = (_model_cols(model) + (dist.spec_string(), row.alpha, row.ratio, row.std_error,
                                  row.disagreements, row.weighted_rejections,
                                  row.bonferroni_rejections, report.replications, report.seed)
            for model, report in zip(models, reports) for row in report.rows)
    header = _MODEL_HEADER + ["distribution", "alpha", "ratio", "std_error", "disagreements",
                              "weighted_rejections", "bonferroni_rejections",
                              "replications", "seed"]
    return _emit(args, header, rows, cfg)


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed, 0 to 2^64-1; overrides config/preset values")
    parser.add_argument("--workers", type=int, default=None,
                        help="processes that share the work, this one included "
                             f"(default: ${_ENV_WORKERS} or 1): an engine run's rows, at "
                             f"most one per {sim.BLOCK_SIZE}-row block, or a combine or "
                             "closed-test input, at most one per "
                             f"{comb._CHUNK} p-values; adjust-bh and tail-dep use one. "
                             "Results are identical for any value")
    parser.add_argument("--output", "-o", default=None,
                        help="output file ('-' or omitted: stdout)")
    parser.add_argument("--format", choices=tuple(_FLAGS), default="csv",
                        help="output format (default csv)")


def _add_config(parser, model_flags=False):
    """--config and --preset; with ``model_flags``, the model flags and ``--reps``.  A flag
    given sets its config key (see ``_read_config``); ``--n`` with ``--rho`` needs no config."""
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", help=f"named preset: {', '.join(sorted(presets.PRESETS))}")
    if model_flags:
        parser.add_argument("--family", choices=sim._FAMILIES)
        parser.add_argument("--n", type=int)
        parser.add_argument("--rho", type=_float_list, help="comma-separated correlation values")
        parser.add_argument("--nu", type=float)
        parser.add_argument("--sided", choices=sim._SIDES)
        parser.add_argument("--reps", type=int, dest="replications", metavar="REPS")


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavycomb",
        description="Heavy-tailed p-value combination tests and experiments. "
                    f"Set ${_ENV_WORKERS} to change the default worker count.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("combine", help="combine p-values per group from a CSV file")
    p.add_argument("--input", "-i", required=True, help="CSV: group_id,p1,p2,... (ragged)")
    p.add_argument("--method", required=True, choices=[k for k in sim._KINDS if k != "minp"])
    p.add_argument("--dist", help="distribution spec, e.g. cauchy or trunc_t:1:0.9")
    p.add_argument("--weights", help="comma-separated positive weights")
    p.add_argument("--alpha", type=float, default=None, help="emit reject flag at this level")
    _add_common(p)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("closed-test", help="closed testing for individual hypotheses")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--alpha", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_closed_test)

    p = sub.add_parser("adjust-bh", help="Benjamini-Hochberg adjustment of combined p-values")
    p.add_argument("--input", "-i", required=True, help="CSV: group_id,p")
    p.add_argument("--q", type=float, default=0.05, help="FDR level (default 0.05)")
    _add_common(p)
    p.set_defaults(func=cmd_adjust_bh)

    p = sub.add_parser("simulate", help="rejection-rate experiments from a config or preset")
    _add_config(p)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate-minp", help="Monte Carlo calibration of the min-p cutoff")
    _add_config(p, model_flags=True)
    p.add_argument("--alpha", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_calibrate_minp)

    p = sub.add_parser("tail-dep", help="bivariate-t upper tail dependence coefficient")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--rho", type=_float_list, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_tail_dep)

    p = sub.add_parser("equiv-ratio", help="disagreement ratio vs the Bonferroni test")
    _add_config(p, model_flags=True)
    p.add_argument("--dist", dest="distribution", metavar="DIST")
    p.add_argument("--alphas", type=_float_list)
    p.add_argument("--weights")
    _add_common(p)
    p.set_defaults(func=cmd_equiv_ratio)

    return parser


_parser = functools.cache(build_parser)  # built once, at the first main call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    args.start = time.perf_counter()
    try:  # every manifest records --seed and --workers as given: checked once, before any input
        if args.seed is not None:
            sim._check_seed(args.seed)
        if args.workers is not None:
            sim._check_workers(args.workers)
        return args.func(args)
    except (ValidationError, ShapeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, MethodMisuseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, BracketError, InsufficientEventsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (HeavyCombError, ChildProcessError) as exc:  # also a worker that sent no result
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the reader of stdout has gone: stop quietly
        # stdout is flushed again at exit; on devnull that flush is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
