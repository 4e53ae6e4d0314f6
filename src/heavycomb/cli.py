"""Command-line front end.

Subcommands: combine, closed-test, adjust-bh, simulate, calibrate-minp,
tail-dep, equiv-ratio.  Exit codes: 0 success, 1 input validation error,
2 configuration/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__, combine as comb, presets
from .closed_testing import closed_test_shortcut
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
from .simulate import (
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


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


class _Writer:
    """Streams rows to CSV or collects them for a JSON document."""

    def __init__(self, stream, fmt: str, header: list[str]):
        self.fmt = fmt
        self.header = header
        self.stream = stream
        self.rows: list[dict] = []
        if fmt == "csv":
            self.stream.write(",".join(header) + "\n")

    def write(self, values):
        if self.fmt == "csv":
            self.stream.write(",".join(_fmt(v) for v in values) + "\n")
        else:
            self.rows.append({k: v for k, v in zip(self.header, values)})

    def finish(self, manifest: dict):
        if self.fmt == "json":
            doc = {"rows": self.rows, "manifest": manifest}
            json.dump(doc, self.stream, indent=2, default=_json_default)
            self.stream.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(args, header, rows, start, config_echo, seed=None, workers=None) -> int:
    """Write ``rows`` and the run's manifest to ``--output`` (default stdout).

    Rows are written as they are produced, so an error part-way leaves the
    rows so far and no manifest.  An output file gets its manifest beside
    it, as ``<stem>.manifest.json``.
    """
    to_file = args.output not in (None, "-")
    stream = open(args.output, "w", newline="") if to_file else sys.stdout
    writer = _Writer(stream, args.format, header)
    try:
        for row in rows:
            writer.write(row)
        manifest = {
            "command": " ".join(args.argv),
            "config": config_echo,
            "seed": args.seed if seed is None else seed,
            "workers": args.workers if workers is None else workers,
            "version": __version__,
            "runtime_seconds": time.perf_counter() - start,
        }
        writer.finish(manifest)
    finally:
        if to_file:
            stream.close()
    if to_file:
        with open(os.path.splitext(args.output)[0] + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, default=_json_default)
            fh.write("\n")
    return 0


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f"line {line_no}: unparseable {what}: {token!r}") from None


def _iter_groups(path):
    """Yield (line_no, group_id, p_values) from a ragged CSV file.

    A header line is detected by a non-numeric second field on line 1.
    """
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                raise ValidationError(f"line {line_no}: empty line")
            fields = [f.strip() for f in row]
            if line_no == 1 and len(fields) >= 2:
                try:
                    float(fields[1])
                except ValueError:
                    continue  # header
            group_id = fields[0]
            if len(fields) < 2:
                raise ValidationError(f"line {line_no}: group {group_id!r} has no p-values")
            values = [_parse_float(tok, line_no, "p-value") for tok in fields[1:]]
            for v in values:
                if not (0.0 < v <= 1.0):
                    raise ValidationError(
                        f"line {line_no}: p-value {v!r} outside (0, 1]"
                    )
            yield line_no, group_id, values


def _dist_from_arg(spec: str):
    try:
        return parse_distribution(spec)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_weights_arg(text):
    try:
        weights = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"unparseable weights: {text!r}") from None
    if not weights:
        raise ConfigError("empty weight list")
    return weights


def cmd_combine(args) -> int:
    start = time.perf_counter()
    method = args.method
    dist = None
    if method in ("standard", "average", "weighted"):
        if not args.dist:
            raise ConfigError(f"method {method!r} requires --dist")
        dist = _dist_from_arg(args.dist)
        if method == "average" and abs(dist.tail_index - 1.0) > 1e-12:
            raise ConfigError(
                f"method 'average' needs a tail-index-1 distribution, got {args.dist!r}"
            )
    weights = _parse_weights_arg(args.weights) if args.weights else None
    header = ["group_id", "n", "statistic", "combined_p"]
    if args.alpha is not None:
        header.append("reject")

    def rows():
        for line_no, group_id, values in _iter_groups(args.input):
            try:
                if method == "standard":
                    res = comb.combine_standard(values, dist)
                elif method == "average":
                    res = comb.combine_average(values, dist)
                elif method == "weighted":
                    if weights is None:
                        raise ConfigError("method 'weighted' requires --weights")
                    if len(weights) != len(values):
                        raise ValidationError(
                            f"line {line_no}: group {group_id!r} has {len(values)} p-values "
                            f"but {len(weights)} weights were given"
                        )
                    res = comb.combine_weighted(values, weights, dist)
                elif method == "bonferroni":
                    res = comb.bonferroni(values, weights)
                else:
                    res = comb.fisher(values)
            except (DomainError, ShapeError) as exc:
                raise ValidationError(f"line {line_no}: {exc}") from exc
            out = [group_id, res.n, res.statistic, res.combined_p]
            if args.alpha is not None:
                out.append(res.combined_p < args.alpha)
            yield out

    echo = {"input": args.input, "method": method, "dist": args.dist,
            "weights": args.weights, "alpha": args.alpha}
    return _emit(args, header, rows(), start, echo)


def cmd_closed_test(args) -> int:
    start = time.perf_counter()
    dist = _dist_from_arg(args.dist)

    def rows():
        for line_no, group_id, values in _iter_groups(args.input):
            try:
                res = closed_test_shortcut(values, dist, args.alpha)
            except (DomainError, ShapeError) as exc:
                raise ValidationError(f"line {line_no}: {exc}") from exc
            for idx, (p, adj, rej) in enumerate(
                zip(values, res.adjusted_p, res.rejected), start=1
            ):
                yield [group_id, idx, p, float(adj), bool(rej)]

    header = ["group_id", "hypothesis", "p_value", "adjusted_p", "reject"]
    echo = {"input": args.input, "dist": args.dist, "alpha": args.alpha}
    return _emit(args, header, rows(), start, echo)


def cmd_adjust_bh(args) -> int:
    start = time.perf_counter()
    ids, pvals = [], []
    for line_no, group_id, values in _iter_groups(args.input):
        if len(values) != 1:
            raise ValidationError(
                f"line {line_no}: adjust-bh expects one combined p-value per group, "
                f"got {len(values)}"
            )
        ids.append(group_id)
        pvals.append(values[0])
    adjusted = comb.bh_adjust(pvals)
    rows = ([gid, p, float(adj), bool(adj <= args.q)]
            for gid, p, adj in zip(ids, pvals, adjusted))
    header = ["group_id", "p_value", "adjusted_p", "discovery"]
    return _emit(args, header, rows, start, {"input": args.input, "q": args.q})


def _load_config(args, command: str, from_flags: dict | None = None):
    """Return ``(config echo, seed, workers)`` from ``--preset`` or ``--config``.

    Commands that pass ``from_flags`` also run from ``--n``/``--rho``: their
    config is the model flags, then ``from_flags``, then the seed.  ``--seed``
    and ``--workers`` win over the config, which wins over the defaults.
    """
    if args.preset:
        try:
            cfg = presets.get_preset(args.preset)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    elif args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    elif from_flags is None:
        raise ConfigError("either --config FILE or --preset NAME is required")
    elif args.n is None or args.rho is None:
        raise ConfigError(f"{command} needs --config/--preset or --n and --rho")
    else:
        model = {"family": args.family, "n": args.n, "rho": args.rho, "nu": args.nu,
                 "sided": args.sided}
        seed = _DEFAULT_SEED if args.seed is None else args.seed
        workers = _default_workers() if args.workers is None else args.workers
        return {"model": model, **from_flags, "seed": seed}, seed, workers
    declared = cfg.pop("command", command)
    if declared != command:
        raise ConfigError(f"config declares command {declared!r} but was passed to {command!r}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.workers is not None:
        cfg["workers"] = args.workers
    cfg.setdefault("seed", _DEFAULT_SEED)
    if "workers" not in cfg:  # the environment is read only when nothing else sets it
        cfg["workers"] = _default_workers()
    return cfg, int(cfg["seed"]), int(cfg["workers"])


def _build_mean(n: int, mean_spec) -> tuple[float, ...]:
    if mean_spec in (None, ()):
        return ()
    if isinstance(mean_spec, dict):
        kind = mean_spec.get("kind")
        value = float(mean_spec.get("value", 0.0))
        if kind == "dense":
            return tuple([value] * n)
        if kind == "sparse":
            count = int(mean_spec.get("count", 1))
            if not (1 <= count <= n):
                raise ConfigError(f"sparse mean count must be in 1..{n}")
            return tuple([0.0] * (n - count) + [value] * count)
        raise ConfigError(f"unknown mean kind {kind!r}")
    mean = tuple(float(v) for v in mean_spec)
    if len(mean) != n:
        raise ConfigError(f"mean vector has length {len(mean)}, expected {n}")
    return mean


def _models_from_config(cfg: dict) -> list[ExchangeableModel]:
    try:
        mc = dict(cfg["model"])
    except KeyError:
        raise ConfigError("config is missing the 'model' section") from None
    rhos = mc.pop("rho", 0.0)
    if not isinstance(rhos, (list, tuple)):
        rhos = [rhos]
    n = int(mc.get("n", 0))
    mean = _build_mean(n, mc.pop("mean", None))
    models = []
    for rho in rhos:
        models.append(
            ExchangeableModel(
                family=mc.get("family", "normal"),
                n=n,
                rho=float(rho),
                nu=mc.get("nu"),
                mean=mean,
                sided=mc.get("sided", "one_sided"),
            )
        )
    return models


def _method_specs(cfg: dict) -> tuple[MethodSpec, ...]:
    out = []
    for m in cfg.get("methods", []):
        out.append(
            MethodSpec(
                kind=m["kind"],
                distribution=m.get("distribution"),
                weights=tuple(m["weights"]) if m.get("weights") else None,
                cutoff=m.get("cutoff"),
                label=m.get("label"),
            )
        )
    if not out:
        raise ConfigError("config lists no methods")
    return tuple(out)


_MODEL_HEADER = ["family", "n", "rho", "nu", "sided"]


def _model_cols(model: ExchangeableModel) -> list:
    return [model.family, model.n, model.rho, "" if model.nu is None else model.nu, model.sided]


def cmd_simulate(args) -> int:
    start = time.perf_counter()
    cfg, seed, workers = _load_config(args, "simulate")
    models = _models_from_config(cfg)
    methods = _method_specs(cfg)
    alphas = tuple(float(a) for a in cfg.get("alphas", [0.05]))
    replications = int(cfg.get("replications", 0))

    def rows():
        for model in models:
            report = estimate_rejection_rate(
                ExperimentConfig(model, methods, alphas, replications, seed, workers)
            )
            for row in report.rows:
                yield _model_cols(model) + [
                    row.method, row.alpha, row.estimate, row.std_error,
                    row.rejections, report.replications, report.seed,
                ]
            print(
                f"[simulate] rho={model.rho:g}: {report.replications} replications "
                f"in {report.runtime_seconds:.1f}s",
                file=sys.stderr,
            )

    header = _MODEL_HEADER + ["method", "alpha", "estimate", "std_error", "rejections",
                              "replications", "seed"]
    return _emit(args, header, rows(), start, cfg, seed, workers)


def cmd_calibrate_minp(args) -> int:
    start = time.perf_counter()
    flags = {"alpha": args.alpha, "replications": args.reps}
    cfg, seed, workers = _load_config(args, "calibrate-minp", flags)
    models = _models_from_config(cfg)
    alpha = float(cfg.get("alpha", 0.05))
    replications = int(cfg.get("replications", 100_000))

    def rows():
        for model in models:
            cal = calibrate_minp(model, alpha, replications, seed, workers)
            yield _model_cols(model) + [cal.alpha, cal.cutoff, cal.cutoff_ratio,
                                        cal.replications, cal.seed, cal.unstable]

    header = _MODEL_HEADER + ["alpha", "cutoff", "cutoff_ratio", "replications", "seed",
                              "unstable"]
    return _emit(args, header, rows(), start, cfg, seed, workers)


def cmd_tail_dep(args) -> int:
    start = time.perf_counter()
    rows = ([args.nu, rho, tail_dependence_t(args.nu, rho)] for rho in args.rho)
    echo = {"nu": args.nu, "rho": args.rho}
    return _emit(args, ["nu", "rho", "tail_dependence"], rows, start, echo)


def cmd_equiv_ratio(args) -> int:
    start = time.perf_counter()
    flags = {"distribution": args.dist, "alphas": args.alphas, "replications": args.reps}
    cfg, seed, workers = _load_config(args, "equiv-ratio", flags)
    models = _models_from_config(cfg)
    alphas = tuple(float(a) for a in cfg.get("alphas", [0.05]))
    replications = int(cfg.get("replications", 100_000))
    if args.preset or args.config:
        weights = tuple(cfg["weights"]) if cfg.get("weights") else None
    else:
        weights = _parse_weights_arg(args.weights) if args.weights else None
    dist = _dist_from_arg(cfg.get("distribution", "cauchy"))

    def rows():
        for model in models:
            config = ExperimentConfig(model, (), alphas, replications, seed, workers)
            report = estimate_equivalence_ratio(config, dist, weights)
            for row in report.rows:
                yield _model_cols(model) + [
                    dist.spec_string(), row.alpha, row.ratio, row.std_error,
                    row.disagreements, row.weighted_rejections,
                    row.bonferroni_rejections, report.replications, report.seed,
                ]

    header = _MODEL_HEADER + ["distribution", "alpha", "ratio", "std_error", "disagreements",
                              "weighted_rejections", "bonferroni_rejections",
                              "replications", "seed"]
    return _emit(args, header, rows(), start, cfg, seed, workers)


def _default_workers() -> int:
    env = os.environ.get(_ENV_WORKERS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{_ENV_WORKERS} must be an integer, got {env!r}") from None
    return 1


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (64-bit); overrides config/preset values")
    parser.add_argument("--workers", type=int, default=None,
                        help=f"worker process count (default: ${_ENV_WORKERS} or 1); "
                             "results are identical for any value")
    parser.add_argument("--output", "-o", default=None,
                        help="output file ('-' or omitted: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")


def _add_config(parser, model_flags=False):
    """--config and --preset; with ``model_flags``, the flags that replace them."""
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", help=f"named preset: {', '.join(sorted(presets.PRESETS))}")
    if model_flags:
        parser.add_argument("--family", choices=("normal", "student_t"), default="normal")
        parser.add_argument("--n", type=int)
        parser.add_argument("--rho", type=_float_list, help="comma-separated correlation values")
        parser.add_argument("--nu", type=float)
        parser.add_argument("--sided", choices=("one_sided", "two_sided"), default="one_sided")
        parser.add_argument("--reps", type=int, default=100_000)


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
    p.add_argument("--method", required=True,
                   choices=("standard", "average", "weighted", "bonferroni", "fisher"))
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
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=cmd_calibrate_minp)

    p = sub.add_parser("tail-dep", help="bivariate-t upper tail dependence coefficient")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--rho", type=_float_list, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_tail_dep)

    p = sub.add_parser("equiv-ratio", help="disagreement ratio vs the Bonferroni test")
    _add_config(p, model_flags=True)
    p.add_argument("--dist", default="cauchy")
    p.add_argument("--alphas", type=_float_list, default=[0.05])
    p.add_argument("--weights")
    _add_common(p)
    p.set_defaults(func=cmd_equiv_ratio)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
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
    except HeavyCombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
