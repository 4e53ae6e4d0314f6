"""Outside-in tracing: wrap the package's public functions from the benchmark.

Each wrapped call records a span (name, layer, start, end, parent span,
elements).  Scalar special functions are called hundreds of thousands of
times per run, so they get no span of their own: their calls are counted,
and the time of the outermost one is summed, under the span that was open
when they were called.  A layer's self time is its spans' time minus the
time of their child spans and of the scalar calls made under them; the
scalar time is the ``special`` layer's.  Time a scalar call spends in a
callback (``find_root`` evaluating a distribution's survival function) is
counted as ``special``, because only per-call spans could tell it apart.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from heavycomb import cli, combine, distributions, simulate, special

# (module, attribute, layer) wrapped with a span each call.
_SPANS = [
    (cli, "main", "cli"),
    (cli, "closed_test_shortcut", "closed_testing"),
    (cli, "estimate_rejection_rate", "simulate"),
    (cli, "estimate_equivalence_ratio", "simulate"),
    (cli, "calibrate_minp", "simulate"),
    (cli, "tail_dependence_t", "simulate"),
    (simulate, "sample_statistics", "simulate"),
    (simulate, "statistics_to_pvalues", "simulate"),
    (special, "normal_sf_array", "special"),
    (special, "normal_quantile_array", "special"),
    (combine, "combine_standard", "combine"),
    (combine, "fisher", "combine"),
    (combine, "bh_adjust", "combine"),
]
# Scalar special functions, counted and timed in aggregate.  ``find_root`` is
# also bound by name in the modules that import it.
_SCALARS = [
    (special, "reg_beta"),
    (special, "reg_gamma_lower"),
    (special, "reg_gamma_upper"),
    (special, "find_root"),
    (distributions, "find_root"),
    (simulate, "find_root"),
]

ENGINE_ENTRIES = ("estimate_rejection_rate", "estimate_equivalence_ratio",
                  "calibrate_minp", "tail_dependence_t")

# Transform specs of the three workloads; metric names spell ":" as "_".
ISF_SPECS = ("cauchy", "pareto:1", "trunc_t:1:0.9", "frechet:1", "levy",
             "t:3", "inv_gamma:1", "trunc_t:3:0.9", "log_cauchy")


def spec_metric(spec: str) -> str:
    return spec.replace(":", "_")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, elements]
        self.stack: list[int] = []
        self.scalars: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, seconds]
        self.scalar_depth = 0

    def span(self, fn, layer, name=None, elements=None):
        """Wrap ``fn``; ``name(args)``, when given, names the span from the call."""
        spans, stack = self.spans, self.stack
        fixed_name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name(args) if name else fixed_name,
                   layer, 0.0, 0.0, stack[-1] if stack else -1,
                   elements(args, kwargs) if elements else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return wrapper

    def scalar(self, fn, name):
        stack, scalars = self.stack, self.scalars

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (stack[-1] if stack else -1, name)
            agg = scalars.get(key)
            if agg is None:
                agg = scalars[key] = [0, 0.0]
            agg[0] += 1
            if self.scalar_depth:  # nested in another scalar call: count only
                return fn(*args, **kwargs)
            self.scalar_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                agg[1] += perf_counter() - t0
                self.scalar_depth = 0

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("kind,name,layer,start,end,parent,elements_or_calls\n")
            for name, layer, t0, t1, parent, elems in self.spans:
                fh.write(f"span,{name},{layer},{t0!r},{t1!r},{parent},{elems}\n")
            for (parent, name), (calls, secs) in self.scalars.items():
                fh.write(f"scalar,{name},special,0,{secs!r},{parent},{calls}\n")


def _first_size(args, kwargs):
    return int(np.size(args[0]))


def _dist_size(args, kwargs):
    return int(np.size(args[1]))


def _block_rows(args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


@contextmanager
def traced():
    """Install the wrappers for the duration of the block; yields the Tracer."""
    tr = Tracer()
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    elements = {
        "normal_sf_array": _first_size,
        "normal_quantile_array": _first_size,
        "sample_statistics": _block_rows,
        "statistics_to_pvalues": _first_size,
    }
    for module, attr, layer in _SPANS:
        patch(module, attr, tr.span(getattr(module, attr), layer, elements=elements.get(attr)))
    scalar_wrappers = {}
    for module, attr in _SCALARS:
        fn = getattr(module, attr)
        if fn not in scalar_wrappers:
            scalar_wrappers[fn] = tr.scalar(fn, attr)
        patch(module, attr, scalar_wrappers[fn])
    base = distributions.HeavyTailDistribution
    patch(base, "inverse_survival",
          tr.span(base.inverse_survival, "distributions",
                  name=lambda a: "distributions.isf." + a[0].spec_string(),
                  elements=_dist_size))
    patch(base, "survival",
          tr.span(base.survival, "distributions",
                  name=lambda a: "distributions.sf." + a[0].spec_string(),
                  elements=_dist_size))
    try:
        yield tr
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer counts, per-element costs and self times from one traced pass.

    A metric whose layer the workload does not reach reads 0.
    """
    spans = tr.spans
    child = [0.0] * len(spans)
    for name, layer, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    scalar_calls = defaultdict(int)
    scalar_secs = 0.0
    for (parent, name), (calls, secs) in tr.scalars.items():
        scalar_calls[name] += calls
        scalar_secs += secs
        if parent >= 0:
            child[parent] += secs

    self_s = defaultdict(float)
    dur = defaultdict(float)
    count = defaultdict(int)
    # per-element costs: calls on two or more elements; single-value calls
    # (thresholds, one combined statistic) are per-call overhead
    bulk_dur = defaultdict(float)
    bulk_elems = defaultdict(int)
    for i, (name, layer, t0, t1, parent, n) in enumerate(spans):
        self_s[layer] += (t1 - t0) - child[i]
        dur[name] += t1 - t0
        count[name] += 1
        if n >= 2:
            bulk_dur[name] += t1 - t0
            bulk_elems[name] += n
    self_s["special"] += scalar_secs

    sf_calls = sum(c for name, c in count.items() if name.startswith("distributions.sf."))
    ct = "closed_testing.closed_test_shortcut"
    ct_spans = {i for i, s in enumerate(spans) if s[0] == ct}
    sf_under_ct = sum(1 for s in spans
                      if s[4] in ct_spans and s[0].startswith("distributions.sf."))
    combine_names = ("combine.combine_standard", "combine.fisher", "combine.bh_adjust")
    combine_calls = sum(count[n] for n in combine_names)
    combine_time = sum(dur[n] for n in combine_names)
    blocks = count["simulate.sample_statistics"]
    reps = sum(s[5] for s in spans if s[0] == "simulate.sample_statistics")
    engine_time = sum(dur[f"simulate.{n}"] for n in ENGINE_ENTRIES)

    m = {
        "special.normal_quantile.ns_per_elem": _ratio(
            bulk_dur["special.normal_quantile_array"],
            bulk_elems["special.normal_quantile_array"], 1e9),
        "special.normal_sf.ns_per_elem": _ratio(
            bulk_dur["special.normal_sf_array"], bulk_elems["special.normal_sf_array"], 1e9),
        "special.reg_beta.calls": scalar_calls["reg_beta"],
        "special.reg_gamma.calls": scalar_calls["reg_gamma_lower"]
        + scalar_calls["reg_gamma_upper"],
        "special.find_root.calls": scalar_calls["find_root"],
        "special.self_s": self_s["special"],
    }
    for spec in ISF_SPECS:
        key = "distributions.isf." + spec
        m["distributions.isf.ns_per_elem." + spec_metric(spec)] = _ratio(
            bulk_dur[key], bulk_elems[key], 1e9)
    m.update({
        "distributions.self_s": self_s["distributions"],
        "distributions.sf.calls": sf_calls,
        "distributions.sf.ns_per_elem.cauchy": _ratio(
            bulk_dur["distributions.sf.cauchy"], bulk_elems["distributions.sf.cauchy"], 1e9),
        "combine.calls": combine_calls,
        "combine.us_per_call": _ratio(combine_time, combine_calls, 1e6),
        "combine.self_s": self_s["combine"],
        "closed_testing.calls": count[ct],
        "closed_testing.us_per_call": _ratio(dur[ct], count[ct], 1e6),
        "closed_testing.sf_calls_per_call": _ratio(sf_under_ct, count[ct]),
        "closed_testing.self_s": self_s["closed_testing"],
        "simulate.blocks": blocks,
        "simulate.draw.ms_per_block": _ratio(dur["simulate.sample_statistics"], blocks, 1e3),
        "simulate.pvalues.ms_per_block": _ratio(
            dur["simulate.statistics_to_pvalues"], count["simulate.statistics_to_pvalues"], 1e3),
        "simulate.reps_per_s": _ratio(reps, engine_time),
        "simulate.self_s": self_s["simulate"],
        "cli.self_s": self_s["cli"],
    })
    return m
