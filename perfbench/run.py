"""heavycomb benchmark: runs one workload through the CLI, in-process, and reports.

    python3 perfbench/run.py --workload presets|heavy-tails|groups|all \
        --seed N --seconds S --trace 0|1

Run from the repository root (any checkout of it).  The package is imported
from ``src/`` of that checkout, never from an installed copy.  Each pass runs
the workload's commands at ``--workers 1`` and then at ``--workers 2``;
passes repeat until ``--seconds`` would be exceeded (at least two), and
timings are medians over passes, in reference seconds (``speed.py``).  Every command's output must be byte-identical across passes and
worker counts, and the ``--workers 1`` output is checked against independent
references (``checks.py``).  ``--trace 1`` adds one traced pass at
``--workers 1`` and reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status 0 means the run completed (``correct`` says whether
the outputs were right); 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 9
MIN_PASSES = 2  # a presets pass takes 13-20 s; one alone would make a noisy median


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "heavycomb" / "cli.py").is_file():
    _fail(f"no heavycomb sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
from heavycomb import cli  # noqa: E402

if Path(cli.__file__).resolve().parent != SRC / "heavycomb":
    _fail(f"imported heavycomb from {cli.__file__}, not from {SRC}")
try:
    SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
except (OSError, ValueError) as exc:
    _fail(f"cannot read BENCHMARK.json: {exc}")
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

import checks  # noqa: E402
import tracing  # noqa: E402
from speed import PROBE_REF_S, SpeedProbe  # noqa: E402
from workloads import GROUPS, NAMES, Workload, make_workload  # noqa: E402


def run_command(cmd) -> tuple[bool, float, int]:
    """Run one CLI command in-process: (exit status 0, seconds, RuntimeWarnings)."""
    if cmd.prepare is not None:
        cmd.prepare()
    err = io.StringIO()
    rc = None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always", RuntimeWarning)
        t0 = perf_counter()
        try:
            rc = cli.main(cmd.argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:
            traceback.print_exc(file=err)
        seconds = perf_counter() - t0
    if rc != 0:
        # the "[simulate] rho=..." progress lines are dropped; errors are shown
        sys.stderr.write(f"perfbench: {cmd.label} exited with {rc}: {err.getvalue()}\n")
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return rc == 0, seconds, n_warn


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Ledger:
    """Every command execution; one fails on a non-zero exit, on output that
    differs from the first ``--workers 1`` output, or when that output fails
    its check."""

    def __init__(self):
        self.reference: dict[str, str | None] = {}
        self.executions: list[tuple[str, bool]] = []

    def record(self, label: str, ok: bool, output: Path) -> None:
        digest = _digest(output) if ok else None
        ref = self.reference.setdefault(label, digest)
        self.executions.append((label, ok and digest is not None and digest == ref))

    def failed(self, bad_labels) -> int:
        return sum(1 for label, ok in self.executions if not ok or label in bad_labels)


def run_pass(wl: Workload, workers: int, ledger: Ledger, speed: SpeedProbe):
    """Run the workload's commands once: (raw seconds, reference seconds,
    RuntimeWarnings), times keyed by command label."""
    raw, ref, n_warn = {}, {}, 0
    for cmd in wl.commands(workers):
        ok, seconds, w = run_command(cmd)
        raw[cmd.label] = seconds
        ref[cmd.label] = speed.scale(seconds)
        ledger.record(cmd.label, ok, cmd.output)
        n_warn += w
    return raw, ref, n_warn


def measure_setup() -> float:
    """Median time, in reference seconds, of ``import heavycomb.cli`` in fresh
    interpreters; each child probes its own speed right after the import.

    One untimed import first writes the bytecode cache, as any installed
    copy would have it.
    """
    code = ("import sys, time; t0 = time.perf_counter(); import heavycomb.cli as m; "
            f"t = time.perf_counter() - t0; sys.path.insert(0, {str(HERE)!r}); "
            "from speed import probe; print(t); print(probe()); print(m.__file__)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, probe_s, path = out.stdout.split("\n")[:3]
        if Path(path).resolve().parent != SRC / "heavycomb":
            _fail(f"fresh interpreter imported heavycomb from {path}")
        if i:
            times.append(float(seconds) * PROBE_REF_S / float(probe_s))
    return statistics.median(times)


def _data_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _input_of(argv: list[str]) -> Path | None:
    return Path(argv[argv.index("-i") + 1]) if "-i" in argv else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = make_workload(name, WORKDIR / name, seed)
    setup_s = measure_setup()
    speed = SpeedProbe()

    ledger = Ledger()
    passes = []  # (raw w1, reference w1, raw w2, reference w2)
    start = perf_counter()
    while True:
        t0 = perf_counter()
        raw1, ref1, n_warn = run_pass(wl, 1, ledger, speed)
        raw2, ref2, _ = run_pass(wl, 2, ledger, speed)
        passes.append((raw1, ref1, raw2, ref2))
        if len(passes) == 1:
            warn_first = n_warn
            # after one pass, so that it does not depend on the pass count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + (perf_counter() - t0) > seconds:
            break

    def median(i, fn=lambda times: sum(times.values())):
        return statistics.median(fn(p[i]) for p in passes)

    wall_s, wall_2w_s = median(1), median(3)
    e2e = {"wall_s": wall_s, "wall_2w_s": wall_2w_s, "peak_rss_mb": peak_rss_mb,
           "setup_s": setup_s}
    extra = {  # from the untraced passes, reported with the per-layer metrics
        "simulate.pool_overhead_s": wall_2w_s - wall_s / 2.0,
        "simulate.scaling_eff": wall_s / (2.0 * wall_2w_s),
        "combine_groups_per_s": 0.0,
        "closed_test_groups_per_s": 0.0,
        "health.runtime_warnings": warn_first,
    }
    if name == "groups":
        extra["combine_groups_per_s"] = median(
            1, lambda t: 2 * GROUPS / (t["combine-cauchy"] + t["combine-fisher"]))
        extra["closed_test_groups_per_s"] = median(1, lambda t: GROUPS / t["closed-test"])

    layers = None
    if trace:
        with tracing.traced() as tr:
            _, traced_s, _ = run_pass(wl, 1, ledger, speed)
        tr.write(wl.workdir / "spans.csv")
        layers = tracing.layer_metrics(tr)
        cmds = wl.commands(1)
        rows_read = sum(_data_rows(p) for p in map(_input_of, (c.argv for c in cmds)) if p)
        rows_written = sum(_data_rows(c.output) for c in cmds)
        layers.update({
            "cli.rows_read": rows_read,
            "cli.rows_written": rows_written,
            "cli.us_per_row_written": layers["cli.self_s"] * 1e6 / rows_written,
            "trace.overhead_frac": sum(traced_s.values()) / wall_s - 1.0,
        })

    problems = checks.check(wl)
    bad = {label for label, found in problems.items() if found}
    for label in sorted(bad):
        for msg in problems[label][:5]:
            print(f"perfbench: check failed: {label}: {msg}", file=sys.stderr)
    attempted = len(ledger.executions)
    failed = ledger.failed(bad)
    extra["health.p_clamped"] = checks.p_clamped(wl)
    extra["ops_failed_frac"] = failed / attempted
    if layers is not None:
        layers.update(extra)
    return {
        "passes": len(passes),
        "raw_wall_s": median(0),
        "raw_wall_2w_s": median(2),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "extra": extra,
        "layers": layers,
    }


def _print_table(metrics: dict) -> None:
    for k, v in metrics.items():
        print(f"  {k:<48} {v:>16.6g} {UNITS[k]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    chosen = res["layers"] if args.trace else res["end_to_end"]
    declared = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(chosen) != sorted(declared):
        _fail(f"metrics {sorted(set(chosen) ^ set(declared))} differ from BENCHMARK.json")
    print(f"workload {args.workload}: seed {args.seed}, {res['passes']} passes, "
          f"{res['attempted']} commands, {res['failed']} failed; raw medians "
          f"{res['raw_wall_s']:.4g} s at 1 worker, {res['raw_wall_2w_s']:.4g} s at 2")
    _print_table(res["end_to_end"])
    _print_table(res["layers"] if args.trace else res["extra"])
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in chosen.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().split("\n")
        if out.returncode != 0:
            _fail(f"workload {name} exited with {out.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
