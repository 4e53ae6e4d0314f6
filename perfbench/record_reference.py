"""Record the reference estimates that the presets check compares against.

    python3 perfbench/record_reference.py

Runs every preset at its own seed (rates and ratios come with a standard
error) and the minP calibration at SEEDS_S3 seeds (the cutoff has none, so
its spread over seeds stands in for it), then writes reference_presets.json.
Re-record only when a change is meant to move the presets' estimates.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from heavycomb import cli  # noqa: E402

from checks import preset_key, read_csv  # noqa: E402
from workloads import PRESETS  # noqa: E402

SEEDS_S3 = range(1, 9)


def run(name, sub, out, seed=None):
    argv = [sub, "--preset", name, "--workers", "2", "-o", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    with contextlib.redirect_stderr(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"{name} failed")
    return read_csv(out)


def main():
    work = HERE.parent / ".perfbench" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    ref = {}
    for name, sub in PRESETS:
        out = work / f"{name}.csv"
        if name == "tableS3":
            cutoffs = {}
            for seed in SEEDS_S3:
                for row in run(name, sub, out, seed):
                    cutoffs.setdefault(preset_key(name, row), []).append(float(row["cutoff"]))
            ref[name] = {k: [statistics.mean(v), statistics.stdev(v), len(v)]
                         for k, v in cutoffs.items()}
        else:
            col = "ratio" if name == "fig3" else "estimate"
            ref[name] = {preset_key(name, row): [float(row[col]), float(row["std_error"])]
                         for row in run(name, sub, out)}
    (HERE / "reference_presets.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
