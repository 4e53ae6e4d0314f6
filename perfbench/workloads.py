"""The benchmark's workloads: seeded inputs and the CLI commands of one pass.

Every input comes from the benchmark's ``--seed``; the program receives only
the generated files and flags, and the same seed is passed to it as ``--seed``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Sizes chosen so that one pass (both worker counts) takes a few seconds on a
# 2-core machine; see NOTES.md for the measured costs.
GROUPS = 2000
HEAVY_TAILS_REPLICATIONS = 500
HEAVY_TAILS_ALPHAS = (0.05, 0.01)

PRESETS = (
    ("table2a", "simulate"),
    ("tableS1", "simulate"),
    ("tableS2", "simulate"),
    ("tableS3", "calibrate-minp"),
    ("fig3", "equiv-ratio"),
)

NAMES = ("presets", "heavy-tails", "groups")


@dataclass
class Command:
    """One CLI invocation; ``output`` is the CSV it writes.

    ``prepare`` runs untimed before the command, to derive its input from an
    earlier command's output.
    """

    label: str
    argv: list[str]
    output: Path
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    workdir: Path
    seed: int
    groups: list[tuple[str, np.ndarray]] = field(default_factory=list)
    config: dict | None = None

    def commands(self, workers: int) -> list[Command]:
        return _COMMANDS[self.name](self, workers)


def make_workload(name: str, workdir: Path, seed: int) -> Workload:
    """Write the workload's input files under ``workdir`` and describe it."""
    workdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(name, workdir, seed)
    if name == "groups":
        wl.groups = make_groups(seed)
        write_groups(workdir / "groups.csv", wl.groups)
    elif name == "heavy-tails":
        wl.config = heavy_tails_config(seed)
        (workdir / "heavy_tails.json").write_text(json.dumps(wl.config, indent=1) + "\n")
    return wl


def make_groups(seed: int) -> list[tuple[str, np.ndarray]]:
    """Ragged groups of 2..20 p-values, the shape of a genomics group file.

    About 10% of groups carry one to three signal p-values, half of them
    1e-4 * U and half log-uniform down to 1e-300.  About 2% hold exactly one
    p = 1, and two groups hold two or three, which drives the Cauchy sum to
    -inf (two transformed p = 1 values overflow the most negative double).
    """
    rng = np.random.default_rng([seed, 1])
    sizes = rng.integers(2, 21, size=GROUPS)
    groups = []
    for i, n in enumerate(sizes):
        p = 1.0 - rng.random(n)  # (0, 1]
        if rng.random() < 0.10:
            k = min(int(rng.integers(1, 4)), int(n))
            tiny = np.where(
                rng.random(k) < 0.5,
                1e-4 * (1.0 - rng.random(k)),
                10.0 ** -rng.uniform(4.0, 300.0, size=k),
            )
            p[rng.choice(n, size=k, replace=False)] = tiny
        if rng.random() < 0.02:
            p[rng.integers(n)] = 1.0
        groups.append((f"g{i:05d}", p))
    for i in rng.choice(GROUPS, size=2, replace=False):
        gid, p = groups[i]
        k = min(int(rng.integers(2, 4)), p.size)
        p[rng.choice(p.size, size=k, replace=False)] = 1.0
    return groups


def write_groups(path: Path, groups) -> None:
    with open(path, "w") as fh:
        fh.write("group_id,p_values\n")
        for gid, p in groups:
            fh.write(gid + "," + ",".join(repr(float(v)) for v in p) + "\n")


def heavy_tails_config(seed: int) -> dict:
    """Student-t (nu = 3) statistics through the paper's general-nu transforms."""
    rng = np.random.default_rng([seed, 2])
    rho = round(float(rng.uniform(0.1, 0.9)), 3)
    weights = [float(w) for w in rng.integers(1, 5, size=5)]
    return {
        "command": "simulate",
        "model": {"family": "student_t", "n": 5, "nu": 3, "rho": rho, "sided": "two_sided"},
        "methods": [
            {"kind": "standard", "distribution": "t:3", "label": "t3"},
            {"kind": "standard", "distribution": "inv_gamma:1", "label": "inv_gamma1"},
            {"kind": "standard", "distribution": "trunc_t:3:0.9", "label": "trunc_t3"},
            {"kind": "standard", "distribution": "log_cauchy", "label": "log_cauchy"},
            # same spec as "t3", so the engine reuses its transformed block
            {"kind": "weighted", "distribution": "t:3", "weights": weights,
             "label": "weighted_t3"},
            {"kind": "bonferroni", "label": "bonferroni"},
        ],
        "alphas": list(HEAVY_TAILS_ALPHAS),
        "replications": HEAVY_TAILS_REPLICATIONS,
        "seed": seed,
    }


def _common(wl: Workload, workers: int, out: Path) -> list[str]:
    return ["--seed", str(wl.seed), "--workers", str(workers), "-o", str(out)]


def _presets(wl: Workload, workers: int) -> list[Command]:
    cmds = []
    for name, sub in PRESETS:
        out = wl.workdir / f"{name}.w{workers}.csv"
        cmds.append(Command(name, [sub, "--preset", name] + _common(wl, workers, out), out))
    return cmds


def _heavy_tails(wl: Workload, workers: int) -> list[Command]:
    out = wl.workdir / f"heavy_tails.w{workers}.csv"
    argv = ["simulate", "--config", str(wl.workdir / "heavy_tails.json")]
    return [Command("simulate", argv + _common(wl, workers, out), out)]


def _groups(wl: Workload, workers: int) -> list[Command]:
    d, w = wl.workdir, workers
    src = str(d / "groups.csv")
    cauchy = d / f"combine_cauchy.w{w}.csv"
    combined = d / f"combined_p.w{w}.csv"

    def extract_combined():
        # adjust-bh reads group_id,p: the Cauchy combined p-value of each group
        with open(cauchy, newline="") as fh, open(combined, "w") as out:
            reader = csv.reader(fh)
            next(reader)
            out.write("group_id,p\n")
            for row in reader:
                out.write(f"{row[0]},{row[3]}\n")

    def cmd(label, argv, out, prepare=None):
        return Command(label, argv + _common(wl, w, out), out, prepare)

    return [
        cmd("combine-cauchy",
            ["combine", "-i", src, "--method", "standard", "--dist", "cauchy",
             "--alpha", "0.05"], cauchy),
        cmd("combine-fisher", ["combine", "-i", src, "--method", "fisher"],
            d / f"combine_fisher.w{w}.csv"),
        cmd("adjust-bh", ["adjust-bh", "-i", str(combined)], d / f"adjust_bh.w{w}.csv",
            extract_combined),
        cmd("closed-test", ["closed-test", "-i", src, "--dist", "cauchy", "--alpha", "0.05"],
            d / f"closed_test.w{w}.csv"),
    ]


_COMMANDS = {"presets": _presets, "heavy-tails": _heavy_tails, "groups": _groups}
