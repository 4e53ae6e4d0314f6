"""Output checks, one verdict per command, against independent references.

Each check reads the CSV that a workload's ``--workers 1`` command wrote and
returns a list of problems (empty when the output is right).  scipy serves
as the oracle here and is imported only after timing has ended.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from heavycomb.closed_testing import closed_test_bruteforce
from heavycomb.distributions import Cauchy
from heavycomb.simulate import BLOCK_SIZE, ExchangeableModel, replication_rng, sample_statistics

from workloads import PRESETS, Workload

REFERENCE = Path(__file__).resolve().parent / "reference_presets.json"
FLOOR = sys.float_info.min  # the CLI clamps combined p-values into [FLOOR, 1]
N_SE = 5.0  # presets: allowed distance from the reference, in standard errors
MAX_COUNT_DIFF = 2  # heavy-tails: allowed rejection-count difference per row
BRUTE_FORCE_SAMPLE = 40  # closed-test: groups re-solved by the 2^n reference


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check(wl: Workload) -> dict[str, list[str]]:
    """Problems found in each command's output, keyed by command label."""
    return _CHECKS[wl.name](wl)


def p_clamped(wl: Workload) -> int:
    """Output rows whose p-value sits at 1 or at the float floor."""
    if wl.name != "groups":
        return 0
    cols = {"combine_cauchy": "combined_p", "combine_fisher": "combined_p",
            "adjust_bh": "adjusted_p", "closed_test": "adjusted_p"}
    total = 0
    for stem, col in cols.items():
        for row in read_csv(wl.workdir / f"{stem}.w1.csv"):
            total += float(row[col]) in (1.0, FLOOR)
    return total


# ---------------------------------------------------------------------------
# presets: every estimate within N_SE standard errors of the seed-commit reference


def _presets(wl: Workload) -> dict[str, list[str]]:
    reference = json.loads(REFERENCE.read_text())
    return {name: _preset(name, read_csv(wl.workdir / f"{name}.w1.csv"), reference[name], wl.seed)
            for name, _ in PRESETS}


def preset_key(name: str, row: dict) -> str:
    if name == "tableS3":
        return row["rho"]
    if name == "fig3":
        return f"{row['rho']}|{row['alpha']}"
    return f"{row['rho']}|{row['method']}|{row['alpha']}"


def _preset(name, rows, ref, seed) -> list[str]:
    problems = []
    keys = [preset_key(name, r) for r in rows]
    if sorted(keys) != sorted(ref):
        return [f"{name}: rows {keys} differ from the reference rows {sorted(ref)}"]
    for key, row in zip(keys, rows):
        if int(row["seed"]) != seed:
            problems.append(f"{name} {key}: seed {row['seed']} is not {seed}")
        if name == "tableS3":
            mean, sd, k = ref[key]
            value = float(row["cutoff"])
            tol = N_SE * sd * math.sqrt(1.0 + 1.0 / k)
            ratio = value / (float(row["alpha"]) / int(row["n"]))
            if not math.isclose(float(row["cutoff_ratio"]), ratio, rel_tol=1e-12):
                problems.append(f"{name} {key}: cutoff_ratio {row['cutoff_ratio']} != {ratio}")
        else:
            mean, ref_se = ref[key]
            col = "ratio" if name == "fig3" else "estimate"
            value, se = float(row[col]), float(row["std_error"])
            r = int(row["replications"])
            # a count of slack on each side keeps rows with (near) zero events testable
            tol = N_SE * math.sqrt(se * se + ref_se * ref_se + 2.0 / r ** 2)
            if name != "fig3" and float(row["estimate"]) != int(row["rejections"]) / r:
                problems.append(f"{name} {key}: estimate != rejections / replications")
        if not abs(value - mean) <= tol:
            problems.append(f"{name} {key}: {value} is {abs(value - mean) / tol * N_SE:.1f} "
                            f"SE from the reference {mean}")
    return problems


# ---------------------------------------------------------------------------
# heavy-tails: rejection counts recomputed with scipy on the engine's own draws


def _heavy_tails(wl: Workload) -> dict[str, list[str]]:
    from scipy import special as sps
    from scipy import stats

    cfg = wl.config
    mc = cfg["model"]
    model = ExchangeableModel(mc["family"], mc["n"], mc["rho"], mc["nu"], sided=mc["sided"])
    reps = cfg["replications"]
    t = np.vstack([
        sample_statistics(model, replication_rng(wl.seed, i), min(BLOCK_SIZE, reps - start))
        for i, start in enumerate(range(0, reps, BLOCK_SIZE))
    ])
    p = 2.0 * stats.t.sf(np.abs(t), mc["nu"])
    denom = stats.t.sf(stats.t.isf(0.9, 3), 3)  # mass of t:3 above the truncation point
    isf = {  # spec -> (inverse survival, tail index)
        "t:3": (lambda q: stats.t.isf(q, 3), 3.0),
        "inv_gamma:1": (lambda q: 1.0 / sps.gammaincinv(1.0, q), 1.0),
        "trunc_t:3:0.9": (lambda q: stats.t.isf(q * denom, 3), 3.0),
        "log_cauchy": (lambda q: np.exp(stats.cauchy.isf(q)), 0.0),
    }
    n = model.n
    expected = {}
    with np.errstate(over="ignore", divide="ignore"):
        for m in cfg["methods"]:
            for alpha in cfg["alphas"]:
                if m["kind"] == "bonferroni":
                    k = np.count_nonzero(n * p.min(axis=1) < alpha)
                else:
                    fn, gamma = isf[m["distribution"]]
                    # the engine stands -inf (p = 1 under t) in by the most negative double
                    x = np.maximum(fn(p), -sys.float_info.max)
                    if m["kind"] == "standard":
                        stat, thr = x.sum(axis=1), fn(alpha / n)
                    else:
                        w = np.asarray(m["weights"])
                        stat, thr = x @ w, fn(min(alpha / np.sum(w ** gamma), 1.0))
                    k = np.count_nonzero(stat > thr)
                expected[(m["label"], alpha)] = int(k)

    problems = []
    rows = read_csv(wl.workdir / "heavy_tails.w1.csv")
    got = {(r["method"], float(r["alpha"])): int(r["rejections"]) for r in rows}
    if sorted(got) != sorted(expected):
        problems.append(f"rows {sorted(got)} differ from {sorted(expected)}")
    for key, k in expected.items():
        if key in got and abs(got[key] - k) > MAX_COUNT_DIFF:
            problems.append(f"{key}: {got[key]} rejections, scipy recomputation gives {k}")
    return {"simulate": problems}


# ---------------------------------------------------------------------------
# groups


def _groups(wl: Workload) -> dict[str, list[str]]:
    d = wl.workdir
    cauchy = read_csv(d / "combine_cauchy.w1.csv")
    return {
        "combine-cauchy": _combine_cauchy(wl.groups, cauchy),
        "combine-fisher": _combine_fisher(wl.groups, read_csv(d / "combine_fisher.w1.csv")),
        "adjust-bh": _adjust_bh(cauchy, read_csv(d / "adjust_bh.w1.csv")),
        "closed-test": _closed_test(wl.groups, read_csv(d / "closed_test.w1.csv"), wl.seed),
    }


def _same_groups(groups, rows) -> list[str]:
    if [r["group_id"] for r in rows] != [g for g, _ in groups]:
        return ["group ids or their order differ from the input"]
    return [f"{g}: n={r['n']}, expected {p.size}"
            for (g, p), r in zip(groups, rows) if int(r["n"]) != p.size]


def _combine_cauchy(groups, rows) -> list[str]:
    """Sum of tan(pi (1/2 - p)), then n * sf(T) with sf(T) = atan2(1, T) / pi.

    The tangent is taken as cos/sin of pi * min(p, 1 - p), which keeps full
    precision down to p = 1e-300; p = 1 maps to -inf, the support bound.
    """
    problems = _same_groups(groups, rows)
    if problems:
        return problems
    for (g, p), r in zip(groups, rows):
        stat, comb = float(r["statistic"]), float(r["combined_p"])
        if (p == 1.0).any():
            if not (stat <= -1e308 and comb == 1.0):
                problems.append(f"{g}: p = 1 present but statistic {stat}, p {comb}")
            continue
        q = np.minimum(p, 1.0 - p)
        x = np.cos(np.pi * q) / np.sin(np.pi * q) * np.where(p <= 0.5, 1.0, -1.0)
        if not abs(stat - x.sum()) <= 1e-9 * np.abs(x).sum():
            problems.append(f"{g}: statistic {stat}, closed form {x.sum()}")
        want = min(1.0, max(p.size * math.atan2(1.0, stat) / math.pi, FLOOR))
        if not math.isclose(comb, want, rel_tol=1e-12):
            problems.append(f"{g}: combined p {comb}, closed form {want}")
        if (r["reject"] == "true") != (comb < 0.05):
            problems.append(f"{g}: reject flag {r['reject']} for p {comb}")
    return problems


def _combine_fisher(groups, rows) -> list[str]:
    from scipy import stats

    problems = _same_groups(groups, rows)
    if problems:
        return problems
    stat = np.array([float(r["statistic"]) for r in rows])
    want_stat = np.array([-2.0 * np.log(p).sum() for _, p in groups])
    dof = np.array([2 * p.size for _, p in groups])
    want = np.clip(stats.chi2.sf(stat, dof), FLOOR, 1.0)
    got = np.array([float(r["combined_p"]) for r in rows])
    bad_stat = ~np.isclose(stat, want_stat, rtol=1e-12, atol=0.0)
    bad_p = ~np.isclose(got, want, rtol=1e-9, atol=0.0)
    for i in np.flatnonzero(bad_stat | bad_p):
        problems.append(f"{rows[i]['group_id']}: statistic {stat[i]} (want {want_stat[i]}), "
                        f"p {got[i]} (scipy chi2.sf {want[i]})")
    return problems


def _adjust_bh(cauchy_rows, rows) -> list[str]:
    """Step-up adjustment written out as the textbook loop."""
    p = [float(r["combined_p"]) for r in cauchy_rows]
    m = len(p)
    want = [0.0] * m
    running = 1.0
    for rank, i in reversed(list(enumerate(sorted(range(m), key=p.__getitem__), start=1))):
        running = min(running, p[i] * m / rank)
        want[i] = running
    if [r["group_id"] for r in rows] != [r["group_id"] for r in cauchy_rows]:
        return ["group ids or their order differ from the combine output"]
    problems = []
    for i, r in enumerate(rows):
        adj = float(r["adjusted_p"])
        if float(r["p_value"]) != p[i] or not math.isclose(adj, want[i], rel_tol=1e-12):
            problems.append(f"{r['group_id']}: p {r['p_value']} adjusted {adj}, want {want[i]}")
        if (r["discovery"] == "true") != (adj <= 0.05):
            problems.append(f"{r['group_id']}: discovery flag {r['discovery']} for {adj}")
    return problems


def _closed_test(groups, rows, seed) -> list[str]:
    """Every row well formed; a seeded sample of groups equal to brute force.

    The sample holds groups with at most 14 p-values (2^14 subsets each),
    plus every group with two or more p = 1.
    """
    if len(rows) != sum(p.size for _, p in groups):
        return [f"{len(rows)} rows, expected one per hypothesis ({sum(p.size for _, p in groups)})"]
    problems = []
    by_group = {}
    i = 0
    for g, p in groups:
        part = rows[i:i + p.size]
        i += p.size
        by_group[g] = part
        for h, (r, pv) in enumerate(zip(part, p), start=1):
            if (r["group_id"], int(r["hypothesis"]), float(r["p_value"])) != (g, h, pv):
                problems.append(f"{g} hypothesis {h}: row {r} does not match the input")
                break
            if not float(r["adjusted_p"]) >= pv:
                problems.append(f"{g} hypothesis {h}: adjusted p below the raw p")
    rng = np.random.default_rng([seed, 3])
    small = [k for k, (_, p) in enumerate(groups) if p.size <= 14]
    sample = set(rng.choice(small, size=min(BRUTE_FORCE_SAMPLE, len(small)), replace=False))
    sample |= {k for k, (_, p) in enumerate(groups) if (p == 1.0).sum() >= 2}
    for k in sorted(sample):
        g, p = groups[k]
        ref = closed_test_bruteforce(p, Cauchy(), 0.05)
        adj = np.array([float(r["adjusted_p"]) for r in by_group[g]])
        rej = [r["reject"] == "true" for r in by_group[g]]
        if rej != ref.rejected.tolist() or not np.allclose(adj, ref.adjusted_p,
                                                           rtol=1e-9, atol=1e-12):
            problems.append(f"{g}: adjusted {adj.tolist()} / {rej}, brute force "
                            f"{ref.adjusted_p.tolist()} / {ref.rejected.tolist()}")
    return problems


_CHECKS = {"presets": _presets, "heavy-tails": _heavy_tails, "groups": _groups}
