"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo criteria pin fixed seeds; every tolerance is stated inline.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as st
from scipy.integrate import quad, trapezoid
from scipy.optimize import brentq

from heavycomb import simulate
from heavycomb.cli import main as cli_main
from heavycomb.closed_testing import closed_test_bruteforce, closed_test_shortcut
from heavycomb.combine import (
    bonferroni,
    bonferroni_as_max_statistic,
    combine_standard,
    combine_weighted,
    fisher,
)
from heavycomb.distributions import (
    Cauchy,
    Frechet,
    InverseGamma,
    Levy,
    LogCauchy,
    LogGamma,
    Pareto,
    StudentT,
    TruncatedT,
)
from heavycomb.presets import get_preset
from heavycomb.simulate import (
    ExchangeableModel,
    ExperimentConfig,
    MethodSpec,
    calibrate_minp,
    estimate_equivalence_ratio,
    estimate_rejection_rate,
    tail_dependence_t,
)


def report(num, ok, detail):
    print(f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'}  {detail}")


def rates(family, n, rho, methods, alphas, reps, seed, nu=None, mean=(), sided="one_sided"):
    model = ExchangeableModel(family, n, rho, nu=nu, mean=mean, sided=sided)
    rep = estimate_rejection_rate(ExperimentConfig(model, methods, alphas, reps, seed=seed))
    return {(r.method, r.alpha): r.estimate for r in rep.rows}


def test_criterion_01_multivariate_t_error_rates():
    targets_cauchy = {0.0: 0.0290, 0.5: 0.0448, 0.9: 0.0500, 0.99: 0.0502}
    targets_bonf = {0.0: 0.0356, 0.5: 0.0265, 0.9: 0.0167, 0.99: 0.0119}
    methods = (MethodSpec("standard", "cauchy", label="cauchy"),
               MethodSpec("bonferroni", label="bonferroni"))
    start = time.perf_counter()
    results = {}
    for rho in targets_cauchy:
        est = rates("student_t", 5, rho, methods, (0.05,), 100_000, seed=20240501, nu=2)
        results[rho] = (est[("cauchy", 0.05)], est[("bonferroni", 0.05)])
    elapsed = time.perf_counter() - start
    ok = elapsed <= 60.0
    details = []
    for rho, (cau, bon) in results.items():
        ok &= abs(cau - targets_cauchy[rho]) <= 2e-3
        ok &= abs(bon - targets_bonf[rho]) <= 1.5e-3
        details.append(f"rho={rho}: cauchy {cau:.4f}/{targets_cauchy[rho]:.4f} "
                       f"bonf {bon:.4f}/{targets_bonf[rho]:.4f}")
    report(1, ok, f"{'; '.join(details)}; runtime {elapsed:.1f}s (limit 60s)")
    assert ok


# the exact rates of criterion 2's model; test_exact_n2_rates_tableS1 checks them
_CRIT2_TARGETS = {"cauchy": 0.038480, "pareto": 0.052089, "fisher": 0.025966}


def test_criterion_02_negative_correlation_error_rates():
    methods = (MethodSpec("standard", "cauchy", label="cauchy"),
               MethodSpec("standard", "pareto:1", label="pareto"),
               MethodSpec("fisher", label="fisher"))
    est = rates("normal", 2, -0.5, methods, (0.05,), 50_000, seed=20240502)
    ok = all(abs(est[m, 0.05] - target) <= 0.003 for m, target in _CRIT2_TARGETS.items())
    report(2, ok, "  ".join(f"{m} {est[m, 0.05]:.4f}/{target:.6f}"
                            for m, target in _CRIT2_TARGETS.items()) + " (+-0.003)")
    assert ok


_N2_T = 12.0  # |T1| > 12 has probability 2 Phi_bar(12) < 4e-33


def _n2_integrand(method, thr, rho):
    """t -> phi(t) P(reject | T1 = t) for a compiled method at threshold ``thr``
    on two one-sided normal p-values with correlation ``rho``, and the t where
    that function has a kink (None outside +-_N2_T).

    Each method rejects iff p2 < q(p1), and T2 | T1 = t is N(rho t, 1 - rho^2),
    so P(reject | T1 = t) = Phi_bar((Phi_bar^-1(q(Phi_bar(t))) - rho t) / sqrt(1 - rho^2)).
    q(p1) is 1 for every p1 below ``kink``.
    """
    if method.kind == "bonferroni":  # min_i p_i / w_i < thr
        (w1, w2), kink = method.weights, thr * method.weights[0]
        q = lambda p1: np.where(p1 < kink, 1.0, thr * w2)
    elif method.kind == "fisher":  # -2 (log p1 + log p2) > thr
        kink = math.exp(-thr / 2.0)
        q = lambda p1: np.minimum(kink / p1, 1.0)
    else:  # w1 X1 + w2 X2 > thr with X_i = Q_F(1 - p_i)
        d, (w1, w2) = method.dist, method.weights
        q = lambda p1: d.survival((thr - w1 * d.inverse_survival(p1)) / w2)
        kink = float(d.survival((thr - w2 * d.support_lower) / w1))  # X2 at its lower bound
    s = math.sqrt(1.0 - rho * rho)

    def f(t):
        return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * sps.ndtr(
            (sps.ndtri(q(sps.ndtr(-t))) + rho * t) / s)

    t_kink = -sps.ndtri(kink)
    return f, [t_kink] if abs(t_kink) < _N2_T else None


def _n2_exact_rate(method, thr, rho):
    f, points = _n2_integrand(method, thr, rho)
    return quad(lambda t: float(f(t)), -_N2_T, _N2_T, points=points, limit=200,
                epsabs=1e-12, epsrel=1e-10)[0]


def _n2_exact_check(name, rhos):
    """Every row of an n = 2 normal preset at its seed against its exact rate;
    returns the largest |deviation| in SE and the exact rates by (method, alpha, rho)."""
    cfg = get_preset(name)
    methods = tuple(MethodSpec(**m) for m in cfg["methods"])
    plan = [simulate._compile_method(spec, cfg["alphas"], 2) for spec in methods]
    reps, worst, exact = cfg["replications"], 0.0, {}
    for rho in rhos:
        est = rates("normal", 2, rho, methods, tuple(cfg["alphas"]), reps, seed=cfg["seed"])
        for method in plan:
            for thr, alpha in zip(method.thresholds, cfg["alphas"]):
                rate = exact[method.label, alpha, rho] = _n2_exact_rate(method, thr, rho)
                dev = (est[method.label, alpha] - rate) / math.sqrt(rate * (1.0 - rate) / reps)
                worst = max(worst, abs(dev))
                print(f"  {name} rho={rho} alpha={alpha} {method.label}: "
                      f"{est[method.label, alpha]:.6f} exact {rate:.6f} ({dev:+.2f} SE)")
    print(f"  {name}: {len(exact)} rows, worst |deviation| {worst:.2f} SE (limit 4)")
    return worst, exact


def test_exact_n2_rates_tableS1():
    worst, exact = _n2_exact_check("tableS1", get_preset("tableS1")["model"]["rho"])
    assert len(exact) == 21 and worst <= 4.0
    # criterion 2 is tableS1's rho = -0.5 at the same seed and replications
    assert {m: round(exact[m, 0.05, -0.5], 6) for m in _CRIT2_TARGETS} == _CRIT2_TARGETS


def test_exact_n2_rates_tableS2():
    worst, exact = _n2_exact_check("tableS2", [get_preset("tableS2")["model"]["rho"]])
    assert len(exact) == 12 and worst <= 4.0


def test_exact_n2_rate_quad_matches_trapezoid():
    # one row with a kink (Pareto's support bound) against a dense trapezoid rule
    method = simulate._compile_method(MethodSpec("standard", "pareto:1"), (0.05,), 2)
    f, _ = _n2_integrand(method, method.thresholds[0], -0.5)
    t = np.linspace(-_N2_T, _N2_T, 480_001)
    dense = trapezoid(f(t), t)
    assert _n2_exact_rate(method, method.thresholds[0], -0.5) == pytest.approx(dense, rel=1e-7)


_Z_STEPS = (-10, -4, -2, -1, 0, 1, 2, 4, 10)  # panel edges about z*, in sqrt((1 - rho) / rho)


def _bonferroni_exact_rate(q, n, rho):
    """P(min_i p_i < q) for n one-sided normal p-values with common correlation
    ``rho`` >= 0: 1 - int phi(z) Phi((c - sqrt(rho) z) / sqrt(1 - rho))^n dz,
    c = isf(q), and 1 - (1 - q)^n at rho = 0.  The bracket is -expm1(n log Phi),
    so it keeps its digits where Phi is near 1, and the range is split around
    z* = c / sqrt(rho), where it falls from 1 to 0, on the scale sqrt((1 - rho) / rho)."""
    if rho == 0.0:
        return -math.expm1(n * math.log1p(-q))
    c, r, s = st.norm.isf(q), math.sqrt(rho), math.sqrt(1.0 - rho)
    f = lambda z: st.norm.pdf(z) * -math.expm1(n * sps.log_ndtr((c - r * z) / s))
    edges = [-np.inf, *(c / r + k * s / r for k in _Z_STEPS), np.inf]
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _gauss_legendre(edges):
    """Nodes and weights of 32-point Gauss-Legendre on each panel between
    consecutive ``edges`` (the last axis), flattened along that axis."""
    half, shape = np.diff(edges, axis=-1)[..., None] / 2.0, (*edges.shape[:-1], -1)
    nodes = edges[..., :-1, None] + half * (_GL_NODES + 1.0)
    return nodes.reshape(shape), (half * _GL_WEIGHTS).reshape(shape)


def _normal_union_rate(c, n, rho):
    """``_bonferroni_exact_rate`` at thresholds ``c`` (any shape) by Gauss-Legendre:
    in z, panels at z* + _Z_STEPS sqrt((1 - rho) / rho), clipped to +-12."""
    c = np.asarray(c, dtype=float)[..., None]
    if rho == 0.0:
        return -np.expm1(n * sps.log_ndtr(c[..., 0]))
    r, s = math.sqrt(rho), math.sqrt(1.0 - rho)
    ends = np.full_like(c, 12.0)
    edges = np.clip(np.concatenate([-ends, c / r + np.multiply(_Z_STEPS, s / r), ends], -1),
                    -12.0, 12.0)
    z, w = _gauss_legendre(edges)
    return np.sum(w * st.norm.pdf(z) * -np.expm1(n * sps.log_ndtr((c - r * z) / s)), axis=-1)


def _t_union_rate(q, n, rho, nu):
    """P(min_i p_i < q) for n one-sided p-values of an exchangeable multivariate t
    with ``nu`` degrees of freedom: the normal form at c u, c = t_nu.isf(q), averaged
    over u = sqrt(S / nu), S ~ chi2(nu), by Gauss-Legendre on 12 panels even in
    log u, for S from 1e-24 to nu + 60 sqrt(2 nu) + 200."""
    log_s, w = _gauss_legendre(np.linspace(math.log(1e-24),
                                           math.log(nu + 60.0 * math.sqrt(2.0 * nu) + 200.0), 13))
    s = np.exp(log_s)
    weights = w * np.exp(st.chi2.logpdf(s, nu) + log_s)  # dS = S dlog S
    return float(weights @ _normal_union_rate(st.t.isf(q, nu) * np.sqrt(s / nu), n, rho))


def _rate_row(name, label, count, reps, rate):
    """A README table row of a rejection count against its exact rate, with the
    deviation in SE, sqrt(rate (1 - rate) / reps)."""
    dev = (count / reps - rate) / math.sqrt(rate * (1.0 - rate) / reps)
    return name, label, f"{count} of {reps}", rate, dev


@functools.cache
def _fig3_rows():
    # fig3's Bonferroni counts (normal, n = 5, rho = 0.5)
    cfg = get_preset("fig3")
    model = ExchangeableModel(**cfg["model"])
    reps, alphas = cfg["replications"], tuple(cfg["alphas"])
    rep = estimate_equivalence_ratio(ExperimentConfig(model, (), alphas, reps, seed=cfg["seed"]),
                                     Cauchy())
    return tuple(_rate_row("fig3", f"Bonferroni, alpha = {row.alpha:g}",
                           row.bonferroni_rejections, reps,
                           _bonferroni_exact_rate(row.alpha / model.n, model.n, model.rho))
                 for row in rep.rows)


@functools.cache
def _table2a_rows():
    # table2a's Bonferroni rows (t, nu = 2, n = 5, alpha = 0.05)
    cfg = get_preset("table2a")
    mc, (alpha,), reps = cfg["model"], cfg["alphas"], cfg["replications"]
    rows = []
    for rho in mc["rho"]:
        model = ExchangeableModel(mc["family"], mc["n"], rho, nu=mc["nu"])
        config = ExperimentConfig(model, (MethodSpec("bonferroni"),), (alpha,), reps,
                                  seed=cfg["seed"])
        count = estimate_rejection_rate(config).rows[0].rejections
        exact = _t_union_rate(alpha / model.n, model.n, rho, model.nu)
        rows.append(_rate_row("table2a", f"Bonferroni, rho = {rho:g}", count, reps, exact))
    return tuple(rows)


@functools.cache
def _tableS3_rows():
    """tableS3's minP cutoffs (normal, n = 5, alpha = 0.05) beside the exact ones,
    found by brentq on the exact size; the deviation is the exact size of the
    preset's cutoff from alpha, in SE sqrt(alpha (1 - alpha) / reps)."""
    cfg = get_preset("tableS3")
    mc, alpha, reps = cfg["model"], cfg["alpha"], cfg["replications"]
    rows = []
    for rho in mc["rho"]:
        size = lambda q: _bonferroni_exact_rate(q, mc["n"], rho)
        exact = brentq(lambda q: size(q) - alpha, alpha / mc["n"], alpha, xtol=1e-15)
        cutoff = calibrate_minp(ExchangeableModel(mc["family"], mc["n"], rho), alpha, reps,
                                seed=cfg["seed"]).cutoff
        dev = (size(cutoff) - alpha) / math.sqrt(alpha * (1.0 - alpha) / reps)
        rows.append(("tableS3", f"minP cutoff, rho = {rho:g}", f"{cutoff:.10g}", exact, dev))
    return tuple(rows)


def _check_rows(rows):
    for name, label, engine, exact, dev in rows:
        print(f"  {name} {label}: {engine}, exact {exact:.10g} ({dev:+.2f} SE)")
    assert len(rows) == 4 and all(abs(dev) <= 4.0 for *_, dev in rows)
    return [exact for *_, exact, _ in rows]


def test_exact_bonferroni_rates_fig3():
    # fig3's Bonferroni counts within 4 SE of the exact rates (split scipy quad)
    exact = _check_rows(_fig3_rows())
    assert exact[0] == pytest.approx(0.04004779083, abs=5e-12)  # ROADMAP item 1's digits
    assert exact[3] == pytest.approx(9.758353498e-5, abs=5e-15)


@pytest.mark.parametrize("rho", [0.5, 0.99])
@pytest.mark.parametrize("alpha", [0.05, 1e-4])
def test_gauss_legendre_normal_form_matches_quad(alpha, rho):
    q = alpha / 5
    assert _normal_union_rate(st.norm.isf(q), 5, rho) == pytest.approx(
        _bonferroni_exact_rate(q, 5, rho), rel=1e-13)


def test_exact_bonferroni_rates_table2a():
    # table2a's Bonferroni rows within 4 SE of the exact t rates (Gauss-Legendre);
    # a nested scipy quad gives the same digits in over a minute per rho
    exact = _check_rows(_table2a_rows())
    assert exact == pytest.approx([0.0357198806, 0.0266875869, 0.0165672440, 0.0119142551],
                                  abs=1e-10)


def test_exact_minp_cutoffs_tableS3():
    # tableS3's cutoffs have exact sizes within 4 SE of alpha; at rho = 0 the
    # exact cutoff is 1 - (1 - alpha)^(1/n)
    exact = _check_rows(_tableS3_rows())
    assert exact[0] == pytest.approx(-math.expm1(math.log1p(-0.05) / 5), rel=1e-12)
    assert exact == pytest.approx([0.010206218, 0.012747560, 0.024569466, 0.039490793],
                                  abs=5e-10)


def test_readme_exact_table():
    # README's engine-against-exact table is these tests' rows, in order
    lines = [f"| {name} | {label} | {engine} | {exact:.10g} | {dev:+.2f} |"
             for name, label, engine, exact, dev in
             _fig3_rows() + _table2a_rows() + _tableS3_rows()]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = readme.index(lines[0])
    assert readme[start:start + len(lines)] == lines


_CRIT3_CACHE = {}
_CRIT3_ALPHA, _CRIT3_RHO, _CRIT3_REPS = 0.05, -0.9, 1_000_000


def _criterion3_exact():
    """Exact error/alpha ratios of the criterion-3 model, by one ``quad`` each.

    (T1, T2) is standard bivariate normal with correlation rho, p_i is the
    one-sided normal p-value and T2 | T1 = t is N(rho t, 1 - rho^2).
    """
    alpha, rho = _CRIT3_ALPHA, _CRIT3_RHO
    s = math.sqrt(1.0 - rho * rho)

    def expect_t1(cond_sf, lo=-np.inf):
        return quad(lambda t: st.norm.pdf(t) * cond_sf(t), lo, np.inf, limit=200)[0]

    # Bonferroni rejects when T1 > z or T2 > z: rate alpha - P(T1 > z, T2 > z).
    # scipy's multivariate_normal.cdf returns 0.0 for this orthant, hence quad.
    z = st.norm.isf(alpha / 2)
    orthant = expect_t1(lambda t: st.norm.sf((z - rho * t) / s), lo=z)
    # Cauchy rejects when X1 + X2 > c, X_i = Q_Cauchy(1 - p_i), c = Q_Cauchy(1 - alpha/2).
    c = st.cauchy.isf(alpha / 2)

    def cauchy_cond_sf(t):
        x1 = st.cauchy.isf(st.norm.sf(t))
        return st.norm.sf((st.norm.isf(st.cauchy.sf(c - x1)) - rho * t) / s)

    return {"cauchy": expect_t1(cauchy_cond_sf) / alpha,
            "bonferroni": 1.0 - orthant / alpha,
            "orthant": orthant}


def _criterion3_rates():
    if not _CRIT3_CACHE:
        methods = (MethodSpec("standard", "cauchy", label="cauchy"),
                   MethodSpec("bonferroni", label="bonferroni"))
        start = time.perf_counter()
        est = rates("normal", 2, _CRIT3_RHO, methods, (_CRIT3_ALPHA,), _CRIT3_REPS, seed=2)
        _CRIT3_CACHE["runtime"] = time.perf_counter() - start
        _CRIT3_CACHE["exact"] = _criterion3_exact()
        for m in ("cauchy", "bonferroni"):
            _CRIT3_CACHE[m] = est[(m, _CRIT3_ALPHA)] / _CRIT3_ALPHA
    return _CRIT3_CACHE


def _criterion3_line(c, method):
    """Estimate, exact value and deviation in standard errors of one ratio."""
    exact = c["exact"][method]
    rate = exact * _CRIT3_ALPHA
    se = math.sqrt(rate * (1.0 - rate) / _CRIT3_REPS) / _CRIT3_ALPHA
    return (abs(c[method] - exact) <= 0.01,
            f"{method} ratio {c[method]:.4f} target {exact:.6f}+-0.01 (exact value of "
            f"the stated model; deviation {(c[method] - exact) / se:+.2f} SE, SE {se:.5f})")


def test_criterion_03a_error_ratio_cauchy():
    c = _criterion3_rates()
    ok, line = _criterion3_line(c, "cauchy")
    ok &= c["runtime"] <= 300.0
    report("3a", ok, f"{line}; runtime {c['runtime']:.1f}s (limit 300s)")
    assert ok


def test_criterion_03b_error_ratio_bonferroni():
    # The exact rejection probability of the Bonferroni test in this model is
    # 0.05 - P(T1>z, T2>z | rho=-0.9) = 0.05 - ~1.9e-20, i.e. a ratio of 1.0000.
    # The union bound caps it at 1 under any dependence, so no target above 1
    # can be reached by a correct simulator.
    c = _criterion3_rates()
    ok, line = _criterion3_line(c, "bonferroni")
    report("3b", ok, f"{line}; orthant term {c['exact']['orthant']:.2e}")
    assert ok


def test_criterion_04_perfect_correlation_limit():
    start = time.perf_counter()
    alpha, n = 1e-6, 5

    def ratio(dist):
        threshold = float(dist.inverse_survival(alpha / n)) / n
        return float(dist.survival(threshold)) / alpha

    r_cauchy = ratio(Cauchy())
    r_levy = ratio(Levy())
    r_pareto = ratio(Pareto(1.0))
    elapsed = time.perf_counter() - start
    ok = (
        abs(r_cauchy - 1.0) <= 0.02
        and abs(r_levy - 5.0 ** -0.5) / 5.0 ** -0.5 <= 0.02
        and r_pareto == pytest.approx(1.0, rel=1e-12)
        and elapsed < 1.0
    )
    report(4, ok, f"cauchy {r_cauchy:.6f}/1  levy {r_levy:.6f}/{5.0**-0.5:.6f}  "
                  f"pareto {r_pareto:.12f}/1 exact; {elapsed*1e3:.0f}ms")
    assert ok


def test_criterion_05_tail_dependence():
    targets = {0.0: 0.18, 0.5: 0.39, 0.9: 0.72, 0.99: 0.91}
    values = {rho: tail_dependence_t(2.0, rho) for rho in targets}
    ok = all(abs(values[r] - t) <= 0.005 for r, t in targets.items())
    report(5, ok, "  ".join(f"rho={r}: {values[r]:.4f}/{t}" for r, t in targets.items()))
    assert ok


def test_criterion_06_minp_calibration():
    targets = {0.0: 1.02, 0.5: 1.26, 0.9: 2.46}
    ratios = {}
    for rho in targets:
        model = ExchangeableModel("normal", 5, rho, sided="one_sided")
        ratios[rho] = calibrate_minp(model, 0.05, 100_000, seed=20240504).cutoff_ratio
    ok = all(abs(ratios[r] - t) / t <= 0.05 for r, t in targets.items())
    report(6, ok, "  ".join(f"rho={r}: {ratios[r]:.3f}/{t} (+-5%)" for r, t in targets.items()))
    assert ok


def test_criterion_07_closed_testing_oracle():
    rng = np.random.default_rng(20240507)
    dists = [Cauchy(), Pareto(1.0), TruncatedT(1.0, 0.9), Levy()]
    start = time.perf_counter()
    max_gap = 0.0
    for k in range(1000):
        n = int(rng.integers(1, 11))
        if rng.random() < 0.5:
            p = rng.uniform(1e-5, 1.0, n)
        else:
            base = rng.uniform(1e-4, 0.99)
            p = np.clip(base * (1.0 + 0.01 * rng.standard_normal(n)), 1e-6, 1.0)
        alpha = float(rng.choice([0.01, 0.05, 0.2]))
        d = dists[k % len(dists)]
        a = closed_test_shortcut(p, d, alpha)
        b = closed_test_bruteforce(p, d, alpha)
        assert a.rejected.tolist() == b.rejected.tolist(), (p, alpha, d)
        max_gap = max(max_gap, float(np.max(np.abs(a.adjusted_p - b.adjusted_p))))
    elapsed = time.perf_counter() - start
    ok = max_gap <= 1e-12 and elapsed <= 10.0
    report(7, ok, f"1000 instances, max adjusted-p gap {max_gap:.2e} (<=1e-12), "
                  f"runtime {elapsed:.1f}s (limit 10s)")
    assert ok


def test_criterion_08_bonferroni_rewrite_exactness():
    rng = np.random.default_rng(20240508)
    disagreements = 0
    # pure power-law tails: the rewrite is exact for arbitrary weights
    for _ in range(100_000):
        gamma = float(rng.choice([0.5, 1.0, 1.5]))
        n = int(rng.integers(1, 7))
        p = rng.uniform(1e-6, 1.0, n)
        w = rng.uniform(0.1, 10.0, n)
        kappa = float(np.sum(w ** gamma))
        alpha = float(rng.uniform(1e-6, min(0.25, 0.9 * kappa)))
        mapped = w ** gamma / kappa
        ref = bool(bonferroni(p, mapped).combined_p < alpha)
        if bonferroni_as_max_statistic(p, w, Pareto(gamma), alpha) != ref:
            disagreements += 1
    # equal weights: exact for every family
    eq_dists = [Cauchy(), Levy(), Frechet(1.0), StudentT(2.0), TruncatedT(1.0, 0.9)]
    for k in range(10_000):
        n = int(rng.integers(1, 7))
        p = rng.uniform(1e-6, 1.0, n)
        alpha = float(rng.uniform(1e-4, 0.25))
        ref = bool(bonferroni(p).combined_p < alpha)
        if bonferroni_as_max_statistic(p, np.ones(n), eq_dists[k % 5], alpha) != ref:
            disagreements += 1
    ok = disagreements == 0
    report(8, ok, f"{disagreements} disagreements in 110000 tuples (gamma in {{0.5,1,1.5}})")
    assert ok


def test_criterion_09_property_suite():
    failures = []

    # quantile/CDF roundtrips <= 1e-9 (log-Cauchy on its double-representable band)
    levels = np.concatenate([np.logspace(-10, -1, 19), [0.5], 1 - np.logspace(-6, -1, 11)])
    lc_levels = np.concatenate([np.logspace(-3, -1, 9), [0.5], 1 - np.logspace(-3, -1, 9)])
    families = [Cauchy(), Levy(), Pareto(1.0), Frechet(1.0), InverseGamma(1.0),
                LogGamma(1.0), StudentT(2.0), TruncatedT(1.0, 0.9)]
    for d in families:
        worst = max(abs(float(d.cdf(d.quantile(u))) - u) for u in levels)
        if worst > 1e-9:
            failures.append(f"roundtrip {d}: {worst:.1e}")
    worst_lc = max(abs(float(LogCauchy().cdf(LogCauchy().quantile(u))) - u) for u in lc_levels)
    if worst_lc > 1e-9:
        failures.append(f"roundtrip log_cauchy: {worst_lc:.1e}")

    # regular variation at x = 1e8 (gamma > 0 families)
    for d in [Cauchy(), Levy(), Pareto(1.0), Frechet(1.5), InverseGamma(0.7),
              LogGamma(1.2), StudentT(2.0), TruncatedT(1.0, 0.9)]:
        ratio = float(d.survival(2e8)) / float(d.survival(1e8))
        if abs(ratio - 2.0 ** -d.tail_index) > 1e-3:
            failures.append(f"regular variation {d}")

    # truncated-t / parent identity <= 1e-12
    for gamma, p0 in ((1.0, 0.9), (2.0, 0.5), (0.5, 0.7)):
        d = TruncatedT(gamma, p0)
        denom = float(d.parent.survival(d.c))
        xs = np.linspace(d.c, d.c + 40, 81)
        gap = max(abs(float(d.survival(x)) * denom - float(d.parent.survival(x))) for x in xs)
        if gap > 1e-12:
            failures.append(f"truncation identity gamma={gamma} p0={p0}: {gap:.1e}")

    # monotonicity of every method's combined p in each base p-value
    rng = np.random.default_rng(20240509)
    dists = [Cauchy(), Pareto(1.0), Levy(), TruncatedT(1.0, 0.9)]
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = rng.uniform(0.01, 1.0, n)
        i = int(rng.integers(n))
        q = p.copy()
        q[i] *= rng.uniform(0.05, 0.95)
        d = dists[int(rng.integers(len(dists)))]
        w = rng.uniform(0.5, 2.0, n)
        checks = [
            combine_standard(q, d).combined_p <= combine_standard(p, d).combined_p,
            combine_weighted(q, w, d).combined_p <= combine_weighted(p, w, d).combined_p,
            bonferroni(q, w).combined_p <= bonferroni(p, w).combined_p,
            fisher(q).combined_p <= fisher(p).combined_p,
        ]
        if not all(checks):
            failures.append(f"monotonicity {d} p={p} i={i}")
            break

    ok = not failures
    report(9, ok, "roundtrips, regular variation, truncation identity, monotonicity"
           + ("" if ok else f" -- failures: {failures}"))
    assert ok, failures


def test_criterion_10_power_gap_under_tail_dependence():
    methods = (MethodSpec("standard", "cauchy", label="cauchy"),
               MethodSpec("bonferroni", label="bonferroni"))
    gaps = []
    for mu in np.arange(0.0, 6.5, 0.5):
        est = rates("student_t", 100, 0.9, methods, (0.05,), 10_000,
                    seed=20240510, nu=2, mean=tuple([float(mu)] * 100))
        gaps.append(est[("cauchy", 0.05)] - est[("bonferroni", 0.05)])
    ok = max(gaps) >= 0.3
    report(10, ok, f"max power gap over mu grid: {max(gaps):.3f} (>=0.3)")
    assert ok


def test_criterion_11_equivalence_ratio_decreases():
    model = ExchangeableModel("normal", 5, 0.5, sided="one_sided")
    rep = estimate_equivalence_ratio(
        ExperimentConfig(model, (), (5e-2, 1e-3), 1_000_000, seed=20240511), Cauchy()
    )
    high, low = rep.rows[0].ratio, rep.rows[1].ratio
    ok = low < high
    report(11, ok, f"ratio at alpha=5e-2: {high:.4f}; at 1e-3: {low:.4f} (strictly lower)")
    assert ok


def test_criterion_12_worker_determinism(tmp_path):
    cfg = {
        "command": "simulate",
        "model": {"family": "student_t", "n": 5, "nu": 2, "rho": [0.0, 0.9],
                  "sided": "one_sided"},
        "methods": [
            {"kind": "standard", "distribution": "cauchy", "label": "cauchy"},
            {"kind": "standard", "distribution": "trunc_t:1:0.9", "label": "truncated_t1"},
            {"kind": "bonferroni", "label": "bonferroni"},
        ],
        "alphas": [0.05, 0.005],
        "replications": 40_000,
        "seed": 20240512,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for workers in (1, 3, 4):
        out = tmp_path / f"w{workers}.csv"
        rc = cli_main(["simulate", "--config", str(cfg_path),
                       "--workers", str(workers), "-o", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(12, ok, f"simulate CSV bytes identical across --workers 1/3/4 "
                   f"({len(outputs[0])} bytes)")
    assert ok
