"""Golden outputs of the CLI and of ``pvalue_covariance``.

Every case runs ``cli.main`` in-process with the working directory at a
fresh temporary directory and relative file names, so the manifest's
``command`` string is stable.  A case records the exit code, stdout,
stderr without the ``[simulate]`` progress lines, the output file (or
``None`` when none was written) and its manifest; ``runtime_seconds`` is
blanked wherever it appears.

Regenerate ``tests/golden/`` only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from heavycomb import cli, presets
from heavycomb.simulate import BLOCK_SIZE, ExchangeableModel, pvalue_covariance

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = Path(__file__).resolve().parent.parent

GROUPS = """group,p1,p2,p3,p4,p5
g01,0.012,0.5,0.73
g02,1e-300,0.2
g03,1,1,0.001
g04,0.04
g05,0.3,0.31,0.32,0.9,0.05
g06,1,1,1
g07,5e-08,0.6,0.02,0.011
g08,0.9999999,0.5
g09,0.0049,0.0051,0.7,1
"""
EQUAL = """a,0.01,0.2,0.7
b,0.5,0.5,0.5
c,1,0.03,1e-12
d,0.004,0.9,0.3
"""
SINGLE = """id,p
s1,0.001
s2,0.04
s3,0.5
s4,0.012
s5,1
s6,0.0002
s7,0.2
"""
BAD = """g1,0.2,0.3
g2,0.01
g3,0.5,1.5
g4,0.1
"""


def _config(preset, replications):
    cfg = presets.get_preset(preset)
    cfg["replications"] = replications
    return cfg


_ALL_KINDS = [
    {"kind": "standard", "distribution": "cauchy"},
    {"kind": "average", "distribution": "pareto:1", "label": "avg_pareto"},
    {"kind": "weighted", "distribution": "t:2", "weights": [1, 2, 0.5, 1]},
    {"kind": "bonferroni", "weights": [1, 2, 0.5, 1], "label": "wbonf"},
    {"kind": "bonferroni"},
    {"kind": "fisher"},
    {"kind": "minp", "cutoff": 0.012, "label": "minp"},
]
CONFIGS = {
    "table2a.json": _config("table2a", 2000),
    "tableS1.json": _config("tableS1", 2000),
    "tableS2.json": _config("tableS2", 40000),
    "tableS3.json": _config("tableS3", 2000),
    "fig3.json": _config("fig3", 40000),
    "dense.json": {
        "command": "simulate",
        "model": {"family": "normal", "n": 4, "rho": [0.3, -0.2],
                  "mean": {"kind": "dense", "value": 0.5}},
        "methods": _ALL_KINDS,
        "alphas": [0.05, 0.01],
        "replications": 3000,
        "seed": 11,
    },
    "sparse.json": {
        "command": "simulate",
        "model": {"family": "student_t", "n": 4, "nu": 2, "rho": 0.4,
                  "sided": "two_sided", "mean": {"kind": "sparse", "value": 2.0, "count": 2}},
        "methods": _ALL_KINDS,
        "alphas": [0.05],
        "replications": 3000,
        "seed": 12,
    },
    # more than one block, each of several row tiles
    "tiles.json": {
        "command": "simulate",
        "model": {"family": "student_t", "n": 4, "nu": 2, "rho": [0.0, 0.5, 0.9, -0.2]},
        "methods": _ALL_KINDS + [{"kind": "standard", "distribution": "levy"}],
        "alphas": [0.05, 0.01],
        "replications": BLOCK_SIZE + 4321,
        "seed": 13,
    },
}

# (format, output file or None for stdout, workers or None)
ENGINE_MODES = [("csv", "out.csv", 1), ("json", None, 1), ("csv", None, 2), ("json", "out.json", 2)]
PLAIN_MODES = [("csv", "out.csv", None), ("json", None, None),
               ("csv", None, None), ("json", "out.json", None)]
ONE_FILE = [("csv", "out.csv", None)]
TWO_WORKERS = [("csv", "out.csv", 1), ("csv", None, 2)]

RUNS = {
    "combine_standard_cauchy": (
        ["combine", "-i", "groups.csv", "--method", "standard", "--dist", "cauchy",
         "--alpha", "0.05"], PLAIN_MODES),
    "combine_standard_trunc_t": (
        ["combine", "-i", "groups.csv", "--method", "standard", "--dist", "trunc_t:1:0.9"],
        PLAIN_MODES),
    "combine_average_pareto": (
        ["combine", "-i", "groups.csv", "--method", "average", "--dist", "pareto:1"],
        PLAIN_MODES),
    "combine_weighted_cauchy": (
        ["combine", "-i", "equal.csv", "--method", "weighted", "--dist", "cauchy",
         "--weights", "1,2,0.5", "--alpha", "0.01"], PLAIN_MODES),
    "combine_bonferroni": (
        ["combine", "-i", "groups.csv", "--method", "bonferroni", "--alpha", "0.05"],
        PLAIN_MODES),
    "combine_bonferroni_weights": (
        ["combine", "-i", "equal.csv", "--method", "bonferroni", "--weights", "1,2,0.5"],
        PLAIN_MODES),
    "combine_fisher": (["combine", "-i", "groups.csv", "--method", "fisher"], PLAIN_MODES),
    "closed_test_cauchy": (
        ["closed-test", "-i", "groups.csv", "--dist", "cauchy", "--alpha", "0.05"],
        PLAIN_MODES),
    "closed_test_trunc_t": (
        ["closed-test", "-i", "groups.csv", "--dist", "trunc_t:1:0.9", "--alpha", "0.05"],
        PLAIN_MODES),
    "closed_test_levy": (
        ["closed-test", "-i", "groups.csv", "--dist", "levy", "--alpha", "0.1"], PLAIN_MODES),
    "adjust_bh": (["adjust-bh", "-i", "single.csv", "--q", "0.1"], PLAIN_MODES),
    "tail_dep": (["tail-dep", "--nu", "2", "--rho", "0,0.5,0.9,-0.5"], ENGINE_MODES),
    "simulate_table2a": (["simulate", "--config", "table2a.json"], ENGINE_MODES),
    "simulate_tableS1": (["simulate", "--config", "tableS1.json"], ENGINE_MODES),
    "simulate_tableS2": (["simulate", "--config", "tableS2.json"], ENGINE_MODES),
    "simulate_dense": (["simulate", "--config", "dense.json", "--seed", "99"], ENGINE_MODES),
    "simulate_sparse": (["simulate", "--config", "sparse.json"], ENGINE_MODES),
    "simulate_tiles": (["simulate", "--config", "tiles.json"], TWO_WORKERS),
    "minp_tableS3": (["calibrate-minp", "--config", "tableS3.json"], ENGINE_MODES),
    "minp_preset": (["calibrate-minp", "--preset", "tableS3", "--seed", "5"],
                    [("csv", "out.csv", 2)]),
    "minp_flags_normal": (
        ["calibrate-minp", "--n", "4", "--rho", "0,0.6", "--reps", "3000"], ENGINE_MODES),
    "minp_flags_t": (
        ["calibrate-minp", "--family", "student_t", "--nu", "3", "--sided", "two_sided",
         "--n", "3", "--rho", "0.2", "--reps", "1500", "--alpha", "0.1", "--seed", "8"],
        ENGINE_MODES),
    "minp_tiles": (
        ["calibrate-minp", "--n", "5", "--rho", "0,0.5,0.95", "--reps", str(BLOCK_SIZE + 999),
         "--seed", "9"], TWO_WORKERS),
    "equiv_fig3": (["equiv-ratio", "--config", "fig3.json"], ENGINE_MODES),
    "equiv_flags": (
        ["equiv-ratio", "--n", "3", "--rho", "0.4,0.8", "--dist", "pareto:1",
         "--weights", "1,2,3", "--alphas", "0.05,0.01", "--reps", "20000", "--seed", "4"],
        ENGINE_MODES),
    "err_no_config": (["simulate"], ONE_FILE),
    "err_unknown_preset": (["simulate", "--preset", "nope"], ONE_FILE),
    "err_wrong_command": (["calibrate-minp", "--config", "table2a.json"], ONE_FILE),
    "err_weighted_no_weights": (
        ["combine", "-i", "groups.csv", "--method", "weighted", "--dist", "cauchy"],
        [("csv", "out.csv", None), ("json", "out.json", None)]),
    "err_average_pareto2": (
        ["combine", "-i", "groups.csv", "--method", "average", "--dist", "pareto:2"], ONE_FILE),
    "err_minp_no_rho": (["calibrate-minp", "--n", "3"], ONE_FILE),
    "err_equiv_no_rejections": (
        ["equiv-ratio", "--n", "2", "--rho", "0", "--alphas", "1e-6", "--reps", "100"],
        [("csv", "out.csv", 1), ("json", None, 1)]),
    "err_bad_line": (
        ["combine", "-i", "bad.csv", "--method", "fisher"],
        [("csv", "out.csv", None), ("csv", None, None), ("json", "out.json", None)]),
}

_RUNTIME = re.compile(r'"runtime_seconds": [^,\n}]+')


def _blank_runtime(text):
    return None if text is None else _RUNTIME.sub('"runtime_seconds": null', text)


def _read(path):
    return Path(path).read_text() if os.path.exists(path) else None


def _write_inputs(directory):
    files = {"groups.csv": GROUPS, "equal.csv": EQUAL, "single.csv": SINGLE, "bad.csv": BAD}
    files.update({name: json.dumps(cfg) for name, cfg in CONFIGS.items()})
    for name, text in files.items():
        Path(directory, name).write_text(text)


def _run_case(argv):
    """Run ``cli.main`` in the current directory and capture what it leaves."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    target = argv[argv.index("-o") + 1] if "-o" in argv else None
    manifest = None if target is None else os.path.splitext(target)[0] + ".manifest.json"
    record = {
        "argv": argv,
        "exit": code,
        "stdout": _blank_runtime(out.getvalue()),
        "stderr": "".join(line for line in err.getvalue().splitlines(keepends=True)
                          if not line.startswith("[simulate]")),
        "file": None if target is None else _blank_runtime(_read(target)),
        "manifest": None if manifest is None else _blank_runtime(_read(manifest)),
    }
    for path in (target, manifest):
        if path is not None and os.path.exists(path):
            os.remove(path)
    return record


def _mode_argv(base, mode):
    fmt, target, workers = mode
    argv = list(base) + ["--format", fmt]
    if target is not None:
        argv += ["-o", target]
    if workers is not None:
        argv += ["--workers", str(workers)]
    return argv


def run_golden(name):
    base, modes = RUNS[name]
    return [_run_case(_mode_argv(base, mode)) for mode in modes]


def covariance_golden():
    model = ExchangeableModel("normal", 2, -0.6)
    out = {}
    for replications, workers in [(20, 1), (20, 3), (5000, 1), (5000, 3),
                                  (600_000, 1), (600_000, 2)]:
        est = pvalue_covariance(model, replications, seed=17, workers=workers)
        out[f"R{replications}_w{workers}"] = [repr(est.covariance), repr(est.std_error)]
    return out


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("HEAVYCOMB_WORKERS", raising=False)
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_golden(golden_dir, name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    got = run_golden(name)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e, f"{name}: {' '.join(e['argv'])}"


def test_pvalue_covariance_golden():
    expected = json.loads((GOLDEN / "pvalue_covariance.json").read_text())
    assert covariance_golden() == expected


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_goldens_under_other_blas_kernels(coretype):
    # OpenBLAS picks its kernel from the CPU at load time; forcing another one
    # for a child process must not move a golden byte
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not other_blas_kernels"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:]


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    os.environ.pop("HEAVYCOMB_WORKERS", None)
    home = os.getcwd()
    # pytest keeps warnings out of stderr; so does a regeneration
    warnings.simplefilter("ignore", RuntimeWarning)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _write_inputs(tmp)
            for name in sorted(RUNS):
                doc = json.dumps(run_golden(name), indent=1)
                (GOLDEN / f"{name}.json").write_text(doc + "\n")
        finally:
            os.chdir(home)
    doc = json.dumps(covariance_golden(), indent=1)
    (GOLDEN / "pvalue_covariance.json").write_text(doc + "\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
