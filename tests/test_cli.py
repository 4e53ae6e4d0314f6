import argparse
import csv
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings, strategies as hst

from heavycomb import (
    bh_adjust,
    bonferroni,
    closed_test_bruteforce,
    closed_test_shortcut,
    combine_average,
    combine_standard,
    combine_weighted,
    fisher,
    parse_distribution,
)
from heavycomb import cli, combine as combine_module, groupfile
from heavycomb.cli import main

_CHUNK_GROUPS = 256  # 3-value groups in one chunk of TestBatchedFileCommands


def _fmt(value) -> str:
    """The reference formatting of one CSV field."""
    kind = type(value)  # rows hold only str, int, float and bool
    if kind is float:
        return f"{value:.17g}"
    if kind is bool:
        return "true" if value else "false"
    return str(value)


def write_groups(path, groups, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for gid, ps in groups:
            fh.write(",".join([gid] + [repr(float(p)) for p in ps]) + "\n")


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def golden_groups():
    rng = np.random.default_rng(77)
    groups = []
    for i in range(20):
        n = int(rng.integers(1, 9))
        groups.append((f"g{i:02d}", list(rng.uniform(1e-5, 1.0, n))))
    return groups


class TestCombineCommand:
    def test_trivial_rows(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.5, 0.5]), ("g2", [0.05])])
        assert main(["combine", "-i", str(inp), "--method", "standard",
                     "--dist", "cauchy", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert float(rows[0]["combined_p"]) == 1.0
        assert float(rows[1]["combined_p"]) == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("method,dist", [
        ("standard", "cauchy"), ("standard", "trunc_t:1:0.9"), ("average", "pareto:1"),
        ("bonferroni", None), ("fisher", None),
    ])
    def test_golden_file_matches_library(self, tmp_path, golden_groups, method, dist):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, golden_groups)
        argv = ["combine", "-i", str(inp), "--method", method, "-o", str(out)]
        if dist:
            argv += ["--dist", dist]
        assert main(argv) == 0
        d = parse_distribution(dist) if dist else None
        fn = {"standard": lambda p: combine_standard(p, d),
              "average": lambda p: combine_average(p, d),
              "bonferroni": bonferroni,
              "fisher": fisher}[method]
        rows = read_csv(out)
        for row, (gid, ps) in zip(rows, golden_groups):
            ref = fn(ps)
            assert row["group_id"] == gid
            assert int(row["n"]) == ref.n
            # CLI must equal the library bit-for-bit
            assert float(row["statistic"]) == ref.statistic
            assert float(row["combined_p"]) == ref.combined_p

    def test_weighted_requires_equal_lengths(self, tmp_path, capsys):
        # the library's ShapeError, named by line; earlier rows are kept
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.1, 0.2]), ("g2", [0.3])])
        rc = main(["combine", "-i", str(inp), "--method", "weighted",
                   "--dist", "cauchy", "--weights", "1,2", "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: line 2: weight vector has length 2, expected 1\n")
        assert [row["group_id"] for row in read_csv(out)] == ["g1"]

    def test_weighted_matches_library(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.1, 0.2]), ("g2", [0.3, 0.9])])
        assert main(["combine", "-i", str(inp), "--method", "weighted",
                     "--dist", "pareto:1", "--weights", "2,1", "-o", str(out)]) == 0
        rows = read_csv(out)
        for row, ps in zip(rows, ([0.1, 0.2], [0.3, 0.9])):
            ref = combine_weighted(ps, [2.0, 1.0], parse_distribution("pareto:1"))
            assert float(row["combined_p"]) == ref.combined_p

    def test_header_detected(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.5])], header="group_id,p1,p2")
        assert main(["combine", "-i", str(inp), "--method", "fisher", "-o", str(out)]) == 0
        assert len(read_csv(out)) == 1

    def test_reject_flag(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.001, 0.004]), ("g2", [0.6, 0.7])])
        assert main(["combine", "-i", str(inp), "--method", "standard",
                     "--dist", "cauchy", "--alpha", "0.05", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0]["reject"] == "true"
        assert rows[1]["reject"] == "false"

    def test_levy_sum_beyond_half_max(self, tmp_path):
        # two isf(1e-154) = 6.4e307 sum past max/2, where the Levy sf formed
        # 2x and overflowed: the combined p was the 2.2e-308 floor
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        inp.write_text("g1,1e-154,1e-154\n")
        assert main(["combine", "-i", str(inp), "--method", "standard", "--dist", "levy",
                     "-o", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["combined_p"]) == pytest.approx(
            2.0 * st.levy.sf(float(row["statistic"])), rel=1e-15)
        assert float(row["combined_p"]) == pytest.approx(1.4142135623730951e-154, rel=1e-14)


class TestValidation:
    def test_malformed_row_names_line(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.5\ng2,not_a_number\n")
        rc = main(["combine", "-i", str(inp), "--method", "fisher"])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_out_of_range_p_names_line(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.5\ng2,0.2,1.5\n")
        rc = main(["combine", "-i", str(inp), "--method", "fisher"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "(0, 1]" in err

    def test_zero_p_rejected(self, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.0\n")
        assert main(["combine", "-i", str(inp), "--method", "fisher"]) == 1

    def test_empty_group_line(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.5\ng2\n")
        rc = main(["closed-test", "-i", str(inp), "--dist", "cauchy", "--alpha", "0.05"])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err
        inp.write_text("g1,0.5\n\ng2,0.1\n")
        assert main(["closed-test", "-i", str(inp), "--dist", "cauchy", "--alpha", "0.05"]) == 1
        assert capsys.readouterr().err == "error: line 2: empty line\n"

    def test_unknown_distribution_is_usage_error(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.5\n")
        assert main(["combine", "-i", str(inp), "--method", "standard", "--dist", "nope"]) == 2
        capsys.readouterr()
        assert main(["combine", "-i", str(inp), "--method", "standard"]) == 2
        assert capsys.readouterr().err == "config error: method 'standard' requires --dist\n"

    def test_average_with_wrong_tail_index_is_usage_error(self, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.5,0.1\n")
        assert main(["combine", "-i", str(inp), "--method", "average",
                     "--dist", "pareto:2"]) == 2

    def test_unparseable_token_after_out_of_range_one(self, tmp_path, capsys):
        # every token of a line parses before any range is checked
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.5\ng2,1.5, oops ,0.2\n")
        assert main(["combine", "-i", str(inp), "--method", "fisher"]) == 1
        assert capsys.readouterr().err == "error: line 2: unparseable p-value: 'oops'\n"

    @pytest.mark.parametrize("argv", [["combine", "--method", "fisher"],
                                      ["closed-test", "--dist", "cauchy", "--alpha", "0.05"],
                                      ["adjust-bh"]], ids=["combine", "closed-test", "adjust-bh"])
    @pytest.mark.parametrize("line", [b"g\xff2,0.1", b"g2,0.1\xd0"], ids=["group-id", "p-value"])
    def test_bytes_that_are_not_text_name_their_line(self, tmp_path, capsys, argv, line):
        # the same error and the same output as a bad p-value on that line
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"

        def run(second_line):
            inp.write_bytes(b"g1,0.5\n" + second_line + b"\ng3,0.2\n")
            assert main(argv[:1] + ["-i", str(inp), "-o", str(out)] + argv[1:]) == 1
            return capsys.readouterr().err, out.read_bytes() if out.exists() else None

        err, written = run(line)
        assert err.startswith("error: line 2: not ") and err.endswith(" text\n")
        assert err.count("\n") == 1
        assert run(b"g2,1.5") == ("error: line 2: p-value 1.5 outside (0, 1]\n", written)

    def test_binary_file_is_a_validation_error(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_bytes(bytes(range(256)) * 2)
        assert main(["combine", "-i", str(inp), "--method", "fisher"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ") and err.count("\n") == 1

    def test_overflowing_truncation_point_is_usage_error(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        write_groups(inp, [("g1", [0.1, 0.2])])
        argv = ["combine", "-i", str(inp), "--method", "standard", "--dist", "trunc_t:0.001:0.01"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: trunc_t: truncation point overflows")

    @pytest.mark.parametrize("argv,message", [
        (["closed-test", "--dist", "cauchy", "--alpha", "1.5"], "--alpha must be in (0,1), got 1.5"),
        (["combine", "--method", "fisher", "--alpha", "1.5"], "--alpha must be in (0,1), got 1.5"),
        (["adjust-bh", "--q", "7"], "--q must be in (0,1), got 7.0"),
        (["adjust-bh", "--q", "-1"], "--q must be in (0,1), got -1.0"),
    ], ids=["closed-test-alpha", "combine-alpha", "adjust-bh-q-above", "adjust-bh-q-below"])
    def test_level_flag_checked_before_output(self, tmp_path, capsys, argv, message):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.1])])
        assert main(argv[:1] + ["-i", str(inp), "-o", str(out)] + argv[1:]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["bonferroni", "fisher"])
    def test_dist_of_a_method_without_one(self, tmp_path, capsys, method):
        # the flag would be dropped while the manifest echoes it
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.1, 0.2])])
        argv = ["combine", "-i", str(inp), "--method", method, "--dist", "cauchy", "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: --dist does not apply to method '{method}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["combine", "--method", "fisher"],
                                      ["closed-test", "--dist", "cauchy", "--alpha", "0.05"]],
                             ids=["combine", "closed-test"])
    def test_line_that_csv_cannot_read(self, tmp_path, capsys, argv):
        # a field past csv's size limit: the rows before its line, then its error
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.5\ng2," + "1" * (csv.field_size_limit() + 1) + "\ng3,0.2\n")
        assert main(argv[:1] + ["-i", str(inp)] + argv[1:]) == 1
        out, err = capsys.readouterr()
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["g1"]
        assert err == (f"error: line 2: field larger than field limit "
                       f"({csv.field_size_limit()})\n")


class TestClosedTestCommand:
    def test_single_p(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.03])])
        assert main(["closed-test", "-i", str(inp), "--dist", "cauchy",
                     "--alpha", "0.05", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0]["reject"] == "true"

    def test_matches_bruteforce_oracle(self, tmp_path, golden_groups):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        small = [(gid, ps) for gid, ps in golden_groups if len(ps) <= 6][:8]
        write_groups(inp, small)
        assert main(["closed-test", "-i", str(inp), "--dist", "pareto:1",
                     "--alpha", "0.05", "-o", str(out)]) == 0
        rows = read_csv(out)
        d = parse_distribution("pareto:1")
        k = 0
        for gid, ps in small:
            ref = closed_test_bruteforce(ps, d, 0.05)
            for i in range(len(ps)):
                assert rows[k]["group_id"] == gid
                assert float(rows[k]["adjusted_p"]) == pytest.approx(ref.adjusted_p[i], abs=1e-12)
                assert (rows[k]["reject"] == "true") == bool(ref.rejected[i])
                k += 1

    def test_overflowed_transform_beside_p_one(self, tmp_path):
        # isf(4.9e-324) overflows to +inf; with p = 1 (-inf) the sum reads as +inf
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        inp.write_text("g1,4.9e-324,1\n")
        assert main(["closed-test", "-i", str(inp), "--dist", "cauchy",
                     "--alpha", "0.05", "-o", str(out)]) == 0
        assert [r["reject"] for r in read_csv(out)] == ["true", "false"]

    def test_reject_is_adjusted_p_at_most_alpha(self, tmp_path):
        # hypothesis 2's adjusted p rounds to 0.05000000000000001 under t:3
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        inp.write_text("g1,0.5,0.025\n")
        assert main(["closed-test", "-i", str(inp), "--dist", "t:3",
                     "--alpha", "0.05", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert float(rows[1]["adjusted_p"]) > 0.05
        assert [r["reject"] for r in rows] == ["false", "false"]


class TestGeneralNuTransforms:
    """Valid groups whose general-nu transforms overflow or sit deep in the tail."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dist,p", [("t:0.5", 1e-200), ("inv_gamma:0.5", 1e-200),
                                        ("t:1.5", 1e-295)])
    def test_combine_standard_exits_zero(self, tmp_path, dist, p):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [p, 0.3])])
        assert main(["combine", "-i", str(inp), "--method", "standard", "--dist", dist,
                     "-o", str(out)]) == 0
        row = read_csv(out)[0]
        d = parse_distribution(dist)
        x = d.inverse_survival(np.array([p, 0.3]))
        if dist == "t:1.5":
            # a finite isf near 1e196, checked by its round trip
            assert 1e195 < x[0] < 1e197
            assert float(d.survival(x[0])) == pytest.approx(p, rel=1e-13)
            assert float(row["combined_p"]) == pytest.approx(
                combine_standard([p, 0.3], d).combined_p, rel=1e-12)
        else:
            assert x[0] == np.inf
            assert float(row["combined_p"]) == sys.float_info.min

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["combine", "-i", "in.csv", "--method", "standard", "--dist", "t:1e200"],
        ["closed-test", "-i", "in.csv", "--dist", "t:1e200", "--alpha", "0.05"],
        ["calibrate-minp", "--family", "student_t", "--nu", "1e300", "--n", "2", "--rho", "0.5",
         "--reps", "2000"],
    ], ids=["combine", "closed-test", "calibrate-minp"])
    def test_huge_nu_is_the_normal_limit(self, tmp_path, monkeypatch, argv):
        # Hill's start for the t isf divided by (nu - 1/2)^-2, which underflows to 0
        monkeypatch.chdir(tmp_path)
        write_groups(tmp_path / "in.csv", [("g1", [0.01, 0.5]), ("g2", [0.3])])
        assert main(argv + ["-o", "out.csv"]) == 0
        if argv[0] == "combine":
            assert float(read_csv(tmp_path / "out.csv")[0]["statistic"]) == pytest.approx(
                st.norm.isf(0.01), abs=1e-12)


class TestAdjustBhCommand:
    def test_all_discovered(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("a", [0.01]), ("b", [0.02]), ("c", [0.03]), ("d", [0.04])])
        assert main(["adjust-bh", "-i", str(inp), "--q", "0.05", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert all(r["discovery"] == "true" for r in rows)
        assert all(float(r["adjusted_p"]) == pytest.approx(0.04) for r in rows)

    def test_single_is_identity(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("a", [0.7])])
        assert main(["adjust-bh", "-i", str(inp), "-o", str(out)]) == 0
        assert float(read_csv(out)[0]["adjusted_p"]) == 0.7

    def test_all_ones_no_discovery(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("a", [1.0]), ("b", [1.0])])
        assert main(["adjust-bh", "-i", str(inp), "--q", "0.2", "-o", str(out)]) == 0
        assert all(r["discovery"] == "false" for r in read_csv(out))

    def test_matches_library(self, tmp_path):
        rng = np.random.default_rng(9)
        ps = list(rng.uniform(1e-4, 1, 30))
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [(f"g{i}", [p]) for i, p in enumerate(ps)])
        assert main(["adjust-bh", "-i", str(inp), "-o", str(out)]) == 0
        ref = bh_adjust(ps)
        got = [float(r["adjusted_p"]) for r in read_csv(out)]
        assert np.array_equal(got, ref)

    def test_group_of_two_is_input_error(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.1]), ("g2", [0.2, 0.3])])
        assert main(["adjust-bh", "-i", str(inp), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: adjust-bh expects one combined p-value per group, got 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "group_id,p\n"], ids=["empty", "header-only"])
    def test_no_groups_writes_header(self, tmp_path, capsys, text):
        # as combine and closed-test do; combine's missing weights still fail
        # after the header, as on an input with groups
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        inp.write_text(text)
        assert main(["adjust-bh", "-i", str(inp), "-o", str(out)]) == 0
        assert out.read_text() == "group_id,p_value,adjusted_p,discovery\n"
        argv = ["combine", "-i", str(inp), "--method", "weighted", "--dist", "cauchy", "-o"]
        for fmt, name, written in [("csv", "c.csv", "group_id,n,statistic,combined_p\n"),
                                   ("json", "c.json", "")]:
            assert main(argv + [str(tmp_path / name), "--format", fmt]) == 2
            assert capsys.readouterr().err == (
                "config error: method 'weighted' requires --weights\n")
            assert (tmp_path / name).read_text() == written
            assert not (tmp_path / "c.manifest.json").exists()


class TestSimulateCommand:
    def _config(self, tmp_path, replications=20_000, workers=1):
        cfg = {
            "command": "simulate",
            "model": {"family": "normal", "n": 3, "rho": [0.0, 0.5], "sided": "one_sided"},
            "methods": [
                {"kind": "standard", "distribution": "cauchy", "label": "cauchy"},
                {"kind": "bonferroni", "label": "bonferroni"},
            ],
            "alphas": [0.05],
            "replications": replications,
            "seed": 31,
            "workers": workers,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_runs_and_reparses(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfg), "-o", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4  # 2 rho x 2 methods x 1 alpha
        for row in rows:
            est = float(row["estimate"])
            assert 0.0 <= est <= 1.0
            assert float(row["rho"]) in (0.0, 0.5)
        manifest = json.loads((tmp_path / "res.manifest.json").read_text())
        assert manifest["seed"] == 31
        assert manifest["version"]
        assert "runtime_seconds" in manifest

    def test_workers_do_not_change_bytes(self, tmp_path):
        out1, out3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
        assert main(["simulate", "--config", str(self._config(tmp_path)),
                     "--workers", "1", "-o", str(out1)]) == 0
        assert main(["simulate", "--config", str(self._config(tmp_path)),
                     "--workers", "3", "-o", str(out3)]) == 0
        assert out1.read_bytes() == out3.read_bytes()

    def test_seed_override(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = self._config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--seed", "1", "-o", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--seed", "2", "-o", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_zero_replications_is_config_error(self, tmp_path):
        cfg = self._config(tmp_path, replications=0)
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_invalid_rho_cites_constraint(self, tmp_path, capsys):
        cfg = json.loads(self._config(tmp_path).read_text())
        cfg["model"]["rho"] = [-0.9]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "-1/(n-1)" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate"]) == 2
        capsys.readouterr()
        assert main(["simulate", "--config", str(tmp_path / "none.json")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config file: ")

    def test_preset_unknown(self):
        assert main(["simulate", "--preset", "tableXX"]) == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(["simulate", "--config", str(self._config(tmp_path)),
                     "--format", "json", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 4
        assert doc["manifest"]["config"]["replications"] == 20_000


class TestRunFlagsWithoutAnEngine:
    """combine, closed-test, adjust-bh and tail-dep read no seed (and adjust-bh and
    tail-dep no workers), but record them in the manifest, so they hold them to
    the engine commands' rule.  Every command checks them before it reads a
    config, a preset or an input."""

    @pytest.fixture
    def commands(self, tmp_path):
        groups, combined = tmp_path / "groups.csv", tmp_path / "combined.csv"
        write_groups(groups, [("g1", [0.01, 0.2]), ("g2", [0.5, 0.7])])
        write_groups(combined, [("g1", [0.01]), ("g2", [0.5])])
        return [["combine", "-i", str(groups), "--method", "fisher"],
                ["closed-test", "-i", str(groups), "--dist", "cauchy", "--alpha", "0.05"],
                ["adjust-bh", "-i", str(combined)],
                ["tail-dep", "--nu", "2", "--rho", "0.5"]]

    @pytest.mark.parametrize("flags,message", [
        (["--workers", "0"], "workers must be >= 1, got 0"),
        (["--workers", "-3"], "workers must be >= 1, got -3"),
        (["--seed", "-1"], "seed must be in 0..2**64-1, got -1"),
        (["--seed", str(2**64)], "seed must be in 0..2**64-1, got 18446744073709551616"),
    ], ids=["workers-0", "workers-neg", "seed-negative", "seed-2**64"])
    def test_refused_before_any_output(self, tmp_path, capsys, commands, flags, message):
        out = tmp_path / "out.csv"
        unread = [["simulate", "--config", str(tmp_path / "missing.json")],
                  ["equiv-ratio", "--config", str(tmp_path / "missing.json")],
                  ["calibrate-minp", "--preset", "nope"]]  # each a config error of its own
        for argv in commands + unread:
            assert main(argv + flags + ["-o", str(out)]) == 2, argv
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not out.exists()

    def test_given_values_are_recorded(self, tmp_path, commands):
        out = tmp_path / "out.csv"
        for argv in commands:
            assert main(argv + ["--seed", str(2**64 - 1), "--workers", "3", "-o", str(out)]) == 0
            manifest = json.loads((tmp_path / "out.manifest.json").read_text())
            assert (manifest["seed"], manifest["workers"]) == (2**64 - 1, 3), argv


class TestOtherCommands:
    def test_tail_dep_values(self, tmp_path):
        out = tmp_path / "td.csv"
        assert main(["tail-dep", "--nu", "2", "--rho", "0,0.5,0.9,0.99",
                     "-o", str(out)]) == 0
        vals = [float(r["tail_dependence"]) for r in read_csv(out)]
        assert vals == pytest.approx([0.1817, 0.3910, 0.7177, 0.9100], abs=5e-4)

    def test_calibrate_minp_flags(self, tmp_path):
        out = tmp_path / "minp.csv"
        assert main(["calibrate-minp", "--n", "5", "--rho", "0", "--alpha", "0.05",
                     "--reps", "50000", "--seed", "33", "-o", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["cutoff_ratio"]) == pytest.approx(1.02, abs=0.06)

    def test_equiv_ratio_flags(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert main(["equiv-ratio", "--n", "5", "--rho", "0.5", "--alphas", "0.05,0.005",
                     "--reps", "50000", "--seed", "34", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert float(rows[0]["ratio"]) > float(rows[1]["ratio"])

    def test_equiv_ratio_preset_roundtrip_config(self, tmp_path):
        # a preset dumped to JSON behaves exactly like --preset
        from heavycomb.presets import get_preset
        cfg = get_preset("fig3")
        cfg["replications"] = 30_000
        path = tmp_path / "fig3.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "eq.csv"
        assert main(["equiv-ratio", "--config", str(path), "-o", str(out)]) == 0
        assert len(read_csv(out)) == 4


    def test_equiv_ratio_weights_reproduce_from_manifest(self, tmp_path):
        # the manifest's config echo, run through --config, gives the same CSV
        out, again = tmp_path / "eq.csv", tmp_path / "again.csv"
        assert main(["equiv-ratio", "--n", "3", "--rho", "0.4", "--dist", "pareto:1",
                     "--weights", "1,2,3", "--reps", "5000", "--seed", "9",
                     "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "eq.manifest.json").read_text())
        assert manifest["config"]["weights"] == [1.0, 2.0, 3.0]
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(manifest["config"]))
        assert main(["equiv-ratio", "--config", str(path), "-o", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("argv,echo,columns", [
        (["calibrate-minp", "--preset", "tableS3", "--alpha", "0.01", "--reps", "2000",
          "--n", "3"],
         {"alpha": 0.01, "replications": 2000, "n": 3},
         {"alpha": 0.01, "replications": 2000, "n": 3}),
        (["equiv-ratio", "--preset", "fig3", "--reps", "3000", "--alphas", "0.1",
          "--dist", "pareto:1"],
         {"distribution": "pareto:1", "alphas": [0.1], "replications": 3000},
         {"distribution": "pareto:1", "alpha": 0.1, "replications": 3000}),
    ], ids=["calibrate-minp", "equiv-ratio"])
    def test_flags_overlay_a_preset(self, tmp_path, argv, echo, columns):
        # each flag given runs and is echoed; the echo run through --config gives the same CSV
        out, again = tmp_path / "out.csv", tmp_path / "again.csv"
        assert main(argv + ["-o", str(out)]) == 0
        cfg = json.loads((tmp_path / "out.manifest.json").read_text())["config"]
        assert {key: {**cfg, **cfg["model"]}[key] for key in echo} == echo
        for key, value in columns.items():
            assert {type(value)(row[key]) for row in read_csv(out)} == {value}
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(cfg))
        assert main([argv[0], "--config", str(path), "-o", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_model_flags_and_reps_overlay_a_config(self, tmp_path):
        # --n and --reps over a config run as the flags alone would, with its rho and seed
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"model": {"n": 2, "rho": [0.0, 0.5]},
                                    "replications": 5000, "seed": 3}))
        out, flags = tmp_path / "out.csv", tmp_path / "flags.csv"
        assert main(["calibrate-minp", "--config", str(path), "--n", "4", "--reps", "1500",
                     "-o", str(out)]) == 0
        cfg = json.loads((tmp_path / "out.manifest.json").read_text())["config"]
        assert (cfg["model"]["n"], cfg["replications"]) == (4, 1500)
        assert main(["calibrate-minp", "--n", "4", "--rho", "0,0.5", "--reps", "1500",
                     "--seed", "3", "-o", str(flags)]) == 0
        assert out.read_bytes() == flags.read_bytes()

    @pytest.mark.parametrize("source", [["--n", "2", "--rho", "0"], ["--config", "normal.json"]],
                             ids=["flags", "config"])
    def test_nu_on_a_normal_model_is_refused(self, tmp_path, monkeypatch, capsys, source):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "normal.json").write_text(json.dumps({"model": {"n": 2, "rho": 0.0}}))
        assert main(["calibrate-minp", "--nu", "3", "--reps", "2000", "-o", "out.csv"]
                    + source) == 2
        assert capsys.readouterr().err == (
            "config error: nu does not apply to the normal family, got nu=3.0\n")
        assert not (tmp_path / "out.csv").exists()

    def test_largest_seed_runs(self, tmp_path):
        # the largest seed that one 64-bit word of the Philox key holds; test_flags refuses past it
        argv = ["calibrate-minp", "--n", "2", "--rho", "0", "--reps", "2000", "-o",
                str(tmp_path / "out.csv"), "--seed"]
        assert main(argv + [str(2**64 - 1)]) == 0
        assert read_csv(tmp_path / "out.csv")[0]["seed"] == str(2**64 - 1)

    def test_equiv_ratio_weights_flag_wins_over_config(self, tmp_path):
        outs = []
        for weights, flag in (([1, 1, 1], ["--weights", "1,2,3"]), ([1, 2, 3], [])):
            cfg = {"model": {"n": 3, "rho": 0.4}, "distribution": "pareto:1",
                   "weights": weights, "replications": 5000, "seed": 9}
            path = tmp_path / "eq.json"
            path.write_text(json.dumps(cfg))
            outs.append(tmp_path / f"eq{len(outs)}.csv")
            assert main(["equiv-ratio", "--config", str(path), "-o", str(outs[-1])] + flag) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestEngineCommandsBeforeOutput:
    """An engine command checks its levels and rho before it writes anything."""

    @pytest.mark.parametrize("argv,message", [
        (["calibrate-minp", "--n", "2", "--rho", "0", "--reps", "1000", "--alpha", "1.5"],
         "alpha must be in (0,1), got 1.5"),
        (["equiv-ratio", "--n", "2", "--rho", "0", "--reps", "1000", "--alphas", "0.05,1.5"],
         "alpha must be in (0,1), got 1.5"),
        (["tail-dep", "--nu", "2", "--rho", "0.5,1.5"], "rho must be in (-1, 1], got 1.5"),
        (["tail-dep", "--nu", "0", "--rho", "0.5"], "nu must be positive, got 0.0"),
        (["tail-dep", "--nu", "inf", "--rho", "0.5"], "nu must be finite, got inf"),
        (["calibrate-minp", "--family", "student_t", "--nu", "inf", "--n", "2", "--rho", "0",
          "--reps", "1000"], "student_t family needs finite degrees of freedom, got nu=inf"),
        (["equiv-ratio", "--n", "2", "--rho", "0", "--weights", "1,x"],
         "unparseable weights: '1,x'"),
        (["equiv-ratio", "--n", "2", "--rho", "0", "--weights", ","], "empty weight list"),
        (["equiv-ratio", "--n", "2", "--rho", "0", "--weights", ""], "empty weight list"),
        (["combine", "-i", "none.csv", "--method", "bonferroni", "--weights", ""],
         "empty weight list"),
        (["calibrate-minp", "--n", "2", "--rho", "0", "--reps", "1000", "--seed", "-1"],
         "seed must be in 0..2**64-1, got -1"),
        (["calibrate-minp", "--n", "2", "--rho", "0", "--reps", "1000", "--seed", str(2**64)],
         "seed must be in 0..2**64-1, got 18446744073709551616"),
        (["combine", "-i", "none.csv", "--method", "standard", "--dist", "inv_gamma:1e300"],
         "inv_gamma: tail index must be at most 1e+08, got 1e+300"),
    ], ids=["calibrate-minp-alpha", "equiv-ratio-alphas", "tail-dep-rho", "tail-dep-nu",
            "tail-dep-nu-inf", "calibrate-minp-nu", "equiv-ratio-weights-x",
            "equiv-ratio-weights-empty", "equiv-ratio-weights-blank", "combine-weights-blank",
            "seed-negative", "seed-2**64", "inv-gamma-huge-shape"])
    def test_flags(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_empty_rho_list(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"n": 2, "rho": []}, "replications": 1000}))
        out = tmp_path / "out.csv"
        assert main(["calibrate-minp", "--config", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err == "config error: config lists no rho\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,field,value", [
        ("simulate", "alphas", [0.05, 0.0]),
        ("calibrate-minp", "alpha", -0.1),
        ("equiv-ratio", "alphas", [1.0]),
    ])
    def test_config(self, tmp_path, capsys, command, field, value):
        cfg = {"command": command, "model": {"n": 2, "rho": [0.0, 0.5]},
               "methods": [{"kind": "fisher"}], "replications": 1000, field: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(path), "-o", str(out)]) == 2
        bad = value[-1] if isinstance(value, list) else value
        assert capsys.readouterr().err == f"config error: alpha must be in (0,1), got {bad!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,model,methods,message", [
        ("simulate", {}, [{"kind": "weighted", "distribution": "cauchy", "weights": [1, 2, 3]}],
         "method weighted[cauchy]: weight vector has length 3, expected 2"),
        ("calibrate-minp", {"mean": {"kind": "dense", "value": 1.0}}, [],
         "minP calibration requires the null model (zero mean)"),
    ], ids=["simulate-weights", "calibrate-minp-mean"])
    def test_config_checked_in_the_run(self, tmp_path, capsys, command, model, methods, message):
        # checks that the engine makes, not the CLI, leave no file either
        cfg = {"model": {"n": 2, "rho": 0.0, **model}, "methods": methods,
               "replications": 1000}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,model,message", [
        ("simulate", '"family": "student_t", "nu": 1e400',
         "student_t family needs finite degrees of freedom, got nu=inf"),
        ("equiv-ratio", '"mean": [NaN, 0.0]', "mean vector has a NaN entry: (nan, 0.0)"),
    ], ids=["nu-1e400", "nan-mean"])
    def test_model_values(self, tmp_path, capsys, command, model, message):
        path = tmp_path / "cfg.json"  # JSON text: json.dumps would write 1e400 as Infinity
        path.write_text('{"model": {"n": 2, "rho": 0.5, %s}, "replications": 1000, '
                        '"methods": [{"kind": "fisher"}]}' % model)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


def engine_config(command):
    """A small valid config for each engine command."""
    cfg = {"command": command,
           "model": {"family": "normal", "n": 2, "rho": 0.5, "nu": None, "mean": [0.0, 0.0],
                     "sided": "one_sided"},
           "replications": 500, "seed": 5, "workers": 1}
    if command == "simulate":
        cfg["methods"] = [{"kind": "standard", "distribution": "cauchy", "label": "cauchy"},
                          {"kind": "bonferroni", "weights": [1, 2]},
                          {"kind": "minp", "cutoff": 0.02}]
        cfg["alphas"] = [0.05]
    elif command == "calibrate-minp":
        cfg["alpha"] = 0.05
    else:
        cfg.update(distribution="cauchy", weights=[1, 2], alphas=[0.05])
    return cfg


_DELETE = object()


def with_value(cfg, path, value):
    """``cfg`` with the value at ``path`` (keys and list indices) replaced or deleted."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path
    inner = cfg
    for key in parents:
        inner = inner[key]
    if value is _DELETE:
        del inner[last]
    else:
        inner[last] = value
    return cfg


def config_paths(cfg, prefix=()):
    """The path of every value in ``cfg``, a section before the values in it."""
    items = cfg.items() if isinstance(cfg, dict) else enumerate(cfg)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, dict) or key == "methods":
            yield from config_paths(value, prefix + (key,))


class TestConfigValues:
    """An engine config value of the wrong type is a usage error that names its
    key, before any output; a count must be a whole number."""

    @pytest.mark.parametrize("command,path,value,message", [
        ("simulate", ("replications",), "abc", "replications must be a whole number, got 'abc'"),
        ("simulate", ("alphas",), ["x"], "alphas must be a number, got 'x'"),
        ("simulate", ("methods", 1, "kind"), _DELETE, "unknown method kind None"),
        ("simulate", ("methods",), "bonferroni", "methods must be a list, got 'bonferroni'"),
        ("simulate", ("model", "n"), "x", "n must be a positive integer, got 'x'"),
        ("simulate", ("model", "rho"), "a", "rho must be a number, got 'a'"),
        ("simulate", ("seed",), "s", "seed must be a whole number, got 's'"),
        ("simulate", ("model", "mean"), {"kind": "dense", "value": "q"},
         "mean value must be a number, got 'q'"),
        ("simulate", ("methods", 2, "cutoff"), "x", "cutoff must be a number, got 'x'"),
        ("simulate", ("methods", 1, "weights"), 5,
         "method bonferroni: weight vector has length 1, expected 2"),
        ("simulate", (), [1, 2], "config must be a dict, got [1, 2]"),
        ("equiv-ratio", ("weights",), "ab", "weights must be a number, got 'ab'"),
        ("simulate", ("model", "n"), 2.5, "n must be a positive integer, got 2.5"),
        ("simulate", ("model", "n"), True, "n must be a positive integer, got True"),
        ("simulate", ("replications",), 1000.9,
         "replications must be a whole number, got 1000.9"),
        ("simulate", ("seed",), 3.7, "seed must be a whole number, got 3.7"),
        ("simulate", ("workers",), 1.5, "workers must be a whole number, got 1.5"),
        ("simulate", ("workers",), True, "workers must be a whole number, got True"),
        ("calibrate-minp", ("alpha",), [0.05], "alpha must be a number, got [0.05]"),
        ("simulate", ("alphas",), [], "config lists no alphas"),
        ("equiv-ratio", ("alphas",), [], "config lists no alphas"),
        ("simulate", ("methods", 0, "label"), [1, 2],
         "label must be a string with no comma or line break, got [1, 2]"),
        ("simulate", ("methods", 0, "label"), "a,b",
         "label must be a string with no comma or line break, got 'a,b'"),
        ("simulate", ("model", "rho"), 10**400, "rho must be a number within the double range"),
        ("simulate", ("alphas",), [0.05, 10**400],
         "alphas must be a number within the double range"),
        ("simulate", ("model", "nu"), 10**400, "nu must be a number within the double range"),
        ("simulate", ("methods", 2, "cutoff"), 10**400,
         "cutoff must be a number within the double range"),
        ("simulate", ("model", "mean"), {"kind": "dense", "value": 10**400},
         "mean value must be a number within the double range"),
        ("simulate", ("model", "n"), 10**400,
         "n must fit an array dimension, got 1329 bits"),
        ("simulate", ("methods", 1, "weights"), False, "weights must be a number, got False"),
        ("simulate", ("methods", 1, "weights"), 0,
         "method bonferroni: weight vector has length 1, expected 2"),
        ("simulate", ("methods", 1, "weights"), "", "weights must be a number, got ''"),
        ("equiv-ratio", ("weights",), False, "weights must be a number, got False"),
        ("equiv-ratio", ("weights",), 0, "weight vector has length 1, expected 2"),
        ("equiv-ratio", ("weights",), "", "weights must be a number, got ''"),
        ("simulate", ("model",), _DELETE, "config is missing the 'model' section"),
        ("simulate", ("model", "mean"), {"kind": "sparse", "count": 3},
         "sparse mean count must be in 1..2"),
        ("simulate", ("model", "mean"), {"kind": "spiky"}, "unknown mean kind 'spiky'"),
        ("simulate", ("methods",), [], "config lists no methods"),
        ("simulate", ("methods", 1, "kind"), ["bonferroni"], "unknown method kind ['bonferroni']"),
        ("simulate", ("methods", 0, "weights"), [1, 2],
         "method cauchy: 'weights' does not apply to kind 'standard'"),
        ("simulate", ("methods", 1, "distribution"), "cauchy",
         "method bonferroni[cauchy]: 'distribution' does not apply to kind 'bonferroni'"),
        ("simulate", ("methods", 2, "cutoff"), 1.5,
         "method minp: cutoff must be in (0, 1], got 1.5"),
        # a key that nothing reads, at each level: a misspelling would run the default
        ("simulate", ("seeed",), 3, "unknown key 'seeed' in config"),
        ("calibrate-minp", ("alphas_",), [0.01], "unknown key 'alphas_' in config"),
        ("simulate", ("model", "sidd"), "two_sided", "unknown key 'sidd' in model"),
        ("equiv-ratio", ("model", "sigma"), 1.0, "unknown key 'sigma' in model"),
        ("simulate", ("methods", 1, "weigths"), [1, 3], "unknown key 'weigths' in method"),
        ("simulate", ("model", "mean"), {"kind": "sparse", "value": 1.0, "counts": 1},
         "unknown key 'counts' in mean"),
        ("simulate", ("model", "mean"), {"kind": "dense", "value": 1.0, "count": 2},
         "unknown key 'count' in mean"),
    ], ids=["replications-abc", "alphas-x", "method-no-kind", "methods-string", "n-x", "rho-a",
            "seed-s", "dense-mean-q", "minp-cutoff-x", "bonferroni-weights-5", "top-level-list",
            "equiv-weights-ab", "n-2.5", "n-true", "replications-1000.9", "seed-3.7",
            "workers-1.5", "workers-true", "minp-alpha-list", "simulate-no-alphas",
            "equiv-no-alphas", "label-list", "label-comma", "rho-1e400-int", "alphas-1e400-int",
            "nu-1e400-int", "minp-cutoff-1e400-int", "dense-mean-1e400-int", "n-1e400-int",
            "bonferroni-weights-false", "bonferroni-weights-0", "bonferroni-weights-empty",
            "equiv-weights-false", "equiv-weights-0", "equiv-weights-empty", "no-model",
            "sparse-mean-count-3", "mean-kind-spiky", "methods-empty", "method-kind-list",
            "standard-weights", "bonferroni-distribution", "minp-cutoff-1.5",
            "unknown-top-level", "unknown-top-level-calibrate-minp", "unknown-model",
            "unknown-model-equiv-ratio", "unknown-method", "unknown-mean", "dense-mean-count"])
    def test_bad_value(self, tmp_path, capsys, command, path, value, message):
        cfg = with_value(engine_config(command), path, value) if path else value
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(tmp_path / "cfg.json"), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.load refuses it before any key is read
        path = tmp_path / "cfg.json"
        path.write_text('{"model": {"n": 2, "rho": 0.5}, "alphas": 1%s}' % ("0" * 5000))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: config file is not valid JSON")
        assert not out.exists()

    def test_equiv_ratio_empty_alphas_flag(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["equiv-ratio", "--n", "2", "--rho", "0", "--alphas", "", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "config error: config lists no alphas\n"
        assert not out.exists()

    def test_tail_dep_empty_rho_flag(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["tail-dep", "--nu", "2", "--rho", "", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "config error: config lists no rho\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--method", "standard", "--dist", "cauchy"],
        ["--method", "average", "--dist", "cauchy"],
        ["--method", "fisher"],
    ], ids=["standard", "average", "fisher"])
    def test_combine_weights_of_an_unweighted_method(self, tmp_path, capsys, argv):
        # these tests take no weights, so the flag would be dropped while the
        # manifest echoes it
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.1, 0.2, 0.3])])
        assert main(["combine", "-i", str(inp), "--weights", "5,1", "-o", str(out)] + argv) == 2
        assert capsys.readouterr().err == (
            f"config error: --weights does not apply to method '{argv[1]}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "calibrate-minp", "equiv-ratio"])
    def test_underflowed_t_divisor(self, tmp_path, capsys, command):
        # an input error with one line and no file, and no RuntimeWarning
        cfg = {"model": {"family": "student_t", "n": 2, "nu": 0.001, "rho": 0},
               "replications": 2000}
        if command == "simulate":
            cfg["methods"] = [{"kind": "bonferroni"}]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([command, "--config", str(tmp_path / "cfg.json"), "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: nu=0.001: a chi-square divisor underflowed to 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,key", [("simulate", "alphas"), ("equiv-ratio", "alphas"),
                                             ("simulate", "rho")])
    def test_one_number_is_a_list_of_one(self, tmp_path, command, key):
        rows = []
        for value in (0.05, [0.05]) if key == "alphas" else (0.5, [0.5]):
            cfg = engine_config(command)
            (cfg if key == "alphas" else cfg["model"])[key] = value
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            out = tmp_path / f"out{len(rows)}.csv"
            assert main([command, "--config", str(tmp_path / "cfg.json"), "-o", str(out)]) == 0
            rows.append(out.read_bytes())
        assert rows[0] == rows[1]

    def test_whole_number_floats_are_counts(self, tmp_path):
        outs = []
        for n, replications, seed in ((2, 500, 5), (2.0, 5e2, 5.0)):
            cfg = engine_config("simulate")
            cfg["model"]["n"], cfg["replications"], cfg["seed"] = n, replications, seed
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            outs.append(tmp_path / f"out{len(outs)}.csv")
            assert main(["simulate", "--config", str(tmp_path / "cfg.json"),
                         "-o", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("flags,message", [
        (["--reps", "0"], "replications must be >= 1, got 0"),
        (["--reps", "-5"], "replications must be >= 1, got -5"),
        (["--workers", "0"], "workers must be >= 1, got 0"),
        (["--workers", "-3"], "workers must be >= 1, got -3"),
    ], ids=["reps-0", "reps-neg", "workers-0", "workers-neg"])
    def test_calibrate_minp_settings(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out.csv"
        argv = ["calibrate-minp", "--n", "2", "--rho", "0", "--reps", "500"] + flags
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_manifest_config_echo_in_order(self, tmp_path, monkeypatch):
        # the config's own keys, then the seed, then the workers; the flags'
        # echo has no workers
        monkeypatch.delenv("HEAVYCOMB_WORKERS", raising=False)
        model = {"n": 2, "rho": 0.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "calibrate-minp", "model": model,
                                    "replications": 500, "alpha": 0.05}))
        out = tmp_path / "out.csv"
        runs = [(["--config", str(path)], [("seed", 20240501), ("workers", 1)], 20240501, 1),
                (["--config", str(path), "--seed", "7", "--workers", "2"],
                 [("seed", 7), ("workers", 2)], 7, 2),
                (["--n", "2", "--rho", "0", "--reps", "500", "--seed", "7", "--workers", "2"],
                 [("seed", 7)], 7, 2)]
        for flags, settings_echo, seed, workers in runs:
            assert main(["calibrate-minp", "-o", str(out)] + flags) == 0
            manifest = json.loads((tmp_path / "out.manifest.json").read_text())
            if "--config" in flags:
                head = [("model", model), ("replications", 500), ("alpha", 0.05)]
            else:
                head = [("model", {"family": "normal", "n": 2, "rho": [0.0], "nu": None,
                                   "sided": "one_sided"}), ("alpha", 0.05), ("replications", 500)]
            assert list(manifest["config"].items()) == head + settings_echo
            assert (manifest["seed"], manifest["workers"]) == (seed, workers)


_WRONG_TYPE = hst.one_of(
    hst.text(max_size=4), hst.booleans(), hst.none(),
    hst.lists(hst.one_of(hst.none(), hst.booleans(), hst.text(max_size=2),
                         hst.floats(-3, 3, allow_nan=False)), max_size=3),
    hst.dictionaries(hst.text(max_size=3), hst.one_of(hst.none(), hst.floats(-3, 3)),
                     max_size=2))
# a fraction below 3, never a whole number, so no example starts a long run
_FRACTION = hst.floats(0, 3, exclude_min=True, exclude_max=True).filter(lambda x: x % 1)
_COUNT_KEYS = {"n", "replications", "workers", "seed"}


@hst.composite
def _bad_configs(draw):
    command = draw(hst.sampled_from(["simulate", "calibrate-minp", "equiv-ratio"]))
    cfg = engine_config(command)
    path = draw(hst.sampled_from(list(config_paths(cfg))))
    wrong = hst.one_of(_WRONG_TYPE, _FRACTION) if path[-1] in _COUNT_KEYS else _WRONG_TYPE
    return command, with_value(cfg, path, draw(wrong))


@settings(max_examples=60, deadline=None)
@given(_bad_configs())
def test_wrong_typed_value_never_crashes(case):
    # a wrong-typed value is a usage error, or else runs or fails numerically;
    # it is never an input error (exit 1) or an uncaught exception, and a run
    # writes every CSV row with the header's field count
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        rc = main([command, "--config", path, "-o", f"{tmp}/out.csv"])
        assert rc in (0, 2, 3)
        if rc == 0:
            with open(f"{tmp}/out.csv", newline="") as fh:
                header, *rows = fh.read().split("\n")[:-1]
            assert {row.count(",") for row in rows} == {header.count(",")}


class TestOnePassCommands:
    """A command over several rho writes the rows of one run per rho."""

    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["calibrate-minp", "--alpha", "0.1"],
        ["equiv-ratio", "--dist", "pareto:1", "--weights", "1,2,3", "--alphas", "0.05,0.01"],
    ], ids=["simulate", "calibrate-minp", "equiv-ratio"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rows_match_one_rho_at_a_time(self, tmp_path, argv, workers):
        rhos = [0.0, 0.7, -0.3]

        def run(rho_values, name):
            cfg = {"command": argv[0],
                   "model": {"family": "student_t", "nu": 3, "n": 3, "rho": rho_values},
                   "methods": [{"kind": "standard", "distribution": "cauchy"},
                               {"kind": "bonferroni"}, {"kind": "fisher"}],
                   "replications": 40_000, "seed": 47}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"{name}.csv"
            assert main(argv + ["--config", str(path), "--workers", workers,
                                "-o", str(out)]) == 0
            return out.read_text().splitlines()

        shared = run(rhos, "all")
        alone = [run(rho, f"rho{i}") for i, rho in enumerate(rhos)]
        assert shared == alone[0][:1] + [line for lines in alone for line in lines[1:]]


class TestWeightRule:
    """The engine checks weights by the library's rule: positive and finite."""

    @pytest.mark.parametrize("method", [
        {"kind": "bonferroni", "weights": [1, float("inf")]},
        {"kind": "weighted", "distribution": "cauchy", "weights": [1, float("nan")]},
    ], ids=["bonferroni-inf", "weighted-nan"])
    def test_simulate_config_rejects_weights(self, tmp_path, capsys, method):
        cfg = {"model": {"n": 2, "rho": 0.0}, "methods": [method], "alphas": [0.05],
               "replications": 2000, "seed": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))  # writes Infinity and NaN literals
        rc = main(["simulate", "--config", str(path), "-o", str(tmp_path / "out.csv")])
        assert rc == 2
        assert "weights must be positive and finite" in capsys.readouterr().err

    def test_equiv_ratio_rejects_infinite_weight(self, tmp_path, capsys):
        # a usage error before any output, as in combine
        rc = main(["equiv-ratio", "--n", "3", "--rho", "0.4", "--weights", "1,inf,1",
                   "--reps", "2000", "-o", str(tmp_path / "eq.csv")])
        assert rc == 2
        assert "weights must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "eq.csv").exists()

    def test_equiv_ratio_checks_weight_count_before_output(self, tmp_path, capsys):
        rc = main(["equiv-ratio", "--n", "3", "--rho", "0.4", "--weights", "1,2",
                   "--reps", "2000", "-o", str(tmp_path / "eq.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: weight vector has length 2, expected 3\n")
        assert not (tmp_path / "eq.csv").exists()

    @pytest.mark.parametrize("weights,message", [
        ("1e-300,1", "weight 1e-300 to the power of the tail index 3.0 underflows to 0"),
        ("1e300,1", "weight 1e+300 to the power of the tail index 3.0 overflows"),
        ("5.6e102,5.6e102",
         "kappa, the sum of the weights to the power of the tail index 3.0, overflows"),
    ], ids=["underflow", "overflow", "sum-overflow"])
    def test_equiv_ratio_checks_mapped_weights_before_output(self, tmp_path, capsys, weights,
                                                             message):
        # positive finite weights whose powers w^gamma leave the doubles: the
        # Bonferroni side could not be paired, a usage error with no file
        rc = main(["equiv-ratio", "--dist", "pareto:3", "--weights", weights, "--n", "2",
                   "--rho", "0", "--reps", "2000", "-o", str(tmp_path / "eq.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "eq.csv").exists()


    @pytest.mark.parametrize("argv", [
        ["--method", "weighted", "--dist", "cauchy", "--weights", "1,inf"],
        ["--method", "bonferroni", "--weights", "1,-1"],
    ], ids=["weighted-inf", "bonferroni-negative"])
    def test_combine_checks_weight_values_before_output(self, tmp_path, capsys, argv):
        # a usage error, as in simulate, with no partial file; the count
        # stays a per-group check named by its line
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.1, 0.2])])
        assert main(["combine", "-i", str(inp), "-o", str(out)] + argv) == 2
        assert capsys.readouterr().err == "config error: weights must be positive and finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("weights,outcome", [
        ("1e-200,1e-200", "underflows to 0"), ("1e300,1", "overflows"),
    ], ids=["underflow", "overflow"])
    def test_combine_checks_kappa_before_output(self, tmp_path, capsys, weights, outcome):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.1, 0.2])])
        assert main(["combine", "-i", str(inp), "-o", str(out), "--method", "weighted",
                     "--dist", "pareto:3", "--weights", weights]) == 2
        assert capsys.readouterr().err == (
            f"config error: kappa, the sum of the weights to the power of the tail index "
            f"3.0, {outcome}\n")
        assert not out.exists()

    def test_combine_bonferroni_weights_whose_sum_overflows(self, tmp_path):
        # finite weights whose sum is not: the rows of equal weights
        inp = tmp_path / "in.csv"
        write_groups(inp, [("g1", [0.1, 0.2]), ("g2", [0.3, 0.02])])
        rows = []
        for i, weights in enumerate([["--weights", "1e308,1e308"], ["--weights", "1,1"], []]):
            out = tmp_path / f"out{i}.csv"
            assert main(["combine", "-i", str(inp), "-o", str(out), "--method", "bonferroni",
                         "--alpha", "0.1"] + weights) == 0
            rows.append(out.read_text())
        assert rows[0] == rows[1] == rows[2]
        assert rows[0].splitlines()[1] == "g1,2,0.20000000000000001,0.20000000000000001,false"

    def test_simulate_config_checks_kappa(self, tmp_path, capsys):
        method = {"kind": "weighted", "distribution": "pareto:3", "weights": [1e-200, 1e-200]}
        cfg = {"model": {"n": 2, "rho": 0.0}, "methods": [method], "alphas": [0.05],
               "replications": 2000, "seed": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "-o", str(tmp_path / "out.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: method weighted[pareto:3]: kappa, the sum of the weights to the "
            "power of the tail index 3.0, underflows to 0\n")
        assert not (tmp_path / "out.csv").exists()


class TestFileLayout:
    """Spaces around tokens and CRLF line ends read as the clean file, and a
    group longer than the chunk budget is one chunk of its own."""

    CLEAN = "group_id,p1,p2\ng1,0.5,0.01\ng2,1e-300,0.25,1\ng3,0.75\n"

    @staticmethod
    def messy(text):
        return "".join(",".join(f" {tok}\t" if i % 2 else f"  {tok}" for i, tok in
                                enumerate(line.split(","))) + " \r\n"
                       for line in text.splitlines())

    @pytest.mark.parametrize("argv,text", [
        (["combine", "--method", "standard", "--dist", "cauchy", "--alpha", "0.05"], CLEAN),
        (["combine", "--method", "fisher", "--format", "json"], CLEAN),
        (["closed-test", "--dist", "levy", "--alpha", "0.05"], CLEAN),
        (["adjust-bh"], "group_id,p\ng1,0.01\ng2,0.5\ng3,1e-300\n"),
    ], ids=["combine", "combine-json", "closed-test", "adjust-bh"])
    def test_spaces_and_crlf_give_clean_bytes(self, tmp_path, argv, text):
        got = {}
        for name, content in (("clean", text), ("messy", self.messy(text))):
            inp = tmp_path / f"{name}.csv"
            inp.write_bytes(content.encode())
            out = tmp_path / f"{name}.out"
            assert main(argv[:1] + ["-i", str(inp), "-o", str(out)] + argv[1:]) == 0
            got[name] = out.read_bytes()
        if "json" in argv:  # the manifest names the input and the runtime
            got = {k: json.loads(v)["rows"] for k, v in got.items()}
        assert got["messy"] == got["clean"]

    def test_group_beyond_the_budget_is_one_library_call(self, tmp_path):
        rng = np.random.default_rng(65)
        big = [float(v) for v in 1.0 - rng.random(50_000)]
        assert len(big) > combine_module._CHUNK
        groups = [("g0", [0.5, 0.25]), ("big", big), ("g2", [0.125, 1e-300])]
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, groups)
        assert main(["combine", "-i", str(inp), "--method", "standard", "--dist", "cauchy",
                     "--alpha", "0.05", "-o", str(out)]) == 0
        expected = ["group_id,n,statistic,combined_p,reject"]
        for gid, ps in groups:
            ref = combine_standard(ps, parse_distribution("cauchy"))
            fields = [gid, ref.n, ref.statistic, ref.combined_p, ref.combined_p < 0.05]
            expected.append(",".join(map(_fmt, fields)))
        assert out.read_text().splitlines() == expected


class TestFileErrors:
    """An input that cannot be read, or an output that cannot be created, is a
    usage error that names the file: one line on stderr, nothing written."""

    FILE_COMMANDS = [["combine", "--method", "fisher"],
                     ["closed-test", "--dist", "cauchy", "--alpha", "0.05"], ["adjust-bh"]]

    @staticmethod
    def run(capsys, argv, out, fmt="csv"):
        rc = main(argv + ["--format", fmt] + ([] if out is None else ["-o", str(out)]))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        return captured.err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    @pytest.mark.parametrize("argv", FILE_COMMANDS, ids=["combine", "closed-test", "adjust-bh"])
    def test_missing_input(self, tmp_path, capsys, argv, to_file, fmt):
        missing = tmp_path / "nope.csv"
        out = tmp_path / "out.csv" if to_file else None
        err = self.run(capsys, argv[:1] + ["-i", str(missing)] + argv[1:], out, fmt)
        assert err.startswith("config error: cannot read input file: ")
        assert str(missing) in err
        assert list(tmp_path.iterdir()) == []  # no output and no manifest

    @pytest.mark.parametrize("argv", FILE_COMMANDS, ids=["combine", "closed-test", "adjust-bh"])
    def test_directory_as_input(self, tmp_path, capsys, argv):
        err = self.run(capsys, argv[:1] + ["-i", str(tmp_path)] + argv[1:],
                       tmp_path / "out.csv")
        assert err.startswith("config error: cannot read input file: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", FILE_COMMANDS + [
        ["calibrate-minp", "--n", "2", "--rho", "0", "--reps", "500"]],
        ids=["combine", "closed-test", "adjust-bh", "calibrate-minp"])
    def test_output_in_a_missing_directory(self, tmp_path, capsys, argv, fmt):
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.01\ng2,0.5\n")
        if argv[0] != "calibrate-minp":
            argv = argv[:1] + ["-i", str(inp)] + argv[1:]
        err = self.run(capsys, argv, tmp_path / "missing" / "out.csv", fmt)
        assert err.startswith("config error: cannot write output file: ")
        assert list(tmp_path.iterdir()) == [inp]


class TestShapeOneThroughThePool:
    """inv_gamma:1 runs Frechet(1)'s methods, bound in its constructor; a forked
    worker inherits the plan's distributions, and only its results are pickled."""

    def test_inv_gamma_1_is_frechet_1_at_any_workers(self, tmp_path):
        cfg = {"command": "simulate",
               "model": {"family": "student_t", "n": 3, "nu": 2, "rho": [0.0, 0.5],
                         "sided": "two_sided"},
               "methods": [{"kind": "standard", "distribution": "inv_gamma:1", "label": "ig"},
                           {"kind": "standard", "distribution": "frechet:1", "label": "fr"}],
               "alphas": [0.05, 0.01], "replications": 2 * cli.sim.BLOCK_SIZE + 1000, "seed": 11}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        outs = []
        for workers in (1, 2, 3):
            outs.append(tmp_path / f"w{workers}.csv")
            assert main(["simulate", "--config", str(tmp_path / "cfg.json"),
                         "--workers", str(workers), "-o", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        counts = {}
        for row in read_csv(outs[0]):
            counts.setdefault((row["rho"], row["alpha"]), {})[row["method"]] = row["rejections"]
        assert len(counts) == 4
        for pair in counts.values():
            assert pair["ig"] == pair["fr"] != "0"


class TestParserReuse:
    """main builds its parser once; calls in one process give the bytes of
    calls that each build their own, with no flag default carried over."""

    RUNS = [
        ["combine", "-i", "groups.csv", "--method", "standard", "--dist", "cauchy",
         "--alpha", "0.05"],
        ["combine", "-i", "groups.csv", "--method", "fisher"],  # no reject column
        ["closed-test", "-i", "groups.csv", "--dist", "levy", "--alpha", "0.1",
         "--format", "json"],
        ["closed-test", "-i", "groups.csv", "--dist", "cauchy", "--alpha", "0.05"],
        ["adjust-bh", "-i", "one.csv", "--q", "0.2"],
        ["adjust-bh", "-i", "one.csv"],  # the default q
        ["tail-dep", "--nu", "3", "--rho", "0.5,0.9"],
        ["equiv-ratio", "--n", "3", "--rho", "0.4", "--reps", "2000", "--alphas", "0.01,0.05",
         "--seed", "3", "--weights", "1,2,3"],
        ["equiv-ratio", "--n", "3", "--rho", "0.4", "--reps", "2000"],  # default alphas, seed
        ["calibrate-minp", "--n", "2", "--rho", "0", "--reps", "1000", "--format", "json"],
    ]

    def outputs(self, tmp_path, fresh):
        got = []
        for i, argv in enumerate(self.RUNS):
            if fresh:
                cli._parser.cache_clear()
            out = tmp_path / f"run{i}.out"
            assert main(argv + ["-o", out.name]) == 0
            doc = json.loads(out.read_text()) if "json" in argv else {"csv": out.read_text()}
            manifest = doc.pop("manifest", None) or json.loads(
                (tmp_path / f"run{i}.manifest.json").read_text())
            del manifest["runtime_seconds"]
            got.append((doc, manifest))
        return got

    def test_back_to_back_calls_match_separate_ones(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("HEAVYCOMB_WORKERS", raising=False)
        write_groups(tmp_path / "groups.csv", [("g1", [0.5, 0.01, 0.2]), ("g2", [1e-4])])
        write_groups(tmp_path / "one.csv", [("g1", [0.01]), ("g2", [0.3]), ("g3", [0.04])])
        reused = self.outputs(tmp_path, fresh=False)
        assert reused == self.outputs(tmp_path, fresh=True)
        assert "reject" not in reused[1][0]["csv"].splitlines()[0]
        assert reused[8][1]["config"]["alphas"] == [0.05]

    def test_usage_help_and_version_unchanged(self, capsys):
        texts = []
        for fresh in (True, False):
            if fresh:
                cli._parser.cache_clear()
            for argv in (["--help"], ["combine", "--help"], ["--version"],
                         ["combine", "--method", "nope"], []):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                texts.append((argv, exc.value.code, capsys.readouterr()))
        half = len(texts) // 2
        assert texts[:half] == texts[half:]
        assert [code for _, code, _ in texts[:half]] == [0, 0, 0, 2, 2]


class TestFlagsContract:
    """The CLI flags, the second part of the behaviour contract: each subcommand's
    actions, as (option strings, dest, choices, metavar, default, required).  The
    structure, not the help text, so that every supported Python agrees."""

    HELP = (["-h", "--help"], "help", None, None, argparse.SUPPRESS, False)
    CONFIG = [(["--config"], "config", None, None, None, False),
              (["--preset"], "preset", None, None, None, False)]
    MODEL = [(["--family"], "family", ["normal", "student_t"], None, None, False),
             (["--n"], "n", None, None, None, False),
             (["--rho"], "rho", None, None, None, False),
             (["--nu"], "nu", None, None, None, False),
             (["--sided"], "sided", ["one_sided", "two_sided"], None, None, False),
             (["--reps"], "replications", None, "REPS", None, False)]
    COMMON = [(["--seed"], "seed", None, None, None, False),
              (["--workers"], "workers", None, None, None, False),
              (["--output", "-o"], "output", None, None, None, False),
              (["--format"], "format", ["csv", "json"], None, "csv", False)]
    INPUT = (["--input", "-i"], "input", None, None, None, True)
    FLAGS = {
        "combine": [HELP, INPUT,
                    (["--method"], "method",
                     ["standard", "average", "weighted", "bonferroni", "fisher"], None, None, True),
                    (["--dist"], "dist", None, None, None, False),
                    (["--weights"], "weights", None, None, None, False),
                    (["--alpha"], "alpha", None, None, None, False), *COMMON],
        "closed-test": [HELP, INPUT, (["--dist"], "dist", None, None, None, True),
                        (["--alpha"], "alpha", None, None, None, True), *COMMON],
        "adjust-bh": [HELP, INPUT, (["--q"], "q", None, None, 0.05, False), *COMMON],
        "simulate": [HELP, *CONFIG, *COMMON],
        "calibrate-minp": [HELP, *CONFIG, *MODEL,
                           (["--alpha"], "alpha", None, None, None, False), *COMMON],
        "tail-dep": [HELP, (["--nu"], "nu", None, None, None, True),
                     (["--rho"], "rho", None, None, None, True), *COMMON],
        "equiv-ratio": [HELP, *CONFIG, *MODEL,
                        (["--dist"], "distribution", None, "DIST", None, False),
                        (["--alphas"], "alphas", None, None, None, False),
                        (["--weights"], "weights", None, None, None, False), *COMMON],
    }

    def test_every_subcommand_action(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {name: [(a.option_strings, a.dest, None if a.choices is None else list(a.choices),
                       a.metavar, a.default, a.required) for a in p._actions]
               for name, p in sub.choices.items()}
        assert got == self.FLAGS


class TestBatchedFileCommands:
    """combine and closed-test read files in chunks bucketed by group length.

    Every field must be ``_fmt`` of the per-group library result, over a
    file that spans several chunks, and an error must leave the rows of the
    file cut before its line.  The chunk budget is cut to
    ``3 * _CHUNK_GROUPS`` p-values, so that a chunk of 3-value groups ends at
    line ``_CHUNK_GROUPS``.
    """

    GROUPS = _CHUNK_GROUPS + 44
    DISTS = ["cauchy", "levy", "trunc_t:1:0.9", "pareto:1"]
    WEIGHTS = [1.0, 2.0, 0.5, 3.0, 1.0, 0.25]

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(combine_module, "_CHUNK", 3 * _CHUNK_GROUPS)

    @staticmethod
    def groups(sizes, seed):
        """Seeded groups with p = 1, 5e-324, ties, and sums that overflow."""
        rng = np.random.default_rng(seed)
        out = []
        for i, n in enumerate(sizes):
            p = 1.0 - rng.random(n)
            kind = i % 7
            if kind == 1:
                p[rng.integers(n)] = 1.0
            elif kind == 2:
                p[rng.integers(n)] = 5e-324
            elif kind == 3 and n > 1:
                p[: n // 2] = p[-1]  # ties
            elif kind == 4:
                p[:] = 1.0  # the Cauchy sum overflows to -inf (p = 1 maps to -max)
            elif kind == 5 and n > 1:
                p[0], p[1] = 5e-324, 1.0  # +inf meets -inf
            elif kind == 6:
                p = 10.0 ** -rng.uniform(0, 300, n)
            out.append((f"g{i:04d}", [float(v) for v in p]))
        return out

    @pytest.fixture(scope="class")
    def ragged(self):
        rng = np.random.default_rng(61)
        return self.groups(rng.integers(1, 26, self.GROUPS), 62)

    @pytest.fixture(scope="class")
    def fixed(self):
        return self.groups([len(self.WEIGHTS)] * self.GROUPS, 63)

    @staticmethod
    def run(tmp_path, groups, argv):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, groups)
        assert main(argv[:1] + ["-i", str(inp), "-o", str(out)] + argv[1:]) == 0
        return out.read_text().splitlines()[1:]

    CASES = ([("standard", d) for d in DISTS] + [("average", d) for d in DISTS if d != "levy"]
             + [("weighted", d) for d in DISTS]
             + [("bonferroni", None), ("bonferroni-weights", None), ("fisher", None)])

    @pytest.mark.parametrize("method,dist", CASES)
    def test_combine_fields_match_library(self, tmp_path, ragged, fixed, method, dist):
        d = parse_distribution(dist) if dist else None
        fn = {"standard": lambda p: combine_standard(p, d),
              "average": lambda p: combine_average(p, d),
              "weighted": lambda p: combine_weighted(p, self.WEIGHTS, d),
              "bonferroni": bonferroni,
              "bonferroni-weights": lambda p: bonferroni(p, self.WEIGHTS),
              "fisher": fisher}[method]
        weighted = method in ("weighted", "bonferroni-weights")
        groups = fixed if weighted else ragged
        argv = ["combine", "--method", method.split("-")[0], "--alpha", "0.05"]
        argv += ["--dist", dist] if dist else []
        argv += ["--weights", ",".join(map(repr, self.WEIGHTS))] if weighted else []
        lines = self.run(tmp_path, groups, argv)
        assert len(lines) == len(groups)
        for line, (gid, ps) in zip(lines, groups):
            ref = fn(ps)
            fields = [gid, ref.n, ref.statistic, ref.combined_p, ref.combined_p < 0.05]
            assert line == ",".join(map(_fmt, fields)), gid

    @pytest.mark.parametrize("dist", DISTS)
    def test_closed_test_fields_match_library(self, tmp_path, ragged, dist):
        d = parse_distribution(dist)
        lines = self.run(tmp_path, ragged, ["closed-test", "--dist", dist, "--alpha", "0.05"])
        expected = []
        for gid, ps in ragged:
            ref = closed_test_shortcut(ps, d, 0.05)
            for idx, (p, adj, rej) in enumerate(zip(ps, ref.adjusted_p, ref.rejected), start=1):
                expected.append(",".join(map(_fmt, [gid, idx, p, float(adj), bool(rej)])))
        assert lines == expected

    WEIGHTED = ["combine", "--method", "weighted", "--dist", "cauchy", "--weights", "1,2,3"]
    ERROR_COMMANDS = {
        "combine-parse": (["combine", "--method", "fisher"], "p"),
        "combine-weight-count": (WEIGHTED, "n"),
        "closed-test-parse": (["closed-test", "--dist", "levy", "--alpha", "0.05"], "p"),
    }
    # each command with one bad line at each chunk edge (line 276 keeps the
    # command's plain id), then a bad p-value and a wrong length in one chunk
    ERROR_CASES = [
        pytest.param(command, {line: bad},
                     id=name if line == _CHUNK_GROUPS + 20 else f"{name}-line{line}")
        for (name, (command, bad)), line in itertools.product(
            ERROR_COMMANDS.items(),
            [1, 2, _CHUNK_GROUPS, _CHUNK_GROUPS + 1, _CHUNK_GROUPS + 20, GROUPS])
    ] + [pytest.param(WEIGHTED, {20: "p", 40: "n"}, id="parse-then-weight-count"),
         pytest.param(WEIGHTED, {20: "n", 40: "p"}, id="weight-count-then-parse")]

    @pytest.mark.parametrize("command,bad", ERROR_CASES)
    def test_error_past_first_chunk_leaves_rows_before_its_line(
            self, tmp_path, capsys, command, bad):
        groups = self.groups([3] * self.GROUPS, 64)
        line = min(bad)
        head = tmp_path / "head.csv"
        write_groups(head, groups[: line - 1])
        want = tmp_path / "want.csv"
        assert main(command[:1] + ["-i", str(head), "-o", str(want)] + command[1:]) == 0
        # the bad lines (a p-value out of range or a wrong length), and groups
        # of other lengths after the first
        groups[line:] = [(gid, ps[: 1 + i % 3]) for i, (gid, ps) in enumerate(groups[line:])]
        for at, kind in bad.items():
            groups[at - 1] = ("bad", [0.5, 1.5, 0.2] if kind == "p" else [0.5, 0.2])
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, groups)
        capsys.readouterr()
        assert main(command[:1] + ["-i", str(inp), "-o", str(out)] + command[1:]) == 1
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")
        assert out.read_bytes() == want.read_bytes()



class TestSplitFileCommands:
    """combine and closed-test split a CSV input across ``--workers``: the
    output bytes, the stderr and the exit status are those of one process.

    The chunk budget is cut to 192 p-values, so the file of about 1000
    p-values makes three ranges at 3 workers and two at 2.
    """

    COMMANDS = {
        "cauchy": ["combine", "--method", "standard", "--dist", "cauchy"],
        "cauchy-alpha": ["combine", "--method", "standard", "--dist", "cauchy", "--alpha", "0.05"],
        "fisher": ["combine", "--method", "fisher"],
        "fisher-alpha": ["combine", "--method", "fisher", "--alpha", "0.01"],
        "closed-test": ["closed-test", "--dist", "cauchy", "--alpha", "0.05"],
    }
    GROUPS = 240

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(combine_module, "_CHUNK", 192)
        monkeypatch.delenv("HEAVYCOMB_WORKERS", raising=False)

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        fork = cli.sim._fork

        def counting(run, payload):
            calls.append(payload[2])  # the range's first line
            return fork(run, payload)

        monkeypatch.setattr(cli.sim, "_fork", counting)
        return calls

    @classmethod
    def groups(cls):
        return TestBatchedFileCommands.groups(
            np.random.default_rng(71).integers(1, 8, cls.GROUPS).tolist(), 72)

    @staticmethod
    def write(path, groups, end="\n", header=None):
        lines = ([header] if header else []) + [
            ",".join([gid] + [repr(float(p)) if isinstance(p, float) else p for p in ps])
            for gid, ps in groups]
        path.write_bytes("".join(line + end for line in lines).encode())

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def outcomes(self, capsys, argv, inp, tmp_path, to_stdout=False, workers=(1, 2, 3)):
        """(exit status, output bytes, stderr) at each worker count."""
        found = []
        for w in workers:
            out = tmp_path / f"out.w{w}.csv"
            target = [] if to_stdout else ["-o", str(out)]
            capsys.readouterr()
            code = main(argv[:1] + ["-i", str(inp)] + argv[1:] + target + ["--workers", str(w)])
            captured = capsys.readouterr()
            data = captured.out.encode() if to_stdout else out.read_bytes()
            found.append((code, data, captured.err))
            self.assert_no_child()
        return found

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("layout", ["plain", "header", "crlf", "cr", "stdout"])
    def test_same_output_at_any_workers(self, tmp_path, capsys, forks, command, layout):
        inp = tmp_path / "in.csv"
        self.write(inp, self.groups(), end={"crlf": "\r\n", "cr": "\r"}.get(layout, "\n"),
                   header="group_id,p1,p2" if layout == "header" else None)
        with cli._open_input(inp) as fh:
            assert len(groupfile._ranges(fh, 3)) == 3
        found = self.outcomes(capsys, self.COMMANDS[command], inp, tmp_path,
                              to_stdout=layout == "stdout")
        assert found[0][0] == 0 and found[0][2] == ""
        assert found[0][1].count(b"\n") > self.GROUPS
        assert found[1] == found[0] and found[2] == found[0]
        assert len(forks) == 1 + 2  # one child at 2 workers, two at 3

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("at", [5, 230], ids=["first-range", "last-range"])
    def test_bad_p_value(self, tmp_path, capsys, forks, command, at):
        groups = self.groups()
        groups[at - 1] = ("bad", [0.5, 1.5])
        inp = tmp_path / "in.csv"
        self.write(inp, groups)
        found = self.outcomes(capsys, self.COMMANDS[command], inp, tmp_path)
        assert found[0][0] == 1 and found[0][2] == f"error: line {at}: p-value 1.5 outside (0, 1]\n"
        assert found[1] == found[0] and found[2] == found[0]
        assert len(forks) == 3

    def test_unparseable_token_in_a_later_range(self, tmp_path, capsys):
        groups = self.groups()
        groups[200] = ("bad", [0.5, "x0.2"])
        inp = tmp_path / "in.csv"
        self.write(inp, groups)
        found = self.outcomes(capsys, self.COMMANDS["closed-test"], inp, tmp_path)
        assert found[0][2] == "error: line 201: unparseable p-value: 'x0.2'\n"
        assert found[1] == found[0] and found[2] == found[0]

    def test_weight_count_in_a_later_range(self, tmp_path, capsys, forks):
        groups = [(f"g{i}", [0.5, 0.25, 0.125 + i / 1000]) for i in range(self.GROUPS)]
        groups[210] = ("short", [0.5, 0.2])
        inp = tmp_path / "in.csv"
        self.write(inp, groups)
        argv = ["combine", "--method", "weighted", "--dist", "cauchy", "--weights", "1,2,3"]
        found = self.outcomes(capsys, argv, inp, tmp_path)
        assert found[0][0] == 1
        assert found[0][2] == "error: line 211: weight vector has length 3, expected 2\n"
        assert found[0][1].count(b"\n") == 211  # the header and every row before line 211
        assert found[1] == found[0] and found[2] == found[0]
        assert len(forks) == 3

    def test_a_quote_keeps_one_process(self, tmp_path, capsys, forks):
        # a quoted field may hold a line end, so no line end is known to end a record
        groups = self.groups()
        groups[100] = ('"g,100"', [0.5, 0.25])
        inp = tmp_path / "in.csv"
        self.write(inp, groups)
        with cli._open_input(inp) as fh:
            assert groupfile._ranges(fh, 3) is None
        for command in ("fisher", "closed-test"):
            found = self.outcomes(capsys, self.COMMANDS[command], inp, tmp_path)
            assert found[0][0] == 0 and b"g,100" in found[0][1]
            assert found[1] == found[0] and found[2] == found[0]
        assert forks == []

    @pytest.mark.parametrize("command", ["fisher-alpha", "closed-test"])
    def test_json_rows(self, tmp_path, capsys, command):
        inp = tmp_path / "in.csv"
        self.write(inp, self.groups())
        argv = self.COMMANDS[command] + ["--format", "json"]
        found = self.outcomes(capsys, argv, inp, tmp_path)
        rows = [json.loads(data)["rows"] for _, data, _ in found]
        assert len(rows[0]) >= self.GROUPS and rows[1] == rows[0] and rows[2] == rows[0]

    def test_environment_sets_the_workers(self, tmp_path, capsys, forks, monkeypatch):
        inp = tmp_path / "in.csv"
        self.write(inp, self.groups())
        out = tmp_path / "out.csv"
        monkeypatch.setenv("HEAVYCOMB_WORKERS", "2")
        assert main(["combine", "-i", str(inp), "--method", "fisher", "-o", str(out)]) == 0
        assert len(forks) == 1
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert manifest["workers"] is None  # the manifest records the flag as given
        monkeypatch.setenv("HEAVYCOMB_WORKERS", "0")
        assert main(["closed-test", "-i", str(inp), "--dist", "cauchy", "--alpha", "0.05"]) == 2
        assert capsys.readouterr().err == "config error: workers must be >= 1, got 0\n"

    def test_unseekable_input_keeps_one_process(self, tmp_path, capsys, forks):
        inp = tmp_path / "in.csv"
        self.write(inp, self.groups())
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)
        found = []
        for w in (1, 2):
            with subprocess.Popen(["sh", "-c", f"cat {inp} > {fifo}"]) as writer:
                out = tmp_path / f"fifo.w{w}.csv"
                assert main(["combine", "-i", str(fifo), "--method", "fisher", "-o", str(out),
                             "--workers", str(w)]) == 0
                assert writer.wait(timeout=60) == 0
            found.append(out.read_bytes())
        assert found[0] == found[1] and forks == []

    @pytest.mark.parametrize("seed", range(12))
    def test_ranges_start_at_line_starts(self, tmp_path, monkeypatch, seed):
        # 16-byte pre-pass blocks, so lines, CRLF pairs and runs of CRs span
        # them; each range must start just past a line end, with that line's
        # number, and hold whole lines
        monkeypatch.setattr(groupfile, "_SCAN", 16)
        monkeypatch.setattr(combine_module, "_CHUNK", 8)
        rng = np.random.default_rng(seed)
        ends = [b"\n", b"\r\n", b"\r", b"\r\r\n"]
        data = b"".join(b"g" + b",0.5" * int(rng.integers(0, 12)) + ends[rng.integers(4)]
                        for _ in range(int(rng.integers(1, 40))))
        if seed % 3 == 0:
            data = data.rstrip(b"\r\n")  # no line end at the end of the file
        inp = tmp_path / "in.csv"
        inp.write_bytes(data)
        line_ends = [(m.start(), m.end()) for m in re.finditer(rb"\r\n|\r|\n", data)]
        starts = [0] + [end for _, end in line_ends]  # starts[i]: where line i + 1 starts
        commas = [m.start() for m in re.finditer(rb",", data)]
        for workers in (2, 3, 5):
            parts = min(workers, -(-len(commas) // 8))
            cuts = [0]  # each range starts past the line end after comma k * commas // parts
            for k in range(1, parts):
                at = commas[len(commas) * k // parts]
                cut = next((end for start, end in line_ends if start >= at), len(data))
                if cuts[-1] < cut < len(data):
                    cuts.append(cut)
            lines = [starts.index(b) - starts.index(a) for a, b in zip(cuts, cuts[1:])] + [None]
            expected = [(cut, starts.index(cut) + 1, count) for cut, count in zip(cuts, lines)]
            with cli._open_input(inp) as fh:
                assert groupfile._ranges(fh, workers) == (expected if len(cuts) > 1 else None)

    @staticmethod
    def long_last_lines(tmp_path, values, end):
        """A short line then a long one, and two long ones: ``values`` p-values a line."""
        long = ",".join(["0.5"] * values)
        short, two = tmp_path / "short.csv", tmp_path / "two.csv"
        short.write_text(f"a,0.5\nb,{long}{end}")
        two.write_text(f"a,{long}\nb,{long}{end}")
        return short, two, [(0, 1, 1), (len(long) + 3, 2, None)]

    @pytest.mark.parametrize("end", ["\n", ""], ids=["line-end", "no-line-end"])
    def test_ranges_when_the_last_line_holds_a_cut(self, tmp_path, monkeypatch, capsys, end):
        # a range would start past the last line, which may have no line end:
        # that cut is dropped, and with it a split of the file with one long line.
        # The real chunk and pre-pass block first: 20,000 p-values span two blocks
        monkeypatch.setattr(combine_module, "_CHUNK", 1 << 14)
        short, two, ranges = self.long_last_lines(tmp_path, 20_000, end)
        for inp, expected in ((short, None), (two, ranges)):
            with cli._open_input(inp) as fh:
                assert groupfile._ranges(fh, 3) == expected
        # then the class's chunk and a smaller block, where closed-test runs fast
        monkeypatch.setattr(combine_module, "_CHUNK", 192)
        monkeypatch.setattr(groupfile, "_SCAN", 1024)
        short, two, ranges = self.long_last_lines(tmp_path, 1000, end)
        for inp, expected in ((short, None), (two, ranges)):
            with cli._open_input(inp) as fh:
                assert groupfile._ranges(fh, 3) == expected
            found = self.outcomes(capsys, self.COMMANDS["closed-test"], inp, tmp_path)
            assert found[0][0] == 0 and found[0][2] == ""
            assert found[1] == found[0] and found[2] == found[0]

    def test_closed_stdout_leaves_no_child(self, tmp_path):
        # the reader leaves after one line while the child still works; the
        # session holds the command and any child it leaves
        inp = tmp_path / "in.csv"
        write_groups(inp, [(f"g{i}", [0.5, 0.25, 0.125]) for i in range(20_000)])
        argv = [sys.executable, "-m", "heavycomb.cli", "closed-test", "-i", str(inp), "--dist",
                "cauchy", "--alpha", "0.05", "--workers", "2"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as proc:
            assert proc.stdout.readline() == b"group_id,hypothesis,p_value,adjusted_p,reject\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert err == b""
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


class TestWorkerWithoutResult:
    """A forked worker that exits before sending its result ends the command
    with exit status 3 and one line on stderr, and leaves no child."""

    ERROR = "error: a worker ended without a result (exit status 3)\n"

    def test_engine_command(self, monkeypatch, capsys):
        parent, range_ = os.getpid(), cli.sim._range  # five blocks: two ranges at 2 workers

        def failing(payload):  # this process computes the first range, a child the second
            return range_(payload) if os.getpid() == parent else os._exit(3)

        monkeypatch.setattr(cli.sim, "_range", failing)
        argv = ["calibrate-minp", "--n", "3", "--rho", "0.3", "--reps", "140000", "--seed", "5",
                "--workers", "2"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == self.ERROR and captured.out == ""  # the run fails before any output
        TestSplitFileCommands.assert_no_child()

    def test_split_combine(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(combine_module, "_CHUNK", 192)
        monkeypatch.setattr(groupfile, "_spool_range", lambda payload: os._exit(3))
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        TestSplitFileCommands.write(inp, TestSplitFileCommands.groups())
        argv = ["combine", "-i", str(inp), "--method", "fisher", "-o", str(out), "--workers", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err == self.ERROR
        lines = out.read_text().splitlines()  # the first range's rows, then no manifest
        assert 1 < len(lines) < 1 + TestSplitFileCommands.GROUPS
        assert not (tmp_path / "out.manifest.json").exists()
        TestSplitFileCommands.assert_no_child()


class TestPresets:
    @pytest.mark.parametrize("name,rows", [("table2a", 4 * 7), ("tableS1", 3 * 7)])
    def test_preset_shapes(self, tmp_path, name, rows):
        # presets dumped to JSON run like --preset; shrink R to keep tests fast
        from heavycomb.presets import get_preset
        cfg = get_preset(name)
        cfg["replications"] = 4_000
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(path), "-o", str(out)]) == 0
        got = read_csv(out)
        assert len(got) == rows
        assert {r["method"] for r in got} == {
            "cauchy", "pareto", "truncated_t1", "frechet", "levy", "bonferroni", "fisher"
        }

    def test_minp_preset(self, tmp_path):
        from heavycomb.presets import get_preset
        cfg = get_preset("tableS3")
        cfg["replications"] = 5_000
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        assert main(["calibrate-minp", "--config", str(path), "-o", str(out)]) == 0
        assert len(read_csv(out)) == 4

    def test_few_events_flag_only_fig3s_rarest_row(self, tmp_path, capsys):
        # fig3's alpha = 1e-4 row rests on one disagreement; every other preset
        # row on more than 100 events
        for name, command in [("table2a", "simulate"), ("tableS1", "simulate"),
                              ("tableS2", "simulate"), ("fig3", "equiv-ratio")]:
            out = tmp_path / f"{name}.csv"
            assert main([command, "--preset", name, "-o", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            warnings = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("warning:")]
            if name != "fig3":
                assert "health" not in manifest and warnings == [], name
                continue
            row = read_csv(out)[3]
            assert (row["alpha"], row["disagreements"]) == ("0.0001", "1")
            assert manifest["health"] == {"few_events": [{
                "row": 4, "rho": 0.5, "alpha": 0.0001,
                "events": {"disagreements": 1, "weighted_rejections": 108,
                           "bonferroni_rejections": 107}}]}
            assert warnings == ["warning: row 4 (rho=0.5, alpha=0.0001) rests on 1 disagreements, "
                                "108 weighted_rejections, 107 bonferroni_rejections: fewer than "
                                "10 events"]

    def test_few_events_flag_a_simulate_row(self, tmp_path, capsys):
        cfg = {"command": "simulate", "model": {"family": "normal", "n": 2, "rho": [0.0, 0.5]},
               "methods": [{"kind": "bonferroni"}], "alphas": [0.05, 0.001],
               "replications": 2000, "seed": 3}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(path), "-o", str(out)]) == 0
        rows = read_csv(out)
        few = [i for i, row in enumerate(rows, 1) if int(row["rejections"]) < 10]
        assert few == [2, 4]
        manifest = json.loads((tmp_path / "s.manifest.json").read_text())
        assert [(f["row"], f["method"], f["alpha"], f["events"]["rejections"])
                for f in manifest["health"]["few_events"]] == [
            (i, "bonferroni", 0.001, int(rows[i - 1]["rejections"])) for i in few]
        err = capsys.readouterr().err
        assert err.count("warning: row ") == 2 and "rho=0.5, method=bonferroni, alpha=0.001" in err

    def test_all_presets_parse(self):
        from heavycomb.presets import PRESETS, get_preset
        for name in PRESETS:
            cfg = get_preset(name)
            assert "model" in cfg and "seed" in cfg

    def test_unknown_preset_is_a_config_error(self):
        from heavycomb.errors import ConfigError
        from heavycomb.presets import get_preset
        with pytest.raises(ConfigError) as info:
            get_preset("nope")
        assert str(info.value) == ("unknown preset 'nope'; available: fig3, table2a, tableS1, "
                                   "tableS2, tableS3")


class TestWorkerEnvVar:
    def test_env_default_used(self, tmp_path, monkeypatch):
        cfg = {
            "command": "simulate",
            "model": {"family": "normal", "n": 2, "rho": 0.0},
            "methods": [{"kind": "fisher"}],
            "alphas": [0.05],
            "replications": 1_000,
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        monkeypatch.setenv("HEAVYCOMB_WORKERS", "2")
        assert main(["simulate", "--config", str(path), "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "res.manifest.json").read_text())
        assert manifest["workers"] == 2

    def test_env_invalid_is_config_error(self, tmp_path, monkeypatch, capsys):
        # a value below 1 fails as --workers does; the parse error comes first
        for env, message in [("many", "HEAVYCOMB_WORKERS must be an integer, got 'many'"),
                             ("0", "workers must be >= 1, got 0"),
                             ("-3", "workers must be >= 1, got -3")]:
            monkeypatch.setenv("HEAVYCOMB_WORKERS", env)
            assert main(["calibrate-minp", "--n", "2", "--rho", "0",
                         "--reps", "1000"]) == 2
            assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_flag_wins_over_invalid_env_on_config_path(self, tmp_path, monkeypatch):
        # the environment default is read only when neither --workers nor the
        # config sets the worker count
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"command": "calibrate-minp",
                                    "model": {"family": "normal", "n": 2, "rho": 0.0},
                                    "alpha": 0.05, "replications": 1_000, "seed": 1}))
        out = tmp_path / "m.csv"
        monkeypatch.setenv("HEAVYCOMB_WORKERS", "many")
        assert main(["calibrate-minp", "--config", str(path), "--workers", "1",
                     "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["workers"] == 1
        cfg = json.loads(path.read_text())
        cfg["workers"] = 1
        path.write_text(json.dumps(cfg))
        assert main(["calibrate-minp", "--config", str(path), "-o", str(out)]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(["calibrate-minp", "--preset", "tableS3"]) == 2  # still read without both


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heavycomb.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "heavycomb" in proc.stdout

    def test_closed_stdout_stops_quietly(self, tmp_path):
        # the reader leaves after one line, with many chunks still to write
        inp = tmp_path / "in.csv"
        write_groups(inp, [(f"g{i}", [0.5, 0.25, 0.125]) for i in range(20_000)])
        argv = [sys.executable, "-m", "heavycomb.cli", "combine", "-i", str(inp), "--method",
                "fisher"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"group_id,n,statistic,combined_p\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert err == b""

    def test_same_stdout_at_any_workers(self):
        # five blocks, two ranges at 2 workers and three at 3: a child never
        # flushes the stdout buffer it inherits, so every line is written once
        argv = [sys.executable, "-m", "heavycomb.cli", "calibrate-minp", "--n", "3", "--rho",
                "0.3", "--reps", "140000", "--seed", "5", "--workers"]
        outs = [subprocess.run(argv + [str(workers)], capture_output=True, check=True).stdout
                for workers in (1, 2, 3)]
        assert outs[0] == outs[1] == outs[2]
        assert outs[0].count(b"family,") == 1 and len(outs[0].splitlines()) == 2

    def test_import_loads_no_process_pool(self):
        code = ("import sys, heavycomb.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout == "[]\n"

    def test_round_trip_float_formatting(self, tmp_path):
        # %.17g survives parse -> format -> parse exactly
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.05691347812345679, 0.9913457])])
        assert main(["combine", "-i", str(inp), "--method", "standard",
                     "--dist", "cauchy", "-o", str(out)]) == 0
        ref = combine_standard([0.05691347812345679, 0.9913457], parse_distribution("cauchy"))
        assert float(read_csv(out)[0]["combined_p"]) == ref.combined_p
