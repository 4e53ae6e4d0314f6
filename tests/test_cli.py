import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from heavycomb import (
    bh_adjust,
    bonferroni,
    closed_test_bruteforce,
    combine_average,
    combine_standard,
    combine_weighted,
    fisher,
    parse_distribution,
)
from heavycomb.cli import main


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

    def test_weighted_requires_equal_lengths(self, tmp_path):
        inp = tmp_path / "in.csv"
        write_groups(inp, [("g1", [0.1, 0.2]), ("g2", [0.3])])
        rc = main(["combine", "-i", str(inp), "--method", "weighted",
                   "--dist", "cauchy", "--weights", "1,2"])
        assert rc == 1

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

    def test_unknown_distribution_is_usage_error(self, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.5\n")
        assert main(["combine", "-i", str(inp), "--method", "standard", "--dist", "nope"]) == 2

    def test_average_with_wrong_tail_index_is_usage_error(self, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("g1,0.5,0.1\n")
        assert main(["combine", "-i", str(inp), "--method", "average",
                     "--dist", "pareto:2"]) == 2


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

    def test_missing_config_is_usage_error(self):
        assert main(["simulate"]) == 2

    def test_preset_unknown(self):
        assert main(["simulate", "--preset", "tableXX"]) == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(["simulate", "--config", str(self._config(tmp_path)),
                     "--format", "json", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 4
        assert doc["manifest"]["config"]["replications"] == 20_000


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

    def test_all_presets_parse(self):
        from heavycomb.presets import PRESETS, get_preset
        for name in PRESETS:
            cfg = get_preset(name)
            assert "model" in cfg and "seed" in cfg


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

    def test_env_invalid_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEAVYCOMB_WORKERS", "many")
        assert main(["calibrate-minp", "--n", "2", "--rho", "0",
                     "--reps", "1000"]) == 2

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

    def test_round_trip_float_formatting(self, tmp_path):
        # %.17g survives parse -> format -> parse exactly
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_groups(inp, [("g1", [0.05691347812345679, 0.9913457])])
        assert main(["combine", "-i", str(inp), "--method", "standard",
                     "--dist", "cauchy", "-o", str(out)]) == 0
        ref = combine_standard([0.05691347812345679, 0.9913457], parse_distribution("cauchy"))
        assert float(read_csv(out)[0]["combined_p"]) == ref.combined_p
