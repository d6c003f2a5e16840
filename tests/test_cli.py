import csv
import json

import pytest

from conftest import CONFIG_DIR
from vclab.cli import emit_plot_data, main, read_growth_csv

LTF2_JSON = str(CONFIG_DIR / "ltf2.json")
UNION2_JSON = str(CONFIG_DIR / "union2.json")
NET_JSON = str(CONFIG_DIR / "net_1hidden_threshold.json")
DIST_JSON = str(CONFIG_DIR / "dist8_uniform.json")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestBoundsCommand:
    def test_reference_row(self, capsys, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--m", "1", "--eps", "0.1", "--delta", "0.1",
                   "--output", str(out)])
        assert rc == 0
        assert "423866" in capsys.readouterr().out
        rows = read_rows(out)
        assert rows[0][:5] == ["m", "eps", "delta", "k_elementary", "k_rademacher"]
        assert rows[1][3] == "423866"

    def test_grid_expansion(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["bounds", "--m", "1,2", "--eps", "0.1,0.2", "--delta", "0.1",
                   "--output", str(out)])
        assert rc == 0
        assert len(read_rows(out)) == 1 + 4

    def test_invalid_eps_exits_2(self, capsys):
        rc = main(["bounds", "--m", "1", "--eps", "1.5", "--delta", "0.1"])
        assert rc == 2
        assert "eps" in capsys.readouterr().err


class TestGrowthCommand:
    def test_exact_ltf_row(self, tmp_path):
        out = tmp_path / "growth.csv"
        rc = main(["growth", "--class", LTF2_JSON, "--n", "4", "--method", "exact",
                   "--seed", "5", "--output", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == ["n", "count", "exactness", "seed", "class_id"]
        assert rows[1] == ["4", "14", "exact", "5", "linear_threshold_d2"]

    def test_oracle_union(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["growth", "--class", UNION2_JSON, "--n", "4,5", "--method", "oracle",
                   "--output", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[1][:2] == ["4", "11"]
        assert rows[2][:2] == ["5", "16"]

    def test_missing_config_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "kind": "network",
                                   "network": {"input_dim": 2}}))
        rc = main(["growth", "--class", str(bad), "--n", "4"])
        assert rc == 2
        assert "layers" in capsys.readouterr().err

    def test_cap_exceeded_exits_3(self):
        rc = main(["growth", "--class", LTF2_JSON, "--n", "25", "--method", "exact"])
        assert rc == 3

    def test_sampled_on_union_exits_2(self, capsys):
        rc = main(["growth", "--class", UNION2_JSON, "--n", "4", "--method", "sampled"])
        assert rc == 2
        assert "union_of_points_m2" in capsys.readouterr().err

    def test_oracle_on_network_exits_2(self, capsys):
        rc = main(["growth", "--class", NET_JSON, "--n", "4", "--method", "oracle"])
        assert rc == 2
        assert "baseline" in capsys.readouterr().err


class TestVcdimCommand:
    def test_ltf(self, tmp_path):
        out = tmp_path / "vc.csv"
        rc = main(["vcdim", "--class", LTF2_JSON, "--max-d", "4", "--output", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[1][1] == "3"


class TestDensityPipeline:
    def test_growth_then_density(self, tmp_path):
        growth = tmp_path / "growth.csv"
        density = tmp_path / "density.csv"
        assert main(["growth", "--class", UNION2_JSON, "--n", "16,32,64,128",
                     "--method", "oracle", "--output", str(growth)]) == 0
        assert main(["density", "--input", str(growth), "--output", str(density)]) == 0
        rows = read_rows(density)
        assert rows[0] == ["class_id", "slope", "n_min", "n_max", "residual"]
        assert 1.8 <= float(rows[1][1]) <= 2.05

    def test_round_trip_preserves_samples(self, tmp_path):
        growth = tmp_path / "growth.csv"
        main(["growth", "--class", UNION2_JSON, "--n", "8,16,32",
              "--method", "oracle", "--output", str(growth)])
        est = read_growth_csv(growth)
        assert [s.n for s in est.samples] == [8, 16, 32]
        assert est.class_id == "union_of_points_m2"

    def test_bad_columns_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["density", "--input", str(bad)]) == 2


class TestUcheckCommand:
    def test_runs_with_explicit_k(self, tmp_path):
        out = tmp_path / "uc.csv"
        rc = main(["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON,
                   "--eps", "0.3", "--delta", "0.2", "--k", "200",
                   "--trials", "20", "--output", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == ["k", "eps", "delta_target", "trials", "failures",
                           "empirical_rate", "sup_method", "seed"]
        assert rows[1][6] == "exact_trace_enumeration"

    def test_missing_k_and_m_exits_2(self):
        rc = main(["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON,
                   "--eps", "0.3", "--delta", "0.2"])
        assert rc == 2


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["growth", "--class", NET_JSON, "--n", "8,16", "--method", "sampled",
                "--budget", "500", "--seed", "33"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VCLAB_OUTPUT_DIR", str(tmp_path / "sub"))
        assert main(["bounds", "--m", "1", "--eps", "0.2", "--delta", "0.2",
                     "--output", "rel.csv"]) == 0
        assert (tmp_path / "sub" / "rel.csv").exists()


class TestEmitPlotData:
    def test_single_series(self, tmp_path):
        out = tmp_path / "plot.csv"
        emit_plot_data([([1, 2, 3], [2.0, 4.0, 8.0], "curve")], out)
        rows = read_rows(out)
        assert rows[0] == ["curve_x", "curve_y"]
        assert len(rows) == 4

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data([], tmp_path / "plot.csv")

    def test_growth_curve_matches_oracle(self, tmp_path):
        from vclab.dichotomy import growth_function_oracle
        from vclab.hypotheses import load_class_spec

        cls = load_class_spec(UNION2_JSON)
        ns = [16, 32, 64, 128]
        counts = [growth_function_oracle(cls, n) for n in ns]
        out = tmp_path / "plot.csv"
        emit_plot_data([(ns, counts, "union2")], out)
        rows = read_rows(out)
        assert [int(r[1]) for r in rows[1:]] == counts
