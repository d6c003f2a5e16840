import ast
import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import vclab
from conftest import CONFIG_DIR
from vclab.cli import (BOUNDS_COLUMNS, bounds_rows, emit_plot_data, main, read_growth_csv,
                       write_csv)

SCRIPTS = CONFIG_DIR.parent / "scripts"
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

    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    @pytest.mark.parametrize("value", ["1.5", "0", "-0.1", "1", "nan", "0.1,1.5"])
    def test_grid_value_outside_unit_interval_exits_2_naming_flag(
        self, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "bounds.csv"
        argv = {"--eps": "0.1", "--delta": "0.1", flag: value}
        rc = main(["bounds", "--m", "3", *itertools.chain(*argv.items()), "--output", str(out)])
        assert rc == 2
        assert f"{flag} must be in (0, 1), got {float(value.split(',')[-1])}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--c-hat", "--c-prime"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_constant_exits_2_naming_flag(self, capsys, flag, value):
        rc = main(["bounds", "--m", "3", "--eps", "0.1", "--delta", "0.1", flag, value])
        assert rc == 2
        assert f"{flag} must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-300", "1.5", "1.9999999999999998"])
    def test_c_prime_below_solver_range_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--m", "3", "--eps", "0.1", "--delta", "0.1",
                   "--c-prime", value, "--output", str(out)])
        assert rc == 2
        assert "--c-prime must be >= 2 (the Rademacher solver" in capsys.readouterr().err
        assert not out.exists()

    def test_c_prime_at_solver_bound_runs(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--m", "3", "--eps", "0.1", "--delta", "0.1",
                   "--c-prime", "2", "--output", str(out)])
        assert rc == 0
        assert len(read_rows(out)) == 2

    def test_c_prime_near_float_max_runs(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--m", "1", "--eps", "0.1", "--delta", "0.1",
                   "--c-prime", "1e308", "--output", str(out)])
        assert rc == 0
        assert len(read_rows(out)) == 2

    @pytest.mark.parametrize("m", ["0", "1,-2"])
    def test_nonpositive_m_exits_2_naming_flag(self, tmp_path, capsys, m):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--m", m, "--eps", "0.1", "--delta", "0.1",
                   "--output", str(out)])
        assert rc == 2
        bad = [v for v in m.split(",") if int(v) < 1][0]
        assert f"--m must be >= 1, got {bad}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        # eps^2 delta^2 underflows to 0
        (["--m", "3", "--eps", "1e-200", "--delta", "0.1"],
         "k_elementary for eps = 1e-200, delta = 0.1, m = 3 exceeds the float range"),
        # 4m / (eps^2 delta^2) overflows to inf
        (["--m", "3", "--eps", "1e-160", "--delta", "0.1"],
         "k_elementary for eps = 1e-160, delta = 0.1, m = 3 exceeds the float range"),
        # k_elementary is finite, but the solver's closed form 4a ln(2a) is not
        (["--m", "3", "--eps", "1e-151", "--delta", "0.1"], "exceeds the float range"),
        (["--m", "3", "--eps", "0.1", "--delta", "0.1", "--c-hat", "1e308"],
         "k_rademacher for eps = 0.1, delta = 0.1, m = 3, C_hat = 1e+308"),
        # a ln a is finite, 4a ln(2a) is not: the solver's range check exits 3
        (["--m", "1", "--eps", "0.1", "--delta", "5e-152"],
         "k_elementary solver for eps = 0.1, delta = 5e-152, m = 1 exceeds the float range"),
        # the elementary columns fit; the Rademacher solver's least k does not
        (["--m", "1", "--eps", "1e-152", "--delta", "0.9999999", "--c-prime", "1e308",
          "--c-hat", "1e-10"],
         "the k_rademacher solver for eps = 1e-152, delta = 0.9999999, m = 1 exceeds"),
    ])
    def test_sample_size_beyond_float_range_exits_3(self, capsys, args, message):
        rc = main(["bounds", *args])
        assert rc == 3
        assert message in capsys.readouterr().err

    def test_output_under_regular_file_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["bounds", "--m", "1", "--eps", "0.1", "--delta", "0.1",
                   "--output", str(blocker / "bounds.csv")])
        assert rc == 4
        assert "I/O error" in capsys.readouterr().err


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

    @pytest.mark.parametrize("spec, field", [
        ({"kind": "network", "network": {"input_dim": 1, "layers": [1]}}, "layers[0]"),
        ({"kind": "network", "network": {"input_dim": 1, "layers": [{"width": 1}]}},
         "'activation'"),
        ({"kind": "baseline", "baseline": {"kind": "linear_threshold"}}, "'dim'"),
        ({"kind": "baseline", "baseline": {"kind": "union_of_points", "domain": [[0.0]]}},
         "'capacity'"),
        ({"kind": "baseline", "baseline": {"kind": "union_of_points", "capacity": 1}},
         "'domain'"),
        ({"kind": "baseline", "baseline": {"kind": "explicit_finite", "domain": [[0.0]]}},
         "'traces'"),
    ])
    def test_malformed_class_spec_exits_2(self, tmp_path, capsys, spec, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, **spec}))
        rc = main(["growth", "--class", str(bad), "--n", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("vclab: invalid configuration") and field in err

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "baseline", "baseline": {"kind": "explicit_finite", "domain": [[0.0]],
                                           "traces": [5]}},
         "explicit_finite baseline field 'traces' entry must be a list, got 5"),
        ({"kind": "baseline", "baseline": {"kind": "union_of_points", "capacity": 1,
                                           "domain": 5}},
         "union_of_points baseline field 'domain' must be a list, got 5"),
        ({"kind": "baseline", "baseline": {"kind": "union_of_points", "capacity": 1,
                                           "domain": [1, 2]}},
         "union_of_points baseline field 'domain' must list points as lists, got 1"),
        ({"kind": "network", "network": {"input_dim": 1, "layers": 5}},
         "network field 'layers' must be a list, got 5"),
        ({"kind": "network", "network": {"input_dim": 1, "layers": [
            {"activation": {"kind": "tanh", "restriction": 5}}]}},
         "activation field 'restriction' must be a list, got 5"),
        ({"kind": "network", "network": {"input_dim": 1, "layers": [
            {"activation": {"kind": "polynomial", "coefficients": 5}}]}},
         "activation field 'coefficients' must be a list, got 5"),
    ])
    def test_scalar_in_list_field_exits_2_naming_field(self, tmp_path, capsys, spec, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, **spec}))
        rc = main(["growth", "--class", str(bad), "--method", "oracle", "--n", "2"])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "linear_threshold", "dim": [2]},
         "linear_threshold baseline field 'dim' must be a whole number, got [2]"),
        ({"kind": "linear_threshold", "dim": 2.7},
         "linear_threshold baseline field 'dim' must be a whole number, got 2.7"),
        ({"kind": "linear_threshold", "dim": True},
         "linear_threshold baseline field 'dim' must be a whole number, got True"),
        ({"kind": "union_of_points", "capacity": 2.5, "domain": [[0.0]]},
         "union_of_points baseline field 'capacity' must be a whole number, got 2.5"),
        ({"kind": "union_of_points", "capacity": 1, "domain": [[0.0], [None]]},
         "union_of_points baseline field 'domain' coordinate must be a number, got None"),
    ])
    def test_bad_baseline_scalar_exits_2_naming_field(self, tmp_path, capsys, spec, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "kind": "baseline", "baseline": spec}))
        rc = main(["growth", "--class", str(bad), "--method", "oracle", "--n", "2"])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_integer_coordinate_beyond_float_range_exits_2_naming_field(self, tmp_path, capsys):
        # JSON integers are unbounded: 1e400 written out in digits parses as an int
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "kind": "baseline", "baseline": {"kind": '
                       '"union_of_points", "capacity": 1, "domain": [[0.0], [1' + "0" * 400 + ']]}}')
        rc = main(["growth", "--class", str(bad), "--method", "oracle", "--n", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("vclab: invalid configuration: union_of_points baseline field "
                              "'domain' coordinate must be a number within the float range")

    @pytest.mark.parametrize("part, key, value, message", [
        ("network", "input_dim", "1", "network field 'input_dim' must be a whole number, got '1'"),
        ("layer", "fan_in", True,
         "network layers[0] field 'fan_in' must be a whole number, got True"),
        ("layer", "width", 0, "network layers[0] field 'width' must be >= 1, got 0"),
        ("layer", "width", -1, "network layers[0] field 'width' must be >= 1, got -1"),
        ("activation", "coefficients", ["a"],
         "activation field 'coefficients' entry must be a number, got 'a'"),
        ("activation", "restriction", [0, "x"],
         "activation field 'restriction' entry must be a number, got 'x'"),
        ("activation", "restriction", [None, 1],
         "activation field 'restriction' entry must be a number, got None"),
        ("activation", "restriction", [0, 1, 2],
         "activation field 'restriction' must have two entries, got [0, 1, 2]"),
        ("activation", "clamp_outside", "no",
         "activation field 'clamp_outside' must be a bool, got 'no'"),
    ])
    def test_bad_network_scalar_exits_2_naming_field(
        self, tmp_path, capsys, part, key, value, message
    ):
        act = {"kind": "polynomial", "coefficients": [0.0, 1.0]}
        layer = {"fan_in": 1, "width": 1, "activation": act}
        net = {"input_dim": 1, "layers": [layer, {"activation": {"kind": "threshold"}}]}
        {"network": net, "layer": layer, "activation": act}[part][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "kind": "network", "network": net}))
        rc = main(["growth", "--class", str(bad), "--n", "2"])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_whole_float_scalar_reads_as_int(self, tmp_path):
        spec = tmp_path / "ltf.json"
        spec.write_text(json.dumps({"schema_version": 1, "kind": "baseline",
                                    "baseline": {"kind": "linear_threshold", "dim": 2.0}}))
        rows = []
        for path in (str(spec), LTF2_JSON):
            out = tmp_path / "g.csv"
            assert main(["growth", "--class", path, "--n", "4", "--method", "oracle",
                         "--output", str(out)]) == 0
            rows.append(read_rows(out))
        assert rows[0] == rows[1]

    def test_cap_exceeded_exits_3(self):
        rc = main(["growth", "--class", LTF2_JSON, "--n", "25", "--method", "exact"])
        assert rc == 3

    @pytest.mark.parametrize("flag", ["--draws", "--budget"])
    def test_nonpositive_count_exits_2_naming_flag(self, tmp_path, capsys, flag):
        out = tmp_path / "g.csv"
        rc = main(["growth", "--class", NET_JSON, "--n", "4", flag, "0",
                   "--output", str(out)])
        assert rc == 2
        assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", [NET_JSON, LTF2_JSON])
    @pytest.mark.parametrize("n", ["-1", "4,-1"])
    def test_negative_n_exits_2_naming_flag(self, tmp_path, capsys, spec, n):
        out = tmp_path / "g.csv"
        rc = main(["growth", "--class", spec, "--n", n, "--output", str(out)])
        assert rc == 2
        assert "--n must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_sampled_on_union_exits_2(self, capsys):
        rc = main(["growth", "--class", UNION2_JSON, "--n", "4", "--method", "sampled"])
        assert rc == 2
        assert "union_of_points_m2" in capsys.readouterr().err

    def test_oracle_on_network_exits_2(self, capsys):
        rc = main(["growth", "--class", NET_JSON, "--n", "4", "--method", "oracle"])
        assert rc == 2
        assert "baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["growth", "--method", "oracle", "--n", "2"],
                                      ["vcdim", "--max-d", "2"]])
    @pytest.mark.parametrize("bad", [2, 1.5, [1]])
    def test_non_binary_explicit_trace_exits_2(self, tmp_path, capsys, argv, bad):
        # a 2 would otherwise read as a fourth trace (growth 4) or fold into
        # a 1 (three traces, VC-dimension 1); 1.5 must not be truncated to 1,
        # and a nested list must not fail as unhashable
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"schema_version": 1, "kind": "baseline", "baseline": {
            "kind": "explicit_finite", "domain": [[0], [1]],
            "traces": [[0, bad], [0, 1], [1, 1], [0, 0]]}}))
        out = tmp_path / "out.csv"
        assert main([argv[0], "--class", str(spec), *argv[1:], "--output", str(out)]) == 2
        assert f"trace entries must be 0 or 1, got {bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_finite_oracle_builds_only_the_subsets_it_visits(self, tmp_path):
        # C(28, 26) = 378 subsets, where every q-subset for q < 26 would be
        # about 2^28 rows
        spec, out = tmp_path / "c.json", tmp_path / "out.csv"
        spec.write_text(_spec_json(kind="baseline", baseline={
            "kind": "explicit_finite", "domain": [[i] for i in range(28)],
            "traces": [[0] * 28, [1] * 28]}))
        start = time.perf_counter()
        assert main(["growth", "--class", str(spec), "--n", "26", "--method", "oracle",
                     "--output", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        assert read_rows(out)[1][:3] == ["26", "2", "exact"]


class TestVcdimCommand:
    def test_ltf(self, tmp_path):
        out = tmp_path / "vc.csv"
        rc = main(["vcdim", "--class", LTF2_JSON, "--max-d", "4", "--output", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[1][1] == "3"

    def test_explicit_finite_is_exact_at_default_tries(self, tmp_path):
        # eight traces shatter points 3, 4 and 5 of six; the baseline is
        # answered from its growth oracle, not from a walk over a few subsets
        spec = tmp_path / "late.json"
        traces = [[0, 0, 0, *t] for t in itertools.product((0, 1), repeat=3)]
        spec.write_text(json.dumps({"schema_version": 1, "kind": "baseline", "baseline": {
            "kind": "explicit_finite", "domain": [[i] for i in range(6)], "traces": traces}}))
        out = tmp_path / "vc.csv"
        assert main(["vcdim", "--class", str(spec), "--max-d", "4", "--output", str(out)]) == 0
        assert read_rows(out)[1] == ["explicit_finite_8traces", "3", "0", "1729"]

    def test_explicit_finite_past_subset_cap_exits_3(self, tmp_path, capsys):
        # two traces on 500 points shatter one point; the walk then needs
        # all C(500, 2) = 124750 pairs, above the 100001-subset cap
        spec = tmp_path / "wide.json"
        traces = [[0] * 500, [1] + [0] * 499]
        spec.write_text(json.dumps({"schema_version": 1, "kind": "baseline", "baseline": {
            "kind": "explicit_finite", "domain": [[i] for i in range(500)], "traces": traces}}))
        assert main(["vcdim", "--class", str(spec), "--max-d", "4"]) == 3
        assert "too many subsets" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-d", "--tries", "--budget"])
    def test_nonpositive_count_exits_2_naming_flag(self, tmp_path, capsys, flag):
        out = tmp_path / "vc.csv"
        rc = main(["vcdim", "--class", NET_JSON, flag, "0", "--output", str(out)])
        assert rc == 2
        assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


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

    def test_n0_row_exits_2_without_warnings(self, tmp_path, capfd):
        growth = tmp_path / "growth.csv"
        assert main(["growth", "--class", UNION2_JSON, "--n", "0,16,32,64",
                     "--method", "oracle", "--output", str(growth)]) == 0
        capfd.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["density", "--input", str(growth), "--fit-fraction", "0.9"])
        assert rc == 2
        captured = capfd.readouterr()
        assert captured.err == (
            "vclab: invalid configuration: growth samples need n >= 1 (log n), got n = 0\n"
        )

    @pytest.mark.parametrize("value", ["0", "1.5", "nan"])
    def test_fit_fraction_outside_range_exits_2_naming_flag(self, tmp_path, capsys, value):
        growth = tmp_path / "growth.csv"
        density = tmp_path / "density.csv"
        assert main(["growth", "--class", UNION2_JSON, "--n", "8,16,32,64",
                     "--method", "oracle", "--output", str(growth)]) == 0
        capsys.readouterr()
        rc = main(["density", "--input", str(growth), "--fit-fraction", value,
                   "--output", str(density)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"vclab: invalid configuration: --fit-fraction must be in (0, 1], "
            f"got {float(value)}\n"
        )
        assert not density.exists()

    def test_fit_fraction_one_fits_every_row(self, tmp_path):
        growth = tmp_path / "growth.csv"
        density = tmp_path / "density.csv"
        assert main(["growth", "--class", UNION2_JSON, "--n", "8,16,32,64",
                     "--method", "oracle", "--output", str(growth)]) == 0
        assert main(["density", "--input", str(growth), "--fit-fraction", "1",
                     "--output", str(density)]) == 0
        assert read_rows(density)[1][2:4] == ["8", "64"]

    @staticmethod
    def _growth_csv(path, ns, counts):
        rows = "".join(f"{n},{c},lower_bound,0,network_m4\n" for n, c in zip(ns, counts))
        path.write_text("n,count,exactness,seed,class_id\n" + rows)

    def test_decreasing_counts_exit_2_naming_the_slope(self, tmp_path, capsys):
        growth = tmp_path / "growth.csv"
        self._growth_csv(growth, [8, 16, 32, 64], [40, 30, 20, 10])
        assert main(["density", "--input", str(growth), "--output",
                     str(tmp_path / "density.csv")]) == 2
        # the default policy fits the three largest n
        slope = np.polyfit(np.log([16, 32, 64]), np.log([30.0, 20.0, 10.0]), 1)[0]
        assert capsys.readouterr().err == (
            f"vclab: invalid configuration: fitted VC-density slope {slope:.6g} < 0: "
            "growth counts decrease with n\n"
        )
        assert not (tmp_path / "density.csv").exists()

    def test_flat_counts_fit_slope_zero(self, tmp_path):
        # equal counts: the least-squares slope may round to -1e-15, which is 0
        growth = tmp_path / "growth.csv"
        density = tmp_path / "density.csv"
        self._growth_csv(growth, [40, 124, 561, 1499], [980737] * 4)
        assert main(["density", "--input", str(growth), "--fit-fraction", "1.0",
                     "--output", str(density)]) == 0
        assert float(read_rows(density)[1][1]) == 0.0

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

    def test_tiny_scale_support_matches_unit_scale(self, tmp_path):
        # the unit square scaled by 1e-8: exact trace enumeration has no
        # margin tolerance, so the run matches the unit-scale square
        outputs = []
        for scale in (1e-8, 1.0):
            dist = tmp_path / f"square_{scale}.json"
            dist.write_text(json.dumps({
                "schema_version": 1,
                "support": [[0.0, 0.0], [scale, 0.0], [0.0, scale], [scale, scale]],
                "probabilities": [0.25] * 4,
                "labels": [0, 1, 1, 0],
            }))
            out = tmp_path / f"uc_{scale}.csv"
            rc = main(["ucheck", "--class", LTF2_JSON, "--dist", str(dist),
                       "--eps", "0.1", "--delta", "0.1", "--k", "10", "--trials", "1",
                       "--output", str(out)])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_nonfinite_support_exits_2(self, tmp_path, capsys):
        dist = tmp_path / "inf.json"
        dist.write_text(json.dumps({
            "schema_version": 1,
            "support": [[0.0, 0.0], [float("inf"), 0.0], [0.0, 1.0]],
            "probabilities": [0.5, 0.25, 0.25],
            "labels": [0, 1, 1],
        }))
        rc = main(["ucheck", "--class", LTF2_JSON, "--dist", str(dist),
                   "--eps", "0.1", "--delta", "0.1", "--k", "10", "--trials", "1"])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        ("labels", [0, 1, 0.7], "labels must be 0 or 1, got 0.7"),
        ("probabilities", [float("nan"), 0.5, 0.5],
         "probabilities must be finite and nonnegative, got nan"),
        ("labels", 1, "distribution field 'labels' must be a list"),
        ("support", [1, 2, 3], "distribution field 'support' must list points as lists, got 1"),
        ("probabilities", ["0.5", 0.25, 0.25],
         "distribution field 'probabilities' entry must be a number, got '0.5'"),
        ("probabilities", [True, 0.0, 0.0],
         "distribution field 'probabilities' entry must be a number, got True"),
        ("support", [[0.0, 0.0], ["1.0", 0.0], [0.0, 1.0]],
         "distribution field 'support' coordinate must be a number, got '1.0'"),
    ])
    def test_bad_distribution_value_exits_2_naming_field(
        self, tmp_path, capsys, field, value, message
    ):
        spec = {"schema_version": 1, "support": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                "probabilities": [0.5, 0.25, 0.25], "labels": [0, 1, 1]}
        spec[field] = value
        dist = tmp_path / "bad.json"
        dist.write_text(json.dumps(spec))
        rc = main(["ucheck", "--class", LTF2_JSON, "--dist", str(dist),
                   "--eps", "0.1", "--delta", "0.1", "--k", "10", "--trials", "1"])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        (["--eps", "nan", "--delta", "0.1", "--k", "5"], "--eps must be in (0, 1), got nan"),
        (["--eps", "1", "--delta", "0.1", "--m", "3"], "--eps must be in (0, 1), got 1.0"),
        (["--eps", "0.1", "--delta", "nan", "--k", "5"], "--delta must be in (0, 1), got nan"),
        (["--eps", "0.1", "--delta", "0", "--k", "5"], "--delta must be in (0, 1), got 0.0"),
        (["--eps", "0.1", "--delta", "0.1", "--k", "0"], "--k must be >= 1, got 0"),
        (["--eps", "0.1", "--delta", "0.1", "--k", "5", "--trials", "0"],
         "--trials must be >= 1, got 0"),
        (["--eps", "0.1", "--delta", "0.1", "--m", "0"], "--m must be >= 1, got 0"),
        (["--eps", "0.1", "--delta", "0.1", "--k", "5", "--budget", "0"],
         "--budget must be >= 1, got 0"),
    ])
    def test_bad_argument_exits_2_naming_flag(self, tmp_path, capsys, args, message):
        out = tmp_path / "uc.csv"
        rc = main(["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, *args,
                   "--output", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,k", [
        (["--m", "3", "--eps", "1e-9", "--delta", "1e-9"],
         "1024535639970883483671413247889436049408"),
        (["--k", "99999999999999999999", "--eps", "0.1", "--delta", "0.1"],
         "99999999999999999999"),
    ])
    def test_k_beyond_sampler_limit_exits_3(self, capsys, args, k):
        rc = main(["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON,
                   "--trials", "1", *args])
        assert rc == 3
        assert f"k = {k} exceeds the sampler's limit 2^63 - 1" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["1e-200", "1e-160"])
    def test_k_elementary_beyond_float_range_exits_3(self, capsys, eps):
        rc = main(["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, "--trials", "1",
                   "--m", "3", "--eps", eps, "--delta", "0.1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"k_elementary for eps = {eps}, delta = 0.1, m = 3 exceeds" in err

    def test_missing_k_and_m_exits_2(self):
        rc = main(["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON,
                   "--eps", "0.3", "--delta", "0.2"])
        assert rc == 2


def _spec_json(**doc) -> str:
    return json.dumps({"schema_version": 1, **doc})


def _growth_csv_text(*rows) -> str:
    return "n,count,exactness,seed,class_id\n" + "".join(f"{r}\n" for r in rows)


# 1-input nets whose forward pass overflows: at a hidden polynomial layer
# (1e308 t^2 feeds the output node), and at a polynomial output node, where
# the true value at t = 0.5 is -5.15e307 but float evaluation gives +inf
POLY_HIDDEN = [{"width": 2, "activation": {"kind": "polynomial", "coefficients": [0, 0, 1e308]}},
               {"activation": {"kind": "threshold"}}]
POLY_OUTPUT = [{"width": 1, "activation": {"kind": "polynomial",
                                           "coefficients": [-1.79e308, 1.7e308, 1.7e308]}}]
HUGE_M = str(10**399)
HUGE_M_CAP = "k_elementary for eps = 0.1, delta = 0.1, m = an integer of 400 digits exceeds"

FOUR_TRACES = [[0, 1], [1, 0], [0, 0], [1, 1]]
# 1 followed by 4400 zeros, past the 4300 digits int() reads from a string
LONG_INT = "1" + "0" * 4400
LONG_INT_SHOWN = "an integer of 4401 digits, over Python's 4300-digit limit"
LONG_DIM_SPEC = ('{"schema_version": 1, "kind": "baseline", "baseline": '
                 '{"kind": "linear_threshold", "dim": 1' + "0" * 5000 + "}}")
LONG_P_SPEC = ('{"schema_version": 1, "support": [[0.0, 0.0], [1.0, 1.0]], '
               '"probabilities": [-1' + "0" * 5000 + ', 0], "labels": [0, 1]}')
HUGE_LTF_SPEC = _spec_json(kind="baseline", baseline={"kind": "linear_threshold", "dim": 10**30})


def _net_spec(input_dim, width) -> str:
    return _spec_json(kind="network", network={"input_dim": input_dim, "layers": [
        {"width": width, "activation": {"kind": "threshold"}},
        {"activation": {"kind": "threshold"}}]})


UNIT_DIST = {"support": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
             "probabilities": [0.5, 0.25, 0.25], "labels": [0, 1, 1]}
UCHECK = ["--eps", "0.1", "--delta", "0.1", "--k", "10", "--trials", "1"]

# (argv, files written under the test directory {d}, exit code, stderr fragment):
# one row per bad-input route, each a typed error raised where the input is read
BAD_INPUT_ROUTES = [
    (["growth", "--class", LTF2_JSON, "--n", "4,x"], {}, 2, "--n must list ints, got '4,x'"),
    (["bounds", "--m", "1", "--eps", "0.1,abc", "--delta", "0.1"], {}, 2,
     "--eps must list floats, got '0.1,abc'"),
    (["growth", "--class", NET_JSON, "--n", "4", "--seed", "-1"], {}, 2,
     "--seed must be >= 0, got -1"),
    (["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, *UCHECK, "--seed", "-1"], {}, 2,
     "--seed must be >= 0, got -1"),
    # growth CSV cells, then the density fit checks
    (["density", "--input", "{d}/g.csv"], {"g.csv": _growth_csv_text("8,x,exact,0,c")}, 2,
     "g.csv data row 1: count must be an integer, got 'x'"),
    (["density", "--input", "{d}/g.csv"], {"g.csv": _growth_csv_text("8,5,exact,0,c", "9,2")},
     2, "g.csv data row 2: seed must be an integer, got None"),
    (["density", "--input", "{d}/g.csv"], {"g.csv": _growth_csv_text("1,5,exact,0,c")}, 2,
     "g.csv data row 1: count 5 outside [1, 2^1]"),
    (["density", "--input", "{d}/g.csv"], {"g.csv": _growth_csv_text("1,1,maybe,0,c")}, 2,
     "g.csv data row 1: bad exactness tag 'maybe'"),
    (["density", "--input", "{d}/g.csv"],
     {"g.csv": _growth_csv_text("8,9,exact,0,c", f"1200,{2**1199},exact,0,c")}, 2,
     "g.csv data row 2: n and count must be within the float range"),
    (["density", "--input", "{d}/g.csv"],
     {"g.csv": _growth_csv_text("8,9,exact,0,c", "32,40,exact,0,c", "32,50,exact,0,c")}, 2,
     "set sizes must be distinct and span at least a factor of 4"),
    (["density", "--input", "{d}/g.csv"],
     {"g.csv": _growth_csv_text("8,9,exact,0,c", "32,40,exact,0,c")}, 2,
     "need at least 3 growth samples"),
    # files that are not UTF-8
    (["density", "--input", "{d}/g.csv"], {"g.csv": b"n,count,exactness,seed,class_id\n8,\xff"},
     2, "g.csv: not a UTF-8 CSV file"),
    (["growth", "--class", "{d}/c.json", "--n", "2"], {"c.json": b'{"a": "\xff"}'}, 2,
     "c.json: 'utf-8' codec can't decode"),
    (["ucheck", "--class", LTF2_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": b'{"a": "\xff"}'}, 2, "p.json: 'utf-8' codec can't decode"),
    # ucheck support dimension against the class's
    (["ucheck", "--class", LTF2_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": _spec_json(**{**UNIT_DIST, "support": [[0.0], [1.0], [2.0]]})}, 2,
     "--dist support points have dimension 1; --class linear_threshold_d2 takes dimension 2"),
    (["ucheck", "--class", NET_JSON, "--dist", DIST_JSON, *UCHECK], {}, 2,
     "--dist support points have dimension 2; --class network_m4 takes dimension 1"),
    # non-finite JSON numbers: Python's json reads NaN, Infinity and -Infinity
    (["ucheck", "--class", UNION2_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": _spec_json(**{**UNIT_DIST, "support": [[0.0], [float("nan")], [2.0]]})}, 2,
     "distribution field 'support' coordinate must be a finite number, got nan"),
    (["growth", "--class", "{d}/c.json", "--n", "2,3"],
     {"c.json": _spec_json(kind="network", network={"input_dim": 1, "layers": [
         {"activation": {"kind": "polynomial", "coefficients": [float("nan"), 1.0]}},
         {"activation": {"kind": "threshold"}}]})}, 2,
     "activation field 'coefficients' entry must be a finite number, got nan"),
    (["growth", "--class", "{d}/c.json", "--n", "2"],
     {"c.json": _spec_json(kind="network", network={"input_dim": 1, "layers": [
         {"activation": {"kind": "tanh", "restriction": [-float("inf"), 0.0]}}]})}, 2,
     "activation field 'restriction' entry must be a finite number, got -inf"),
    (["vcdim", "--class", "{d}/c.json"],
     {"c.json": _spec_json(kind="baseline", baseline={
         "kind": "union_of_points", "capacity": 1, "domain": [[0.0], [float("inf")]]})}, 2,
     "union_of_points baseline field 'domain' coordinate must be a finite number, got inf"),
    # an explicit_finite class with no traces
    *((argv, {"c.json": _spec_json(kind="baseline", baseline={
        "kind": "explicit_finite", "domain": [[0.0]], "traces": []})}, 2,
       "explicit_finite baseline field 'traces' must list at least one trace")
      for argv in (["growth", "--class", "{d}/c.json", "--n", "1", "--method", "oracle"],
                   ["vcdim", "--class", "{d}/c.json"])),
    # a valid net whose forward pass overflows: 1e308 t^2 feeds the output node
    (["growth", "--class", "{d}/c.json", "--n", "4", "--budget", "50"],
     {"c.json": _spec_json(kind="network", network={"input_dim": 1, "layers": [
         {"width": 2, "activation": {"kind": "polynomial", "coefficients": [0, 0, 1e308]}},
         {"activation": {"kind": "threshold"}}]})}, 3,
     "cap exceeded: activation input must be finite: the forward pass overflowed"),
    (["growth", "--class", "{d}/c.json", "--n", "2,4,8"],
     {"c.json": _spec_json(kind="network", network={"input_dim": 1, "layers": POLY_OUTPUT})}, 3,
     "cap exceeded: network output must be finite: the forward pass overflowed"),
    # list flags that list nothing
    (["bounds", "--m", ",", "--eps", "0.1", "--delta", "0.1"], {}, 2,
     "--m must list ints, got ','"),
    (["bounds", "--m", "1", "--eps", ",", "--delta", "0.1"], {}, 2,
     "--eps must list floats, got ','"),
    (["bounds", "--m", "1", "--eps", "0.1", "--delta", ""], {}, 2,
     "--delta must list floats, got ''"),
    (["growth", "--class", UNION2_JSON, "--n", ",", "--method", "oracle"], {}, 2,
     "--n must list ints, got ','"),
    # m past the float range, or a bounds column past it
    (["bounds", "--m", str(10**78), "--eps", "0.1", "--delta", "0.1"], {}, 3,
     f"classical_m4 for eps = 0.1, delta = 0.1, m = {10**78} exceeds the float range"),
    (["bounds", "--m", HUGE_M, "--eps", "0.1", "--delta", "0.1"], {}, 3,
     HUGE_M_CAP),
    (["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, "--eps", "0.1", "--delta", "0.1",
      "--trials", "1", "--m", str(10**78)], {}, 3, "exceeds the sampler's limit 2^63 - 1"),
    (["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, "--eps", "0.1", "--delta", "0.1",
      "--trials", "1", "--m", HUGE_M], {}, 3,
     HUGE_M_CAP),
    # baseline domains follow the PointSet rule: distinct points of one dimension
    *((argv, {"c.json": _spec_json(kind="baseline", baseline={
        "kind": "explicit_finite", "domain": [[0.0], [0.0]], "traces": FOUR_TRACES})}, 2,
       "domain points must be pairwise distinct")
      for argv in (["vcdim", "--class", "{d}/c.json", "--max-d", "3"],
                   ["growth", "--class", "{d}/c.json", "--n", "2", "--method", "oracle"])),
    *((["vcdim", "--class", "{d}/c.json"], {"c.json": _spec_json(kind="baseline", baseline={
        "kind": kind, "domain": [[0.0], [1.0, 2.0]], **fields})}, 2,
       "domain points must share a dimension")
      for kind, fields in (("explicit_finite", {"traces": FOUR_TRACES}),
                           ("union_of_points", {"capacity": 1}))),
    # integers too long for int() are named by their digit count, not echoed
    (["vcdim", "--class", "{d}/c.json"], {"c.json": LONG_DIM_SPEC}, 2,
     "c.json: an integer of 5001 digits is over Python's 4300-digit limit"),
    (["ucheck", "--class", LTF2_JSON, "--dist", "{d}/p.json", *UCHECK], {"p.json": LONG_P_SPEC},
     2, "p.json: an integer of 5001 digits is over Python's 4300-digit limit"),
    (["bounds", "--m", LONG_INT, "--eps", "0.1", "--delta", "0.1"], {}, 2,
     f"--m must list ints, got {LONG_INT_SHOWN}"),
    (["bounds", "--m", f"1,{LONG_INT}", "--eps", "0.1", "--delta", "0.1"], {}, 2,
     f"--m must list ints, got {LONG_INT_SHOWN}"),
    (["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, "--eps", "0.1", "--delta", "0.1",
      "--trials", "1", "--m", LONG_INT], {}, 2, f"--m must be an int, got {LONG_INT_SHOWN}"),
    (["growth", "--class", LTF2_JSON, "--n", LONG_INT], {}, 2,
     f"--n must list ints, got {LONG_INT_SHOWN}"),
    (["density", "--input", "{d}/g.csv"],
     {"g.csv": _growth_csv_text("8,9,exact,0,c", f"32,{LONG_INT},exact,0,c")}, 2,
     f"g.csv data row 2: count must be an integer, got {LONG_INT_SHOWN}"),
    # network sizes the weight sampler cannot hold, refused before any array is sized
    (["growth", "--class", "{d}/c.json", "--n", "4"], {"c.json": _net_spec(10**30, 1)}, 3,
     f"network weight count m = {10**30 + 3} exceeds the weight cap 262144"),
    (["vcdim", "--class", "{d}/c.json"], {"c.json": _net_spec(10**30, 1)}, 3,
     f"network weight count m = {10**30 + 3} exceeds the weight cap 262144"),
    (["growth", "--class", "{d}/c.json", "--n", "4"], {"c.json": _net_spec(1, 10**12)}, 3,
     "network layers[0] field 'width' 1000000000000 exceeds the weight cap 262144"),
    (["growth", "--class", "{d}/c.json", "--n", "100"], {"c.json": _net_spec(1, 3000)}, 3,
     "a layer of width 3000 on 100 points exceeds the weight cap 262144"),
    (["growth", "--class", "{d}/c.json", "--n", "4", "--method", "exact"],
     {"c.json": HUGE_LTF_SPEC}, 3, f"dimension {10**30} exceeds exact LTF cap 4"),
    (["growth", "--class", "{d}/c.json", "--n", "4", "--method", "sampled"],
     {"c.json": HUGE_LTF_SPEC}, 3,
     f"network weight count m = {10**30 + 1} exceeds the weight cap 262144"),
    # integer flags, read as text and then by one reader, like ucheck --m
    (["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, "--eps", "0.1", "--delta", "0.1",
      "--trials", "1", "--k", LONG_INT], {}, 2, f"--k must be an int, got {LONG_INT_SHOWN}"),
    (["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, "--eps", "0.1", "--delta", "0.1",
      "--k", "10", "--trials", LONG_INT], {}, 2, f"--trials must be an int, got {LONG_INT_SHOWN}"),
    (["growth", "--class", LTF2_JSON, "--n", "4", "--budget", LONG_INT], {}, 2,
     f"--budget must be an int, got {LONG_INT_SHOWN}"),
    (["growth", "--class", NET_JSON, "--n", "4", "--seed", LONG_INT], {}, 2,
     f"--seed must be an int, got {LONG_INT_SHOWN}"),
    (["growth", "--class", LTF2_JSON, "--n", "4", "--draws", LONG_INT], {}, 2,
     f"--draws must be an int, got {LONG_INT_SHOWN}"),
    (["vcdim", "--class", LTF2_JSON, "--max-d", LONG_INT], {}, 2,
     f"--max-d must be an int, got {LONG_INT_SHOWN}"),
    (["vcdim", "--class", LTF2_JSON, "--tries", LONG_INT], {}, 2,
     f"--tries must be an int, got {LONG_INT_SHOWN}"),
    (["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, *UCHECK, "--k", "abc"], {}, 2,
     "--k must be an int, got 'abc'"),
    # float flags, read by the same reader
    (["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, *UCHECK, "--eps", "abc"], {}, 2,
     "--eps must be a float, got 'abc'"),
    (["ucheck", "--class", LTF2_JSON, "--dist", DIST_JSON, *UCHECK, "--delta", "x"], {}, 2,
     "--delta must be a float, got 'x'"),
    (["bounds", "--m", "1", "--eps", "0.1", "--delta", "0.1", "--c-prime", "abc"], {}, 2,
     "--c-prime must be a float, got 'abc'"),
    (["bounds", "--m", "1", "--eps", "0.1", "--delta", "0.1", "--c-hat", "x"], {}, 2,
     "--c-hat must be a float, got 'x'"),
    (["density", "--input", "{d}/g.csv", "--fit-fraction", "x"],
     {"g.csv": _growth_csv_text("8,9,exact,0,c", "16,17,exact,0,c", "32,33,exact,0,c")}, 2,
     "--fit-fraction must be a float, got 'x'"),
    # a weight box whose width 2r is past the float range
    (["ucheck", "--class", NET_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": _spec_json(**{**UNIT_DIST, "support": [[1e308], [-1e308], [0.5]]})}, 3,
     "the weight box [-1e+308, 1e+308] is wider than the float range"),
    # a value that parses but fails its rule is named by its digit count too
    (["growth", "--class", NET_JSON, "--n", "4", "--seed", "-1" + "0" * 4000], {}, 2,
     "--seed must be >= 0, got a negative integer of 4001 digits"),
    # network specs that break a rule of their own
    (["growth", "--class", "{d}/c.json", "--n", "2"],
     {"c.json": _spec_json(kind="network", network={"input_dim": 1, "layers": [
         {"activation": {"kind": "sigmoid"}}]})}, 2, "unknown activation kind 'sigmoid'"),
    (["growth", "--class", "{d}/c.json", "--n", "2"],
     {"c.json": _spec_json(kind="network", network={"input_dim": 0, "layers": [
         {"activation": {"kind": "threshold"}}]})}, 2, "input_dim must be positive"),
    (["growth", "--class", "{d}/c.json", "--n", "2"],
     {"c.json": _spec_json(kind="network", network={"input_dim": 1, "layers": []})}, 2,
     "network needs at least one layer"),
    (["growth", "--class", "{d}/c.json", "--n", "2"],
     {"c.json": _spec_json(kind="network", network={"input_dim": 1, "layers": [
         {"activation": "tanh"}]})}, 2, "activation must be an object with a 'kind' field"),
    # class specs missing their object, or of an unknown kind
    (["growth", "--class", "{d}/c.json", "--n", "2"], {"c.json": _spec_json(kind="network")}, 2,
     "missing 'network' object"),
    (["growth", "--class", "{d}/c.json", "--n", "2"], {"c.json": _spec_json(kind="baseline")},
     2, "missing 'baseline' object"),
    (["growth", "--class", "{d}/c.json", "--n", "2"],
     {"c.json": _spec_json(kind="baseline", baseline={"kind": "halfspace"})}, 2,
     "unknown baseline kind 'halfspace'"),
    (["growth", "--class", "{d}/c.json", "--n", "2"], {"c.json": _spec_json(kind="tree")}, 2,
     "unknown class spec kind 'tree'"),
    (["growth", "--class", "{d}/c.json", "--n", "2"], {"c.json": "[]"}, 2,
     "c.json: top level must be an object"),
    # baseline specs that break a rule of their own
    (["growth", "--class", "{d}/c.json", "--n", "2"],
     {"c.json": _spec_json(kind="baseline", baseline={"kind": "linear_threshold", "dim": 0})},
     2, "LinearThreshold dim must be positive"),
    (["growth", "--class", "{d}/c.json", "--n", "2"],
     {"c.json": _spec_json(kind="baseline", baseline={
         "kind": "union_of_points", "capacity": -1, "domain": [[0.0]]})}, 2,
     "capacity must be >= 0"),
    (["growth", "--class", "{d}/c.json", "--n", "2", "--method", "oracle"],
     {"c.json": _spec_json(kind="baseline", baseline={
         "kind": "explicit_finite", "domain": [[0.0], [1.0]], "traces": [[0, 1, 1]]})}, 2,
     "trace length must match domain size"),
    (["density", "--input", "{d}/g.csv"], {"g.csv": _growth_csv_text()}, 2,
     "g.csv: growth CSV has no data rows"),
    # distributions that break a rule of their own
    (["ucheck", "--class", LTF2_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": _spec_json(support=[[0.0, 0.0], [1.0, 0.0]], probabilities=[1.0],
                           labels=[0, 1])}, 2,
     "probabilities and labels must match support size"),
    (["ucheck", "--class", LTF2_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": json.dumps(UNIT_DIST)}, 2, "distribution spec needs schema_version = 1"),
    (["ucheck", "--class", LTF2_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": _spec_json(**{**UNIT_DIST, "support": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]})},
     2, "support points must be pairwise distinct"),
    (["ucheck", "--class", LTF2_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": _spec_json(**{**UNIT_DIST, "support": [[0.0, 0.0], [1.0], [0.0, 1.0]]})}, 2,
     "support points must share a dimension"),
    # a method the class does not have, and caps on the work a call asks for
    (["growth", "--class", UNION2_JSON, "--n", "2", "--method", "exact"], {}, 2,
     "exact growth counting is only available for linear_threshold"),
    (["vcdim", "--class", LTF2_JSON, "--max-d", "17"], {}, 3,
     "max_d 17 exceeds shattering cap 16"),
    (["ucheck", "--class", "{d}/c.json", "--dist", "{d}/p.json", *UCHECK],
     {"c.json": _spec_json(kind="baseline", baseline={
         "kind": "union_of_points", "capacity": 10, "domain": [[float(i)] for i in range(20)]}),
      "p.json": _spec_json(support=[[float(i)] for i in range(20)], probabilities=[0.05] * 20,
                           labels=[0] * 20)}, 3, "616666 traces exceed trace cap 200000"),
    # a support the class's domain cannot contain
    (["ucheck", "--class", UNION2_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": _spec_json(**{**UNIT_DIST, "support": [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]})},
     2, "--dist support points have dimension 3; --class union_of_points_m2 takes dimension 1"),
    # a growth CSV whose rows name two classes
    (["density", "--input", "{d}/g.csv"],
     {"g.csv": _growth_csv_text("8,9,exact,0,a", "16,17,exact,0,a", "32,33,exact,0,b")}, 2,
     "g.csv data row 3: class_id 'b' differs from data row 1's 'a'"),
    # a JSON true where a number or a 0/1 entry belongs (True == 1 in Python)
    (["growth", "--class", "{d}/c.json", "--n", "2", "--method", "oracle"],
     {"c.json": json.dumps({"schema_version": True, "kind": "baseline", "baseline": {
         "kind": "explicit_finite", "domain": [[0.0], [1.0]], "traces": FOUR_TRACES}})}, 2,
     "unsupported or missing schema_version (expected 1)"),
    (["ucheck", "--class", LTF2_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": json.dumps({**UNIT_DIST, "schema_version": True})}, 2,
     "distribution spec needs schema_version = 1"),
    (["ucheck", "--class", LTF2_JSON, "--dist", "{d}/p.json", *UCHECK],
     {"p.json": _spec_json(**{**UNIT_DIST, "labels": [0, True, 1]})}, 2,
     "labels must be 0 or 1, got True"),
    (["growth", "--class", "{d}/c.json", "--n", "2", "--method", "oracle"],
     {"c.json": _spec_json(kind="baseline", baseline={
         "kind": "explicit_finite", "domain": [[0.0], [1.0]], "traces": [[True, 0]]})}, 2,
     "trace entries must be 0 or 1, got True"),
    # growth CSV rows with fewer or more cells than the header
    (["density", "--input", "{d}/g.csv"],
     {"g.csv": _growth_csv_text("8,9,exact,0", "16,17,exact,0", "32,33,exact,0")}, 2,
     "g.csv data row 1: 4 cells, the header has 5"),
    (["density", "--input", "{d}/g.csv"],
     {"g.csv": _growth_csv_text("8,9,exact,0,c", "16,17,exact,0,c,x", "32,33,exact,0,c")}, 2,
     "g.csv data row 2: 6 cells, the header has 5"),
    # a row short of only its class_id cell is named by the width check
    (["density", "--input", "{d}/g.csv"],
     {"g.csv": _growth_csv_text("8,9,exact,0,c", "16,17,exact,0", "32,33,exact,0,c")}, 2,
     "g.csv data row 2: 4 cells, the header has 5"),
    (["density", "--input", "{d}/g.csv"],
     {"g.csv": _growth_csv_text("8,9,exact,0", "16,17,exact,0,c", "32,33,exact,0,c")}, 2,
     "g.csv data row 1: 4 cells, the header has 5"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv, files, code, message", BAD_INPUT_ROUTES)
def test_bad_input_exits_with_its_code_naming_the_input(tmp_path, capsys, argv, files, code,
                                                        message):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    out = tmp_path / "out.csv"
    rc = main([a.format(d=tmp_path) for a in argv] + ["--output", str(out)])
    err = capsys.readouterr().err
    assert rc == code
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, files, code, message",
                         [row for row in BAD_INPUT_ROUTES if "digits" in row[3]])
def test_long_integers_are_named_in_a_short_message(tmp_path, capsys, argv, files, code,
                                                    message):
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    assert main([a.format(d=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err
    assert len(err) < 200 and "0" * 100 not in err


def test_too_wide_layer_is_refused_before_any_point_is_drawn(tmp_path, monkeypatch, capsys):
    # width 3 on 100000 points passes the weight cap; the general-position
    # check on a first draw of 100000 points would run for minutes
    def no_draw(*args):
        raise AssertionError("points drawn before the cap check")

    monkeypatch.setattr(vclab.dichotomy, "random_general_position", no_draw)
    monkeypatch.setattr(vclab.dichotomy, "random_points", no_draw)
    spec = tmp_path / "c.json"
    spec.write_text(_spec_json(kind="network", network={"input_dim": 2, "layers": [
        {"width": 3, "activation": {"kind": "tanh"}}, {"activation": {"kind": "threshold"}}]}))
    assert main(["growth", "--class", str(spec), "--n", "4,100000", "--draws", "1"]) == 3
    assert "a layer of width 3 on 100000 points exceeds the weight cap" in capsys.readouterr().err


def test_sampled_growth_on_many_points_of_a_narrow_net_finishes(tmp_path):
    # no C(2000, 3) general-position check runs before the one weight draw
    spec, out = tmp_path / "c.json", tmp_path / "out.csv"
    spec.write_text(_spec_json(kind="network", network={"input_dim": 2, "layers": [
        {"width": 2, "activation": {"kind": "tanh"}}, {"activation": {"kind": "threshold"}}]}))
    assert main(["growth", "--class", str(spec), "--n", "2000", "--draws", "1", "--budget", "1",
                 "--output", str(out)]) == 0
    # one weight vector has one trace
    assert read_rows(out)[1][:3] == ["2000", "1", "lower_bound"]


def test_huge_dimension_ltf_keeps_its_closed_forms(tmp_path):
    # the oracle paths never size an array by the dimension
    spec, out = tmp_path / "c.json", tmp_path / "out.csv"
    spec.write_text(HUGE_LTF_SPEC)
    assert main(["vcdim", "--class", str(spec), "--max-d", "5", "--output", str(out)]) == 0
    assert read_rows(out)[1][1:3] == ["5", "1"]
    assert main(["growth", "--class", str(spec), "--n", "4,16", "--method", "oracle",
                 "--output", str(out)]) == 0
    assert [r[1:3] for r in read_rows(out)[1:]] == [["16", "exact"], ["65536", "exact"]]


# SHA-256 of the bounds CSV on the stock grid (the pinned benchmark CSV) and
# at C' = 3, C_hat = 10, as written before the constants moved into BoundQuery
STOCK_GRID = ((1, 2, 4, 8), (0.05, 0.1, 0.2), (0.05, 0.1, 0.2))
BOUNDS_DIGESTS = [
    ({}, "26f7bb7694c93fdcc3348bc8c6bfbb68fa6fa6b75b2b724cdc09473f7fccfb31"),
    ({"c_prime": 3.0, "c_hat": 10.0},
     "b340446de9ad5ebda74285d062c9a88f3d21ac37d96493bf81f493af34060b45"),
]


@pytest.mark.parametrize("constants, digest", BOUNDS_DIGESTS)
def test_bounds_rows_keep_their_csv(tmp_path, constants, digest):
    rows_csv, cli_csv = tmp_path / "rows.csv", tmp_path / "cli.csv"
    write_csv(rows_csv, BOUNDS_COLUMNS, bounds_rows(*STOCK_GRID, **constants))
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in constants.items()]
    grid = [",".join(map(str, values)) for values in STOCK_GRID]
    assert main(["bounds", "--m", grid[0], "--eps", grid[1], "--delta", grid[2], *flags,
                 "--output", str(cli_csv)]) == 0
    assert hashlib.sha256(rows_csv.read_bytes()).hexdigest() == digest
    assert cli_csv.read_bytes() == rows_csv.read_bytes()


@pytest.mark.parametrize("layers", [POLY_HIDDEN, POLY_OUTPUT], ids=["hidden", "output"])
def test_forward_overflow_exits_3_without_numpy_warnings(tmp_path, capsys, layers):
    spec = tmp_path / "c.json"
    spec.write_text(_spec_json(kind="network", network={"input_dim": 1, "layers": layers}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["growth", "--class", str(spec), "--n", "2,4,8", "--budget", "2000"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("vclab: cap exceeded: ")


def test_clamped_forward_overflow_is_no_error(tmp_path):
    # POLY_HIDDEN clamped to [-0.001, 0.001]: the polynomial overflows only
    # where the clamp forces it to 0, so the pass returns
    clamped = {**POLY_HIDDEN[0]["activation"], "restriction": [-0.001, 0.001],
               "clamp_outside": True}
    spec, out = tmp_path / "c.json", tmp_path / "out.csv"
    spec.write_text(_spec_json(kind="network", network={"input_dim": 1, "layers": [
        {"width": 2, "activation": clamped}, POLY_HIDDEN[1]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["growth", "--class", str(spec), "--n", "4", "--budget", "50",
                   "--output", str(out)])
    assert rc == 0
    assert read_rows(out)[1][:3] == ["4", "2", "lower_bound"]


@pytest.mark.parametrize("m", ["1000000", "10000000"])
def test_bounds_at_millions_of_weights(tmp_path, m):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--m", m, "--eps", "0.1", "--delta", "0.1", "--output", str(out)]) == 0
    row = read_rows(out)[1]
    assert row[0] == m and all(float(v) > 0 for v in row[3:])


def test_library_value_error_propagates_as_a_bug(monkeypatch):
    # only ConfigError exits 2; a ValueError from inside the library is a bug
    def broken(q):
        raise ValueError("internal failure")

    monkeypatch.setattr(vclab.bounds, "bound_report", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["bounds", "--m", "1", "--eps", "0.1", "--delta", "0.1"])


def test_density_reads_n_beyond_int64(tmp_path):
    growth = tmp_path / "g.csv"
    growth.write_text(_growth_csv_text(*(f"{10**e},{e},lower_bound,0,c" for e in (20, 21, 22))))
    out = tmp_path / "d.csv"
    assert main(["density", "--input", str(growth), "--output", str(out)]) == 0
    assert read_rows(out)[1][2:4] == [str(10**20), str(10**22)]


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

    def test_unequal_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data([([1, 2], [1, 2], "a"), ([1], [1], "b")], tmp_path / "plot.csv")

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


@pytest.mark.parametrize("path", [Path(vclab.cli.__file__), *sorted(SCRIPTS.glob("*.py"))],
                         ids=lambda p: p.name)
def test_flag_values_reach_the_code_as_text(path):
    # read_flag parses and checks every flag value; an argparse type= would
    # turn a bad value into a usage error with SystemExit, not exit code 2
    typed = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_argument" and any(k.arg == "type" for k in node.keywords)]
    assert not typed, f"{path.name}: add_argument with type= on lines {typed}"


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the margin LP imports scipy.optimize on first use; no CLI path needs it
    code = "import sys, vclab.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(vclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
