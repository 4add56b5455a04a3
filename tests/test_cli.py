import csv
import json
import math

import numpy as np
import pytest

import symlab.validate
from symlab import efficiency as eff
from symlab.cli import main
from symlab.asymptotics import variance_function
from symlab.distributions import NULL_NAMES, get_alternative, get_null
from symlab.errors import NotApplicableError
from symlab.stats import parse_statistic
from symlab.validate import CheckResult


def write_lines(path, values, comment=True):
    lines = ["# sample values"] if comment else []
    lines += [str(v) for v in values]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCmdTest:
    def test_sign_statistic_value(self, tmp_path, capsys):
        data = write_lines(tmp_path / "d.txt", [-1, 2, 3, -4])
        code = main(
            ["test", data, "--stat", "S", "--alpha", "0", "--reps", "400", "--json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] == 0.0
        assert 0.0 < out["p_value"] <= 1.0

    def test_wilcoxon_hand_value(self, tmp_path, capsys):
        data = write_lines(tmp_path / "d.txt", [1, 2, 3])
        code = main(["test", data, "--stat", "W", "--alpha", "0", "--reps", "400", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] == pytest.approx(-1.0 / 6.0, abs=1e-12)

    def test_csv_column(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("id,x\n1,-1\n2,2\n3,3\n4,-4\n")
        code = main(
            ["test", str(path), "--col", "x", "--stat", "S", "--reps", "400", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_not_applicable_exit_code(self, tmp_path, capsys):
        data = write_lines(tmp_path / "d.txt", list(range(10)))
        assert main(["test", data, "--stat", "CM", "--null", "cauchy"]) == 3
        assert main(["test", data, "--stat", "W", "--alpha", "0", "--null", "cauchy"]) == 3

    def test_input_errors_exit_two(self, tmp_path):
        assert main(["test", str(tmp_path / "missing.txt"), "--stat", "S"]) == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\nnot-a-number\n")
        assert main(["test", str(bad), "--stat", "S"]) == 2
        short = write_lines(tmp_path / "short.txt", [1.0, 2.0])
        assert main(["test", short, "--stat", "NA_I_4", "--reps", "400"]) == 2
        data = write_lines(tmp_path / "d.txt", [0.3, -1.2, 2.0, 0.7, -0.4])
        assert main(["test", data, "--stat", "S", "--reps", "50"]) == 2
        assert main(["test", data, "--stat", "S", "--reps", "400", "--level", "1.5"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_exits_two(self, tmp_path, capsys, bad):
        data = write_lines(tmp_path / "d.txt", [0.3, -1.2, bad, 2.0, 0.7, -0.4])
        assert main(["test", data, "--stat", "W", "--alpha", "0.25", "--reps", "400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NaN or infinite" in captured.err

    @pytest.mark.parametrize("stat", ["W", "KS", "CM", "SQRT_B1"])
    def test_overflowing_sample_exits_two(self, tmp_path, capsys, stat):
        data = write_lines(tmp_path / "d.txt", [1.7e308, 1.7e308, -1.7e308, 1.0])
        assert main(["test", data, "--stat", stat, "--reps", "400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err


@pytest.mark.parametrize("alpha", [0.0, 0.25])
@pytest.mark.parametrize("null_name", NULL_NAMES)
def test_cli_refuses_exactly_where_the_library_does(tmp_path, capsys, null_name, alpha):
    data = write_lines(tmp_path / "d.txt", [0.3, -1.2, 2.0, 0.7, -0.4, 1.1, -0.9, 0.2])
    alt = get_alternative("contam", null_name)
    for name in eff.DEFAULT_TESTS:
        try:
            eff.bahadur_index(name, alt, alpha)
            expected = 0
        except NotApplicableError:
            expected = 3
        argv = ["test", data, "--stat", name, "--alpha", str(alpha), "--null", null_name]
        assert main(argv + ["--reps", "100"]) == expected, name
    capsys.readouterr()


class TestCmdIndex:
    def test_equivalent_tests_emit_equal_columns(self, tmp_path):
        out = tmp_path / "idx.csv"
        code = main(
            [
                "index",
                "--null",
                "normal",
                "--alt",
                "contam",
                "--tests",
                "BH_I,MO_I_1",
                "--grid",
                "11",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        by_test = {}
        with open(out) as fh:
            for row in csv.DictReader(fh):
                by_test.setdefault(row["test"], []).append(
                    (float(row["alpha"]), float(row["index"]))
                )
        a = np.asarray(by_test["BH_I"])
        b = np.asarray(by_test["MO_I_1"])
        alphas = a[:, 0]
        assert alphas[0] == 0.0 and alphas[-1] == 0.5
        np.testing.assert_allclose(a[:, 1], b[:, 1], atol=1e-6)
        # per-test files and the manifest accompany the combined CSV
        assert (tmp_path / "idx_BH_I.csv").exists()
        manifest = json.loads((out.parent / "idx.csv.manifest.json").read_text())
        assert manifest["command"] == "index"
        assert manifest["seed"] is not None

    def test_round_trip_precision(self, tmp_path, contam_normal):
        from symlab.efficiency import bahadur_index

        out = tmp_path / "idx.csv"
        main(
            ["index", "--null", "normal", "--alt", "contam", "--tests", "W",
             "--grid", "6", "-o", str(out)]
        )
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            alpha = float(row["alpha"])
            if row["degenerate"] == "true":
                continue
            exact = bahadur_index("W", contam_normal, alpha)
            assert float(row["index"]) == pytest.approx(exact, rel=1e-11)

    def test_all_not_applicable_exits_three(self, tmp_path):
        out = tmp_path / "na.csv"
        code = main(
            ["index", "--null", "cauchy", "--alt", "contam", "--tests", "CM",
             "--grid", "5", "-o", str(out)]
        )
        assert code == 3
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["degenerate"] == "true" for row in rows)
        assert all(row["index"] == "nan" for row in rows)

    def test_mixed_applicability_exits_zero(self, tmp_path):
        out = tmp_path / "mix.csv"
        code = main(
            ["index", "--null", "cauchy", "--alt", "contam", "--tests", "CM,W",
             "--grid", "5", "-o", str(out)]
        )
        assert code == 0


class TestCmdVariance:
    def test_grid_output_columns_and_degenerate_row(self, tmp_path):
        out = tmp_path / "var.csv"
        code = main(
            ["variance", "--null", "normal,logistic,cauchy", "--stat", "S",
             "--grid", "6", "-o", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"alpha", "sigma2_normal", "sigma2_logistic", "sigma2_cauchy"}
        last = rows[-1]
        assert float(last["alpha"]) == 0.5
        assert abs(float(last["sigma2_normal"])) < 1e-12
        # untrimmed centering is undefined under the Cauchy null
        assert math.isnan(float(rows[0]["sigma2_cauchy"]))

    def test_over_t_peaks_at_origin_for_small_trimming(self, tmp_path):
        out = tmp_path / "vart.csv"
        code = main(
            ["variance", "--null", "normal", "--stat", "KS", "--over-t",
             "--alpha", "0.1", "--grid", "64", "-o", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        values = np.asarray([float(r["sigma2_normal"]) for r in rows])
        assert np.argmax(values) == 0

    @pytest.mark.parametrize("stat,alpha", [("KS", "0.1"), ("NA_K_4", "0.25"), ("MO_K_2", "0.5")])
    def test_over_t_equals_scalar_member_calls(self, tmp_path, stat, alpha):
        # the table one scalar variance_function call per (t, null) gives
        names = ["normal", "logistic", "cauchy"]
        out = tmp_path / "vart.csv"
        code = main(
            ["variance", "--null", ",".join(names), "--stat", stat, "--over-t",
             "--alpha", alpha, "--grid", "33", "-o", str(out)]
        )
        assert code == 0
        spec = parse_statistic(stat, alpha=float(alpha))
        nulls = [get_null(name) for name in names]
        ts = np.linspace(0.0, max(float(null.quantile(0.999)) for null in nulls), 33)
        expected = [["t"] + [f"sigma2_{name}" for name in names]] + [
            [format(float(t), ".12g")]
            + [format(variance_function(spec, null, float(t)), ".12g") for null in nulls]
            for t in ts
        ]
        with open(out, newline="") as fh:
            assert list(csv.reader(fh)) == expected

    def test_over_t_bad_alpha_exits_two(self, tmp_path):
        code = main(["variance", "--null", "normal", "--stat", "KS", "--over-t",
                     "--alpha", "0.7", "-o", str(tmp_path / "x.csv")])
        assert code == 2

    def test_moment_statistic_rejected(self, tmp_path):
        code = main(["variance", "--null", "normal", "--stat", "CM", "-o",
                     str(tmp_path / "x.csv")])
        assert code == 2


class TestCmdValidate:
    def test_exit_codes_and_report(self, tmp_path, monkeypatch, capsys):
        def fake_pass(seed, full):
            return CheckResult("fake-pass", True, "ok", 0.0)

        def fake_fail(seed, full):
            return CheckResult("fake-fail", False, "broken", 0.0)

        monkeypatch.setattr(symlab.validate, "CHECKS", {"fake-pass": fake_pass})
        out = tmp_path / "report.json"
        assert main(["validate", "--suite", "quick", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload[0]["check"] == "fake-pass" and payload[0]["passed"]

        monkeypatch.setattr(
            symlab.validate, "CHECKS", {"fake-pass": fake_pass, "fake-fail": fake_fail}
        )
        assert main(["validate", "--suite", "quick"]) == 1
        assert "[FAIL] fake-fail" in capsys.readouterr().out
