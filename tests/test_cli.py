import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symlab.cli
import symlab.montecarlo
import symlab.validate
from symlab import efficiency as eff
from symlab._quad import ABS_TOL
from symlab.cli import main
from symlab.asymptotics import variance_curve, variance_function
from symlab.distributions import ALTERNATIVE_NAMES, NULL_NAMES, get_alternative, get_null
from symlab.errors import NotApplicableError
from symlab.montecarlo import McConfig, critical_value, p_value
from symlab.stats import evaluate, parse_statistic
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
        # constant, though the mean of three 0.1s rounds off 0.1
        constant = write_lines(tmp_path / "c.txt", [0.1] * 3)
        assert main(["test", constant, "--stat", "CM", "--reps", "100"]) == 2
        assert main(["test", data, "--stat", "S", "--reps", "400", "--level", "1.5"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_exits_two(self, tmp_path, capsys, bad):
        data = write_lines(tmp_path / "d.txt", [0.3, -1.2, bad, 2.0, 0.7, -0.4])
        assert main(["test", data, "--stat", "W", "--alpha", "0.25", "--reps", "400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NaN or infinite" in captured.err

    def test_tiny_trimming_level_is_accepted(self, tmp_path, capsys):
        # a finite sample takes any level in [0, 1/2]; only the population
        # quantities need 1 - alpha < 1
        data = write_lines(tmp_path / "d.txt", [0.3, -1.2, 2.0, 0.7, -0.4, 1.1])
        argv = ["test", data, "--stat", "W", "--alpha", "1e-17", "--reps", "100", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["alpha"] == 1e-17

    def test_subset_count_beyond_float_exits_two(self, tmp_path, capsys):
        data = write_lines(tmp_path / "d.txt", np.random.default_rng(0).normal(size=1200))
        assert main(["test", data, "--stat", "NA_K_600", "--reps", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "subsets" in captured.err

    @pytest.mark.parametrize("stat", ["W", "KS", "CM", "SQRT_B1"])
    def test_overflowing_sample_exits_two(self, tmp_path, capsys, stat):
        data = write_lines(tmp_path / "d.txt", [1.7e308, 1.7e308, -1.7e308, 1.0])
        assert main(["test", data, "--stat", stat, "--reps", "400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["test", "d.csv", "--col", "y", "--stat", "S"], "column 'y' not found in d.csv"),
    (["test", "notes.txt", "--stat", "S"], "no numeric data in notes.txt"),
    (["test", "short.csv", "--col", "b", "--stat", "S"],
     "non-numeric entry in short.csv: could not convert string to float: ''"),
    (["index", "--null", "normal", "--alt", "contam", "--tests", ",", "-o", "out/i.csv"], "no tests requested"),
    (["variance", "--null", ",", "--stat", "KS", "-o", "out/v.csv"], "no null models requested"),
    (["variance", "--null", "normal,cauchy,normal", "--stat", "KS", "-o", "out/v.csv"],
     "null requested more than once: normal"),
])
def test_missing_or_empty_input_exits_two_writing_nothing(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("id,x\n1,2\n")
    (tmp_path / "short.csv").write_text("a,b\n1.0,2.0\n3.0\n")  # a row shorter than its header
    write_lines(tmp_path / "notes.txt", [])  # comments only
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


class TestOneSimulationPerTest:
    # 600 replications run one full 512-row chunk and a partial one
    @pytest.mark.parametrize("reps", [600, 100])
    @pytest.mark.parametrize("stat", ["S", "W", "KS", "NA_K_4", "CM", "SQRT_B1"])
    def test_report_equals_separate_calls(self, tmp_path, capsys, simulations, stat, reps):
        sample = np.random.default_rng(reps).normal(size=60) + 0.2
        data = write_lines(tmp_path / "d.txt", [repr(float(v)) for v in sample])
        argv = ["test", data, "--stat", stat, "--alpha", "0.1", "--reps", str(reps), "--seed", "9"]
        assert main(argv + ["--json"]) == 0
        assert len(simulations) == 1
        out = json.loads(capsys.readouterr().out)

        symlab.montecarlo._sorted_null.cache_clear()  # the reference simulates on its own
        spec = parse_statistic(stat, alpha=0.1)
        normal = get_null("normal")
        cfg = McConfig(n=60, reps=reps, seed=9)
        result = evaluate(spec, sample)
        want = {
            "value": result.value,
            "sup_argument": result.sup_argument,
            "p_value": p_value(spec, normal, sample, cfg),
            "critical_value": critical_value(spec, normal, cfg),
        }
        assert {key: repr(out[key]) for key in want} == {k: repr(v) for k, v in want.items()}

    def test_unusable_sample_runs_no_simulation(self, tmp_path, simulations):
        data = write_lines(tmp_path / "d.txt", [0.3, -1.2, "nan", 2.0, 0.7, -0.4])
        assert main(["test", data, "--stat", "W", "--reps", "600"]) == 2
        assert simulations == []


def test_p_value_standard_error(tmp_path, capsys):
    data = write_lines(tmp_path / "d.txt", np.random.default_rng(3).normal(size=40) + 0.3)
    argv = ["test", data, "--stat", "W", "--alpha", "0.1", "--reps", "400"]
    assert main(argv + ["--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    p = out["p_value"]
    assert 0.0 < p < 1.0
    assert out["p_value_se"] == math.sqrt(p * (1.0 - p) / 400)
    assert main(argv) == 0
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("p-value"))
    assert line.split()[1:4] == [format(p, ".12g"), "+-", format(out["p_value_se"], ".12g")]


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

    @pytest.mark.parametrize("tests", ["FOO", "NA_I_1", "W,NA_I_1"])
    def test_bad_test_name_exits_two_before_any_curve(self, tmp_path, capsys, tests):
        out = tmp_path / "bad.csv"
        code = main(["index", "--null", "normal", "--alt", "contam", "--tests", tests,
                     "--grid", "5", "-o", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tests", ["W,W,KS", "na_i_4,NA_I_4", "KS,S,ks"])
    def test_repeated_test_exits_two_before_any_output(self, tmp_path, capsys, tests):
        # each test writes its own file, so a repeat is refused, by its parsed label
        out = tmp_path / "sub" / "i.csv"
        code = main(["index", "--null", "normal", "--alt", "contam", "--tests", tests,
                     "--grid", "5", "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: test requested more than once: ")
        assert not out.parent.exists()

    def test_mixed_applicability_exits_zero(self, tmp_path):
        out = tmp_path / "mix.csv"
        code = main(
            ["index", "--null", "cauchy", "--alt", "contam", "--tests", "CM,W",
             "--grid", "5", "-o", str(out)]
        )
        assert code == 0


    @pytest.mark.parametrize(
        "null_name, alt_name", [("normal", "contam"), ("logistic", "fs"), ("cauchy", "fs")]
    )
    def test_quadrature_error_budget_in_manifest(self, tmp_path, null_name, alt_name):
        # the 19 default tests on 101 points; with the largest resolution of the supremum searches
        out = tmp_path / "idx.csv"
        assert main(["index", "--null", null_name, "--alt", alt_name, "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "idx.csv.manifest.json").read_text())
        assert 0.0 < manifest["parameters"]["quad_err_max"] <= ABS_TOL
        curves = eff.index_curves(eff.DEFAULT_TESTS, get_alternative(alt_name, null_name), eff.default_grid())
        assert 0.0 < manifest["parameters"]["sup_err_max"] == max(float(c.sup_err.max()) for c in curves)


def test_index_loads_no_adaptive_quadrature(tmp_path):
    # a fresh interpreter: symlab index on every pair leaves scipy.integrate
    # and scipy.optimize unloaded; importing symlab.validate then loads no
    # scipy.stats (the oracles sum binomial tails exactly, and scipy.stats
    # alone costs about 1 s to import); and validate (which needs
    # scipy.integrate and scipy.optimize) still runs
    script = f"""
import sys
from symlab.cli import main
for null in {list(NULL_NAMES)!r}:
    for alt in {list(ALTERNATIVE_NAMES)!r}:
        main(["index", "--null", null, "--alt", alt, "-o", {str(tmp_path / "idx.csv")!r}])
print("adaptive:", [m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules])
import symlab.validate
print("stats:", sorted(m for m in sys.modules if m.startswith("scipy.stats")))
sys.exit(main(["validate", "--suite", "quick"]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert "adaptive: []" in lines
    assert "stats: []" in lines
    assert "10/10 checks passed" in result.stdout


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

    @pytest.mark.parametrize("stat", ["S", "W", "NA_I_4", "KS", "NA_K_4", "MO_K_2"])
    def test_grid_equals_one_level_curves(self, tmp_path, stat):
        # the table one variance_curve call per (alpha, null) on that level
        # alone gives, with nan where the theory refuses the level
        names = ["normal", "logistic", "cauchy"]
        out = tmp_path / "var.csv"
        code = main(["variance", "--null", ",".join(names), "--stat", stat,
                     "--grid", "11", "-o", str(out)])
        assert code == 0

        def cell(a, null):
            value = variance_curve(parse_statistic(stat), null, [a])[0][0]
            return "nan" if math.isnan(value) else format(value, ".12g")

        nulls = [get_null(name) for name in names]
        expected = [["alpha"] + [f"sigma2_{name}" for name in names]] + [
            [format(float(a), ".12g")] + [cell(a, null) for null in nulls]
            for a in np.linspace(0.0, 0.5, 11)
        ]
        assert expected[1][3] == "nan"  # untrimmed centering under the Cauchy
        with open(out, newline="") as fh:
            assert list(csv.reader(fh)) == expected

    @pytest.mark.parametrize(
        "stat, extra",
        [("W", []), ("NA_I_4", []), ("KS", []), ("KS", ["--over-t", "--alpha", "0.25"]),
         ("KS", ["--over-t", "--alpha", "0.5"])],
    )
    def test_quadrature_error_budget_in_manifest(self, tmp_path, stat, extra):
        # the largest estimate over the requested nulls: every curve and every member variance
        # integrates the trimmed mean's Int_0^Q x^2 f, but at a = 1/2, where nothing is integrated
        out = tmp_path / "var.csv"
        code = main(["variance", "--null", "normal,logistic,cauchy", "--stat", stat,
                     "-o", str(out), *extra])
        assert code == 0
        manifest = json.loads((tmp_path / "var.csv.manifest.json").read_text())
        err = manifest["parameters"]["quad_err_max"]
        assert 0.0 <= err <= ABS_TOL
        # the largest resolution of the supremum searches over t: none over t, nor for W and NA_I_4
        resolution = manifest["parameters"]["sup_err_max"]
        if extra or stat != "KS":
            assert resolution == 0.0
        else:
            curves = [variance_curve(parse_statistic(stat), get_null(name), eff.default_grid()) for name in NULL_NAMES]
            assert 0.0 < resolution == max(float(curve[3].max()) for curve in curves)
        if extra:  # the one-level curve's estimate, which reads that integral alone
            alpha = float(extra[-1])
            spec = parse_statistic(stat, alpha=alpha)
            assert err == max(variance_curve(spec, get_null(name), [alpha])[2][0] for name in NULL_NAMES)
            assert err == {0.25: 3.388144713715055e-21, 0.5: 0.0}[alpha]
        else:
            assert err > 0.0

    # 1e-17 and 2^-54 pass the [0, 1/2] range, but 1 - alpha rounds to 1
    @pytest.mark.parametrize("alpha", ["0.7", "nan", "1e-17", repr(2.0**-54)])
    def test_over_t_bad_alpha_exits_two(self, tmp_path, capsys, alpha):
        out = tmp_path / "x.csv"
        code = main(["variance", "--null", "normal", "--stat", "KS", "--over-t",
                     "--alpha", alpha, "-o", str(out)])
        assert code == 2
        assert "trimming coefficient must lie in [0, 1/2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--over-t", "--alpha", "0.1"]])
    @pytest.mark.parametrize("points", ["1", "0"])
    def test_grid_below_two_points_exits_two(self, tmp_path, capsys, extra, points):
        out = tmp_path / "x.csv"
        code = main(["variance", "--null", "normal", "--stat", "KS", "--grid", points,
                     "-o", str(out), *extra])
        assert code == 2
        assert "at least 2 points" in capsys.readouterr().err
        assert not out.exists()

    def test_over_t_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "sub" / "x.csv"
        code = main(["variance", "--null", "normal", "--stat", "W", "--over-t", "-o", str(out)])
        assert code == 2
        assert "supremum-type" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("alpha", ["0.3", "0"])
    def test_alpha_without_over_t_refused_before_any_output(self, tmp_path, capsys, alpha):
        # the grid spans every trimming level, so a level given alone would be ignored
        out = tmp_path / "sub" / "x.csv"
        code = main(["variance", "--null", "normal", "--stat", "W", "--alpha", alpha, "-o", str(out)])
        assert code == 2
        assert "--over-t" in capsys.readouterr().err
        assert not out.parent.exists()
        # --over-t alone still reads level 0
        assert main(["variance", "--null", "normal", "--stat", "KS", "--over-t", "--grid", "3",
                     "-o", str(out)]) == 0
        assert json.loads((out.parent / "x.csv.manifest.json").read_text())["parameters"]["alpha"] == 0.0

    def test_not_applicable_refused_before_any_output(self, tmp_path, capsys):
        # mean centering under the Cauchy: exit 3 and no directory left behind
        out = tmp_path / "d" / "sub" / "x.csv"
        code = main(["variance", "--null", "cauchy", "--stat", "KS", "--over-t",
                     "--alpha", "0", "-o", str(out)])
        assert code == 3
        assert "not applicable" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

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

    def test_unknown_suite_refused(self):
        with pytest.raises(ValueError, match="suite must be 'quick' or 'full'"):
            symlab.validate.run_suite("medium")

    def test_size_calibration_reports_its_monte_carlo_error(self, monkeypatch):
        # sqrt(0.05 * 0.95 / 10^4) = 0.00218, next to the deviation and its tolerance
        monkeypatch.setattr(symlab.validate, "power", lambda spec, alt, theta, cfg: 0.0537)
        result = symlab.validate.CHECKS["size-calibration"](1, False)
        assert result.passed
        assert result.detail == "6 tests, worst |size - 0.05| = 0.0037 (MC s.e. 0.0022, tol 0.01)"

    @pytest.mark.parametrize("command", [["test", "data.txt"], ["index"], ["validate"]])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_is_a_usage_error(self, capsys, command, seed):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", seed])
        assert exc.value.code == 2
        assert "argument --seed: invalid _seed value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["index", "--null", "normal", "--alt", "contam", "--tests", "S", "--grid", "3"],
     ["variance", "--null", "normal", "--stat", "S", "--grid", "3"],
     ["validate"]],
)
def test_output_under_a_file_exits_two_before_any_work(tmp_path, capsys, monkeypatch, command):
    # one error line, no traceback, and validate runs no check
    ran = []
    monkeypatch.setattr(symlab.validate, "CHECKS", {"recording": lambda seed, full: ran.append(seed)})
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*command, "-o", str(blocker / "x.csv")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(blocker) in lines[0]
    assert ran == []
    assert blocker.read_text() == ""


class TestParser:
    """One parser per process: ``main`` parses every call with the same object."""

    def test_a_usage_error_leaves_the_next_call_working(self, tmp_path, capsys):
        data = write_lines(tmp_path / "d.txt", [-1, 2, 3, -4])
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["test", data, "--stat", "S", "--reps", "many"])
            assert exc.value.code == 2
            assert "argument --reps: invalid int value: 'many'" in capsys.readouterr().err
            assert main(["test", data, "--stat", "S", "--reps", "400", "--json"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["value"] == 0.0 and out["reps"] == 400
        assert symlab.cli._build_parser() is symlab.cli._build_parser()

    def test_the_version_is_looked_up_once_and_the_manifest_keeps_it(self, tmp_path, monkeypatch):
        looked_up = []

        def version(name):
            looked_up.append(name)
            return "9.8.7"

        monkeypatch.setattr(symlab.cli.metadata, "version", version)
        symlab.cli._version.cache_clear()
        symlab.cli._build_parser.cache_clear()
        try:
            for name in ("a.csv", "b.csv"):  # the parser's --version string, then each manifest
                out = tmp_path / name
                args = ["index", "--null", "normal", "--alt", "contam", "--tests", "S", "--grid", "3"]
                assert main([*args, "-o", str(out)]) == 0
                manifest = json.loads(out.with_name(name + ".manifest.json").read_text())
                assert manifest["tool_version"] == "9.8.7"
        finally:
            symlab.cli._version.cache_clear()
            symlab.cli._build_parser.cache_clear()
        assert looked_up == ["symlab"]

    def test_version_is_unchanged(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"symlab {symlab.cli._version()}\n"
