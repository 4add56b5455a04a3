import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from helpers import quadrature_influence_curve
from symlab.asymptotics import slope_curve
from symlab.distributions import get_alternative, get_null
from symlab.errors import NotApplicableError
from symlab.location import (
    _derivative_curve,
    influence_curve,
    population_trimmed_mean,
    trim_weights,
    trimmed_mean,
    trimmed_mean_derivative,
)
from symlab.stats import StatisticSpec
from symlab._rng import stream


class TestTrimmedMean:
    def test_boundary_cases(self):
        assert trimmed_mean([1, 2, 3], 0.0) == 2.0
        assert trimmed_mean([3, 1, 9], 0.5) == 3.0
        assert trimmed_mean([3, 1, 9, 7], 0.5) == 5.0  # even n: central midpoint

    def test_quantile_integral_convention(self):
        # interior weights follow the left-continuous empirical quantile
        assert trimmed_mean([1, 2, 3, 10], 0.25) == 2.5

    def test_errors(self):
        with pytest.raises(ValueError):
            trimmed_mean([], 0.1)
        with pytest.raises(ValueError):
            trimmed_mean([1.0, 2.0], 0.6)
        with pytest.raises(ValueError, match="^sample sizes are positive integers, not 0$"):
            trim_weights(0, 0.1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(4.0)])
    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_sample_size_must_be_an_integer(self, n, alpha):
        # McConfig's rule: 2.5 gave three weights summing to 1, True gave [1.], and 2.5 at the median
        # numpy's TypeError
        with pytest.raises(ValueError, match="^sample sizes are positive integers, not "):
            trim_weights(n, alpha)
        assert trim_weights(np.int64(5), alpha).tobytes() == trim_weights(5, alpha).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        # even in the trimmed tail: 0 * inf would make the weighted sum NaN
        with pytest.raises(ValueError, match="NaN or infinite"):
            trimmed_mean([1.0, 2.0, 3.0, bad], 0.25)

    @given(
        n=st.integers(min_value=1, max_value=40),
        alpha=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_weights_nonnegative_and_sum_to_one(self, n, alpha):
        w = trim_weights(n, alpha)
        assert w.size == n
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_weights_equal_the_integer_grid_formula(self):
        # the breakpoints i / n are taken from a float grid; i and n convert to float64
        # exactly, so each quotient is the one the integer grid's divide rounds to
        def integer_grid(n, alpha):
            cut = np.clip(np.arange(n + 1) / n, alpha, 1.0 - alpha)
            return np.diff(cut) / (cut[-1] - cut[0])

        alphas = [0.0, 2.0**-54, 1e-9, 0.1, 0.25, 1 / 3, 0.49, 0.5 - 2.0**-53]
        for n in [*range(1, 3001), 10**4, 10**5, 10**6]:
            for alpha in alphas:
                assert trim_weights(n, alpha).tobytes() == integer_grid(n, alpha).tobytes()
            median = np.zeros(n)  # alpha = 1/2 takes the middle one or two order statistics
            median[(n - 1) // 2 : n // 2 + 1] = 1.0 if n % 2 else 0.5
            assert trim_weights(n, 0.5).tobytes() == median.tobytes()

    @given(
        data=st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=25),
        shift=st.floats(min_value=-20, max_value=20),
        alpha=st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_translation_equivariance(self, data, shift, alpha):
        x = np.asarray(data)
        lhs = trimmed_mean(x + shift, alpha)
        rhs = trimmed_mean(x, alpha) + shift
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_alpha_continuity(self, rng):
        x = rng.normal(size=37)
        for alpha in (0.0, 0.17, 0.33, 0.5):
            base = trimmed_mean(x, alpha)
            for eps in (1e-3, 1e-5, 1e-7):
                near = trimmed_mean(x, min(max(alpha + eps, 0.0), 0.5))
                assert abs(near - base) < 5 * eps * np.ptp(x) + 1e-12


class TestInfluenceCurve:
    def test_mean_case_is_identity(self, normal):
        x = np.linspace(-3, 3, 7)
        np.testing.assert_array_equal(influence_curve(normal, 0.0, x), x)

    def test_median_case(self, normal):
        expected = 1.0 / (2.0 * normal.density(0.0))
        assert influence_curve(normal, 0.5, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.25331413731550, rel=1e-12)

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_boundary_levels_are_their_closed_forms(self, null_name):
        # x at the mean and sgn(x) / (2 f(0)) at the median, bit for bit, on arrays and on floats
        null = get_null(null_name)
        x = np.array([0.0, -0.0, 0.3, -1.7, 40.0, 1e300, np.inf, -np.inf])
        forms = {0.5: np.sign(x) / (2.0 * null.density(0.0))}
        if null.has_moment(2):
            forms[0.0] = x
        for alpha, want in forms.items():
            for got in (influence_curve(null, alpha, x), np.array([influence_curve(null, alpha, v) for v in x])):
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), alpha

    def test_mean_case_cauchy_not_applicable(self, cauchy):
        with pytest.raises(NotApplicableError):
            influence_curve(cauchy, 0.0, 1.0)

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    @pytest.mark.parametrize("alpha", [1e-3, 0.01, 0.1, 0.25, 0.4, 0.49, 0.499])
    def test_matches_clamped_form_under_symmetry(self, null_name, alpha):
        # for a symmetric null the t-integral collapses to the clamp; its quadrature is the reference
        null = get_null(null_name)
        q = null.quantile(1.0 - alpha)
        x = np.array([0.0, q / 3, q, 10 * q, np.inf])
        x = np.concatenate([x, -x[1:]])
        psi = influence_curve(null, alpha, x)
        assert psi.tolist() == (np.clip(x, -q, q) / (1.0 - 2.0 * alpha)).tolist()
        assert np.abs(psi - quadrature_influence_curve(null, alpha, x)).max() <= 1e-12 * np.abs(psi).max()

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5])
    def test_zero_mean_under_null(self, normal, alpha):
        val, _ = quad(
            lambda x: influence_curve(normal, alpha, x) * normal.density(x),
            -np.inf,
            np.inf,
            epsabs=1e-10,
            limit=200,
        )
        assert val == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_variance_matches_simulation(self, normal, alpha):
        # E[psi^2] equals n Var(center estimate) to first order
        second, _ = quad(
            lambda x: influence_curve(normal, alpha, x) ** 2 * normal.density(x),
            -np.inf,
            np.inf,
            epsabs=1e-10,
            limit=200,
        )
        n, reps = 500, 10_000
        draws = normal.sample(n * reps, 0, rng=stream(314159, 5)).reshape(reps, n)
        weights = trim_weights(n, alpha)
        centers = np.sort(draws, axis=1) @ weights
        assert n * centers.var() == pytest.approx(second, rel=0.05)


class TestTrimmedMeanDerivative:
    def test_contamination_mean_case(self, contam_normal):
        assert trimmed_mean_derivative(contam_normal, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_contamination_median_case(self, normal, contam_normal):
        expected = (0.5 - normal.cdf(-1.0)) / normal.density(0.0)
        got = trimmed_mean_derivative(contam_normal, 0.5)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.85562439, abs=1e-7)

    def test_two_piece_median_case(self, normal, fs_normal):
        # -H(0)/f(0) with H(0) computed by quadrature of the score
        h0, _ = quad(fs_normal.score, -np.inf, 0.0, epsabs=1e-12)
        expected = -h0 / normal.density(0.0)
        got = trimmed_mean_derivative(fs_normal, 0.5)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got != 0.0
        # median finite-difference oracle via root-finding on the CDF
        eps = 1e-4

        def median_at(theta):
            return brentq(lambda x: fs_normal.cdf(x, theta) - 0.5, -5.0, 5.0, xtol=1e-13)

        fd = (median_at(eps) - median_at(0.0)) / eps
        assert got == pytest.approx(fd, abs=1e-3)

    def test_cauchy_mean_case_not_applicable(self, cauchy):
        alt = get_alternative("contam", cauchy)
        with pytest.raises(NotApplicableError):
            trimmed_mean_derivative(alt, 0.0)
        with pytest.raises(NotApplicableError):
            _derivative_curve(alt, [0.25, 0.0, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, -0.01, 0.51, 2.0**-54, 1e-300])
    def test_curve_refuses_levels_outside_the_range(self, contam_normal, bad):
        # the curve takes checked levels: its readers check them, on one level and on a grid
        for run in (lambda: trimmed_mean_derivative(contam_normal, bad),
                    lambda: slope_curve(StatisticSpec("W"), contam_normal, [0.0, bad, 0.5])):
            with pytest.raises(ValueError, match=r"trimming coefficient must lie in \[0, 1/2\]"):
                run()

    # alpha = 0.05 puts the oracle's quantiles beyond its first bracket [-1, 1]; the Cauchy mean has no limit
    @pytest.mark.parametrize("alt_name", ["contam", "fs"])
    @pytest.mark.parametrize("null_name, alpha", [
        (null_name, alpha) for null_name in ("normal", "logistic", "cauchy")
        for alpha in (0.0, 0.05, 0.2, 0.35, 0.5) if null_name != "cauchy" or alpha > 0.0])
    def test_matches_population_finite_difference(self, null_name, alt_name, alpha):
        alt = get_alternative(alt_name, get_null(null_name))
        eps = 1e-4
        if alt_name == "contam":
            fd = (
                4.0 * population_trimmed_mean(alt, eps, alpha)
                - population_trimmed_mean(alt, 2 * eps, alpha)
            ) / (2 * eps)
        else:
            fd = (
                population_trimmed_mean(alt, eps, alpha)
                - population_trimmed_mean(alt, -eps, alpha)
            ) / (2 * eps)
        assert trimmed_mean_derivative(alt, alpha) == pytest.approx(fd, abs=1e-4)
