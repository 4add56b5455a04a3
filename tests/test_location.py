import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from symlab.distributions import get_alternative, get_null
from symlab.errors import NotApplicableError
from symlab.location import (
    influence_curve,
    population_trimmed_mean,
    trim_weights,
    trimmed_mean,
    trimmed_mean_derivative,
)
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

    def test_mean_case_cauchy_not_applicable(self, cauchy):
        with pytest.raises(NotApplicableError):
            influence_curve(cauchy, 0.0, 1.0)

    @pytest.mark.parametrize("null_name", ["normal", "logistic"])
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    def test_matches_clamped_form_under_symmetry(self, null_name, alpha):
        # for a symmetric null the t-integral collapses to a clamped identity
        null = get_null(null_name)
        q = null.quantile(1.0 - alpha)
        x = np.asarray([-5.0, -q, -0.3, 0.0, 0.7, q / 2, 3 * q])
        expected = np.clip(x, -q, q) / (1.0 - 2.0 * alpha)
        np.testing.assert_allclose(influence_curve(null, alpha, x), expected, atol=1e-9)

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

    @pytest.mark.parametrize("alt_name", ["contam", "fs"])
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 0.35, 0.5])
    def test_matches_population_finite_difference(self, normal, alt_name, alpha):
        alt = get_alternative(alt_name, normal)
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
