import math
import zlib

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import mc_projection
from symlab import asymptotics as asy
from symlab.distributions import AlternativeFamily, get_alternative, get_null
from symlab.efficiency import DEFAULT_TESTS
from symlab.errors import NotApplicableError
from symlab.montecarlo import McConfig, null_distribution
from symlab.stats import StatisticSpec, parse_statistic
from symlab._oracles import population_slope_fd
from symlab._rng import stream

INTEGRAL_IDS = ["S", "W", "BH_I", "NA_I_2", "NA_I_4", "MO_I_2"]
SUP_IDS = ["KS", "BH_K", "NA_K_2", "NA_K_4", "MO_K_2"]
ALL_SUP_IDS = [name for name in DEFAULT_TESTS if parse_statistic(name).family == "supremum"]


class TestProjections:
    @pytest.mark.parametrize("name", INTEGRAL_IDS)
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_centered_and_bounded(self, name, null_name):
        null = get_null(null_name)
        proj = asy.projection(parse_statistic(name), null)
        x = np.linspace(-30, 30, 2001)
        assert np.max(np.abs(proj.phi(x))) <= 1.0 + 1e-12
        mean, _ = quad(
            lambda v: proj.phi(v) * null.density(v), -np.inf, np.inf, epsabs=1e-11, limit=200
        )
        assert mean == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("name", SUP_IDS)
    def test_member_projections_centered(self, name, normal):
        proj = asy.projection(parse_statistic(name), normal)
        for t in (0.0, 0.4, 1.1, 2.5):
            mean, _ = quad(
                lambda v: proj.phi(v, t) * normal.density(v),
                -np.inf,
                np.inf,
                epsabs=1e-11,
                limit=200,
            )
            assert mean == pytest.approx(0.0, abs=1e-8)

    def test_simple_projection_values(self, normal, logistic):
        s = asy.projection(StatisticSpec("S"), logistic)
        assert s.phi(1.0) == 0.5
        w = asy.projection(StatisticSpec("W"), normal)
        assert w.phi(0.0) == 0.0

    @pytest.mark.parametrize("name", ["W", "BH_I", "NA_I_2", "NA_I_4", "MO_I_2"])
    @pytest.mark.parametrize("null_name", ["normal", "logistic"])
    def test_integral_projection_against_kernel_simulation(self, name, null_name):
        # closed forms must reproduce the conditional kernel expectation
        null = get_null(null_name)
        spec = parse_statistic(name)
        proj = asy.projection(spec, null)
        x_grid = null.quantile(np.linspace(0.02, 0.98, 25))
        est, se = mc_projection(spec, null, x_grid, stream(777, zlib.crc32(name.encode())))
        analytic = proj.phi(x_grid)
        assert np.all(np.abs(analytic - est) <= 3.0 * se + 1e-12)

    @pytest.mark.parametrize("name", ["BH_K", "NA_K_2", "NA_K_4", "MO_K_2"])
    def test_member_projection_against_kernel_simulation(self, name, normal):
        spec = parse_statistic(name)
        proj = asy.projection(spec, normal)
        x_grid = normal.quantile(np.linspace(0.05, 0.95, 13))
        for t in (0.5, 1.3):
            est, se = mc_projection(
                spec, normal, x_grid, stream(778, zlib.crc32(name.encode())), n_draws=400_000, t=t
            )
            analytic = proj.phi(x_grid, t)
            assert np.all(np.abs(analytic - est) <= 3.0 * se + 1e-12)

    def test_moment_kinds_have_no_projection(self, normal):
        with pytest.raises(ValueError):
            asy.projection(StatisticSpec("CM"), normal)


class TestVariance:
    def test_sign_closed_forms(self, normal):
        spec0 = StatisticSpec("S", alpha=0.0)
        assert asy.asymptotic_variance(spec0, normal) == pytest.approx(
            0.25 - 1.0 / (2.0 * math.pi), abs=1e-12
        )
        spec_half = StatisticSpec("S", alpha=0.5)
        assert asy.asymptotic_variance(spec_half, normal) == pytest.approx(0.0, abs=1e-12)

    def test_wilcoxon_pieces(self, normal):
        # squared projection mass and density-derivative pairing
        from symlab.asymptotics import _int_phi_fprime, _phi_sq

        spec = StatisticSpec("W", alpha=0.0)
        assert _phi_sq(spec) == pytest.approx(1.0 / 12.0, abs=1e-14)
        assert _int_phi_fprime(spec, normal) == pytest.approx(
            -1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-12
        )

    def test_ks_member_at_origin_is_four_times_sign(self, normal):
        for alpha in (0.0, 0.1, 0.25):
            ks = asy.variance_function(StatisticSpec("KS", alpha=alpha), normal, 0.0)
            s = asy.asymptotic_variance(StatisticSpec("S", alpha=alpha), normal)
            assert ks == pytest.approx(4.0 * s, rel=1e-9)

    def test_variance_function_vanishes_in_the_tail(self, normal):
        spec = StatisticSpec("KS", alpha=0.25)
        assert asy.variance_function(spec, normal, 12.0) < 1e-20

    @pytest.mark.parametrize("name", INTEGRAL_IDS + SUP_IDS)
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_positivity_away_from_median(self, name, null_name):
        null = get_null(null_name)
        for alpha in np.linspace(0.0, 0.45, 10):
            if null_name == "cauchy" and alpha == 0.0:
                continue
            spec = parse_statistic(name, alpha=float(alpha))
            if spec.family == "supremum":
                value, _ = asy.sup_variance(spec, null)
            else:
                value = asy.asymptotic_variance(spec, null)
            assert value > 0.0

    def test_variance_curves_approach_each_other(self):
        # the three null curves of one integral statistic come together for
        # some trimming level, relative to their spread near zero trimming
        nulls = [get_null(n) for n in ("normal", "logistic", "cauchy")]
        grid = np.linspace(0.02, 0.48, 24)

        def spread(alpha):
            vals = [
                asy.asymptotic_variance(StatisticSpec("W", alpha=float(alpha)), null)
                for null in nulls
            ]
            return (max(vals) - min(vals)) / np.mean(vals)

        spreads = [spread(a) for a in grid]
        assert min(spreads) < spreads[0]

    def test_simulation_smoke(self, normal):
        cfg = McConfig(n=2000, reps=3000, seed=2024)
        spec = StatisticSpec("W", alpha=0.25)
        values = null_distribution(spec, normal, cfg)
        assert cfg.n * values.var() == pytest.approx(
            asy.asymptotic_variance(spec, normal), rel=0.10
        )


class TestSlopes:
    def test_sign_contamination_closed_form(self, normal, contam_normal):
        expected = float(normal.cdf(1.0)) - 0.5 - float(normal.density(0.0))
        got = asy.slope_derivative(StatisticSpec("S", alpha=0.0), contam_normal)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-0.05759753, abs=1e-7)

    def test_sign_median_case_vanishes(self, contam_normal, fs_normal):
        for alt in (contam_normal, fs_normal):
            got = asy.slope_derivative(StatisticSpec("S", alpha=0.5), alt)
            assert got == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["W", "NA_I_2", "MO_I_2"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_matches_population_finite_difference(self, name, alpha, fs_normal):
        spec = parse_statistic(name, alpha=alpha)
        analytic = asy.slope_derivative(spec, fs_normal)
        fd = population_slope_fd(spec, fs_normal)
        assert analytic == pytest.approx(fd, abs=1e-4)

    def test_sup_slope_member_signs(self, normal, contam_normal):
        # the KS member slope at the origin is minus twice the sign slope
        for alpha in (0.0, 0.2):
            ks0 = asy.slope_function(StatisticSpec("KS", alpha=alpha), contam_normal, 0.0)
            s = asy.slope_derivative(StatisticSpec("S", alpha=alpha), contam_normal)
            assert ks0 == pytest.approx(-2.0 * s, abs=1e-10)

    def test_degeneracy_pair_everywhere(self, all_nulls):
        for null in all_nulls:
            spec = StatisticSpec("S", alpha=0.5)
            assert abs(asy.asymptotic_variance(spec, null)) < 1e-8
            for alt_name in ("contam", "fs"):
                alt = get_alternative(alt_name, null)
                assert abs(asy.slope_derivative(spec, alt)) < 1e-8


class TestMomentStatistics:
    def test_cm_family_not_applicable_on_cauchy(self, cauchy):
        alt = get_alternative("contam", cauchy)
        with pytest.raises(NotApplicableError):
            asy.cm_family_slope(cauchy, alt)
        with pytest.raises(NotApplicableError):
            asy.sqrtb1_slope(cauchy, alt)

    def test_cm_denominator_normal(self, normal, contam_normal):
        # index = numerator / (pi/2 - 1) for the standard normal
        idx = asy.cm_family_slope(normal, contam_normal)
        f0 = float(normal.density(0.0))
        xh = 1.0  # mean shift of the contamination family
        h0 = float(contam_normal.score_cumulative(0.0))
        numerator = (xh + h0 / f0) ** 2
        assert idx == pytest.approx(numerator / (math.pi / 2.0 - 1.0), rel=1e-9)

    def test_cm_numerator_fs_matches_mean_median_drift(self, normal, fs_normal):
        # finite difference of (mean - median)(theta) against the slope pieces
        from symlab._oracles import population_limit

        eps = 1e-4
        fd = (
            population_limit(StatisticSpec("GAMMA"), fs_normal, eps)
            - population_limit(StatisticSpec("GAMMA"), fs_normal, -eps)
        ) / (2 * eps)
        idx = asy.cm_family_slope(normal, fs_normal)
        den = 1.0 + 1.0 / (4.0 * normal.density(0.0) ** 2) - normal.abs_mean() / normal.density(0.0)
        # gamma = 2(mean - median): index = (fd/2)^2 / den
        assert idx == pytest.approx((fd / 2.0) ** 2 / den, rel=1e-6)

    def test_sqrtb1_denominator_normal_exact(self, normal):
        sigma2 = normal.moment(2)
        den = normal.moment(6) - 6.0 * sigma2 * normal.moment(4) + 9.0 * sigma2**3
        assert den == 6.0

    def test_sqrtb1_zero_when_third_moment_balances(self, normal):
        class BalancedScore(AlternativeFamily):
            # score x f(x) satisfies Int x^3 h = 3 sigma^2 Int x h exactly
            kind = "balanced"

            def score(self, x):
                x = np.asarray(x, dtype=float)
                return x * np.asarray(self.base.density(x))

            def score_cumulative(self, x):
                return -np.asarray(self.base.density(x))

        alt = BalancedScore(normal)
        assert asy.sqrtb1_slope(normal, alt) == pytest.approx(0.0, abs=1e-12)

    def test_sqrtb1_against_simulation(self, normal, contam_normal):
        # index 1/6 under normal contamination; the limit curves strongly in
        # theta (m3/s^3 = theta - 4.5 theta^2 + ...), so the simulated means
        # are checked against the population limit and the local slope is
        # Richardson-extrapolated from two mixture weights
        from symlab._oracles import population_limit

        idx = asy.sqrtb1_slope(normal, contam_normal)
        assert idx == pytest.approx(1.0 / 6.0, rel=1e-9)
        n, reps = 5000, 10_000
        means = {}
        for i, theta in enumerate((0.025, 0.05)):
            rng = stream(4242, i)
            draws = contam_normal.sample(theta, n * reps, 0, rng=rng).reshape(reps, n)
            centered = draws - draws.mean(axis=1, keepdims=True)
            skew = (centered**3).mean(axis=1) / (centered**2).mean(axis=1) ** 1.5
            se = skew.std() / math.sqrt(reps)
            expected = population_limit(StatisticSpec("SQRT_B1"), contam_normal, theta)
            assert abs(skew.mean() - expected) < 3.0 * se + 1e-4
            means[theta] = skew.mean()
        slope = (4.0 * means[0.025] - means[0.05]) / 0.05
        assert slope**2 / 6.0 == pytest.approx(idx, rel=0.10)


class TestArrayThresholds:
    @pytest.mark.parametrize("name", ALL_SUP_IDS)
    @pytest.mark.parametrize(
        "null_name,alpha",
        # mean centering (alpha = 0) is not applicable under the Cauchy null
        [(n, a) for n in ("normal", "logistic", "cauchy") for a in (0.0, 0.1, 0.25, 0.5)
         if (n, a) != ("cauchy", 0.0)],
    )
    def test_array_equals_scalar_calls_bit_for_bit(self, name, null_name, alpha):
        null = get_null(null_name)
        spec = parse_statistic(name, alpha=alpha)
        q999 = float(null.quantile(0.999))
        ts = np.concatenate(
            [[0.0], np.geomspace(q999 * 1e-5, q999, 97), [1.5 * q999, 4.0 * q999, -0.7]]
        )

        def assert_bitwise(func, *args):
            got = func(*args, ts)
            assert isinstance(got, np.ndarray) and got.shape == ts.shape
            loop = [func(*args, float(t)) for t in ts]
            assert all(isinstance(v, float) for v in loop)
            np.testing.assert_array_equal(got.view(np.int64), np.asarray(loop).view(np.int64))

        assert_bitwise(asy.variance_function, spec, null)
        for alt_name in ("contam", "fs"):
            assert_bitwise(asy.slope_function, spec, get_alternative(alt_name, null))

    def test_models_compare_by_value(self):
        assert get_null("normal") == get_null("normal")
        assert hash(get_null("normal")) == hash(get_null("normal"))
        assert get_null("normal") != get_null("logistic")
        contam = get_alternative("contam", "normal")
        assert contam == get_alternative("contamination", get_null("normal"))
        assert hash(contam) == hash(get_alternative("contam", "normal"))
        assert contam != get_alternative("fs", "normal")
        assert contam != get_alternative("contam", "logistic")

    def test_repeated_lookups_share_one_cache_entry(self):
        spec = StatisticSpec("KS", alpha=0.3)
        first = asy.slope_function(spec, get_alternative("fs", "logistic"), 0.7)
        misses = asy._mu_prime.cache_info().misses
        again = asy.slope_function(spec, get_alternative("fs", "logistic"), 0.7)
        assert again == first
        assert asy._mu_prime.cache_info().misses == misses


class TestReport:
    def test_report_integral(self, normal, contam_normal):
        rep = asy.report(StatisticSpec("W", alpha=0.1), contam_normal)
        assert rep.sigma2 > 0 and not rep.degenerate
        assert rep.index == pytest.approx(rep.slope**2 / rep.sigma2, rel=1e-12)
        assert rep.a_coefficient == pytest.approx(1.0 / rep.sigma2, rel=1e-12)

    def test_report_degenerate_is_flagged_nan(self, contam_normal):
        rep = asy.report(StatisticSpec("S", alpha=0.5), contam_normal)
        assert rep.degenerate
        assert math.isnan(rep.index)

    def test_report_supremum_carries_argmax(self, contam_normal):
        rep = asy.report(StatisticSpec("KS", alpha=0.4), contam_normal)
        assert rep.var_argmax > 0.0
        assert rep.index > 0.0
