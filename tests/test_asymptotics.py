import math
import zlib
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from helpers import closed_forms, mc_projection, mp_profile, null_free_references, ulps
from symlab import asymptotics as asy
from symlab import efficiency as eff
from symlab import location as loc
from symlab.distributions import AlternativeFamily, get_alternative, get_null
from symlab.efficiency import DEFAULT_TESTS, default_grid
from symlab.errors import NotApplicableError
from symlab.montecarlo import McConfig, null_distribution
from symlab.stats import StatisticSpec, parse_statistic
from symlab._oracles import population_slope_fd
from symlab._rng import stream

INTEGRAL_IDS = ["S", "W", "BH_I", "NA_I_2", "NA_I_4", "MO_I_2"]
SUP_IDS = ["KS", "BH_K", "NA_K_2", "NA_K_4", "MO_K_2"]
ALL_SUP_IDS = [name for name in DEFAULT_TESTS if parse_statistic(name).family == "supremum"]
#: BH, NA_2-10 and MO_1-5, each as its integral and its supremum kind
SHAPED_IDS = ["BH_I", "BH_K", *(f"{kind}_{f}_{k}" for kind, ks in (("NA", range(2, 11)), ("MO", range(1, 6)))
                               for k in ks for f in "IK")]
#: S, W and the integral BH, NA and MO kinds up to k = 10: the profiles whose integrals need no model
NULL_FREE_IDS = ["S", "W", "BH_I", *(f"NA_I_{k}" for k in range(2, 11)), *(f"MO_I_{k}" for k in range(1, 11))]
SHAPED = {family: [name for name in SHAPED_IDS if parse_statistic(name).family == family]
          for family in ("integral", "supremum")}


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

    @pytest.mark.parametrize("name", SHAPED_IDS)
    def test_closed_form_is_its_exact_shape(self, name):
        # Omega(v) of an integral kind and w(q) of a supremum kind, on [1/2, 1] where the
        # projections read them, are a constant times the exact polynomial of their shape in
        # v - 1/2 (q - 1/2), to a few ulps of their largest value
        # (the hand-written forms of each family, not the ranks polynomial the shape comes from)
        spec = parse_statistic(name)
        family, *terms = asy._shape(spec)
        assert family == spec.family
        closed = closed_forms(spec)[0 if family == "integral" else 1]
        points = np.linspace(0.5, 1.0, 1001)
        x = [Fraction(float(p)) - Fraction(1, 2) for p in points]
        exact = np.array([float(sum(c * xi**j for j, c in terms)) for xi in x])
        got = closed(points)
        top = np.argmax(np.abs(exact))
        assert np.abs(got - got[top] / exact[top] * exact).max() <= 8 * np.spacing(np.abs(got).max())

    @pytest.mark.parametrize("name", SHAPED["supremum"])
    def test_weights_are_the_hand_written_forms_bit_for_bit(self, name):
        spec = parse_statistic(name)
        q = np.concatenate([np.linspace(0.5, 1.0, 4001), 0.5 + np.geomspace(1e-12, 0.5, 200),
                            1.0 - np.geomspace(1e-12, 0.5, 200)])
        for got, want in zip((asy._weight(spec), asy._weight_derivative(spec)), closed_forms(spec)[1:]):
            # a constant dw/dq (BH, NA_K_2 and MO_K_1) may be one float
            got, want = (np.broadcast_to(f(q), q.shape).view(np.uint64) for f in (got, want))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", SHAPED["integral"])
    def test_omega_keeps_its_relative_accuracy_at_the_median(self, name):
        # the hand-written Omega cancels as v nears 1/2 (relative error 1.0 for NA_I_2 at v - 1/2 =
        # 1e-9); against it in mpmath at 60 digits, the library's reads at most 3.9e-16 here (NA_I_7)
        spec = parse_statistic(name)
        v = np.concatenate([0.5 + np.geomspace(1e-9, 0.25, 60), 1.0 - np.geomspace(1e-12, 0.25, 60)])
        exact = closed_forms(spec)[0]
        with mp.workdps(60):
            want = np.array([float(exact(mp.mpf(x))) for x in v])
        assert (np.abs(asy._omega(spec)(v) - want) / want).max() <= 4e-16

    def test_integral_projection_near_the_center(self, normal):
        # phi(x) against 60-digit mpmath: rounding u = F(x) alone costs BH_I 6.0e-9 relative at x =
        # 1e-8, and no kind may read more than twice BH_I's error (NA_I_2's Omega read 1.0 there)
        xs = [1e-8, 1e-6, 1e-4, 1e-2, 1.0]
        errors = {}
        for name in ("BH_I", "NA_I_2", "NA_I_3", "NA_I_4", "MO_I_1", "MO_I_2"):
            spec = parse_statistic(name)
            omega, p = closed_forms(spec)[0], spec.subset_size
            got = asy.projection(spec, normal).phi(np.array(xs))
            with mp.workdps(60):
                want = [2 * mp.mpf(p) / (p + 1) * omega(mp.ncdf(mp.mpf(x))) for x in xs]
                errors[name] = np.array([float(abs((g - w) / w)) for g, w in zip(got, want)])
        for name, error in errors.items():
            assert (error <= 2.0 * errors["BH_I"]).all(), (name, error, errors["BH_I"])

    def test_moment_kinds_have_no_projection(self, normal):
        with pytest.raises(ValueError):
            asy.projection(StatisticSpec("CM"), normal)


class TestVariance:
    def test_sign_closed_forms(self, normal):
        mean, median = asy.variance_curve(StatisticSpec("S"), normal, [0.0, 0.5])[0]
        assert mean == pytest.approx(0.25 - 1.0 / (2.0 * math.pi), abs=1e-12)
        assert median == pytest.approx(0.0, abs=1e-12)

    def test_wilcoxon_pieces(self, normal):
        # squared projection mass and density-derivative pairing
        from symlab.asymptotics import _int_phi_fprime, _null_free

        spec = StatisticSpec("W", alpha=0.0)
        ((_, _, square, _),) = _null_free([spec], [])
        assert square == pytest.approx(1.0 / 12.0, abs=1e-14)
        value, err = _int_phi_fprime(spec, normal)
        assert value == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-12)
        assert err <= 1e-12

    def test_ks_member_at_origin_is_four_times_sign(self, normal):
        alphas = (0.0, 0.1, 0.25)
        for alpha, s in zip(alphas, asy.variance_curve(StatisticSpec("S"), normal, alphas)[0]):
            ks = asy.variance_function(StatisticSpec("KS", alpha=alpha), normal, 0.0)
            assert ks == pytest.approx(4.0 * s, rel=1e-9)

    def test_variance_function_vanishes_in_the_tail(self, normal):
        spec = StatisticSpec("KS", alpha=0.25)
        assert asy.variance_function(spec, normal, 12.0) < 1e-20

    @pytest.mark.parametrize("name", INTEGRAL_IDS + SUP_IDS)
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_positivity_away_from_median(self, name, null_name):
        null = get_null(null_name)
        alphas = np.linspace(0.0, 0.45, 10)
        if null_name == "cauchy":
            alphas = alphas[1:]  # mean centering is not applicable
        assert (asy.variance_curve(parse_statistic(name), null, alphas)[0] > 0.0).all()

    def test_variance_curves_approach_each_other(self):
        # the three null curves of one integral statistic come together for
        # some trimming level, relative to their spread near zero trimming
        nulls = [get_null(n) for n in ("normal", "logistic", "cauchy")]
        grid = np.linspace(0.02, 0.48, 24)
        vals = np.array([asy.variance_curve(StatisticSpec("W"), null, grid)[0] for null in nulls])
        spreads = np.ptp(vals, axis=0) / vals.mean(axis=0)
        assert min(spreads) < spreads[0]

    def test_simulation_smoke(self, normal):
        cfg = McConfig(n=2000, reps=3000, seed=2024)
        spec = StatisticSpec("W", alpha=0.25)
        values = null_distribution(spec, normal, cfg)
        assert cfg.n * values.var() == pytest.approx(
            asy.variance_curve(spec, normal, [spec.alpha])[0][0], rel=0.10
        )


class TestSlopes:
    def test_sign_contamination_closed_form(self, normal, contam_normal):
        expected = float(normal.cdf(1.0)) - 0.5 - float(normal.density(0.0))
        got = asy.slope_curve(StatisticSpec("S"), contam_normal, [0.0])[0][0]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-0.05759753, abs=1e-7)

    def test_sign_median_case_vanishes(self, contam_normal, fs_normal):
        for alt in (contam_normal, fs_normal):
            got = asy.slope_curve(StatisticSpec("S"), alt, [0.5])[0][0]
            assert got == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["W", "NA_I_2", "MO_I_2"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_matches_population_finite_difference(self, name, alpha, fs_normal):
        spec = parse_statistic(name, alpha=alpha)
        analytic = asy.slope_curve(spec, fs_normal, [alpha])[0][0]
        fd = population_slope_fd(spec, fs_normal)
        assert analytic == pytest.approx(fd, abs=1e-4)

    def test_ks_member_slope_at_origin(self, normal, contam_normal):
        # the KS member slope at the origin is minus twice the sign slope
        alphas = (0.0, 0.2)
        for alpha, s in zip(alphas, asy.slope_curve(StatisticSpec("S"), contam_normal, alphas)[0]):
            ks0 = asy.slope_function(StatisticSpec("KS", alpha=alpha), contam_normal, 0.0)
            assert ks0 == pytest.approx(-2.0 * s, abs=1e-10)

    def test_degeneracy_pair_everywhere(self, all_nulls):
        spec = StatisticSpec("S")
        for null in all_nulls:
            assert abs(asy.variance_curve(spec, null, [0.5])[0][0]) < 1e-8
            for alt_name in ("contam", "fs"):
                alt = get_alternative(alt_name, null)
                assert abs(asy.slope_curve(spec, alt, [0.5])[0][0]) < 1e-8


class TestMomentStatistics:
    def test_cm_family_not_applicable_on_cauchy(self, cauchy):
        alt = get_alternative("contam", cauchy)
        with pytest.raises(NotApplicableError):
            eff.bahadur_index("CM", alt)
        with pytest.raises(NotApplicableError):
            eff.bahadur_index("SQRT_B1", alt)

    def test_cm_denominator_normal(self, normal, contam_normal):
        # index = numerator / (pi/2 - 1) for the standard normal
        idx = eff.bahadur_index("CM", contam_normal)
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
        idx = eff.bahadur_index("CM", fs_normal)
        den = 1.0 + 1.0 / (4.0 * normal.density(0.0) ** 2) - normal.abs_mean() / normal.density(0.0)
        # gamma = 2(mean - median): index = (fd/2)^2 / den
        assert idx == pytest.approx((fd / 2.0) ** 2 / den, rel=1e-6)

    def test_closed_forms_normal_contamination(self, contam_normal):
        # the variance and slope behind each index: sigma = sqrt(pi/2) E|X| = 1
        # on the normal, so MGG's slope is CM's, and GAMMA = 2(mean - median)
        tests = ("CM", "GAMMA", "MGG", "SQRT_B1")
        curves = {c.test: c for c in eff.index_curves(tests, contam_normal, [0.0, 0.25])}
        sigma2 = {name: c.sigma2[0] for name, c in curves.items()}
        slope = {name: c.slope[0] for name, c in curves.items()}
        for c in curves.values():  # neither depends on the trimming level
            assert c.sigma2[1] == c.sigma2[0] and c.slope[1] == c.slope[0]
        rel = 1e-12
        assert sigma2["CM"] == pytest.approx(math.pi / 2.0 - 1.0, rel=rel)
        assert sigma2["GAMMA"] == pytest.approx(4.0 * (math.pi / 2.0 - 1.0), rel=rel)
        assert sigma2["SQRT_B1"] == pytest.approx(6.0, rel=rel)
        assert slope["SQRT_B1"] == pytest.approx(1.0, rel=rel)
        assert slope["MGG"] == pytest.approx(slope["CM"], rel=rel)
        assert slope["GAMMA"] == pytest.approx(2.0 * slope["CM"], rel=rel)

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
        assert eff.bahadur_index("SQRT_B1", alt) == pytest.approx(0.0, abs=1e-12)

    # two root seeds, fixed before either was run
    @pytest.mark.parametrize("seed", [4242, 1710])
    def test_sqrtb1_against_simulation(self, normal, contam_normal, seed):
        # index 1/6 under normal contamination; the limit curves strongly in
        # theta (m3/s^3 = theta - 4.5 theta^2 + ...), so the simulated means
        # are checked against the population limit and the local slope is
        # Richardson-extrapolated from two mixture weights.  Each block of
        # 500 samples draws from its own stream, which keeps the test's peak
        # memory to a few blocks
        from symlab._oracles import population_limit

        idx = eff.bahadur_index("SQRT_B1", contam_normal)
        assert idx == pytest.approx(1.0 / 6.0, rel=1e-9)
        n, reps, block = 5000, 10_000, 500
        means = {}
        for i, theta in enumerate((0.025, 0.05)):
            skew = np.empty(reps)
            for j in range(reps // block):
                rng = stream(seed, i, j)
                draws = contam_normal.sample(theta, block * n, 0, rng=rng)
                draws = draws.reshape(block, n)
                centered = draws - draws.mean(axis=1, keepdims=True)
                square = centered * centered
                skew[j * block : (j + 1) * block] = (
                    (square * centered).mean(axis=1) / square.mean(axis=1) ** 1.5
                )
            se = skew.std() / math.sqrt(reps)
            expected = population_limit(StatisticSpec("SQRT_B1"), contam_normal, theta)
            assert abs(skew.mean() - expected) < 3.0 * se + 1e-4
            means[theta] = skew.mean()
        slope = (4.0 * means[0.025] - means[0.05]) / 0.05
        assert slope**2 / 6.0 == pytest.approx(idx, rel=0.10)


class TestArrayThresholds:
    # NA_K_8 and MO_K_4 raise their weights to longer powers than any default test
    @pytest.mark.parametrize("name", ALL_SUP_IDS + ["NA_K_8", "MO_K_4"])
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

    @pytest.mark.parametrize("name", ALL_SUP_IDS)
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_non_finite_thresholds(self, name, null_name):
        # t -> inf limits are 0.0 wherever the arithmetic would overflow; NaN is refused
        null = get_null(null_name)
        spec = parse_statistic(name, alpha=0.25)
        for func, model in [(asy.variance_function, null)] + [
            (asy.slope_function, get_alternative(alt_name, null)) for alt_name in ("contam", "fs")
        ]:
            inside = func(spec, model, 0.5)
            for t in (math.inf, -math.inf, 1e300):
                got = func(spec, model, t)
                assert got == 0.0  # -0.0 where the logistic arithmetic reaches it at 1e300
                values = func(spec, model, np.array([0.5, t]))
                expected = np.array([inside, got])
                np.testing.assert_array_equal(values.view(np.int64), expected.view(np.int64))
            for t in (math.nan, np.array([0.5, math.nan])):
                with pytest.raises(ValueError, match="NaN"):
                    func(spec, model, t)

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


class TestApplicabilityMask:
    @pytest.mark.parametrize("name", DEFAULT_TESTS)
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_mask_equals_per_level_rule(self, name, null_name):
        null = get_null(null_name)
        grid = default_grid(11)
        expected = []
        for a in grid:
            try:
                asy.applicability(parse_statistic(name, alpha=float(a)), null)
                expected.append(False)
            except NotApplicableError:
                expected.append(True)
        np.testing.assert_array_equal(asy._refused(parse_statistic(name), null, grid), expected)


class TestTrimmingLevelRule:
    # every population quantity reads the (1 - a) null quantile, which does
    # not exist once a positive a rounds 1 - a to 1 (a <= 2^-54)
    ENTRY_POINTS = {
        "variance_curve": lambda a, alt: asy.variance_curve(StatisticSpec("W"), alt.base, [0.0, a]),
        "variance_curve_sup": lambda a, alt: asy.variance_curve(
            StatisticSpec("BH_K"), alt.base, [a]),
        "slope_curve": lambda a, alt: asy.slope_curve(StatisticSpec("KS"), alt, [a]),
        "slope_curve_integral": lambda a, alt: asy.slope_curve(StatisticSpec("S"), alt, [0.0, a]),
        "index_curves": lambda a, alt: eff.index_curves(["NA_K_2"], alt, [0.0, a]),
        "index_curves_moment": lambda a, alt: eff.index_curves(["CM"], alt, [a]),
        "bahadur_index": lambda a, alt: eff.bahadur_index("W", alt, a),
        "equivalence_report": lambda a, alt: eff.equivalence_report(alt, a, tests=("S", "KS")),
        "ks_s_equivalence_crossover": lambda a, alt: eff.ks_s_equivalence_crossover(alt, [0.0, a]),
        "variance_function": lambda a, alt: asy.variance_function(
            StatisticSpec("KS", alpha=a), alt.base, 0.5),
        "slope_function": lambda a, alt: asy.slope_function(
            StatisticSpec("MO_K", 1, alpha=a), alt, 0.5),
        "trimmed_mean_derivative": lambda a, alt: loc.trimmed_mean_derivative(alt, a),
        "influence_curve": lambda a, alt: loc.influence_curve(alt.base, a, 0.3),
        "population_trimmed_mean": lambda a, alt: loc.population_trimmed_mean(alt, 0.1, a),
    }

    @pytest.mark.parametrize("level", [2.0**-54, 1e-300, 0.7, math.nan])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_one_rule_at_every_entry_point(self, contam_normal, entry, level):
        with pytest.raises(ValueError, match=r"trimming coefficient must lie in \[0, 1/2\]"):
            self.ENTRY_POINTS[entry](level, contam_normal)

    @pytest.mark.parametrize("grid", [[0.7], [0.1, 0.9], [0.1, math.nan, 0.2]])
    def test_crossover_applies_the_rule_before_dropping_the_median(self, contam_normal, grid):
        # levels past 1/2 and NaN were dropped with 1/2, and the crossover read 0.0
        with pytest.raises(ValueError, match=r"trimming coefficient must lie in \[0, 1/2\]"):
            eff.ks_s_equivalence_crossover(contam_normal, grid)

    def test_smallest_level_above_the_rule(self, contam_normal):
        a = np.nextafter(2.0**-54, 1.0)  # 1 - a is the float below 1
        assert np.isfinite(asy.variance_curve(StatisticSpec("W"), contam_normal.base, [a])[0]).all()
        assert np.isfinite(eff.index_curves(["NA_K_2"], contam_normal, [0.0, a])[0].index).all()
        assert np.isfinite(loc.trimmed_mean_derivative(contam_normal, a))


class TestReport:
    # one-level index curves
    def test_report_integral(self, normal, contam_normal):
        rep = eff.index_curves(["W"], contam_normal, [0.1])[0]
        assert rep.sigma2[0] > 0 and not rep.degenerate[0]
        assert rep.index[0] == pytest.approx(rep.slope[0] ** 2 / rep.sigma2[0], rel=1e-12)

    def test_report_degenerate_is_flagged_nan(self, contam_normal):
        rep = eff.index_curves(["S"], contam_normal, [0.5])[0]
        assert rep.degenerate[0]
        assert math.isnan(rep.index[0])

    def test_report_supremum_carries_argmax(self, contam_normal):
        rep = eff.index_curves(["KS"], contam_normal, [0.4])[0]
        assert rep.var_argmax[0] > 0.0
        assert rep.index[0] > 0.0


class TestSupremumSearch:
    @pytest.mark.parametrize("name", ALL_SUP_IDS)
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    @pytest.mark.parametrize("alt_name", ["contam", "fs"])
    def test_never_short_of_a_dense_grid(self, name, null_name, alt_name):
        # the batched refinement against 20,001 thresholds plus the kink Q
        alt = get_alternative(alt_name, null_name)
        null = alt.base
        alphas = [0.05, 0.1, 0.25, 0.4]
        curve = eff.index_curves([name], alt, alphas)[0]
        q999 = float(null.quantile(0.999))
        for i, alpha in enumerate(alphas):
            spec = parse_statistic(name, alpha=alpha)
            dense = np.append(np.linspace(0.0, q999, 20_001), null.quantile(1.0 - alpha))
            var_max = asy.variance_function(spec, null, dense).max()
            slope_max = np.abs(asy.slope_function(spec, alt, dense)).max()
            assert curve.sigma2[i] >= var_max * (1.0 - 1e-12)
            assert curve.slope[i] >= slope_max * (1.0 - 1e-12)
            # the same bits as each curve on this level alone
            var, var_arg, *_ = asy.variance_curve(spec, null, [alpha])
            slope, slope_arg, *_ = asy.slope_curve(spec, alt, [alpha])
            assert (curve.sigma2[i], curve.var_argmax[i]) == (var[0], var_arg[0])
            assert (curve.slope[i], curve.slope_argmax[i]) == (slope[0], slope_arg[0])


class TestMemberDerivatives:
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    @pytest.mark.parametrize("alt_name", ["contam", "fs"])
    def test_closed_form_against_central_difference(self, null_name, alt_name):
        # the t-derivatives that steer the Newton steps of the search, off the kink at Q(1 - a);
        # measured at most 4.1e-9 (variance) and 2.6e-8 (slope) of the scale max(|d|, |value| / t)
        alt = get_alternative(alt_name, null_name)
        null = alt.base
        alphas = np.array([a for a in (0.0, 0.02, 0.15, 0.35, 0.5) if a > 0.0 or null.has_moment(2)])
        specs = [parse_statistic(name) for name in ALL_SUP_IDS]
        t = np.tile(null.quantile([0.55, 0.7, 0.8, 0.95]), (len(specs) * alphas.size, 1))
        h = 1e-6 * t
        for model, (_, column, free, power, _) in ((null, asy._VARIANCE), (alt, asy._SLOPE)):
            groups = [(spec, column(model, alphas)[0]) for spec in specs]

            def members(x):
                return asy._members(model, groups, power, free, asy._thresholds(model, x))

            value, d = members(t)
            central = (members(t + h)[0] - members(t - h)[0]) / (2.0 * h)
            scale = np.maximum(np.abs(d), np.abs(value) / t)
            assert (np.abs(d - central) <= 1e-6 * scale).all(), (power, np.max(np.abs(d - central) / scale))


INTEGRAL_KINDS = [name for name in DEFAULT_TESTS if parse_statistic(name).family == "integral"]


#: each null's density, cdf and density derivative at mpmath's working precision
MP_NULLS = {
    "normal": (mp.npdf, mp.ncdf, lambda x: -x * mp.npdf(x)),
    "logistic": (lambda x: mp.exp(-x) / (1 + mp.exp(-x)) ** 2, lambda x: 1 / (1 + mp.exp(-x)),
                 lambda x: -mp.exp(-x) / (1 + mp.exp(-x)) ** 2 * mp.tanh(x / 2)),
    "cauchy": (lambda x: 1 / (mp.pi * (1 + x * x)), lambda x: mp.atan(x) / mp.pi + mp.mpf(1) / 2,
               lambda x: -2 * x / (mp.pi * (1 + x * x) ** 2)),
}
#: the interior default levels, then single levels down to 1e-12
MP_LEVELS = np.concatenate([default_grid()[1:-1], [1e-12, 1e-9, 1e-6, 1e-3, 0.499]])


def mp_below(g, qs) -> list:
    """``Integral_0^q g`` for each of ``qs`` at mpmath's precision: one pass over the sorted limits,
    split at every power of 2 below the largest, each piece by mpmath's Gauss-Legendre rule."""
    edges = sorted({0.0, *qs, *(2.0**j for j in range(-12, 60) if 2.0**j < max(qs))})
    total, at = mp.mpf(0), {0.0: mp.mpf(0)}
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += mp.quad(g, [lo, hi], method="gauss-legendre")
        at[hi] = total
    return [at[q] for q in qs]


#: both boundary levels among interior ones (MP_LEVELS holds neither), in no order
BOUNDARY_GRID = np.array([0.3, 0.0, 1e-9, 0.5, 0.25, 0.499, 0.1])


@pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
@pytest.mark.parametrize("alt_name", ["contam", "fs"])
def test_boundary_levels_keep_their_own_bits(null_name, alt_name):
    # the boundary rule (location._by_level) leaves every level the bits of that level computed
    # alone, a boundary level's stand-in and the interior levels beside it included
    alt = get_alternative(alt_name, null_name)
    grid = BOUNDARY_GRID if alt.base.has_moment(2) else BOUNDARY_GRID[BOUNDARY_GRID != 0.0]
    for column in (lambda a: asy._levels(alt.base, a), lambda a: loc._derivative_curve(alt, a)):
        alone = [column(np.array([a])) for a in grid]
        for k, together in enumerate(column(grid)):
            want = np.concatenate([parts[k] for parts in alone])
            assert together.view(np.uint64).tolist() == want.view(np.uint64).tolist(), k


class TestQuadratureBudget:
    def test_recorded_rules_are_numpys_bit_for_bit(self):
        from symlab._quad import _LEGENDRE, _gauss01

        assert sorted(_LEGENDRE) == [16, 32]
        for nodes in _LEGENDRE:
            x, w = np.polynomial.legendre.leggauss(nodes)
            recorded = [float.fromhex(v) for v in _LEGENDRE[nodes].split()]
            assert np.array_equal(np.array(recorded).view(np.uint64),
                                  np.concatenate([x[nodes // 2:], w[nodes // 2:]]).view(np.uint64))
            s, v = _gauss01(nodes)
            assert np.array_equal(s.view(np.uint64), (0.5 * (x + 1.0)).view(np.uint64))
            assert np.array_equal(v.view(np.uint64), (0.5 * w).view(np.uint64))

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_fixed_rules_within_abs_tol(self, null_name):
        # Int_0^Q phi x f and Int_Q^inf phi f on every interior level of the
        # default grid, against adaptive quadrature
        from symlab._quad import ABS_TOL, quad_split
        from symlab.efficiency import default_grid

        null = get_null(null_name)
        alphas = default_grid()[1:-1]
        q = null.quantile(1.0 - alphas)
        for name in INTEGRAL_KINDS:
            spec = parse_statistic(name)
            phi = asy.projection(spec, null).phi
            ((value, abserr),) = asy._t3([spec], null, q)
            ((tail, *_),) = asy._null_free([spec], alphas)
            assert abserr.max() <= ABS_TOL
            for i, qi in enumerate(q):
                inner = quad_split(lambda x: phi(x) * x * null.density(x), 0.0, qi)
                outer = quad_split(lambda x: phi(x) * null.density(x), qi, np.inf)
                assert abs(value[i] - inner) <= ABS_TOL, (name, alphas[i])
                assert abs(tail[i] - outer) <= ABS_TOL, (name, alphas[i])

    @pytest.mark.parametrize("name", NULL_FREE_IDS)
    def test_null_free_integrals_against_exact(self, name):
        # Int phi^2 and the tail Int_{1-a}^1 phi on every interior default level, against 50-digit
        # references from the hand-written forms (measured worst: Int phi^2 2.1 ulps, MO_I_3; the
        # tail 1.9 for S, W, BH and NA (NA_I_10) and 2.9 for MO (MO_I_10))
        square, tails = null_free_references(name)
        ((tail, _, got, _),) = asy._null_free([parse_statistic(name)], default_grid()[1:-1])
        assert ulps(got, square) <= 2.5
        assert max(map(ulps, tail[:-1], tails)) <= (3.0 if name.startswith("MO") else 2.0)

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_level_integrals_against_mpmath(self, null_name):
        # Int_0^Q phi x f of an odd profile of degree 1 (W) and 2 (BH_I, NA_I_3) on every level,
        # each also alone, within 4e-16 of the curve's largest value (measured: 3.8e-16, BH_I
        # on the normal)
        null = get_null(null_name)
        density, cdf, _ = MP_NULLS[null_name]
        q = null.quantile(1.0 - MP_LEVELS)
        specs = [parse_statistic(name) for name in ("W", "BH_I", "NA_I_3")]
        for spec, (value, _) in zip(specs, asy._t3(specs, null, q)):
            phi = mp_profile(spec)
            with mp.workdps(30):
                want = np.array([float(v) for v in mp_below(lambda x: phi(cdf(x)) * x * density(x), q.tolist())])
            assert np.abs(value - want).max() <= 4e-16 * np.abs(want).max(), spec.kind
            assert [asy._t3([spec], null, [qi])[0][0][0] for qi in q] == value.tolist()

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    @pytest.mark.parametrize("alt_name", ["contam", "fs"])
    def test_mu_prime_integral_against_mpmath(self, null_name, alt_name):
        # mu' = (edge + Int_0^Q x (h(x) - h(-x))) / (1 - 2a) with the program's own edge term, so
        # the integral alone is checked: within 4e-16 of the curve's largest value on every level
        # (measured: 3.3e-16, logistic and Cauchy contam)
        alt = get_alternative(alt_name, null_name)
        density, cdf, derivative = MP_NULLS[null_name]
        value, _ = loc._derivative_curve(alt, MP_LEVELS)
        q = alt.base.quantile(1.0 - MP_LEVELS)
        edge = -q * (alt.score_cumulative(q) + alt.score_cumulative(-q))
        if alt_name == "fs":  # h(x) = |x| f'(x), odd
            xh = lambda x: 2 * x * x * derivative(x)
            H = lambda x: cdf(-abs(x)) + abs(x) * density(x)
        else:  # h(x) = f(x - 1) - f(x)
            xh = lambda x: x * (density(x - 1) - density(x + 1))
            H = lambda x: cdf(x - 1) - cdf(x)
        with mp.workdps(60):  # F(Q - 1) - F(Q) cancels about log10(Q^2) digits on the Cauchy
            integral = mp_below(xh, q.tolist())
            own = np.array([float((mp.mpf(e) + i) / (1 - 2 * mp.mpf(a)))
                            for e, i, a in zip(edge.tolist(), integral, MP_LEVELS.tolist())])
            # and with the exact edge -Q (H(Q) + H(-Q)), H the score's antiderivative, as tight
            # (measured: 3.3e-16, logistic and Cauchy contam; the edge F(Q - 1) - F(Q) cancelled
            # on the Cauchy, where mu' read 0.999999999 at a = 1e-9)
            exact = np.array([float((-Q * (H(Q) + H(-Q)) + i) / (1 - 2 * mp.mpf(a)))
                              for Q, i, a in zip(map(mp.mpf, q.tolist()), integral, MP_LEVELS.tolist())])
        assert np.abs(value - own).max() <= 4e-16 * np.abs(own).max()
        assert np.abs(value - exact).max() <= 4e-16 * np.abs(exact).max()
        assert [loc._derivative_curve(alt, [a])[0][0] for a in MP_LEVELS] == value.tolist()

    def test_trimmed_mean_term_carries_its_estimate(self):
        # Int_0^Q x^2 f of the trimmed-mean term reported 0.0; its rule's estimate reaches
        # each curve's error, and a boundary level, which never reads it, keeps 0
        null = get_null("logistic")
        _, _, err, _ = asy.variance_curve(StatisticSpec("KS"), null, [0.25])
        assert err[0] > 0.0
        levels, level_err = asy._levels(null, np.array([0.0, 0.25, 0.5]))
        assert level_err.tolist() == [0.0, null._second_moment(levels[1, 3])[1], 0.0]
        assert 0.0 < level_err[1] <= err[0]

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    @pytest.mark.parametrize("alt_name", ["contam", "fs"])
    def test_half_line_rules_within_abs_tol(self, null_name, alt_name):
        # Int phi f', Int_0^inf phi x f, Int phi h and Int x^3 h against
        # adaptive quadrature, each with its estimate within the budget
        from symlab._quad import ABS_TOL, quad_split

        alt = get_alternative(alt_name, null_name)
        null = alt.base
        inf = np.inf

        def check(fixed, adaptive, label):
            value, err = fixed
            assert err <= ABS_TOL and abs(value - adaptive) <= ABS_TOL, label

        for name in INTEGRAL_KINDS:
            spec = parse_statistic(name)
            phi = asy.projection(spec, null).phi
            fprime = quad_split(lambda x: phi(x) * null.density_derivative(x), -inf, inf, [0.0])
            check(asy._int_phi_fprime(spec, null), fprime, (name, "phi f'"))
            score = quad_split(lambda x: phi(x) * alt.score(x), -inf, inf, [0.0, 1.0])
            check(asy._int_phi_score(spec, alt), score, (name, "phi h"))
            if null.has_moment(2):  # x f is not integrable under the Cauchy
                phi_x = quad_split(lambda x: phi(x) * x * null.density(x), 0.0, inf)
                check(asy._int_phi_x(spec, null), phi_x, (name, "phi x f"))
        if null.has_moment(6):
            x3h = quad_split(lambda x: x**3 * alt.score(x), -inf, inf, [0.0, 1.0])
            check(asy._int_x3_score(alt), x3h, "x^3 h")

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    @pytest.mark.parametrize("alt_name", ["contam", "fs"])
    def test_mu_prime_within_abs_tol(self, null_name, alt_name):
        # mu' on the 99 interior levels of the default grid, and at a = 0
        # where mean centering applies, against adaptive quadrature
        from symlab._quad import ABS_TOL, quad_split
        from symlab.efficiency import default_grid

        alt = get_alternative(alt_name, null_name)
        null = alt.base
        alphas = default_grid()[:-1] if null.has_moment(2) else default_grid()[1:-1]
        value, err = asy._mu_prime(alt, tuple(alphas.tolist()))
        assert err.max() <= ABS_TOL
        for i, a in enumerate(alphas):
            if a == 0.0:
                want = quad_split(lambda x: x * alt.score(x), -np.inf, np.inf, [0.0, 1.0])
            else:
                q = float(null.quantile(1.0 - a))
                edge = -q * (alt.score_cumulative(q) + alt.score_cumulative(-q))
                inner = quad_split(lambda x: x * alt.score(x), -q, q, [0.0, 1.0])
                want = (edge + inner) / (1.0 - 2.0 * a)
            assert abs(value[i] - want) <= ABS_TOL, a
