import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from symlab._rng import stream
from symlab.distributions import get_alternative, get_null
from symlab.errors import NotApplicableError
from symlab.montecarlo import McConfig, power
from symlab.stats import StatisticSpec


class TestNullModels:
    def test_standard_values(self, normal, logistic, cauchy):
        assert normal.cdf(0.0) == 0.5
        assert cauchy.density(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
        assert logistic.density_derivative(0.0) == 0.0

    @pytest.mark.parametrize("name", ["normal", "logistic", "cauchy"])
    def test_density_symmetric_and_normalized(self, name):
        null = get_null(name)
        x = np.linspace(-8, 8, 101)
        np.testing.assert_allclose(null.density(x), null.density(-x), rtol=1e-12)
        assert np.all(null.density(x) >= 0.0)
        total, _ = quad(null.density, -np.inf, np.inf, epsabs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("name", ["normal", "logistic", "cauchy"])
    def test_quantile_inverts_cdf(self, name):
        null = get_null(name)
        u = np.linspace(0.001, 0.999, 200)
        np.testing.assert_allclose(null.cdf(null.quantile(u)), u, atol=1e-10)

    @pytest.mark.parametrize("name", ["normal", "logistic", "cauchy"])
    def test_density_derivative_odd_and_consistent(self, name):
        null = get_null(name)
        x = np.linspace(-6, 6, 81)
        np.testing.assert_allclose(
            null.density_derivative(x), -null.density_derivative(-x), atol=1e-12
        )
        h = 1e-6
        numeric = (null.density(x + h) - null.density(x - h)) / (2 * h)
        np.testing.assert_allclose(null.density_derivative(x), numeric, atol=1e-8)

    def test_logistic_density_to_a_few_ulp_in_both_tails(self, logistic):
        # against e/(1+e)^2 and -e(1-e)/(1+e)^3 with e = exp(-|x|), 1-e by expm1
        x = np.concatenate([np.geomspace(1e-300, 1.0, 601), np.linspace(0.0, 700.0, 70_001)[1:]])
        e = np.exp(-x)
        ulp = 4.0 * np.finfo(float).eps
        np.testing.assert_allclose(logistic.density(x), e / (1.0 + e) ** 2, rtol=ulp, atol=0.0)
        np.testing.assert_allclose(
            logistic.density_derivative(x), e * np.expm1(-x) / (1.0 + e) ** 3, rtol=ulp, atol=0.0
        )
        assert (logistic.density(-x) == logistic.density(x)).all()
        assert (logistic.density_derivative(-x) == -logistic.density_derivative(x)).all()

    def test_unknown_names_refused(self):
        choices = r"choose from \['cauchy', 'logistic', 'normal'\]"
        with pytest.raises(ValueError, match=f"unknown null model 'gamma'; {choices}"):
            get_null("gamma")
        with pytest.raises(ValueError, match="unknown alternative family 'skew'; choose from "):
            get_alternative("skew", "normal")

    def test_quantile_domain(self, normal):
        with pytest.raises(ValueError):
            normal.quantile(0.0)
        with pytest.raises(ValueError):
            normal.quantile(1.0)

    @pytest.mark.parametrize("name", ["normal", "logistic", "cauchy"])
    def test_quantile_refuses_nan(self, name):
        # NaN passed both comparisons of the (0, 1) check and came out as NaN
        null = get_null(name)
        for u in (math.nan, [0.5, math.nan], np.array([[math.nan]])):
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                null.quantile(u)

    @pytest.mark.parametrize("name", ["normal", "logistic", "cauchy"])
    def test_partial_moments_refuse_nan(self, name):
        # a NaN limit came out as NaN, past every panel of the fixed rule
        null = get_null(name)
        for b in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="must not be NaN"):
                null.partial_second_moment(b)
            with pytest.raises(ValueError, match="must not be NaN"):
                null.partial_first_moment(0.0, b)
            with pytest.raises(ValueError, match="must not be NaN"):
                null.partial_first_moment(b, 1.0)

    def test_moment_flags(self, normal, logistic, cauchy):
        for k in (1, 2, 4, 6):
            assert normal.has_moment(k)
            assert logistic.has_moment(k)
            assert not cauchy.has_moment(k)
        with pytest.raises(NotApplicableError):
            cauchy.moment(2)
        with pytest.raises(NotApplicableError):
            cauchy.abs_mean()

    def test_moment_values(self, normal, logistic):
        assert normal.moment(2) == 1.0
        assert normal.moment(4) == 3.0
        assert normal.moment(6) == 15.0
        assert logistic.moment(2) == pytest.approx(math.pi**2 / 3, rel=1e-15)
        # quadrature cross-checks of the tabulated values
        for null, k in [(normal, 6), (logistic, 4), (logistic, 6)]:
            val, _ = quad(lambda x: x**k * null.density(x), -np.inf, np.inf, epsabs=1e-12)
            assert val == pytest.approx(null.moment(k), rel=1e-9)

    def test_every_even_moment(self, normal, logistic):
        # the logistic raised NotImplementedError past k = 6, and the normal's
        # int64 product of (k-1)!! wrapped from k = 36 (2.8e17 for 2.2e20; negative at k = 38)
        assert [logistic.moment(k) for k in (0, 2, 4, 6, 8)] == [
            1.0, math.pi**2 / 3.0, 7.0 * math.pi**4 / 15.0, 31.0 * math.pi**6 / 21.0, 127.0 * math.pi**8 / 15.0]
        with mp.workdps(30):
            for k in range(8, 21, 2):
                # 2 k! eta(k); the float pi, 3.9e-17 relative low, costs k times that
                want = float(2 * mp.factorial(k) * mp.altzeta(k))
                assert logistic.moment(k) == pytest.approx(want, rel=1e-15, abs=0)
            for k in range(2, 61, 2):
                assert normal.moment(k) == float(mp.fac2(k - 1))

    @pytest.mark.parametrize("name", ["normal", "logistic", "cauchy"])
    def test_partial_moments_match_quadrature(self, name):
        null = get_null(name)
        for a, b in [(0.0, 1.3), (-0.7, 2.1), (1.0, 4.0)]:
            val, _ = quad(lambda x: x * null.density(x), a, b, epsabs=1e-13)
            assert null.partial_first_moment(a, b) == pytest.approx(val, abs=1e-10)
        for b in (0.5, 1.7, 3.0):
            val, _ = quad(lambda x: x * x * null.density(x), 0.0, b, epsabs=1e-13)
            assert null.partial_second_moment(b) == pytest.approx(val, abs=1e-10)

    @pytest.mark.parametrize("name", ["normal", "logistic", "cauchy"])
    def test_partial_second_moment_full_precision_for_small_b(self, name):
        # the closed forms lost digits as b shrank (logistic: 3e-2 relative at
        # b = 1e-4) and the logistic primitive's O(b^2) terms cancelled as b grew
        # (8.6e-14 relative at b = 37); the fixed rule keeps them, up to the cuts
        # 1 (Cauchy), 40 (normal) and 50 (logistic) and on to the largest float
        null = get_null(name)
        top = np.finfo(float).max
        large = [36.7, 37.0, 100.0, 550.0, 700.0, 744.0, 1e4, 1e100, 1e200, top]
        points = [0.25, 0.5, 1.0, 2.0, 40.0, 50.0]
        b = np.concatenate([
            np.logspace(-8, 1, 37), [v for p in points for v in (np.nextafter(p, 0.0), p, np.nextafter(p, top))],
            large, [null._x_max, np.nextafter(null._x_max, top)],
        ])
        density = {
            "normal": mp.npdf,
            "logistic": lambda x: mp.exp(-x) / (1 + mp.exp(-x)) ** 2,
            "cauchy": lambda x: 1 / (mp.pi * (1 + x * x)),
        }[name]
        with mp.workdps(30):
            want = np.array([
                float(mp.quad(lambda x: x * x * density(x),
                              [0] + [p for p in (1, 4, 16, 64, 256) if p < v] + [v]))
                for v in b
            ])
        got = null.partial_second_moment(b)
        np.testing.assert_allclose(got, want, rtol=3e-16, atol=0.0)  # measured: 2.5e-16 (normal)
        # an array gives the bits of a loop of scalar calls
        assert [null.partial_second_moment(float(v)) for v in b] == got.tolist()

    @pytest.mark.parametrize("name", ["normal", "logistic", "cauchy"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_partial_second_moment_is_odd(self, name):
        # the series ran outside its radius for b < 0: 29123.85 (normal), -3.2e8
        # (logistic) and -4.6e19 (Cauchy) at b = -5
        null = get_null(name)
        b = np.array([0.0, 0.3, 5.0, 40.0, 1e3, np.inf])
        got = null.partial_second_moment(-b)
        assert got.view(np.int64).tolist() == (-null.partial_second_moment(b)).view(np.int64).tolist()
        assert [null.partial_second_moment(-float(v)) for v in b] == got.tolist()
        assert np.signbit(got).all()

    def test_cauchy_tails_to_two_ulp(self, cauchy):
        # tan(pi (u - 1/2)) and 1/2 + arctan(x)/pi lose the digits of a small
        # u or F(x): quantile(1e-18) used to read -1.6e16 against -3.2e17
        with mp.workdps(40):
            for u in (1e-18, 1e-12, 1.0 - 1e-12):
                want = float(-mp.cot(mp.pi * mp.mpf(u)))
                assert abs(cauchy.quantile(u) - want) <= 2.0 * math.ulp(want)
            for x in (-1e8, -1e12):
                want = float(-mp.atan(1 / mp.mpf(x)) / mp.pi)
                assert abs(cauchy.cdf(x) - want) <= 2.0 * math.ulp(want)
            # log1p(x^2) / (2 pi), whose x x overflowed past _x_max (inf at x = 1e200)
            big = [cauchy._x_max, np.nextafter(cauchy._x_max, np.inf), 1e200, np.finfo(float).max]
            for x in [1e-8, 1.0, 1e8, *big]:
                want = float(mp.log1p(mp.mpf(x) ** 2) / (2 * mp.pi))
                assert cauchy.partial_first_moment(0.0, -x) == pytest.approx(want, rel=1e-12, abs=0)
        # the mirror halves meet at the center and an array agrees with scalars
        assert cauchy.quantile(0.5) == 0.0 and cauchy.cdf(0.0) == 0.5
        u = np.array([1e-18, 0.25, 0.5, 0.75, 1.0 - 1e-12])
        assert cauchy.quantile(u).tolist() == [cauchy.quantile(float(v)) for v in u]
        assert cauchy.cdf(-u).tolist() == [cauchy.cdf(-float(v)) for v in u]

    @pytest.mark.parametrize("name", ["normal", "cauchy"])
    def test_density_derivative_up_to_the_largest_float(self, name):
        # the normal's -0.5 x x overflowed past _x_max, and the Cauchy's
        # pi (1 + x x)^2 past _d_max (about 8.7e76); below the normal range,
        # where the true value underflows, the smallest normal is the bound
        null = get_null(name)
        top = np.finfo(float).max
        cut = null._x_max if name == "normal" else null._d_max
        x = np.concatenate([
            np.logspace(-8, 308, 317), [cut, np.nextafter(cut, top), 1e77, 1e102, 1e154, top],
        ])
        exact = {
            "normal": lambda v: -v * mp.npdf(v),
            "cauchy": lambda v: -2 * v / (mp.pi * (1 + v * v) ** 2),
        }[name]
        with mp.workdps(30):
            want = np.array([float(exact(mp.mpf(float(v)))) for v in x])
        got = null.density_derivative(x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=np.finfo(float).tiny)
        assert (null.density_derivative(-x) == -got).all()
        assert [null.density_derivative(float(v)) for v in x] == got.tolist()
        # the closed form's bits wherever its arithmetic stays finite, which ends at the cut
        closed = {
            "normal": lambda v: -v * np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi),
            "cauchy": lambda v: -2.0 * v / (math.pi * (1.0 + v * v) ** 2),
        }[name]
        near = x <= cut
        assert (got[near] == closed(x[near])).all()
        with pytest.warns(RuntimeWarning, match="overflow"):
            closed(np.nextafter(cut, top))

    @pytest.mark.parametrize("name", ["normal", "cauchy"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_density_up_to_infinity(self, name):
        # x x overflowed past about 1.34e154 and raised; the normal clips its argument at
        # _x_max, the Cauchy divides 1/pi by x twice past it, and below the cut both keep
        # the closed form's bits
        null = get_null(name)
        top, cut = np.finfo(float).max, null._x_max
        far = np.array([np.nextafter(cut, top), 1e155, 1e300, top, np.inf])
        exact = {"normal": mp.npdf, "cauchy": lambda v: 1 / (mp.pi * (1 + v * v))}[name]
        with mp.workdps(30):
            want = np.array([float(exact(mp.mpf(float(v)))) if np.isfinite(v) else 0.0 for v in far])
        for x in (far, -far):
            got = null.density(x)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-323)
            assert [null.density(float(v)) for v in x] == got.tolist()
        near = np.array([0.0, 5e-324, 1e-8, 1.0, 37.0, 1e100, np.nextafter(cut, 0.0), cut])
        near = np.concatenate([near, -near])
        closed = {
            "normal": lambda v: np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi),
            "cauchy": lambda v: 1.0 / (math.pi * (1.0 + v * v)),
        }[name]
        assert null.density(near).view(np.int64).tolist() == closed(near).view(np.int64).tolist()
        assert null.density(np.concatenate([near, far])).tolist() == [*closed(near), *null.density(far)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normal_density_derivative_at_infinity(self, normal):
        # -x exp(-x x / 2) was -inf * 0 = NaN there, with a warning; the clipped
        # argument gives the signed-zero limit and every finite argument its bits
        top, cut = np.finfo(float).max, normal._x_max
        x = np.array([0.0, 5e-324, 1e-8, 1.0, 37.0, np.nextafter(cut, 0.0), cut,
                      np.nextafter(cut, top), 1e300, np.nextafter(top, 0.0), top])
        x = np.concatenate([x, -x])
        c = np.clip(x, -cut, cut)
        before = -x * np.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
        assert normal.density_derivative(x).view(np.int64).tolist() == before.view(np.int64).tolist()
        limits = normal.density_derivative(np.array([np.inf, -np.inf]))
        assert limits.tolist() == [0.0, 0.0] and np.signbit(limits).tolist() == [True, False]
        assert [math.copysign(1.0, normal.density_derivative(v)) for v in (math.inf, -math.inf)] == [-1.0, 1.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tail_limits_at_infinity_without_a_warning(self, cauchy):
        # inf * 0 made the normal and logistic partial second moments NaN at inf, and the
        # Cauchy lower-tail quantile reached its exact -inf through an overflowing divide
        top = np.finfo(float).max
        for name in ("normal", "logistic"):
            null = get_null(name)
            half = null.moment(2) / 2.0
            assert null.partial_second_moment(np.array([1e300, top, np.inf])).tolist() == [half] * 3
            assert null.partial_second_moment(math.inf) == half
        assert cauchy.quantile(5e-324) == -math.inf
        assert cauchy.quantile(np.array([5e-324, 0.5, 1.0 - 2.0**-53])).tolist() == [
            -math.inf, 0.0, float(cauchy.quantile(1.0 - 2.0**-53))]
        with pytest.warns(RuntimeWarning, match="overflow"):  # the sampler's path stays unguarded
            cauchy._quantile(np.array([5e-324]))

    def test_normal_partial_first_moment_up_to_the_largest_float(self, normal):
        # -density(b) overflowed in -0.5 b b past _x_max; the moment is f(0) - f(b)
        top = np.finfo(float).max
        b = np.array([40.0, 1e100, normal._x_max, np.nextafter(normal._x_max, top), 1e300, top])
        f0 = 1.0 / math.sqrt(2.0 * math.pi)
        assert (normal.partial_first_moment(0.0, b) == f0).all()
        assert (normal.partial_first_moment(0.0, -b) == f0).all()
        assert (normal.partial_first_moment(-b, b) == 0.0).all()

    @pytest.mark.parametrize("name", ["normal", "logistic", "cauchy"])
    def test_partial_first_moment_full_precision_for_small_b(self, name):
        # a primitive that is O(1) at 0 cancels to O(b^2) (0.0 for the normal
        # at b = 1e-8, against 2.0e-17).  The reference closed forms cancel
        # too, so mpmath carries 650 digits; where the true value underflows,
        # the smallest normal float is the bound
        null = get_null(name)
        points = [0.25, 0.5, 1.0]
        b = np.concatenate([
            np.logspace(-300, math.log10(50.0), 61), [1e-8, 1e-4, 2.0],
            [v for p in points for v in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0))],
        ])
        exact = {
            "normal": lambda v: -mp.expm1(-v * v / 2) / mp.sqrt(2 * mp.pi),
            "logistic": lambda v: v / (1 + mp.exp(-v)) - mp.log1p(mp.exp(v)) + mp.log(2),
            "cauchy": lambda v: mp.log1p(v * v) / (2 * mp.pi),
        }[name]
        with mp.workdps(650):
            want = np.array([float(exact(mp.mpf(float(v)))) for v in b])
        got = null.partial_first_moment(0.0, b)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=np.finfo(float).tiny)
        assert (got >= 0.0).all()
        assert (null.partial_first_moment(0.0, -b) == got).all()
        assert [null.partial_first_moment(0.0, float(v)) for v in b] == got.tolist()
        # two limits near 0, and an infinite limit
        for p in points:
            lo, hi = 0.25 * p, 0.75 * p
            with mp.workdps(50):
                want = float(exact(mp.mpf(hi)) - exact(mp.mpf(lo)))
            assert null.partial_first_moment(lo, hi) == pytest.approx(want, rel=1e-12, abs=0)
        if name != "cauchy":
            assert null.partial_first_moment(0.0, np.inf) == null.partial_first_moment(0.0, 1e300)


class TestAlternativeFamilies:
    @pytest.mark.parametrize("alt_name", ["fs", "contam"])
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_theta_zero_recovers_null(self, alt_name, null_name):
        alt = get_alternative(alt_name, null_name)
        x = np.linspace(-5, 5, 41)
        np.testing.assert_array_equal(alt.density(x, 0.0), alt.base.density(x))

    def test_contamination_endpoint(self, normal):
        alt = get_alternative("contam", normal)
        assert alt.density(1.0, 1.0) == pytest.approx(normal.density(0.0), abs=1e-15)

    @pytest.mark.parametrize("alt_name", ["fs", "contam"])
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_density_normalized_at_theta(self, alt_name, null_name):
        alt = get_alternative(alt_name, null_name)
        total, _ = quad(lambda x: alt.density(x, 0.3), -np.inf, np.inf, epsabs=1e-12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_theta_domain_errors(self, normal):
        fs = get_alternative("fs", normal)
        contam = get_alternative("contam", normal)
        with pytest.raises(ValueError):
            fs.density(0.0, -1.0)
        with pytest.raises(ValueError):
            contam.density(0.0, 1.5)
        with pytest.raises(ValueError):
            contam.density(0.0, -0.1)

    @pytest.mark.parametrize("null_name", ["normal", "cauchy"])
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_skew_refused(self, null_name, theta):
        # a NaN or infinite skew gave NaN or degenerate values, and power failed late on its draws
        fs = get_alternative("fs", null_name)
        calls = (lambda: fs.density(0.5, theta), lambda: fs.cdf(0.5, theta), lambda: fs.sample(theta, 10, 1),
                 lambda: power(StatisticSpec("W"), fs, theta, McConfig(n=20, reps=100, seed=1)))
        for call in calls:
            with pytest.raises(ValueError, match="two-piece skew parameter must be finite"):
                call()

    def test_cdf_matches_density(self, normal):
        for alt_name in ("fs", "contam"):
            alt = get_alternative(alt_name, normal)
            for x in (-1.7, -0.3, 0.8, 2.4):
                val, _ = quad(lambda v: alt.density(v, 0.4), -np.inf, x, epsabs=1e-12)
                assert alt.cdf(x, 0.4) == pytest.approx(val, abs=1e-9)

    def test_score_special_points(self, normal):
        contam = get_alternative("contam", normal)
        fs = get_alternative("fs", normal)
        # midpoint between the two mixture bumps
        assert contam.score(0.5) == pytest.approx(0.0, abs=1e-15)
        assert fs.score(0.0) == 0.0

    @pytest.mark.parametrize("alt_name", ["fs", "contam"])
    @pytest.mark.parametrize("null_name", ["normal", "logistic"])
    def test_score_matches_numeric_theta_derivative(self, alt_name, null_name):
        alt = get_alternative(alt_name, null_name)
        x = np.linspace(-6, 6, 241)
        eps = 1e-5
        if alt_name == "contam":
            # one-sided: the mixture weight lives in [0, 1]
            numeric = (
                4.0 * alt.density(x, eps) - alt.density(x, 2 * eps) - 3.0 * alt.density(x, 0.0)
            ) / (2 * eps)
        else:
            numeric = (alt.density(x, eps) - alt.density(x, -eps)) / (2 * eps)
        assert np.max(np.abs(alt.score(x) - numeric)) < 1e-6

    @pytest.mark.parametrize("alt_name", ["fs", "contam"])
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_score_integrates_to_zero(self, alt_name, null_name):
        alt = get_alternative(alt_name, null_name)
        total, _ = quad(alt.score, -np.inf, np.inf, epsabs=1e-12, limit=200)
        assert total == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("alt_name", ["fs", "contam"])
    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_score_cumulative(self, alt_name, null_name):
        alt = get_alternative(alt_name, null_name)
        # antiderivative of the score, vanishing at both ends (the Cauchy
        # tail decays like 1/x, so its limit needs a far larger abscissa)
        far = 1e9 if null_name == "cauchy" else 40.0
        assert abs(alt.score_cumulative(-far)) < 1e-8
        assert abs(alt.score_cumulative(far)) < 1e-8
        for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
            val, _ = quad(alt.score, -np.inf, x, epsabs=1e-12, limit=200)
            assert alt.score_cumulative(x) == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_fernandez_steel_score_tails(self, null_name):
        # |x| f'(x) and x f(x) were inf * 0 = NaN at +-inf, with a warning; there they are the limit
        # 0, the sign of the score's side, and the largest floats are as close to it
        fs = get_alternative("fs", null_name)
        top = np.finfo(float).max
        for x in (np.inf, -np.inf):
            assert (fs.score(x), fs.score_cumulative(x)) == (0.0, 0.0)
            assert math.copysign(1.0, fs.score(x)) == -math.copysign(1.0, x)
        np.testing.assert_array_equal(fs.score(np.array([np.inf, -np.inf])), [-0.0, 0.0])
        far = np.array([top, -top])
        assert np.all(np.abs(fs.score(far)) <= 1e-300)
        assert np.all(np.abs(fs.score_cumulative(far)) <= 1e-300)

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_fernandez_steel_score_cumulative_against_mpmath(self, null_name):
        # F(-|x|) + |x| f(|x|) on both sides; 1 - F(x) + x f(x) cancelled for x > 0 (1.4% off on the
        # normal at 8.29, 2.6% on the logistic at 36.7, half the value on the Cauchy from 1e16), up
        # to where the density leaves the normal floats
        fs = get_alternative("fs", null_name)
        top = {"normal": 37.0, "logistic": 700.0, "cauchy": 3.7e153}[null_name]
        x = np.concatenate([np.linspace(0.0, min(top, 60.0), 601), np.geomspace(1e-10, top, 600)])
        exact = {
            "normal": lambda a: mp.erfc(a / mp.sqrt(2)) / 2 + a * mp.exp(-a * a / 2) / mp.sqrt(2 * mp.pi),
            "logistic": lambda a: 1 / (1 + mp.exp(a)) + a * mp.exp(-a) / (1 + mp.exp(-a)) ** 2,
            "cauchy": lambda a: mp.atan2(1, a) / mp.pi + a / (mp.pi * (1 + a * a)),
        }[null_name]
        with mp.workdps(50):
            want = np.array([float(exact(mp.mpf(float(v)))) for v in x])
        for side in (x, -x):
            np.testing.assert_allclose(fs.score_cumulative(side), want, rtol=1e-13, atol=0)

    def test_fernandez_steel_score_cumulative_in_the_far_cauchy_tail(self):
        # past about 3.8e153 the Cauchy density is subnormal: |x| f(|x|) kept few of its bits there
        # (2e-4 low at 1e160) and none from 2.5e161 on (half the value from 1e200 up)
        fs = get_alternative("fs", "cauchy")
        x = np.array([1e150, 1e155, 1e160, 2.5e161, 1e200, 1e300, np.finfo(float).max])
        with mp.workdps(50):
            want = np.array([float(mp.acot(a) / mp.pi + a / (mp.pi * (1 + a * a))) for a in map(mp.mpf, x)])
        for side in (x, -x):
            assert np.all(np.abs(fs.score_cumulative(side) - want) <= 2 * np.spacing(want))
            assert [fs.score_cumulative(v) for v in side] == list(fs.score_cumulative(side))

    def test_fernandez_steel_score_in_the_far_cauchy_tail(self):
        # |x| f'(x) = -2/(pi x |x|): f'(x) is subnormal past about 6.6e102, and the product read -0.0
        # from about 6.3e107 to 1.3e154, where the value is a normal float; the bits stay where f'
        # is normal
        fs = get_alternative("fs", "cauchy")
        x = np.concatenate([np.geomspace(1e100, 1e308, 2001), [6.3e107, 1e154, 1.3e154, np.finfo(float).max]])
        with mp.workdps(50):
            want = np.array([float(-2 * a * a / (mp.pi * (1 + a * a) ** 2)) for a in map(mp.mpf, x)])
        for side, sign in ((x, 1.0), (-x, -1.0)):
            got = fs.score(side)
            assert np.all(np.abs(got - sign * want) <= 2 * np.spacing(np.abs(want)))
            assert [fs.score(v) for v in side] == list(got)
        derivative = fs.base.density_derivative(x)
        normal = np.abs(derivative) >= np.finfo(float).tiny
        np.testing.assert_array_equal(fs.score(x)[normal], (x * derivative)[normal])
        assert np.all(fs.score(x[x < 1.3e154]) < 0.0)

    #: relative bound of the contamination ``score_cumulative`` where the value is a normal float:
    #: ``ndtr`` carries its argument's rounding times about ``x^2`` into the normal tail (measured
    #: 7.5e-15 at 10, 38 ulps); the logistic and Cauchy forms are within 2 ulps (measured 2.3e-16)
    CONTAMINATION_BOUND = {"normal": 1e-14, "logistic": 4e-16, "cauchy": 4e-16}

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_contamination_score_cumulative_against_mpmath(self, null_name):
        # F(x - 1) - F(x) lost every digit in the right tail: 3.7e-5 relative off on the Cauchy at
        # 3.2e5 and 0.0 against -3.1e-18 at 3.2e8; the normal read 0.0 against -1.1e-19 at 10.
        # The reference takes the lower tail F(1 - x) - F(-x) at 300 digits, enough to absorb the
        # Cauchy's cancellation up to 1e100
        contam = get_alternative("contam", null_name)
        cdf = {"normal": mp.ncdf, "logistic": lambda a: 1 / (1 + mp.exp(-a)),
               "cauchy": lambda a: mp.atan(a) / mp.pi + mp.mpf(1) / 2}[null_name]
        x = np.array([0.5, 1.0, 10.0, 1e3, 3.2e5, 3.2e8, 1e100])
        for side in (x, -x):
            with mp.workdps(300):
                want = np.array([float(cdf(a - 1) - cdf(a) if a < 0.5 else cdf(-a) - cdf(1 - a))
                                 for a in map(mp.mpf, side)])
            got = contam.score_cumulative(side)
            assert [contam.score_cumulative(v) for v in side] == list(got)
            normal = np.abs(want) >= np.finfo(float).tiny
            assert np.all(np.abs(got - want)[normal] <= self.CONTAMINATION_BOUND[null_name] * np.abs(want[normal]))
            assert np.all(np.abs(got[~normal]) < np.finfo(float).tiny), (null_name, got[~normal])

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_contamination_odd_score_against_mpmath(self, null_name):
        # h(x) - h(-x) = f(x - 1) - f(x + 1); as h(x) - h(-x) the Cauchy's cancelled about log10(x)
        # digits (1.4e-8 relative off at 3.2e8, 0.0 at 1e100), and its closed form is within 2e-16
        # (measured: 1.7e-16), as are the normal's and logistic's differences, exactly odd
        contam = get_alternative("contam", null_name)
        density = {"normal": mp.npdf, "logistic": lambda a: mp.exp(-a) / (1 + mp.exp(-a)) ** 2,
                   "cauchy": lambda a: 1 / (mp.pi * (1 + a * a))}[null_name]
        x = np.array([0.5, 1.0, 10.0, 1e3, 3.2e5, 3.2e8, 1e100])
        with mp.workdps(300):
            want = np.array([float(density(a - 1) - density(a + 1)) for a in map(mp.mpf, x)])
        got = contam.odd_score(x)
        assert [contam.odd_score(v) for v in x] == list(got)
        np.testing.assert_array_equal(contam.odd_score(-x), -got)
        normal = np.abs(want) >= np.finfo(float).tiny
        assert np.all(np.abs(got - want)[normal] <= 2e-16 * np.abs(want[normal]))
        assert np.all(np.abs(got[~normal]) < np.finfo(float).tiny), (null_name, got[~normal])

    def test_two_piece_mass_split(self, normal):
        # negative piece carries (1+theta)^2 / (1 + (1+theta)^2); checked by
        # quadrature of the density itself
        fs = get_alternative("fs", normal)
        for theta in (0.2, 0.5, -0.3):
            gamma = 1.0 + theta
            expected = gamma * gamma / (1.0 + gamma * gamma)
            val, _ = quad(lambda x: fs.density(x, theta), -np.inf, 0.0, epsabs=1e-12)
            assert val == pytest.approx(expected, abs=1e-10)
            assert fs.cdf(0.0, theta) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_two_piece_forms_only_its_own_piece(self, null_name):
        # the other piece's argument may overflow where the value is finite (RuntimeWarnings are
        # errors in this suite); an own argument past float64 is the piece's limit
        fs = get_alternative("fs", null_name)
        assert (fs.cdf(1e308, 1.0), fs.cdf(-1e308, -0.5)) == (1.0, 0.0)
        assert (fs.density(1e308, 1.0), fs.density(-1e308, -0.5)) == (0.0, 0.0)
        base = fs.base
        x = np.concatenate([np.linspace(-9.0, 9.0, 181), [-0.0, 5e-324, -5e-324]])
        for theta in (0.3, -0.5, 1.0):
            gamma = 1.0 + theta
            mass_neg = gamma * gamma / (1.0 + gamma * gamma)
            # both pieces at every x, where both are finite: the same bits
            neg = 2.0 * mass_neg * base.cdf(x / gamma)
            pos = mass_neg + (2.0 / (1.0 + gamma * gamma)) * (base.cdf(gamma * x) - 0.5)
            np.testing.assert_array_equal(fs.cdf(x, theta), np.where(x < 0.0, neg, pos))
            c = 2.0 / (gamma + 1.0 / gamma)
            density = c * np.where(x < 0.0, base.density(x / gamma), base.density(gamma * x))
            np.testing.assert_array_equal(fs.density(x, theta), density)


class TestSamplers:
    def test_deterministic(self, normal):
        a = normal.sample(1000, 42)
        b = normal.sample(1000, 42)
        np.testing.assert_array_equal(a, b)
        fs = get_alternative("fs", normal)
        np.testing.assert_array_equal(fs.sample(0.3, 500, 7), fs.sample(0.3, 500, 7))

    def test_refuses_an_empty_draw(self, normal):
        with pytest.raises(ValueError, match="sample size must be at least 1"):
            normal.sample(0, 1)

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_refuses_seeds_that_are_not_natural_numbers(self, normal, seed):
        # a float seed would draw the stream of its truncation, True that of 1
        with pytest.raises(ValueError, match="seed"):
            normal.sample(10, seed)
        with pytest.raises(ValueError, match="seed"):
            get_alternative("fs", normal).sample(0.3, 10, seed)

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_fernandez_steel_at_the_largest_uniform(self, null_name):
        # Generator.random tops out at 1 - 2^-53, where 0.5 + 0.5 u rounds to 1
        # and the base quantile used to raise; the other draws keep their bits
        top = 1.0 - 2.0**-53
        u = np.array([top, 0.5, 0.9, 1.0 - 2.0**-52, 2.0**-53, top])

        class Uniforms:  # a generator stub: the same uniforms for the side and the size
            def random(self, n, out):
                out[:] = u[:n]
                return out

        fs = get_alternative("fs", null_name)
        x = fs.sample(0.3, u.size, 0, rng=Uniforms())
        assert np.isfinite(x).all()
        gamma = 1.3
        rest = u != top
        half = fs.base.quantile(0.5 + 0.5 * u[rest])
        mirrored = np.where(u[rest] < gamma**2 / (1.0 + gamma**2), -gamma * half, half / gamma)
        assert (x[rest] == mirrored).all()
        assert (x[~rest] == fs.base.quantile(top) / gamma).all()

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    @pytest.mark.parametrize("theta", [1e200, "largest"])
    def test_fernandez_steel_where_the_square_of_gamma_overflows(self, null_name, theta):
        # the negative piece's mass gamma^2 / (1 + gamma^2) was inf / inf = NaN past
        # gamma = 1.34e154; it is its limit 1 there, and 1 already at the largest gamma
        # whose square is finite, so the cdf and the draws agree on both sides
        largest = math.sqrt(np.finfo(float).max)  # v * v is inf past the range (v**2 raises)
        while (up := math.nextafter(largest, math.inf)) * up < math.inf:
            largest = up
        while largest * largest == math.inf:
            largest = math.nextafter(largest, 0.0)
        gamma = largest if theta == "largest" else 1.0 + theta
        fs = get_alternative("fs", null_name)
        x = np.array([-1e100, -3.0, -1e-100, -0.0, 0.0, 1e-100, 2.0, 1e100])  # gamma x stays finite
        want = np.where(x < 0.0, 2.0 * fs.base.cdf(x / gamma), 1.0)
        assert fs.cdf(x, gamma - 1.0).tolist() == want.tolist()
        # every draw is mirrored onto x < 0
        rng = stream(3, 0)
        rng.random(1000)  # the sides
        u = np.clip(rng.random(1000), 2.0**-53, 1.0 - 2.0**-53)
        half = fs.base.quantile(np.minimum(0.5 + 0.5 * u, 1.0 - 2.0**-53))
        draws = fs.sample(gamma - 1.0, 1000, 3)
        assert draws.tolist() == (-gamma * half).tolist() and np.signbit(draws).all()

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    @pytest.mark.parametrize("alt_name", [None, "fs", "contam"])
    def test_each_draw_owns_fresh_memory_and_keeps_every_bit(self, null_name, alt_name):
        # the draws are the inverse CDF at the seeded stream's uniforms, bit for bit (the
        # alternatives first draw the side or the pick), and each call returns its own array
        model = get_null(null_name) if alt_name is None else get_alternative(alt_name, null_name)
        theta = () if alt_name is None else (0.3,)
        n = 5000
        rng = stream(17, 0)
        first = None if alt_name is None else rng.random(n)
        u = np.clip(rng.random(n), 2.0**-53, 1.0 - 2.0**-53)
        if alt_name is None:
            want = model.quantile(u)
        elif alt_name == "fs":
            gamma = 1.3
            half = model.base.quantile(np.minimum(0.5 + 0.5 * u, 1.0 - 2.0**-53))
            want = np.where(first < gamma * gamma / (1.0 + gamma * gamma), -gamma * half, half / gamma)
        else:
            want = model.base.quantile(u) + (first < 0.3)
        draws = [model.sample(*theta, n, 17) for _ in range(2)]
        for drawn in draws:
            assert drawn.view(np.uint64).tolist() == want.view(np.uint64).tolist()
            assert drawn.flags.owndata and drawn.flags.writeable
        assert not np.shares_memory(*draws)
        out = np.full(n, np.nan)  # a draw into a caller's array returns it, with the same bits
        assert model.sample(*theta, n, 17, out=out) is out
        assert out.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        read_only = np.empty(n)
        read_only.flags.writeable = False
        for bad in [np.empty((3, n)), np.empty((1, n)), np.empty(n + 1), np.empty(n, np.float32),
                    np.empty(n, ">f8"), list(out), np.empty(2 * n)[::2], read_only]:
            with pytest.raises((TypeError, ValueError), match="out must be"):
                model.sample(*theta, n, 17, out=bad)

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    @pytest.mark.parametrize("alt_name", [None, "fs", "contam"])
    def test_a_draw_allocates_only_its_own_arrays(self, null_name, alt_name):
        # a Monte Carlo chunk's 512 x 100 draws: past the draws (a fresh array, or the caller's
        # ``out``) and their transform's temporaries, the generator and numpy's cast buffers
        # stay under a quarter of the chunk (102400 bytes); a mirror or a shift by np.where
        # would hold two more arrays.  The temporaries: the Cauchy quantile's one, the
        # contamination's picks (held through the quantile), the two-piece side and flip (the
        # flip made after the quantile); the normal and the logistic hold none
        model = get_null(null_name) if alt_name is None else get_alternative(alt_name, null_name)
        theta = () if alt_name is None else (0.3,)
        n = 51_200
        temps = {None: 0, "fs": 2, "contam": 1}[alt_name] + (null_name == "cauchy" and alt_name != "fs")
        for out in (None, np.empty(n)):
            model.sample(*theta, n, 0, rng=stream(5, 0, 0), out=out)
            tracemalloc.start()
            try:
                model.sample(*theta, n, 0, rng=stream(5, 0, 1), out=out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (temps + (out is None)) * n * 8 + 102_400

    def test_null_sample_mean(self, normal):
        x = normal.sample(100_000, 11)
        assert abs(x.mean()) < 0.02

    def test_contamination_sample_mean(self, normal):
        contam = get_alternative("contam", normal)
        x = contam.sample(0.5, 100_000, 12)
        assert abs(x.mean() - 0.5) < 0.02

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    @pytest.mark.parametrize("alt_name", [None, "fs", "contam"])
    @pytest.mark.parametrize("theta", [0.0, 0.3])
    def test_kolmogorov_distance(self, null_name, alt_name, theta):
        null = get_null(null_name)
        if alt_name is None:
            if theta != 0.0:
                pytest.skip("null model has no asymmetry parameter")
            x = np.sort(null.sample(100_000, 21))
            cdf_vals = null.cdf(x)
        else:
            alt = get_alternative(alt_name, null)
            x = np.sort(alt.sample(theta, 100_000, 22))
            cdf_vals = alt.cdf(x, theta)
        n = x.size
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        dist = max(np.max(np.abs(upper - cdf_vals)), np.max(np.abs(cdf_vals - lower)))
        assert dist < 0.01
