import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, rule, run_state_machine_as_test

from helpers import exact_counting_value, run_in_threads, searchsorted_counts, sup_argument
from symlab import _threads, montecarlo, stats
from symlab.distributions import get_alternative, get_null
from symlab.efficiency import DEFAULT_TESTS
from symlab.montecarlo import _CAL, _EVAL, McConfig, _simulate, null_distribution, power
from symlab.errors import DegenerateSampleError, InsufficientSampleError
from symlab.stats import (
    _band_counts,
    _evaluate_rows,
    _magnitude_counts,
    STATISTIC_NAMES,
    StatisticSpec,
    StatisticValue,
    brute_force,
    evaluate,
    evaluate_many,
    parse_statistic,
)

ALL_IDS = [
    "S",
    "W",
    "KS",
    "BH_I",
    "BH_K",
    "NA_I_2",
    "NA_I_3",
    "NA_I_4",
    "NA_K_2",
    "NA_K_3",
    "NA_K_4",
    "MO_I_1",
    "MO_I_2",
    "MO_K_1",
    "MO_K_2",
]
MOMENT_IDS = ["CM", "GAMMA", "MGG", "SQRT_B1"]
SUP_IDS = [name for name in DEFAULT_TESTS if parse_statistic(name).family == "supremum"]


def tied_rows(rng, rows: int, n: int) -> np.ndarray:
    """Rows full of ties: small integers, halves with signed zeros, and exact +-v pairs."""
    ints = rng.integers(-3, 4, size=(rows, n)).astype(float)
    halves = rng.integers(-4, 5, size=(rows, n)) / 2.0
    halves[halves == 0.0] = rng.choice([0.0, -0.0], size=np.count_nonzero(halves == 0.0))
    v = np.where(rng.random((rows, n // 2)) < 0.5, rng.normal(size=(rows, n // 2)), ints[:, : n // 2])
    pairs = np.concatenate([v, -v, halves[:, : n % 2]], axis=1)
    kind = rng.integers(0, 3, size=(rows, 1))
    return np.select([kind == 0, kind == 1], [ints, halves], pairs)


class TestSpec:
    def test_parse(self):
        spec = parse_statistic("na_i_4", alpha=0.2)
        assert (spec.kind, spec.k, spec.alpha) == ("NA_I", 4, 0.2)
        assert parse_statistic("MO_K(2)").k == 2
        with pytest.raises(ValueError):
            parse_statistic("XX_9")
        with pytest.raises(ValueError):
            StatisticSpec("NA_I", k=1)  # k >= 2 for this family
        with pytest.raises(ValueError):
            StatisticSpec("S", k=3)
        # a non-integral k would only fail later, inside the counting kernel
        for k in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match="integer"):
                StatisticSpec("NA_K", k=k)
        assert StatisticSpec("MO_I", k=np.int64(2)).subset_size == 4

    def test_kernel_orders(self):
        orders = {
            "S": 1,
            "W": 2,
            "KS": 1,
            "BH_I": 3,
            "BH_K": 2,
            "NA_I_4": 5,
            "NA_K_4": 4,
            "MO_I_2": 5,
            "MO_K_2": 4,
        }
        for name, m in orders.items():
            assert parse_statistic(name).kernel_order == m

    def test_coinciding_definitions(self):
        assert parse_statistic("NA_I_2").order_pair == parse_statistic("MO_I_1").order_pair
        assert parse_statistic("NA_I_2").subset_size == parse_statistic("MO_I_1").subset_size


class TestHandValues:
    def test_sign_statistic(self):
        assert evaluate(StatisticSpec("S"), [-1, 2, 3, -4]).value == 0.0

    def test_wilcoxon_with_tie(self):
        # the pair (1, 3) is a tie with twice the mean and does not count
        assert evaluate(StatisticSpec("W"), [1, 2, 3]).value == 1 / 3 - 0.5

    def test_skewness_on_symmetric_sample(self):
        assert evaluate(StatisticSpec("SQRT_B1"), [-1, 0, 1]).value == 0.0

    def test_mean_median_statistics(self):
        x = [1, 2, 3, 10]
        s = math.sqrt(12.5)  # 1/n convention
        assert evaluate(StatisticSpec("CM"), x).value == pytest.approx(1.5 / s, rel=1e-15)
        assert evaluate(StatisticSpec("GAMMA"), x).value == pytest.approx(3.0, rel=1e-15)
        j = math.sqrt(math.pi / 2.0) * np.mean(np.abs(np.asarray(x) - 2.5))
        assert evaluate(StatisticSpec("MGG"), x).value == pytest.approx(1.5 / j, rel=1e-15)

    @pytest.mark.parametrize("name", ["BH_K", "NA_K_2", "MO_K_1"])
    def test_sup_argument_ties(self, name):
        spec = parse_statistic(name, alpha=0.5)
        # symmetric: every threshold ties at zero, the smallest positive one is reported
        assert evaluate(spec, [-2.0, -1.0, 0.0, 1.0, 2.0]) == StatisticValue(0.0, 1.0)
        # constant: no positive threshold at all
        assert evaluate(spec, [3.0, 3.0, 3.0]) == StatisticValue(0.0, 0.0)

    def test_ks_sup_on_open_segment(self):
        # centered at the median: y = (-1, 0, 0, 2, 2); n F_n(t) + n F_n(-t) - n is
        # 1 at t = 0, -1 on (0, 1], -2 on (1, 2) and 0 from 2 on, so the supremum
        # sits on an open segment, reported by its upper end
        value = evaluate(StatisticSpec("KS", alpha=0.5), [-4.0, -3.0, -3.0, -1.0, -1.0])
        assert value == StatisticValue(0.4, 2.0)


class TestErrors:
    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            evaluate(parse_statistic("NA_I_4"), [1.0, 2.0, 3.0])

    def test_degenerate_sample(self, rng):
        # one rule for the four moment kinds: a constant row is refused exactly, even where its mean
        # rounds off its value (three 0.1s gave CM = 1.0, SQRT_B1 = -1.0 and GAMMA = 2.8e-17)
        for kind in ("CM", "GAMMA", "MGG", "SQRT_B1"):
            for row in ([0.1] * 3, [0.7] * 7, [0.1] * 100, [2.0] * 3):
                with pytest.raises(DegenerateSampleError, match="^sample variance is zero$"):
                    evaluate(StatisticSpec(kind), row)
                chunk = rng.normal(size=(4, len(row)))
                chunk[2] = row
                with pytest.raises(DegenerateSampleError, match="^sample variance is zero$"):
                    evaluate_many(StatisticSpec(kind), chunk)
        # MGG needs no rule of its own: a spread of a few ulps, or a subnormal one, gives a finite
        # value or the shared refusal
        for row in ([0.0, 5e-324], [1.0, 1.0 + 2.0**-52], [0.0, 1e-160, 0.0, 1e-160]):
            try:
                assert math.isfinite(evaluate(StatisticSpec("MGG"), row).value)
            except DegenerateSampleError as exc:
                assert str(exc) == "sample variance is zero"

    def test_sqrtb1_refuses_a_scale_whose_cube_underflows(self):
        # a positive variance whose 3/2 power is subnormal or zero: the ratio would be NaN or keep few bits
        for x in ([-0.0, 6.81109192e-152], [0.0, 1e-105, 3e-105]):
            with pytest.raises(DegenerateSampleError, match="underflows"):
                evaluate(StatisticSpec("SQRT_B1"), x)
            assert math.isfinite(evaluate(StatisticSpec("CM"), x).value)

    def test_brute_force_refuses_large_n(self, rng):
        with pytest.raises(ValueError):
            brute_force(StatisticSpec("W"), rng.normal(size=15))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["S", "W", "KS", "NA_I_2", "MO_K_1", "CM"])
    def test_non_finite_sample_refused(self, name, bad, rng):
        spec = parse_statistic(name, alpha=0.25)
        x = rng.normal(size=10)
        x[3] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            evaluate(spec, x)
        samples = rng.normal(size=(4, 10))
        samples[2, 3] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            evaluate_many(spec, samples)
        if spec.family == "supremum":
            with pytest.raises(ValueError, match="NaN or infinite"):
                evaluate_many(spec, x[None, :], 0.5)

    @pytest.mark.parametrize("name", SUP_IDS)
    def test_nan_threshold_refused(self, name, rng):
        spec = parse_statistic(name, alpha=0.25)
        samples = rng.normal(size=(3, 20))
        with pytest.raises(ValueError, match="must not be NaN"):
            evaluate_many(spec, samples, t=math.nan)

    @pytest.mark.parametrize("name", ["S", "W", "NA_I_2"] + MOMENT_IDS)
    def test_threshold_refused_off_the_supremum_kinds(self, name, rng):
        spec = parse_statistic(name, alpha=0.25)
        samples = rng.normal(size=(3, 20))
        with pytest.raises(ValueError, match="supremum-type"):
            evaluate_many(spec, samples, t=0.5)


class TestOverflowRefused:
    """Finite samples whose centered powers overflow float64 are refused."""

    @pytest.mark.parametrize("name", ALL_IDS + MOMENT_IDS)
    def test_overflowing_sample_refused(self, name):
        spec = parse_statistic(name, alpha=0.25)
        x = [1.7e308, 1.7e308, -1.7e308, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        with pytest.raises(ValueError, match="overflows"):
            evaluate(spec, x)
        with pytest.raises(ValueError, match="overflows"):
            evaluate_many(spec, np.asarray([x, x[::-1]]))
        if spec.family == "supremum":
            with pytest.raises(ValueError, match="overflows"):
                evaluate_many(spec, np.asarray([x]), 1.0)

    @pytest.mark.parametrize("name", ["NA_K_600", "NA_I_600", "MO_K_300", "NA_I_335"])
    def test_subset_count_beyond_float_refused(self, name, rng):
        # 2 C(1200, p) passes float64 from p = 338 on, 2 n C(1200, p) from 330
        spec = parse_statistic(name)
        x = rng.normal(size=1200)
        with pytest.raises(ValueError, match="subsets"):
            evaluate(spec, x)
        with pytest.raises(ValueError, match="subsets"):
            evaluate_many(spec, x[None, :])
        if spec.family == "supremum":
            with pytest.raises(ValueError, match="subsets"):
                evaluate_many(spec, x[None, :], 1.0)

    @pytest.mark.parametrize("name", ["S", "KS", "NA_I_2", "MO_K_2"] + MOMENT_IDS)
    def test_exact_up_to_the_magnitude_limit(self, name, rng):
        # scaling by 2**k is exact, so up to the largest accepted scale every
        # value is the unscaled one (GAMMA's scaled by 2**k) bit for bit, and
        # one more doubling is refused
        spec = parse_statistic(name, alpha=0.25)
        x = rng.normal(size=12)
        base = evaluate(spec, x).value
        k = 0
        while True:
            try:
                scaled = evaluate(spec, x * 2.0 ** (k + 1)).value
            except ValueError as exc:
                assert "overflows" in str(exc)
                break
            k += 1
            assert scaled == (base * 2.0**k if name == "GAMMA" else base)
        assert k > 300


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", ALL_IDS)
    def test_fast_path_equals_enumeration(self, name, rng):
        for trial in range(40):
            n = int(rng.integers(5, 13))
            alpha = float(rng.choice([0.0, 0.1, 0.25, 0.5]))
            spec = parse_statistic(name, alpha=alpha)
            if n < spec.kernel_order:
                continue
            x = rng.normal(size=n) * rng.uniform(0.5, 3.0) + rng.normal()
            fast = evaluate(spec, x)
            slow = brute_force(spec, x)
            assert fast.value == slow.value

    @pytest.mark.parametrize("name", ALL_IDS)
    @given(
        data=st.data(),
        alpha=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fast_path_equals_enumeration_with_ties(self, name, data, alpha):
        # small integers tie with each other and, often, with the center
        spec = parse_statistic(name, alpha=alpha)
        values = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])
        x = data.draw(st.lists(values, min_size=spec.kernel_order, max_size=14))
        assert evaluate(spec, x).value == brute_force(spec, x).value

    def test_na2_coincides_with_mo1(self, rng):
        for _ in range(200):
            x = rng.normal(size=8)
            a = brute_force(parse_statistic("NA_I_2", alpha=0.25), x).value
            b = brute_force(parse_statistic("MO_I_1", alpha=0.25), x).value
            assert a == b
            a = evaluate(parse_statistic("NA_K_2", alpha=0.25), x).value
            b = evaluate(parse_statistic("MO_K_1", alpha=0.25), x).value
            assert a == b

    def test_sup_values_nonnegative(self, rng):
        for _ in range(50):
            x = rng.normal(size=10)
            assert brute_force(parse_statistic("MO_K_1"), x).value >= 0.0


class TestInvariances:
    @pytest.mark.parametrize("name", ALL_IDS + MOMENT_IDS)
    def test_location_invariance(self, name, rng):
        spec = parse_statistic(name, alpha=0.25)
        for _ in range(10):
            x = rng.normal(size=20)
            shift = float(rng.uniform(-30, 30))
            base = evaluate(spec, x).value
            moved = evaluate(spec, x + shift).value
            if spec.family == "moment" and name != "GAMMA":
                assert moved == pytest.approx(base, abs=1e-12)
            elif name == "GAMMA":
                assert moved == pytest.approx(base, abs=1e-10)
            else:
                assert moved == base

    @pytest.mark.parametrize("name", ALL_IDS)
    def test_scale_equivariance_of_indicators(self, name, rng):
        spec = parse_statistic(name, alpha=0.1)
        for _ in range(10):
            x = rng.normal(size=15)
            c = float(rng.uniform(0.2, 8.0))
            assert evaluate(spec, c * x).value == evaluate(spec, x).value

    @pytest.mark.parametrize("name", ALL_IDS + MOMENT_IDS)
    def test_sign_flip(self, name, rng):
        spec = parse_statistic(name, alpha=0.25)
        for _ in range(10):
            x = rng.normal(size=16)
            direct = evaluate(spec, x).value
            flipped = evaluate(spec, -x).value
            if spec.family == "supremum":
                assert flipped == direct
            elif name in ("CM", "GAMMA", "MGG"):
                assert flipped == -direct
            else:
                # counts complement under the flip, so the negation holds up
                # to one rounding of the final division; SQRT_B1 cubes by
                # np.power(centered, 3), which is not odd: pow(-v, 3) and
                # -pow(v, 3) differ in the last bit for about 5% of v
                assert flipped == pytest.approx(-direct, abs=1e-12)

    @pytest.mark.parametrize("name", ALL_IDS)
    def test_ranges(self, name, rng):
        spec = parse_statistic(name, alpha=0.25)
        for _ in range(20):
            x = rng.standard_cauchy(size=12)
            value = evaluate(spec, x).value
            if name in ("S", "W"):
                assert abs(value) <= 0.5
            elif spec.family == "supremum":
                assert 0.0 <= value <= 1.0
            else:
                assert -1.0 <= value <= 1.0


def _finite(bound: float):
    # no subnormal magnitudes, so scaling by 2**k stays exact
    return st.floats(-bound, bound).map(lambda v: 0.0 if abs(v) < 1e-100 else v)


class TestRowCoreProperties:
    """Exact properties of the one evaluation path, on arbitrary finite samples."""

    @pytest.mark.parametrize("name", ALL_IDS)
    @given(
        data=st.data(),
        alpha=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, name, data, alpha):
        spec = parse_statistic(name, alpha=alpha)
        x = np.asarray(
            data.draw(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False),
                    min_size=max(spec.kernel_order, 2),
                    max_size=16,
                )
            )
        )
        perm = np.asarray(data.draw(st.permutations(range(x.size))))
        try:
            base = evaluate(spec, x)
        except ValueError:
            # values the arithmetic cannot carry: every order is refused alike
            with pytest.raises(ValueError, match="overflows"):
                evaluate(spec, x[perm])
            with pytest.raises(ValueError, match="overflows"):
                evaluate_many(spec, np.stack([x[perm], x]))
            return
        assert evaluate(spec, x[perm]) == base
        batch = evaluate_many(spec, np.stack([x, x[perm], x[perm[::-1]]]))
        np.testing.assert_array_equal(batch, np.full(3, base.value))

    @pytest.mark.parametrize("name", ALL_IDS)
    @given(
        data=st.data(),
        alpha=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
        k=st.integers(-40, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_scaling_by_power_of_two(self, name, data, alpha, k):
        spec = parse_statistic(name, alpha=alpha)
        x = np.asarray(data.draw(st.lists(_finite(1e6), min_size=spec.kernel_order, max_size=16)))
        base = evaluate(spec, x)
        scaled = evaluate(spec, x * 2.0**k)
        assert scaled.value == base.value
        if base.sup_argument is not None:
            assert scaled.sup_argument == base.sup_argument * 2.0**k

    @pytest.mark.parametrize("name", ALL_IDS)
    @given(data=st.data(), shift=st.integers(-(10**6), 10**6))
    @settings(max_examples=25, deadline=None)
    def test_translation_by_an_integer(self, name, data, shift):
        # on integer data the center is exact in two cases: at alpha = 1/2 with
        # odd n it is the middle order statistic, and at alpha = 0 with n a
        # power of two every weight 1/n is a power of two; x + c then centers
        # to exactly the values x does
        alpha, sizes = data.draw(st.sampled_from([(0.5, range(1, 17, 2)), (0.0, (2, 4, 8, 16))]))
        spec = parse_statistic(name, alpha=alpha)
        n = data.draw(st.sampled_from([m for m in sizes if m >= spec.kernel_order]))
        ints = data.draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
        x = np.asarray(ints, dtype=float)
        assert evaluate(spec, x + shift) == evaluate(spec, x)

    @pytest.mark.parametrize("name", [n for n in ALL_IDS if n not in ("S", "W")])
    @given(data=st.data(), half=st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_sign_flip_about_the_median(self, name, data, half):
        # at alpha = 1/2 with odd n the center is the middle order statistic,
        # so -x centers to exactly the negated values; S and W count the zero
        # this leaves, so they are not odd
        spec = parse_statistic(name, alpha=0.5)
        n = 2 * half + 1
        if n < spec.kernel_order:
            n += 2 * ((spec.kernel_order - n + 1) // 2)
        x = np.asarray(data.draw(st.lists(_finite(1e6), min_size=n, max_size=n)))
        if name == "KS":
            # F_n is right-continuous and the flip turns it into left limits,
            # which agree only where no two |x - median| tie
            assume(np.unique(np.abs(x - np.median(x))).size == n)
        direct = evaluate(spec, x).value
        flipped = evaluate(spec, -x).value
        if spec.family == "supremum":
            assert flipped == direct
        else:
            assert flipped == -direct


# 512 rows is a full Monte Carlo chunk, 88 the partial chunk of 600 replications
CHUNK_ROWS = (1, 12, 88, 512)


class TestBatchEvaluation:
    @pytest.mark.parametrize("name", ALL_IDS + MOMENT_IDS)
    def test_matches_rowwise(self, name, rng):
        spec = parse_statistic(name, alpha=0.25)
        for rows in CHUNK_ROWS:
            samples = rng.normal(size=(rows, 18))
            batch = evaluate_many(spec, samples)
            single = np.asarray([evaluate(spec, row).value for row in samples])
            np.testing.assert_array_equal(batch, single)

    @pytest.mark.parametrize("name", ["KS", "BH_K", "NA_K_2", "MO_K_2"])
    def test_family_member_matches_rowwise(self, name, rng):
        spec = parse_statistic(name, alpha=0.1)
        t = 0.8
        for rows in CHUNK_ROWS:
            samples = rng.normal(size=(rows, 20))
            batch = evaluate_many(spec, samples, t=t)
            single = np.asarray([evaluate_many(spec, row[None, :], t)[0] for row in samples])
            np.testing.assert_array_equal(batch, single)

    def test_matches_rowwise_on_tied_data(self, rng):
        # a center one ulp off moves every observation tied with it
        spec = parse_statistic("NA_K_2", alpha=0.1)
        samples = np.round(2.0 * rng.normal(size=(512, 20)))
        batch = evaluate_many(spec, samples, t=1.0)
        single = np.asarray([evaluate_many(spec, row[None, :], 1.0)[0] for row in samples])
        np.testing.assert_array_equal(batch, single)

    @pytest.mark.parametrize("name", ["NA_I_4", "MO_I_2", "NA_K_10", "NA_I_10"])
    def test_long_row_single_and_batched_agree(self, name, rng):
        # past 2**63: the integral sums of NA_I_4 and MO_I_2 at n = 1e5, and
        # the subset counts themselves of NA_K_10 and NA_I_10 at n = 500
        spec = parse_statistic(name, alpha=0.25)
        x = rng.normal(size=100_000 if spec.subset_size == 4 else 500)
        single = evaluate(spec, x).value
        batch = evaluate_many(spec, x[None, :])[0]
        assert repr(float(batch)) == repr(single) == repr(exact_counting_value(spec, x))
        if spec.family == "supremum":
            for t in (0.3, 0.6, 1.5):
                member = float(evaluate_many(spec, x[None, :], t)[0])
                assert repr(member) == repr(exact_counting_value(spec, x, t))

    def test_sup_dominates_members(self, rng):
        spec = parse_statistic("NA_K_3", alpha=0.25)
        x = rng.normal(size=25)
        sup = evaluate(spec, x)
        for t in (0.2, 0.7, 1.4, 2.5):
            assert abs(evaluate_many(spec, x[None, :], t)[0]) <= sup.value + 1e-15
        assert abs(evaluate_many(spec, x[None, :], sup.sup_argument)[0]) == pytest.approx(
            sup.value, abs=1e-15
        )

    def test_statistic_names_registry(self):
        assert set(ALL_IDS + MOMENT_IDS) <= {
            parse_statistic(n, alpha=0.0).label
            for n in ALL_IDS + MOMENT_IDS
        }
        assert "S" in STATISTIC_NAMES


class TestMagnitudeCounts:
    """The kernel's counts off one sort per chunk, against one search per row."""

    @pytest.mark.parametrize("rows, n", [(1, 5000), (512, 100), (100, 2000)])
    def test_matches_per_row_search(self, rows, n, rng):
        ys = np.sort(tied_rows(rng, rows, n), axis=1)
        ys[0, :4] = [-1.0, -0.0, 0.0, 1.0]  # a run of both zeros next to a +-1 pair
        ys[0] = np.sort(ys[0])
        z, a, b = _magnitude_counts(ys)
        want_z, want_a, want_b = searchsorted_counts(ys)
        np.testing.assert_array_equal(z.view(np.int64), want_z.view(np.int64))
        np.testing.assert_array_equal(a, want_a)
        np.testing.assert_array_equal(b, want_b)

    @pytest.mark.parametrize("name", list(DEFAULT_TESTS) + ["NA_I_5", "MO_K_3"])
    def test_batch_equals_enumeration_on_tied_rows(self, name, rng):
        for alpha in (0.0, 0.25, 0.5):
            spec = parse_statistic(name, alpha=alpha)
            for n in (6, 9, 14):
                samples = tied_rows(rng, 8, n)
                want = [brute_force(spec, row).value for row in samples]
                np.testing.assert_array_equal(evaluate_many(spec, samples), want)

    @pytest.mark.parametrize("name", SUP_IDS + ["MO_K_3"])
    def test_sup_argument_rule_on_tied_rows(self, name, rng):
        for alpha in (0.0, 0.25, 0.5):
            spec = parse_statistic(name, alpha=alpha)
            for n in (6, 9, 14):
                for row in tied_rows(rng, 8, n):
                    assert evaluate(spec, row).sup_argument == sup_argument(spec, row)

    @staticmethod
    def ties_in(rng, rows: int, n: int, tied) -> np.ndarray:
        """Normal rows, with no repeated value or magnitude but in the rows ``tied``: there a value
        repeats (odd rows) or comes back negated (even rows)."""
        x = rng.normal(size=(rows, n))
        for r in tied:
            i, j = rng.choice(n, size=2, replace=False)
            x[r, j] = x[r, i] if r % 2 else -x[r, i]
        return x

    @pytest.mark.parametrize("where", ["nowhere", "after row 0", "in the last row"])
    def test_ties_off_row_0_are_carried(self, where, rng):
        # the carry of each run's first index is skipped only when no row of the
        # chunk repeats a magnitude, which the flags of every row must decide (at
        # alpha = 1/2 centering also makes the middle pair of an even row a +-pair)
        for rows, n in [(2, 6), (5, 9), (8, 14), (512, 100)]:
            tied = {"nowhere": [], "after row 0": range(1, rows), "in the last row": [rows - 1]}[where]
            ys = np.sort(self.ties_in(rng, rows, n, tied), axis=1)
            z, a, b = _magnitude_counts(ys)
            want_z, want_a, want_b = searchsorted_counts(ys)
            np.testing.assert_array_equal(z.view(np.int64), want_z.view(np.int64))
            np.testing.assert_array_equal(a, want_a)
            np.testing.assert_array_equal(b, want_b)
            x = self.ties_in(rng, rows, n, tied)
            x[list(tied), -1] = x[list(tied), 0]  # a value tie stays a magnitude tie after centering
            for name in list(DEFAULT_TESTS[:15]) + ["NA_I_5", "MO_K_3"]:
                for alpha in (0.0, 0.25, 0.5):
                    spec = parse_statistic(name, alpha=alpha)
                    if n < spec.kernel_order:
                        continue
                    values, args = _evaluate_rows(spec, x)
                    for i in range(rows) if rows < 10 else (0, 1, rows - 2, rows - 1):
                        want = evaluate(spec, x[i])
                        assert repr(float(values[i])) == repr(want.value)
                        if n <= 14:
                            assert want.value == brute_force(spec, x[i]).value
                        if args is not None:
                            assert repr(float(args[i])) == repr(want.sup_argument)

    @pytest.mark.parametrize(
        "name, cold, miss_mib, hit_mib",
        [("KS", False, 3.82, 1.02), ("NA_I_4", False, 3.82, 1.53), ("NA_I_4", True, 6.11, 1.53),
         ("MO_I_2", False, 3.82, 1.53), ("MO_I_2", True, 4.59, 1.53), ("S", False, 3.82, 0.16),
         ("W", False, 3.82, 1.53), ("CM", False, 1.53, 0.10), ("SQRT_B1", False, 1.53, 0.77)],
    )
    def test_peak_memory_at_a_long_row(self, name, cold, miss_mib, hit_mib):
        # the traced peaks of a fresh long row (numpy 2.4.6), once with another
        # row's entry in the working set (and, if cold, no kept band table) and once with its own
        spec = parse_statistic(name, alpha=0.25)
        rng = np.random.default_rng(1)
        _evaluate_rows(spec, rng.normal(size=(1, 100_000)))
        if cold:
            stats._bands.clear()
        x = rng.normal(size=(1, 100_000))
        for mib in (miss_mib, hit_mib):
            tracemalloc.start()
            try:
                _evaluate_rows(spec, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= mib * 2**20


class TestMedianBySort:
    """The moment kinds take the median as the mean of a sorted copy's middle one or two values,
    the arithmetic of ``np.median``, which partitions instead.

    Sorting and partitioning may leave 0.0 and -0.0 in different places, so the median could
    come out as the other zero: the same value.  ``|x - med|`` is then equal either way, and
    ``xbar - med`` differs only when ``xbar`` is -0.0: a row of -0.0 alone (zero variance,
    refused) or a negative sum that the division by ``n`` rounds to -0.0, as in the subnormal
    rows below, where only the sign of a zero gap could move; CM, GAMMA and MGG read it as +0.0.
    numpy's sort and partition place the zeros alike on every row here, so the tests pin every bit.
    """

    @staticmethod
    def chunks(rng):
        for n in (2, 3, 4, 7, 8, 14, 100, 101):
            below, zeros = (n - 1) // 2, min(3, n - (n - 1) // 2)  # the middle holds zeros
            middle = np.concatenate([-rng.random((6, below)) - 0.5, np.zeros((6, zeros)),
                                     rng.random((6, n - below - zeros)) + 0.5], axis=1)
            middle = rng.permuted(middle, axis=1)
            k = max((n - 4) // 2, 0)  # +-v pairs, zeros, then -5e-324 last: a mean rounded to -0.0
            v = rng.integers(1, 5, size=(6, k)) / 2.0
            subnormal = np.concatenate([np.stack([v, -v], axis=2).reshape(6, 2 * k),
                                        np.zeros((6, n - 1 - 2 * k)), np.full((6, 1), -5e-324)], axis=1)
            for x in (rng.normal(size=(6, n)), tied_rows(rng, 6, n), middle, subnormal):
                zero = x == 0.0
                x[zero] = rng.choice([0.0, -0.0], size=np.count_nonzero(zero))  # of both signs
                x = x[np.mean(np.square(x - x.mean(axis=1)[:, None]), axis=1) > 0.0]  # else refused
                if len(x):
                    yield x

    def test_the_median_equals_np_median(self, rng):
        for x in self.chunks(rng):
            want = [repr(float(m)) for m in np.median(x, axis=1)]
            assert [repr(float(m)) for m in stats._moments(x)[1]] == want
            assert [repr(float(stats._moments(row[None, :])[1][0])) for row in x] == want

    def test_the_median_kinds_equal_an_np_median_computation(self, rng):
        seen_negative_zero_mean = False
        for x in self.chunks(rng):
            xbar = x.mean(axis=1)
            seen_negative_zero_mean |= bool(np.any(np.signbit(xbar) & (xbar == 0.0)))
            med = np.median(x, axis=1)
            gap = (xbar - med) + 0.0  # a zero gap of either sign is +0.0
            mad = math.sqrt(math.pi / 2.0) * np.mean(np.abs(x - med[:, None]), axis=1)
            want = {"CM": gap / np.sqrt(np.mean(np.square(x - xbar[:, None]), axis=1)),
                    "GAMMA": 2.0 * gap, "MGG": gap / mad}
            for name, values in want.items():
                spec = parse_statistic(name)
                expected = [repr(float(v)) for v in values]
                assert [repr(float(v)) for v in evaluate_many(spec, x)] == expected
                assert [repr(evaluate(spec, row).value) for row in x] == expected
        assert seen_negative_zero_mean

    @pytest.mark.parametrize("name", ["CM", "GAMMA", "MGG"])
    def test_a_zero_gap_is_positive_whatever_the_order(self, name):
        # the mean is -0.0 and the middle zero's sign follows the sort: both signs came out before
        rows = np.array(list(itertools.permutations([1.0, -1.0, 0.0, -0.0, -5e-324])))
        spec = parse_statistic(name)
        values = [evaluate(spec, row).value for row in rows] + list(evaluate_many(spec, rows))
        assert {repr(float(v)) for v in values} == {"0.0"}


class TestWorkingSet:
    """Chunks of several rows run in the calling thread's reused arrays; no output may see them."""

    SHAPES = [(512, 100), (88, 100), (100, 2000), (1, 1000), (512, 100)]

    def test_outputs_are_private_and_equal_fresh_rows(self, rng):
        first_spec = parse_statistic("NA_K_2", alpha=0.25)
        first = rng.normal(size=(512, 100))
        values, args = _evaluate_rows(first_spec, first)
        kept = values.copy(), args.copy()
        for rows, n in self.SHAPES:
            x = np.where(rng.random((rows, n)) < 0.5, rng.normal(size=(rows, n)),
                         np.round(rng.normal(size=(rows, n))))
            picks = sorted({0, rows // 3, rows - 1})
            for name in ALL_IDS + MOMENT_IDS:
                spec = parse_statistic(name, alpha=0.25)
                thresholds = [None, 0.0, 0.7] if spec.family == "supremum" else [None]
                for t in thresholds:
                    got, got_args = _evaluate_rows(spec, x, t)
                    for i in picks:  # one row alone is evaluated in fresh memory
                        want, want_arg = _evaluate_rows(spec, x[i][None, :], t)
                        assert repr(float(got[i])) == repr(float(want[0]))
                        if got_args is not None:
                            assert repr(float(got_args[i])) == repr(float(want_arg[0]))
        np.testing.assert_array_equal(values, kept[0])
        np.testing.assert_array_equal(args, kept[1])
        np.testing.assert_array_equal(_evaluate_rows(first_spec, first)[0], kept[0])

    @pytest.mark.parametrize("name", ["S", "W", "KS", "NA_K_2", "MO_I_2", "CM", "SQRT_B1"])
    def test_a_repeated_chunk_allocates_under_a_quarter_chunk(self, name, rng):
        # what a second same-shape chunk still allocates (small per-row
        # results and numpy's own cast buffers) stays under a quarter of one
        # 512 x 100 chunk of floats, 102400 bytes
        spec = parse_statistic(name, alpha=0.25)
        x = rng.normal(size=(512, 100))
        evaluate_many(spec, x)
        tracemalloc.start()
        try:
            evaluate_many(spec, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 102_400


class TestLastSample:
    """A single row's counts serve the next S, W, KS or BH/NA/MO statistic on the same row bits and
    alpha, its moments the next moment kind on the same bits; the kept-state machine below checks
    the values of any order of calls."""

    COUNTING = [name for name in ALL_IDS if name != "S"]

    @staticmethod
    def fresh(spec, x, t=None):
        """The row's value and argument in a two-row chunk, which the thread does not keep."""
        values, args = _evaluate_rows(spec, np.stack([x, x]), t)
        return float(values[0]), None if args is None else float(args[0])

    @staticmethod
    def single(spec, x, t=None):
        values, args = _evaluate_rows(spec, np.asarray(x)[None, :], t)
        return float(values[0]), None if args is None else float(args[0])

    def test_an_array_changed_in_place_is_evaluated_anew(self, rng):
        x = rng.normal(size=300)
        for name in self.COUNTING:
            spec = parse_statistic(name, alpha=0.25)
            assert self.single(spec, x) == self.fresh(spec, x)
            x[int(rng.integers(300))] = rng.normal() * 3.0
            assert self.single(spec, x) == self.fresh(spec, x)

    def test_only_the_same_bits_and_alpha_hit(self, rng):
        x = np.round(rng.normal(size=40))
        zero = np.flatnonzero(x == 0.0)[0]
        x[zero] = 0.0  # rounding may have left -0.0 there
        spec = parse_statistic("NA_K_3", alpha=0.25)
        evaluate(spec, x)
        counts = stats._pool.entry["counts"]
        evaluate(parse_statistic("KS", alpha=0.25), x.copy())
        assert stats._pool.entry["counts"] is counts  # equal bits in another array hit
        flipped = x.copy()
        flipped[zero] = -0.0
        changed = [(spec, flipped), (parse_statistic("NA_K_3", alpha=0.1), x), (spec, x[:-1])]
        for other, row in changed:
            evaluate(spec, x)
            counts = stats._pool.entry["counts"]
            assert evaluate(other, row) == StatisticValue(*self.fresh(other, row))
            entry = stats._pool.entry
            assert entry["counts"] is not counts and entry["counts"][0] == other.alpha
            np.testing.assert_array_equal(entry["key"], row.view(np.uint64))
        evaluate(spec, x)
        entry = stats._pool.entry
        evaluate_many(spec, rng.normal(size=(3, 50)))  # a chunk at another n neither reads nor drops it
        assert stats._pool.entry is entry and entry["key"].tobytes() == x.tobytes()
        assert evaluate(spec, x) == StatisticValue(*self.fresh(spec, x)) and stats._pool.entry is entry

    def test_other_statistics_in_any_order_change_no_output(self, rng):
        x = tied_rows(rng, 1, 500)[0]
        calls = [(parse_statistic(name, alpha=0.25), None) for name in ALL_IDS + MOMENT_IDS]
        calls += [(spec, t) for spec, _ in calls if spec.family == "supremum" for t in (0.0, 0.7)]
        want = {i: self.fresh(spec, x, t) for i, (spec, t) in enumerate(calls)}
        for _ in range(4):
            for i in rng.permutation(len(calls)):
                spec, t = calls[i]
                assert self.single(spec, x, t) == want[i]

    def test_the_default_battery_in_any_order_equals_fresh_rows(self, rng):
        for x in (rng.normal(size=700), tied_rows(rng, 1, 301)[0]):
            for alpha in (0.0, 0.25):
                specs = [parse_statistic(name, alpha=alpha) for name in DEFAULT_TESTS]
                want = [repr(self.fresh(spec, x)) for spec in specs]
                for _ in range(4):
                    for i in rng.permutation(len(specs)):
                        assert repr(self.single(specs[i], x)) == want[i]

    def test_moments_outlive_a_counting_kind_at_another_alpha(self, rng):
        x = rng.normal(size=500)
        evaluate(parse_statistic("CM"), x)
        entry = stats._pool.entry
        key, moments = entry["key"], entry["moments"]
        for name, alpha in [("KS", 0.1), ("NA_K_3", 0.25), ("S", 0.5)]:
            evaluate(parse_statistic(name, alpha=alpha), x)
            for kind in MOMENT_IDS:
                spec = parse_statistic(kind, alpha=alpha)
                assert self.single(spec, x) == self.fresh(spec, x)
                assert stats._pool.entry["key"] is key and stats._pool.entry["moments"] is moments
                assert stats._pool.entry["counts"][0] == alpha

    def test_a_changed_or_sign_flipped_row_misses(self, rng):
        x = np.round(rng.normal(size=60) * 2.0) / 2.0
        zero = np.flatnonzero(x == 0.0)[0]
        x[zero] = 0.0
        for name in ["S"] + MOMENT_IDS:
            spec = parse_statistic(name, alpha=0.25)
            flipped = x.copy()
            flipped[zero] = -0.0
            for row in (flipped, x):
                evaluate(spec, x)
                entry = stats._pool.entry
                if row is x:  # changed in place
                    x[(zero + 1) % x.size] += 0.25
                assert self.single(spec, row) == self.fresh(spec, row)
                assert stats._pool.entry is not entry
                np.testing.assert_array_equal(stats._pool.entry["key"], row.view(np.uint64))

    @staticmethod
    def check_enumeration_at_zeros(name, rng):
        # at n = 1, and at the median of integer rows, some centered values are exactly 0
        samples = [rng.normal(size=1), np.zeros(1), np.array([-0.0]), np.array([0.0, -0.0]),
                   np.array([-1.0, -0.0, 0.0, 1.0])]
        samples += [row for n in (2, 6, 9, 14) for row in tied_rows(rng, 6, n)]
        for x in samples:
            for alpha in (0.0, 0.25, 0.5):
                spec = parse_statistic(name, alpha=alpha)
                if x.size < spec.kernel_order:  # W at n = 1: both refuse
                    for path in (brute_force, evaluate):
                        with pytest.raises(InsufficientSampleError):
                            path(spec, x)
                    continue
                want = brute_force(spec, x).value
                assert evaluate(spec, x).value == want  # it makes the entry
                assert evaluate(spec, x).value == want  # and reads it
                evaluate(parse_statistic("KS", alpha=alpha), x.copy())  # another kind's entry
                assert evaluate(spec, x).value == want

    def test_s_equals_enumeration_at_zeros_and_one_value(self, rng):
        self.check_enumeration_at_zeros("S", rng)

    def test_w_equals_enumeration_at_zeros_and_one_value(self, rng):
        # W counts the positives at each magnitude, paired with the smaller magnitudes and one
        # another, off the kept counts; a zero of either sign is no positive
        self.check_enumeration_at_zeros("W", rng)

    def test_threads_keep_their_own_entries(self, rng):
        samples = [rng.normal(size=2000) for _ in range(4)]
        specs = [parse_statistic(name, alpha=0.25) for name in self.COUNTING]
        want = [[self.fresh(spec, x) for spec in specs] for x in samples]

        def battery(i):
            got = [[self.single(spec, samples[i]) for spec in specs] for _ in range(5)]
            return got, stats._pool.entry["key"]

        for i, (got, key) in enumerate(run_in_threads(battery, len(samples))):
            assert got == [want[i]] * 5
            np.testing.assert_array_equal(key, samples[i].view(np.uint64))

    def test_a_repeated_sample_equals_enumeration(self, rng):
        for alpha in (0.0, 0.25, 0.5):
            for n in (6, 9, 14):
                for x in tied_rows(rng, 3, n):
                    for _ in range(2):
                        for name in self.COUNTING + ["MO_K_3", "NA_I_5"]:
                            spec = parse_statistic(name, alpha=alpha)
                            if n < spec.kernel_order:
                                continue
                            got = evaluate(spec, x)
                            assert got.value == brute_force(spec, x).value
                            if spec.family == "supremum":
                                assert got.sup_argument == sup_argument(spec, x)

    def test_a_refused_sample_still_raises(self, rng):
        ks = parse_statistic("KS")
        x = rng.normal(size=1200)
        evaluate(ks, x)
        with pytest.raises(ValueError, match="subsets"):
            evaluate(parse_statistic("MO_K_300"), x)
        evaluate(ks, x[:3])
        with pytest.raises(InsufficientSampleError):
            evaluate(parse_statistic("NA_I_4"), x[:3])
        evaluate(ks, x)
        y = x.copy()
        y[7] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            evaluate(ks, y)
        y[7] = 1.7e308
        with pytest.raises(ValueError, match="overflows"):
            evaluate(ks, y)
        x[7] = np.nan  # the kept sample itself, changed in place
        with pytest.raises(ValueError, match="NaN or infinite"):
            evaluate(ks, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e102])
    def test_a_kept_row_changed_to_a_refused_value_is_refused(self, bad, rng):
        # the entry's facts (its bits checked finite, their peak) are the kept bits' alone: a row
        # changed in place misses and is refused as on a fresh thread (1e102 by SQRT_B1 alone)
        x = rng.normal(size=200)
        specs = [parse_statistic(name, alpha=0.25) for name in DEFAULT_TESTS]
        calls = [lambda spec=spec: evaluate(spec, x) for spec in specs]
        calls += [lambda spec=spec: evaluate_many(spec, x[None, :], 0.7) for spec in specs
                  if spec.family == "supremum"]
        for call in calls:
            call()
        x[17] = bad
        refused = set()
        for i, call in enumerate(calls):
            got = outcome(call)
            assert got == run_in_threads(lambda _: outcome(call), 1)[0]
            if got[0] == "refused":
                refused.add(i)
        assert refused == ({DEFAULT_TESTS.index("SQRT_B1")} if bad == 1e102 else set(range(len(calls))))

    def test_the_entry_is_read_only(self, rng):
        x = rng.normal(size=100)
        for name in ["S"] + self.COUNTING + MOMENT_IDS:
            evaluate(parse_statistic(name, alpha=0.25), x)
            entry = stats._pool.entry
            for array in [entry["key"]] + [array for part in ("counts", "moments", "members") if part in entry
                                           for array in entry[part][1]]:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[..., 0] = 0


@st.composite
def machine_rows(draw):
    """A sample of 1, 2, 7 or 20 values: floats (subnormals and zeros of both signs among them),
    ties, or at n = 7 a row of +-v pairs, two zeros and -5e-324, whose mean rounds to -0.0 and
    whose median is a zero (as in TestMedianBySort)."""
    n = draw(st.sampled_from([1, 2, 7, 20]))
    if n == 7 and draw(st.booleans()):
        v = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=2, max_size=2))
        zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=2, max_size=2))
        return np.array([v[0], -v[0], v[1], -v[1], *zeros, -5e-324])
    ties = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 5e-324, -5e-324])
    return np.array(draw(st.lists(ties | st.floats(-4.0, 4.0), min_size=n, max_size=n)))


MACHINE_SPECS = st.builds(parse_statistic, st.sampled_from(list(DEFAULT_TESTS) + ["NA_I_5", "MO_K_3"]),
                          st.sampled_from([0.0, 0.25, 0.5]))
BATTERIES = st.lists(MACHINE_SPECS, min_size=1, max_size=3)  # statistics on one sample in turn
THRESHOLDS = st.sampled_from([0.0, 0.5, 0.7, 1.5])
MEMBER_SPECS = st.builds(parse_statistic, st.sampled_from(SUP_IDS + ["MO_K_3"]), st.sampled_from([0.0, 0.25, 0.5]))
THETAS = st.sampled_from([0.0, 0.3, 0.6, 1.5, -1.5])  # contam refuses 1.5, both -1.5
# a simulation changes at most one part of the last one, so that consecutive simulations
# often differ in one part of the draw key, or in the statistic or alpha alone
SIMULATION_PARTS = st.one_of(*(st.tuples(st.just(part), values) for part, values in {
    "null": st.sampled_from(["normal", "logistic", "cauchy"]),
    "kind": st.sampled_from([None, "fs", "contam"]),
    "theta": THETAS,
    "seed": st.integers(0, 2),
    "reps": st.sampled_from([300, 513]),  # one chunk; a full chunk and a 1-row tail
    "n": st.sampled_from([1, 2, 7, 20]),
}.items()))


def outcome(call):
    """What ``call()`` gives, comparable repr for repr and byte for byte: its result or its refusal."""
    try:
        value = call()
    except ValueError as error:
        return "refused", type(error), str(error)
    if isinstance(value, np.ndarray):
        return "array", value.dtype, value.shape, value.tobytes()
    return "value", repr(value)


class KeptState(RuleBasedStateMachine):
    """Evaluations and simulations in any order give what each gives alone in a fresh thread.

    A sample is evaluated again after one of its values changes in place or its zeros flip
    between 0.0 and -0.0, and a simulation differs from the last one in one part at a time,
    so the kept entry meets every near miss.
    """

    samples = Bundle("samples")

    def __init__(self):
        super().__init__()
        vars(stats._pool).clear()  # each run starts as a fresh thread does, so a failure replays
        montecarlo._sorted_null.cache_clear()
        self.last = {"null": "normal", "kind": None, "theta": 0.3, "seed": 0, "reps": 300, "n": 7}

    @staticmethod
    def check(call, row=None):
        got = outcome(call)
        if row is not None and got[0] != "refused":
            # no value depends on the sign of a zero in the data (numpy's sums start at +0.0), so
            # only the entry's key shows that a row with its zeros flipped missed
            assert stats._pool.entry["key"].tobytes() == row.tobytes()
        montecarlo._sorted_null.cache_clear()
        assert got == run_in_threads(lambda i: outcome(call), 1)[0]

    def simulation(self, change=None):
        self.last.update([change] if change else [])
        sim = self.last
        null = get_null(sim["null"])
        cfg = McConfig(n=sim["n"], reps=sim["reps"], seed=sim["seed"])
        return null, cfg, sim["kind"], sim["theta"]

    @rule(target=samples, x=machine_rows())
    def new_sample(self, x):
        return x

    @rule(x=samples, battery=BATTERIES, change=st.none() | st.just("flip") | st.tuples(
        st.integers(0, 19), st.floats(-4.0, 4.0)))
    def evaluate(self, x, battery, change):
        for spec in battery:
            self.check(lambda: evaluate(spec, x), row=x)
        if change == "flip":  # the zeros' signs flipped in place
            x[x == 0.0] *= -1.0
        elif change is not None:  # one value changed in place
            x[change[0] % x.size] = change[1]
        if change is not None:
            for spec in battery:
                self.check(lambda: evaluate(spec, x), row=x)

    @rule(x=samples, rows=st.integers(1, 3), battery=BATTERIES, t=st.none() | THRESHOLDS)
    def evaluate_many(self, x, rows, battery, t):
        chunk = np.stack([x, -x, x[::-1]])[:rows]
        for spec in battery:
            member = t if spec.family == "supremum" else None
            row = x if rows == 1 else None  # a row the entry keeps
            self.check(lambda: evaluate_many(spec, chunk, member), row=row)

    @rule(battery=BATTERIES, t=st.none() | THRESHOLDS, steps=st.lists(
        st.tuples(st.none() | SIMULATION_PARTS, st.booleans()), min_size=3, max_size=3))
    def null_distribution(self, battery, t, steps):
        for spec, (change, evaluation) in zip(battery, steps):
            null, cfg, kind, theta = self.simulation(change)
            member = t if spec.family == "supremum" else None
            if not evaluation:
                self.check(lambda: null_distribution(spec, null, cfg, member))
            elif kind is None:  # the null's evaluation draws: its calibration key but for the purpose
                self.check(lambda: _simulate(spec, null, None, cfg, _EVAL, member))
            else:  # the alternative draws of power
                alt = get_alternative(kind, null)
                self.check(lambda: _simulate(spec, alt, theta, cfg, _EVAL, member))

    @rule(x=samples, specs=st.lists(MEMBER_SPECS, min_size=1, max_size=3), change=st.none() | SIMULATION_PARTS,
          ts=st.lists(st.sampled_from([0.0, -0.0, 0.5, 0.7, 1.5]), min_size=2, max_size=2, unique_by=repr))
    def members(self, x, specs, change, ts):
        """Members at one threshold, then another, then the first again, on kept draws and on one row."""
        null, cfg, _, _ = self.simulation(change)
        for t in (*ts, ts[0]):
            for spec in specs:
                self.check(lambda: null_distribution(spec, null, cfg, t))
        for t in (*ts, ts[0]):
            for spec in specs:
                self.check(lambda: evaluate_many(spec, x[None, :], t), row=x)

    @rule(spec=MACHINE_SPECS, change=SIMULATION_PARTS, curve=st.lists(THETAS, max_size=2))
    def power(self, spec, change, curve):
        null, cfg, kind, theta = self.simulation(change)
        alt = get_alternative(kind or "fs", null)
        for theta in [theta, *curve]:  # a power curve: its calibration is cached after the first
            self.check(lambda: power(spec, alt, theta, cfg))


def test_kept_state_changes_no_result():
    run_state_machine_as_test(KeptState, settings=settings(max_examples=60, stateful_step_count=25,
                                                           deadline=None))


@pytest.mark.full
def test_kept_state_changes_no_result_at_length():
    run_state_machine_as_test(KeptState, settings=settings(max_examples=600, stateful_step_count=25,
                                                           deadline=None))


@pytest.mark.parametrize("reuse", ["battery", "members", "draws"])
def test_each_kept_reuse_fires(reuse, streams, centerings, normal, monkeypatch):
    """The reuses the benchmark runs on: one finite pass and one centering of a sample for the
    default battery; one draw (split by rows on two CPUs), one finite pass, one centering and one
    counting pass for the 7 members of the default battery at n = 2000 with 100 replications.  And
    one draw and one finite pass for a one-chunk (300-rep) simulation across statistics, each
    counting statistic centering the kept draws anew; the benchmark's 600-rep simulations are
    several chunks, which keep nothing (:func:`test_a_simulation_of_several_chunks_keeps_nothing`)."""
    passes, counted = [], []  # the shapes the finite pass reads, the thresholds counted at
    check, count = stats.check_sample, stats._threshold_counts

    def checked(sample, ndim=1, finite=True):
        if finite:
            passes.append(np.shape(sample))
        return check(sample, ndim, finite)

    monkeypatch.setattr(stats, "check_sample", checked)
    monkeypatch.setattr(stats, "_threshold_counts", lambda ys, t: counted.append(t) or count(ys, t))
    if reuse == "battery":
        x = np.random.default_rng(5).normal(size=10_000)
        for name in DEFAULT_TESTS:
            evaluate(parse_statistic(name, alpha=0.25), x)
        assert (streams, centerings, passes) == ([], [(10_000, 0.25)], [(1, 10_000)])
    elif reuse == "members":
        cfg = McConfig(n=2000, reps=100, seed=84)
        for cpus in (1, 2):  # the 200,000-value draw reads the chunk's stream once per range of rows
            monkeypatch.setattr(_threads, "_usable_cpus", lambda: cpus)
            stats._pool.entry = None
            for calls in (streams, centerings, passes, counted):
                calls.clear()
            for name in SUP_IDS:
                null_distribution(parse_statistic(name, alpha=0.25), normal, cfg, t=0.6)
            assert (streams, centerings, passes, counted) == (
                [(84, _CAL, 0)] * cpus, [(2000, 0.25)], [(100, 2000)], [0.6])
    else:
        cfg = McConfig(n=40, reps=300, seed=61)
        for name in ("W", "NA_K_2", "KS", "CM", "S", "SQRT_B1"):
            null_distribution(parse_statistic(name, alpha=0.25), normal, cfg)
        assert (streams, centerings, passes) == ([(61, _CAL, 0)], [(40, 0.25)] * 4, [(300, 40)])


def test_a_simulation_of_several_chunks_keeps_nothing(streams, normal, monkeypatch):
    """Shaped like the benchmark's Monte Carlo: 600 replications of n = 100 on two CPUs, chunk 0's rows
    [0, 300) on the worker, its rows [300, 512) and chunk 1 on the calling thread, for three statistics
    in turn.  Each opens its streams again, the worker keeps no entry, and the calling thread keeps the
    row it evaluated before."""
    monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
    x = np.random.default_rng(6).normal(size=100)
    evaluate(parse_statistic("W", alpha=0.25), x)
    entry = stats._pool.entry
    cfg = McConfig(n=100, reps=600, seed=62)
    for name in ("W", "NA_K_2", "KS"):
        null_distribution(parse_statistic(name, alpha=0.25), normal, cfg)
    assert sorted(streams) == [(62, _CAL, 0)] * 6 + [(62, _CAL, 1)] * 3
    assert _threads._worker(1).submit(lambda: getattr(stats._pool, "entry", None)).result() is None
    assert stats._pool.entry is entry and entry["key"].tobytes() == x.tobytes()


class TestBandCounts:
    #: every family's (p, r): BH, NA_2 to NA_10 and MO_1 to MO_5, each comparing ranks r and p + 1 - r
    FAMILIES = [(2, 1)] + [(k, 1) for k in range(2, 11)] + [(2 * k, k) for k in range(1, 6)]

    @staticmethod
    def binomial_sums(n, p, r):
        return [sum(math.comb(m, j) * math.comb(n - m, p - j) for j in range(r, p + 1 - r))
                for m in range(n + 1)]

    @pytest.mark.parametrize(
        "n, p, dtype",
        # an int64 table, an int64 table whose integral sums pass 2**63, Python ints
        # and the last int64 and first object tables of p = 4
        [(200, 6, np.int64), (100_000, 4, np.int64), (500, 10, object), (102_570, 4, np.int64),
         (102_571, 4, object)],
    )
    def test_matches_binomial_sums(self, n, p, dtype):
        # the order pairs of NA_K_p and MO_K_(p/2), built and then kept
        for r in (1, p // 2):
            stats._bands.pop((n, p, r), None)
            band = _band_counts(n, p, r)
            assert band.dtype == dtype
            assert _band_counts(n, p, r) is band
            assert [int(d) for d in band] == self.binomial_sums(n, p, r)

    @pytest.mark.parametrize("p, r", FAMILIES)
    def test_every_family_matches_binomial_sums_at_small_n(self, p, r):
        for n in range(1, 2 * p + 3):  # n < p: no subset, all zeros
            stats._bands.pop((n, p, r), None)
            assert [int(d) for d in _band_counts(n, p, r)] == self.binomial_sums(n, p, r)

    @staticmethod
    def kept_bytes():
        return sum(size for _, size in stats._bands.values())

    def test_a_kept_table_is_read_only_and_shared(self):
        for p, r in [(4, 1), (10, 5)]:  # an int64 and an object table at n = 500
            band = _band_counts(500, p, r)
            assert not band.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                band[1] = 0
            assert _band_counts(500, p, r) is band
            size = band.nbytes
            if band.dtype == object:  # its Python ints count too
                size += sum(sys.getsizeof(v) for v in band)
            assert stats._bands[(500, p, r)][1] == size

    def test_kept_weights_are_read_only_and_trim_weights_stays_fresh(self, rng):
        x = rng.normal(size=300)
        spec = parse_statistic("NA_I_2", alpha=0.25)
        want = evaluate(spec, x)
        kept = stats._weights(300, 0.25)
        assert stats._weights(300, 0.25) is kept and not kept.flags.writeable
        public = stats.trim_weights(300, 0.25)
        assert public is not kept and public.flags.writeable
        np.testing.assert_array_equal(public, kept)
        public[:] = 7.0  # the caller's array alone
        np.testing.assert_array_equal(stats.trim_weights(300, 0.25), kept)
        stats._pool.entry = None  # the next call centers x again
        assert evaluate(spec, x) == want

    def test_the_budget_bounds_the_kept_bytes(self, monkeypatch):
        stats._bands.clear()
        over = (stats._BAND_BYTES // 8, 2, 1)  # n + 1 int64 entries pass the budget
        kept = _band_counts(1000, 2, 1)
        band = _band_counts(*over)
        assert over not in stats._bands and _band_counts(*over) is not band
        assert _band_counts(1000, 2, 1) is kept  # and push out no kept table
        for n in (1000, 10_000, 100_000, 2000):  # eval-long-rows: its 16 tables and 4 weights fit
            x = np.random.default_rng(n).normal(size=n)
            for name in DEFAULT_TESTS:
                evaluate(parse_statistic(name, alpha=0.25), x)
            evaluate_many(parse_statistic("NA_K_4", alpha=0.25), x[None, :], 0.7)
        assert sorted(map(len, stats._bands)) == [2] * 4 + [3] * 16
        assert self.kept_bytes() <= stats._BAND_BYTES
        monkeypatch.setattr(stats, "_BAND_BYTES", 3 * 8 * 1001)  # three tables at n = 1000
        for key in [(1000, 3, 1), (1000, 4, 1), (1000, 4, 2)]:  # BH's (1000, 2, 1) alone is a hit below
            del stats._bands[key]
        for p, r in [(2, 1), (3, 1), (4, 1), (3, 1), (4, 2)]:  # (3, 1) is used again, (2, 1) goes
            _band_counts(1000, p, r)
        assert list(stats._bands) == [(1000, 4, 1), (1000, 3, 1), (1000, 4, 2)]

    @pytest.mark.parametrize("n, k", [(300, 4), (500, 10)])  # int64, then object NA and MO tables
    def test_no_reader_writes_into_a_kept_table(self, n, k, rng):
        stats._bands.clear()
        x = tied_rows(rng, 3, n)
        for name in ["BH_I", "BH_K", f"NA_I_{k}", f"NA_K_{k}", f"MO_I_{k // 2}", f"MO_K_{k // 2}"]:
            spec = parse_statistic(name)
            for t in [None, 0.0, 0.7] if spec.family == "supremum" else [None]:
                evaluate_many(spec, x, t)
                _evaluate_rows(spec, x[:1], t)
                _evaluate_rows(spec, x[:1], t)  # a hit on the kept counts
        kept = {key: band for key, (band, _) in stats._bands.items() if len(key) == 3}
        assert len(kept) == 3
        dtypes = {band.dtype for (_, p, *_), band in kept.items() if p == k}
        assert dtypes == {np.dtype(np.int64 if k == 4 else object)}
        stats._bands.clear()
        for key, band in kept.items():
            assert [int(v) for v in band] == [int(v) for v in _band_counts(*key)]

    @pytest.mark.parametrize("name", ["BH_I", "NA_I_4", "MO_I_2"])
    def test_integral_numerators_on_both_sides_of_the_int64_bound(self, name, rng, monkeypatch):
        # int64 row sums while 2 n C(n, p) < 2**63, Python ints from the next n; on both sides each
        # value is the Python-int sum of the gathered band entries, divided as the kernel divides
        spec = parse_statistic(name, alpha=0.25)
        p, r = spec.subset_size, spec.order_pair[0]
        below = {2: 2_097_152, 4: 10_206}[p]
        assert 2 * below * math.comb(below, p) < 2**63 <= 2 * (below + 1) * math.comb(below + 1, p)
        dtypes = []
        char_values = stats._char_values
        monkeypatch.setattr(stats, "_char_values", lambda spec, n, num: dtypes.append(num.dtype) or
                            char_values(spec, n, num))

        def reference(row):
            _, a, b = _magnitude_counts(stats._centered_rows(row[None, :], spec.alpha))
            band = _band_counts(row.size, p, r)

            def total(index):  # in slices: a few Python ints at a time
                return sum(sum(band[index[0, i : i + 2**16]].tolist()) for i in range(0, row.size, 2**16))

            num = total(b) - total(a)
            return (num if name == "BH_I" else 2 * num) / stats._char_divisor(spec, row.size)

        for n, dtype in [(below, np.int64), (below + 1, object)]:
            rows = [rng.normal(size=n), rng.integers(-3, 4, size=n).astype(float)]
            want = [reference(row) for row in rows]
            dtypes.clear()
            assert [evaluate(spec, row).value for row in rows] == want
            if p == 4:  # the chunk's gather, too
                assert list(evaluate_many(spec, np.stack(rows))) == want
            assert set(dtypes) == {np.dtype(dtype)}  # no object array below the bound

    def test_threads_at_different_n_equal_their_single_thread_results(self, rng, monkeypatch):
        specs = [parse_statistic(name, alpha=0.25) for name in DEFAULT_TESTS]
        samples = [rng.normal(size=n) for n in (400, 700, 1000, 1300)]
        keys = [(2, 1), (3, 1), (4, 1), (4, 2)]  # the default battery's tables

        def middles_of(n):
            return [int(_band_counts(n, *key)[n // 2]) for key in keys]

        want = [[evaluate(spec, x) for spec in specs] for x in samples]
        want_middles = [middles_of(x.size) for x in samples]
        monkeypatch.setattr(stats, "_BAND_BYTES", 6 * 8 * 1301)  # the threads evict each other
        stats._bands.clear()

        def battery(i):
            middles = [middles_of(samples[i].size) for _ in range(1000)]
            return [[evaluate(spec, samples[i]) for spec in specs] for _ in range(3)], middles

        runs = run_in_threads(battery, len(samples))
        assert [got for got, _ in runs] == [[row] * 3 for row in want]
        assert [middles for _, middles in runs] == [[row] * 1000 for row in want_middles]
        assert self.kept_bytes() <= stats._BAND_BYTES
