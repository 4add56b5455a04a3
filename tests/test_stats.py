import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symlab.errors import DegenerateSampleError, InsufficientSampleError
from symlab.stats import (
    _comb_table,
    STATISTIC_NAMES,
    StatisticSpec,
    StatisticValue,
    brute_force,
    counting_tables,
    evaluate,
    evaluate_family_member,
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

    def test_counting_tables(self):
        assert counting_tables([-3, -1, 2], 2.5) == (1, 3)
        # strict/weak pattern on the boundary: a counts <= -t, b counts < t
        assert counting_tables([-3, -1, 2], 1.0) == (2, 2)
        assert counting_tables([-3, -1, 2], 0.0) == (2, 2)


class TestErrors:
    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            evaluate(parse_statistic("NA_I_4"), [1.0, 2.0, 3.0])

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            evaluate(StatisticSpec("CM"), [2.0, 2.0, 2.0])

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
                evaluate_family_member(spec, x, 0.5)


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
                evaluate_family_member(spec, x, 1.0)

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
            else:
                # counts complement under the flip, so the negation holds up
                # to one rounding of the final division
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
            single = np.asarray([evaluate_family_member(spec, row, t) for row in samples])
            np.testing.assert_array_equal(batch, single)

    def test_matches_rowwise_on_tied_data(self, rng):
        # a center one ulp off moves every observation tied with it
        spec = parse_statistic("NA_K_2", alpha=0.1)
        samples = np.round(2.0 * rng.normal(size=(512, 20)))
        batch = evaluate_many(spec, samples, t=1.0)
        single = np.asarray([evaluate_family_member(spec, row, 1.0) for row in samples])
        np.testing.assert_array_equal(batch, single)

    @pytest.mark.parametrize("name", ["NA_I_4", "MO_I_2"])
    def test_long_row_single_and_batched_agree(self, name, rng):
        # at n = 1e5 these subset counts pass 2**63 and wrap: both entry
        # points must wrap identically
        spec = parse_statistic(name, alpha=0.25)
        x = rng.normal(size=100_000)
        single = evaluate(spec, x).value
        batch = evaluate_many(spec, x[None, :])[0]
        assert repr(float(batch)) == repr(single)

    def test_sup_dominates_members(self, rng):
        spec = parse_statistic("NA_K_3", alpha=0.25)
        x = rng.normal(size=25)
        sup = evaluate(spec, x)
        for t in (0.2, 0.7, 1.4, 2.5):
            assert abs(evaluate_family_member(spec, x, t)) <= sup.value + 1e-15
        assert abs(evaluate_family_member(spec, x, sup.sup_argument)) == pytest.approx(
            sup.value, abs=1e-15
        )

    def test_statistic_names_registry(self):
        assert set(ALL_IDS + MOMENT_IDS) <= {
            parse_statistic(n, alpha=0.0).label
            for n in ALL_IDS + MOMENT_IDS
        }
        assert "S" in STATISTIC_NAMES


class TestCombTable:
    @pytest.mark.parametrize("n, p", [(200, 6), (2000, 4)])
    def test_exact_where_int64_holds(self, n, p):
        table = _comb_table(n, p)
        assert table.shape == (n + 1, p + 1)
        assert table.tolist() == [[math.comb(j, i) for i in range(p + 1)] for j in range(n + 1)]

    def test_wraps_like_pascal_rule_in_int64(self):
        # past 2**63 the entries are the exact coefficients reduced to signed
        # 64 bits, as Pascal's rule carried out in int64 gives them
        n, p = 100_000, 5
        table = _comb_table(n, p)
        for j in (1_000, 31_622, 65_536, 99_999, 100_000):
            for i in range(p + 1):
                wrapped = (math.comb(j, i) + 2**63) % 2**64 - 2**63
                assert int(table[j, i]) == wrapped
