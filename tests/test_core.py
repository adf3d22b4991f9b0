import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamtree.core import (
    Attribute,
    ClassDistribution,
    ConfigError,
    ContractViolation,
    Schema,
    entropy,
    hoeffding_bound,
)


def information_gain(pre, partitions) -> float:
    """Entropy reduction of splitting ``pre`` into ``partitions``, in bits.

    The reference formula that split scoring must agree with.  The
    partitions must exactly re-distribute ``pre``'s weight (their totals
    must sum to pre's total within 1e-6 relative); empty partitions
    contribute zero.
    """
    pre_weights = weights_of(pre)
    pre_total = math.fsum(pre_weights)
    part_weights = [weights_of(p) for p in partitions]
    part_totals = [math.fsum(ws) for ws in part_weights]
    combined = math.fsum(part_totals)
    if abs(combined - pre_total) > 1e-6 * max(abs(pre_total), abs(combined), 1e-300):
        raise ContractViolation(
            f"partition totals {combined!r} do not match pre-split total {pre_total!r}"
        )
    if pre_total <= 0.0:
        return 0.0
    gain = entropy(pre_weights)
    for ws, total in zip(part_weights, part_totals):
        if total > 0.0:
            gain -= (total / pre_total) * entropy(ws)
    return gain


def weights_of(dist) -> list[float]:
    return dist.weights if isinstance(dist, ClassDistribution) else list(dist)


def brute_entropy(weights):
    # Independent oracle: textbook formula, different code path.
    total = sum(weights)
    if total == 0:
        return 0.0
    h = 0.0
    for w in weights:
        if w > 0:
            p = w / total
            h += -p * math.log(p, 2)
    return h


def brute_information_gain(pre, partitions):
    total = sum(pre)
    h = brute_entropy(pre)
    for part in partitions:
        pt = sum(part)
        if pt > 0:
            h -= (pt / total) * brute_entropy(part)
    return h


weight_value = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e6))
weights_strategy = st.lists(weight_value, min_size=2, max_size=12).filter(
    lambda ws: sum(ws) > 0
)


class TestEntropy:
    def test_uniform_two_class(self):
        assert entropy(ClassDistribution.from_weights([5, 5])) == pytest.approx(1.0)

    def test_pure_distribution(self):
        assert entropy(ClassDistribution.from_weights([7, 0])) == 0.0

    def test_nine_one(self):
        expected = brute_entropy([9, 1])  # -0.9*log2(0.9) - 0.1*log2(0.1)
        assert expected == pytest.approx(0.4689955935892812)
        assert entropy(ClassDistribution.from_weights([9, 1])) == pytest.approx(
            expected, rel=1e-12
        )

    def test_zero_total_is_zero(self):
        assert entropy(ClassDistribution(3)) == 0.0

    @given(weights_strategy)
    def test_matches_brute_force(self, ws):
        assert entropy(ws) == pytest.approx(brute_entropy(ws), rel=1e-9, abs=1e-12)

    @given(weights_strategy)
    def test_bounds(self, ws):
        h = entropy(ws)
        assert -1e-12 <= h <= math.log2(len(ws)) + 1e-9

    @given(weights_strategy, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, ws, rng):
        shuffled = list(ws)
        rng.shuffle(shuffled)
        assert entropy(shuffled) == pytest.approx(entropy(ws), rel=1e-9, abs=1e-12)


def random_refinement(rng, weights, n_parts):
    """Split each class weight across n_parts, preserving per-class sums."""
    parts = [[0.0] * len(weights) for _ in range(n_parts)]
    for c, w in enumerate(weights):
        cuts = sorted(rng.random() for _ in range(n_parts - 1))
        prev = 0.0
        for k, cut in enumerate(cuts + [1.0]):
            parts[k][c] = w * (cut - prev)
            prev = cut
    return parts


class TestInformationGain:
    def test_perfect_separation(self):
        pre = ClassDistribution.from_weights([5, 5])
        parts = [ClassDistribution.from_weights([5, 0]), ClassDistribution.from_weights([0, 5])]
        assert information_gain(pre, parts) == pytest.approx(1.0)

    def test_identity_partition(self):
        pre = ClassDistribution.from_weights([5, 5])
        assert information_gain(pre, [ClassDistribution.from_weights([5, 5])]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_hand_worked_partition(self):
        # H(6,2) - 0.5*H(4,0) - 0.5*H(2,2)
        expected = brute_entropy([6, 2]) - 0.5 * 0.0 - 0.5 * 1.0
        assert expected == pytest.approx(0.31127812445913283)
        pre = ClassDistribution.from_weights([6, 2])
        parts = [ClassDistribution.from_weights([4, 0]), ClassDistribution.from_weights([2, 2])]
        assert information_gain(pre, parts) == pytest.approx(expected, rel=1e-12)

    def test_total_mismatch_rejected(self):
        pre = ClassDistribution.from_weights([5, 5])
        with pytest.raises(ContractViolation):
            information_gain(pre, [ClassDistribution.from_weights([5, 4])])

    def test_empty_partitions_contribute_nothing(self):
        pre = ClassDistribution.from_weights([3, 3])
        parts = [
            ClassDistribution.from_weights([3, 3]),
            ClassDistribution.from_weights([0, 0]),
        ]
        assert information_gain(pre, parts) == pytest.approx(0.0, abs=1e-12)

    @given(weights_strategy, st.integers(min_value=1, max_value=5), st.integers())
    def test_nonnegative_on_refinements(self, ws, n_parts, seed):
        parts = random_refinement(random.Random(seed), ws, n_parts)
        assert information_gain(ws, parts) >= -1e-9

    @given(weights_strategy, st.integers(min_value=1, max_value=5), st.integers())
    def test_matches_brute_force_on_refinements(self, ws, n_parts, seed):
        parts = random_refinement(random.Random(seed), ws, n_parts)
        expected = brute_information_gain(ws, parts)
        assert information_gain(ws, parts) == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestHoeffdingBound:
    def test_two_class_threshold_value(self):
        # The tiebreak ceiling for 2 classes at n=200, delta=1e-7.
        assert hoeffding_bound(1.0, 1e-7, 200) == pytest.approx(0.2007, abs=0.0005)

    def test_direct_evaluation(self):
        assert hoeffding_bound(2.0, 0.05, 100) == pytest.approx(
            math.sqrt(4 * math.log(20) / 200), rel=1e-12
        )

    def test_decreasing_in_n(self):
        values = [hoeffding_bound(1.0, 0.05, n) for n in (1, 10, 100, 10000, 10**9)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-4

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1e-9, max_value=0.999),
        st.integers(min_value=1, max_value=10**9),
    )
    def test_monotone_in_all_arguments(self, r, delta, n):
        base = hoeffding_bound(r, delta, n)
        assert hoeffding_bound(r * 2, delta, n) > base
        assert hoeffding_bound(r, delta, n * 2) < base
        smaller_delta = delta / 2
        assert hoeffding_bound(r, smaller_delta, n) > base

    @pytest.mark.parametrize(
        "r,delta,n", [(0.0, 0.5, 10), (-1.0, 0.5, 10), (1.0, 0.0, 10), (1.0, 1.0, 10), (1.0, 0.5, 0)]
    )
    def test_invalid_arguments(self, r, delta, n):
        with pytest.raises(ContractViolation):
            hoeffding_bound(r, delta, n)


class TestClassDistribution:
    def test_impure_needs_two_positive_classes(self):
        dist = ClassDistribution(3)
        assert not dist.impure
        dist.add(1)
        dist.add(1)
        assert not dist.impure
        dist.add(2)
        assert dist.impure
        assert not ClassDistribution.from_weights([0.0, 2.5, 0.0]).impure
        assert ClassDistribution.from_weights([0.0, 2.5, 0.5]).impure

    def test_argmax_tie_breaks_low(self):
        assert ClassDistribution.from_weights([5, 5]).argmax() == 0
        assert ClassDistribution.from_weights([3, 7]).argmax() == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractViolation):
            ClassDistribution.from_weights([1, -2])

    @pytest.mark.parametrize("weights, bad", [
        ([math.nan, 1.0, 2.0], "nan"),
        ([math.inf, 1.0], "inf"),
        ([1.0, -math.inf], "-inf"),
    ])
    def test_weight_not_finite_and_non_negative_rejected(self, weights, bad):
        with pytest.raises(ContractViolation, match=f"weight {bad} is not finite"):
            ClassDistribution.from_weights(weights)

    def test_weights_whose_total_overflows_rejected(self):
        with pytest.raises(ContractViolation, match="total of weights .* is not finite"):
            ClassDistribution.from_weights([1e308, 1e308])

    @given(st.lists(st.floats(0, 1e3), min_size=5, max_size=5),
           st.lists(st.integers(0, 4), max_size=100))
    def test_total_tracks_weight_sum(self, start, additions):
        # A leaf starts from a post-split estimate with fractional weights
        # and then counts each instance once.
        dist = ClassDistribution.from_weights(start)
        for cls in additions:
            dist.add(cls)
        assert dist.total == pytest.approx(math.fsum(dist.weights), rel=1e-9, abs=1e-12)


class TestSchema:
    def make(self):
        return Schema(
            (Attribute.nominal("color", 3), Attribute.numeric("size")),
            class_count=2,
            class_names=("no", "yes"),
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            Schema((), 2)
        with pytest.raises(ConfigError):
            Schema((Attribute.numeric("x"),), 1)
        with pytest.raises(ConfigError):
            Attribute.nominal("c", 1)
        with pytest.raises(ConfigError):
            Schema((Attribute.numeric("x"), Attribute.numeric("x")), 2)

    def test_default_class_names(self):
        schema = Schema((Attribute.numeric("x"),), 3)
        assert schema.class_names == ("0", "1", "2")

    def test_check_values_and_label(self):
        schema = self.make()
        schema.check_values((2, 1.5))
        schema.check_label(1)
        with pytest.raises(ContractViolation):
            schema.check_values((2,))
        with pytest.raises(ContractViolation):
            schema.check_values((3, 1.5))
        with pytest.raises(ContractViolation):
            schema.check_label(2)
        with pytest.raises(ContractViolation):
            schema.check_values((2, math.nan))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ContractViolation):
                schema.check_values((bad, 0.5))
        schema.check_values((2.0, 1.5))

    @pytest.mark.parametrize("bad", [3, -1, 1.5, -0.5, 2.999, math.nan, math.inf, -math.inf])
    def test_nominal_value_outside_its_range_rejected(self, bad):
        schema = self.make()
        schema.check_values((2.0, 0.5))
        message = r"out of range \[0, 3\) for attribute 'color'"
        with pytest.raises(ContractViolation, match=message):
            schema.check_values((bad, 0.5))

    @pytest.mark.parametrize("bad", ["abc", None, math.nan, math.inf, -math.inf, 10**400,
                                     complex(1, 0), Decimal("1.5"), [0.5]])
    def test_numeric_value_that_is_not_a_finite_real_rejected(self, bad):
        message = r"not a finite real number for attribute 'size'"
        with pytest.raises(ContractViolation, match=message):
            self.make().check_values((2, bad))

    @pytest.mark.parametrize("value", [0, 7, 1.5, -1e308, 10**300, Fraction(1, 3)])
    def test_finite_real_numeric_values_admitted(self, value):
        self.make().check_values((2, value))
        # The finite values of this instance overflow their sum.
        two = Schema((Attribute.numeric("x"), Attribute.numeric("y")), 2)
        two.check_values((1e308, 1e308))
        two.check_values((1e308, value))

    @pytest.mark.parametrize("values", [(), (2,), (2, 0.5, 1)])
    def test_wrong_number_of_values_rejected(self, values):
        with pytest.raises(ContractViolation, match="schema expects 2"):
            self.make().check_values(values)

    @pytest.mark.parametrize("bad", [-1, 2, 1.5, None, "1"])
    def test_one_label_rule(self, bad):
        schema = self.make()
        schema.check_label(1)
        with pytest.raises(ContractViolation, match=r"class index in \[0, 2\)"):
            schema.check_label(bad)

    def test_pickle_carries_only_the_fields(self):
        schema = self.make()
        data = pickle.dumps(schema)
        assert b"_nominal" not in data
        copy = pickle.loads(data)
        assert copy == schema
        with pytest.raises(ContractViolation):
            copy.check_values((3, 0.5))
