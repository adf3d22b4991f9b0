import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree.core import ClassDistribution, entropy, information_gain
from streamtree.observers import GaussianNumericObserver, NominalObserver, numeric_best_splits


class TestNominalObserver:
    def test_counting(self):
        # Values arrive admitted by Schema.check_values, so 2.0 counts as 2.
        obs = NominalObserver((0,), (3,), n_classes=2)
        obs.learn((1,), 0)
        obs.learn((1,), 0)
        obs.learn((2.0,), 1)
        assert (obs.num - 1.0).tolist() == [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]
        assert obs.den.tolist() == [[5.0, 4.0]]

    def test_perfect_separation_merit(self):
        obs = NominalObserver((0,), (2,), n_classes=2)
        for _ in range(5):
            obs.learn((0,), 0)
            obs.learn((1,), 1)
        [cand] = obs.best_split(ClassDistribution.from_weights([5, 5]))
        assert cand.merit == pytest.approx(1.0)
        assert cand.is_nominal and len(cand.post_split) == 2
        assert cand.post_split[0].weights == [5.0, 0.0]
        assert cand.post_split[1].weights == [0.0, 5.0]

    def test_no_observations_absent(self):
        obs = NominalObserver((0,), (2,), n_classes=2)
        assert obs.best_split(ClassDistribution(2)) == []

    def test_nb_likelihood_laplace(self):
        obs = NominalObserver((0,), (2,), n_classes=2)
        for _ in range(3):
            obs.learn((0,), 0)
        obs.learn((1,), 0)
        out = np.empty((1, 2))
        obs.likelihoods((0,), out)
        # class 0 saw [3, 1]: P(v=0|c=0) = (3+1)/(4+2); unseen class 1: 1/arity
        assert out.tolist() == [[4 / 6, 0.5]]

    def test_one_denominator_row_per_arity(self):
        obs = NominalObserver((1, 3, 4), (3, 2, 3), n_classes=2)
        for values, label in [((9, 2, 9, 1, 0), 0), ((9, 0, 9, 1, 2.0), 1), ((9, 1, 9, 0, 2), 1)]:
            obs.learn(values, label)
        assert obs.num.shape == (8, 2)
        # rows: arity 2 then arity 3, each n_c + arity
        assert obs.den.tolist() == [[3.0, 4.0], [4.0, 5.0]]
        out = np.empty((3, 2))
        obs.likelihoods((9, 2, 9, 1, 2), out)
        assert out.tolist() == [[2 / 4, 1 / 5], [2 / 3, 2 / 4], [1 / 4, 3 / 5]]

    def test_deactivation_frees_the_rows(self):
        obs = NominalObserver((1, 3, 4), (3, 2, 3), n_classes=2)
        obs.learn((9, 2, 9, 1, 0), 0)
        kept = obs.without(3)
        assert kept.attributes == (1, 4) and kept.arities == (3, 3)
        assert kept.num.tolist() == obs.num[[0, 1, 2, 5, 6, 7]].tolist()
        assert kept.den.tolist() == [[4.0, 3.0]]  # the arity-2 row is gone
        assert kept.without(1).without(4) is None

    def test_pickle_carries_the_arrays_and_restores_the_views(self):
        obs = NominalObserver((0, 1), (2, 3), n_classes=2)
        obs.learn((1, 2), 0)
        copy = pickle.loads(pickle.dumps(obs))
        assert copy.num.tolist() == obs.num.tolist() and copy.den.tolist() == obs.den.tolist()
        copy.learn((0, 0), 1)
        obs.learn((0, 0), 1)
        assert copy.num.tolist() == obs.num.tolist() and copy.den.tolist() == obs.den.tolist()


def variance(obs: GaussianNumericObserver, c: int) -> float:
    """Unbiased variance of class c; zero until two observations exist."""
    n = obs.counts[c]
    return obs.m2[c] / (n - 1.0) if n > 1.0 else 0.0


def best_split(obs: GaussianNumericObserver, pre: ClassDistribution, bins: int = 100):
    """The observer's candidate, scored alone as attribute 0."""
    return numeric_best_splits([(0, obs)], pre, bins)[0]


def batch_mean_variance(xs):
    # Two-pass oracle for the one-pass accumulator.
    n = len(xs)
    mean = math.fsum(xs) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, var


class TestGaussianObserver:
    BINS = 20  # of the random observers

    def test_mean_and_sample_variance(self):
        obs = GaussianNumericObserver(n_classes=2)
        for x in (1, 2, 3, 4, 5):
            obs.observe(x, 0)
        assert obs.means[0] == pytest.approx(3.0)
        assert variance(obs, 0) == pytest.approx(2.5)

    def test_single_value_has_zero_variance(self):
        obs = GaussianNumericObserver(n_classes=2)
        obs.observe(4.2, 1)
        assert variance(obs, 1) == 0.0

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=300))
    def test_matches_two_pass_batch(self, xs):
        obs = GaussianNumericObserver(n_classes=1)
        for x in xs:
            obs.observe(x, 0)
        mean, var = batch_mean_variance(xs)
        assert obs.means[0] == pytest.approx(mean, rel=1e-9, abs=1e-9)
        assert variance(obs, 0) == pytest.approx(var, rel=1e-9, abs=1e-6)

    def test_long_sequence_matches_batch(self):
        rng = random.Random(42)
        xs = [rng.gauss(10.0, 3.0) for _ in range(100_000)]
        obs = GaussianNumericObserver(n_classes=1)
        for x in xs:
            obs.observe(x, 0)
        mean, var = batch_mean_variance(xs)
        assert obs.means[0] == pytest.approx(mean, rel=1e-9)
        assert variance(obs, 0) == pytest.approx(var, rel=1e-9)

    def test_well_separated_classes_recover_full_entropy(self):
        rng = random.Random(7)
        obs = GaussianNumericObserver(n_classes=2)
        pre = ClassDistribution(2)
        for _ in range(200):
            x0 = rng.gauss(-10.0, 1.0)
            obs.observe(x0, 0)
            pre.add(0)
            x1 = rng.gauss(10.0, 1.0)
            obs.observe(x1, 1)
            pre.add(1)
        cand = best_split(obs, pre)
        assert cand is not None
        assert abs(cand.threshold) < 5.0
        assert cand.merit == pytest.approx(entropy(pre), abs=0.05)

    def test_zero_range_absent(self):
        obs = GaussianNumericObserver(n_classes=2)
        for _ in range(10):
            obs.observe(3.0, 0)
            obs.observe(3.0, 1)
        assert best_split(obs, ClassDistribution.from_weights([10, 10])) is None

    def test_unseen_class_contributes_no_weight(self):
        obs = GaussianNumericObserver(n_classes=2)
        for x in (1.0, 2.0, 3.0):
            obs.observe(x, 0)
        cand = best_split(obs, ClassDistribution.from_weights([3, 0]))
        for branch in cand.post_split:
            assert branch.weights[1] == 0.0

    def test_zero_variance_point_mass_sides(self):
        obs = GaussianNumericObserver(n_classes=2)
        for _ in range(5):
            obs.observe(0.0, 0)
            obs.observe(10.0, 1)
        cand = best_split(obs, ClassDistribution.from_weights([5, 5]), bins=9)
        # Point masses sit entirely on one side of the best threshold.
        assert cand.merit == pytest.approx(1.0)
        assert cand.post_split[0].weights == [5.0, 0.0]
        assert cand.post_split[1].weights == [0.0, 5.0]

    def _random_observer(self, rng, n_classes=3):
        obs = GaussianNumericObserver(n_classes=n_classes)
        pre = ClassDistribution(n_classes)
        for _ in range(rng.randrange(5, 80)):
            c = rng.randrange(n_classes)
            obs.observe(rng.gauss(c * 2.0, 1.0 + c), c)
            pre.add(c)
        return obs, pre

    @given(st.integers())
    @settings(max_examples=40)
    def test_branch_weights_match_pre_split(self, seed):
        obs, pre = self._random_observer(random.Random(seed))
        cand = best_split(obs, pre, self.BINS)
        if cand is None:
            return
        for c in range(3):
            total = sum(branch.weights[c] for branch in cand.post_split)
            assert total == pytest.approx(pre.weights[c], rel=1e-6, abs=1e-9)

    @given(st.integers())
    @settings(max_examples=25)
    def test_merit_is_argmax_over_thresholds(self, seed):
        rng = random.Random(seed)
        obs, pre = self._random_observer(rng)
        cand = best_split(obs, pre, self.BINS)
        if cand is None:
            return
        lo, hi = obs.vmin, obs.vmax
        for i in range(1, self.BINS + 1):
            threshold = lo + (hi - lo) * i / (self.BINS + 1)
            below = []
            above = []
            for c in range(3):
                n_c = obs.counts[c]
                if n_c == 0:
                    below.append(0.0)
                    above.append(0.0)
                    continue
                sd = math.sqrt(variance(obs, c))
                if sd == 0.0:
                    frac = 1.0 if obs.means[c] <= threshold else 0.0
                else:
                    z = (threshold - obs.means[c]) / sd
                    frac = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
                below.append(n_c * frac)
                above.append(n_c * (1.0 - frac))
            merit = information_gain(pre, [below, above])
            assert cand.merit >= merit - 1e-9
