import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree.core import entropy
from streamtree.observers import GaussianNumericObserver, NominalObserver
from test_core import information_gain


class TestNominalObserver:
    def test_counting(self):
        # Values arrive admitted by Schema.check_values, so 2.0 counts as 2.
        obs = NominalObserver((0,), (3,), n_classes=2)
        obs.learn((1,), 0, 1)
        obs.learn((1,), 0, 2)
        assert obs.den is None  # no naive-Bayes read yet
        obs.likelihoods((0,), [2.0, 0.0], np.empty((1, 2)))
        assert obs.den.tolist() == [[5.0, 3.0]]
        obs.learn((2.0,), 1, 1)  # once derived, learn keeps den current
        assert (obs.num - 1.0).tolist() == [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]
        assert obs.den.tolist() == [[5.0, 4.0]]

    def test_perfect_separation_merit(self):
        obs = NominalObserver((0,), (2,), n_classes=2)
        for n in range(1, 6):
            obs.learn((0,), 0, n)
            obs.learn((1,), 1, n)
        [cand] = obs.best_split([5, 5])
        assert cand.merit == pytest.approx(1.0)
        assert cand.is_nominal and len(cand.post_split) == 2
        assert cand.post_split[0] == [5.0, 0.0]
        assert cand.post_split[1] == [0.0, 5.0]

    def test_no_observations_absent(self):
        obs = NominalObserver((0,), (2,), n_classes=2)
        assert obs.best_split([0, 0]) == []

    def test_nb_likelihood_laplace(self):
        obs = NominalObserver((0,), (2,), n_classes=2)
        for n in range(1, 4):
            obs.learn((0,), 0, n)
        obs.learn((1,), 0, 4)
        out = np.empty((1, 2))
        obs.likelihoods((0,), [4.0, 0.0], out)
        # class 0 saw [3, 1]: P(v=0|c=0) = (3+1)/(4+2); unseen class 1: 1/arity
        assert out.tolist() == [[4 / 6, 0.5]]

    def test_one_denominator_row_per_arity(self):
        obs = NominalObserver((1, 3, 4), (3, 2, 3), n_classes=2)
        for values, label, n in [((9, 2, 9, 1, 0), 0, 1), ((9, 0, 9, 1, 2.0), 1, 1),
                                 ((9, 1, 9, 0, 2), 1, 2)]:
            obs.learn(values, label, n)
        assert obs.num.shape == (8, 2)
        out = np.empty((3, 2))
        obs.likelihoods((9, 2, 9, 1, 2), [1.0, 2.0], out)
        assert out.tolist() == [[2 / 4, 1 / 5], [2 / 3, 2 / 4], [1 / 4, 3 / 5]]
        # rows: arity 2 then arity 3, each n_c + arity
        assert obs.den.tolist() == [[3.0, 4.0], [4.0, 5.0]]

    def test_deactivation_frees_the_rows(self):
        obs = NominalObserver((1, 3, 4), (3, 2, 3), n_classes=2)
        obs.learn((9, 2, 9, 1, 0), 0, 1)
        obs.likelihoods((9, 2, 9, 1, 0), [1.0, 0.0], np.empty((3, 2)))
        kept = obs.without(3)
        assert kept.attributes == (1, 4) and kept.arities == (3, 3)
        assert kept.num.tolist() == obs.num[[0, 1, 2, 5, 6, 7]].tolist()
        assert kept.den is None  # derived afresh on the next read
        out = np.empty((2, 2))
        kept.likelihoods((9, 2, 9, 1, 0), [1.0, 0.0], out)
        assert kept.den.tolist() == [[4.0, 3.0]]  # the arity-2 row is gone
        assert out.tolist() == [[2 / 4, 1 / 3], [2 / 4, 1 / 3]]
        assert kept.without(1).without(4) is None

    def test_pickle_carries_the_arrays_and_restores_the_views(self):
        obs = NominalObserver((0, 1), (2, 3), n_classes=2)
        obs.learn((1, 2), 0, 1)
        copy = pickle.loads(pickle.dumps(obs))
        assert copy.num.tolist() == obs.num.tolist() and copy.den is None
        copy.learn((0, 0), 1, 1)
        obs.learn((0, 0), 1, 1)
        assert copy.num.tolist() == obs.num.tolist()
        out, twin = np.empty((2, 2)), np.empty((2, 2))
        obs.likelihoods((1, 2), [1.0, 1.0], out)
        copy.likelihoods((1, 2), [1.0, 1.0], twin)
        copy.learn((1, 1), 1, 2)
        obs.learn((1, 1), 1, 2)
        assert copy.num.tolist() == obs.num.tolist() and copy.den.tolist() == obs.den.tolist()
        assert twin.tolist() == out.tolist()

    def test_pickle_carries_no_denominators(self):
        read = NominalObserver((0, 1), (2, 3), n_classes=2)
        unread = NominalObserver((0, 1), (2, 3), n_classes=2)
        for obs in (read, unread):
            obs.learn((1, 2), 0, 1)
        read.likelihoods((1, 2), [1.0, 0.0], np.empty((2, 2)))
        assert read.den is not None
        assert pickle.dumps(read) == pickle.dumps(unread)
        assert pickle.loads(pickle.dumps(read)).den is None

    def test_block_is_float32_and_widens_where_a_class_count_reaches_2_to_24(self):
        # Class 0 has been seen 2^24 - 3 times: value 0 of attribute 0 all but
        # twice, value 2 of attribute 1 every time; class 1 five times.
        n0 = LIMIT - 3
        counts = [[n0 - 2, 0], [2, 5], [0, 5], [0, 0], [n0, 0]]
        block = NominalObserver((0, 1), (2, 3), 2, np.array(counts, np.float32) + 1)
        wide = NominalObserver((0, 1), (2, 3), 2, np.array(counts, np.float64) + 1)
        probes = [(0, 2), (1, 0), (1, 1)]
        for n in range(n0 + 1, LIMIT + 4):
            for obs in (block, wide):
                obs.learn((0, 2), 0, n)
            counts[0][0] += 1
            counts[4][0] += 1
            assert block.num.dtype == (np.float32 if n < LIMIT else np.float64)
            assert block.num.tolist() == [[c + 1 for c in row] for row in counts]
            for values in probes:
                out, twin = np.empty((2, 2)), np.empty((2, 2))
                block.likelihoods(values, [n, 5], out)
                wide.likelihoods(values, [n, 5], twin)
                assert hexes(out) == hexes(twin)
            copy = pickle.loads(pickle.dumps(block))
            assert copy.num.dtype == block.num.dtype and copy.num.tolist() == block.num.tolist()
        assert counts[4][0] + 1 == LIMIT + 4  # past what float32 holds exactly

    def test_float64_block_from_an_older_pickle_learns_and_predicts_with_its_bits(self):
        old = pickle.loads(pickle.dumps(NominalObserver((0, 2), (3, 2), 3, np.ones((5, 3)))))
        new = NominalObserver((0, 2), (3, 2), 3)
        assert old.num.dtype == np.float64 and new.num.dtype == np.float32
        rng, counts = random.Random(3), [0, 0, 0]
        for _ in range(300):
            values, c = (rng.randrange(3), 9, rng.randrange(2)), rng.randrange(3)
            counts[c] += 1
            for obs in (old, new):
                obs.learn(values, c, counts[c])
            out, twin = np.empty((2, 3)), np.empty((2, 3))
            old.likelihoods(values, counts, out)
            new.likelihoods(values, counts, twin)
            # the parent's bits: (n_vc + 1) / (n_c + arity), each a float64 division
            expected = [[float(old.num[row + values[a], c]) / (counts[c] + arity)
                         for c in range(3)] for a, row, arity in ((0, 0, 3), (2, 3, 2))]
            assert hexes(out) == hexes(twin) == [x.hex() for row in expected for x in row]
        assert old.num.dtype == np.float64 and old.num.tolist() == new.num.tolist()
        assert old.best_split(counts) == new.best_split(counts)


LIMIT = 2 ** 24


def hexes(array):
    return [x.hex() for x in array.ravel().tolist()]


@settings(max_examples=60, deadline=None)
@given(arities=st.lists(st.integers(2, 4), min_size=1, max_size=6),
       n_classes=st.integers(2, 5), data=st.data())
def test_block_counts_every_cell_in_float32_through_deactivations(arities, n_classes, data):
    # Nominal attributes at even positions; the odd ones are never read.
    attributes = tuple(range(0, 2 * len(arities), 2))
    block = NominalObserver(attributes, arities, n_classes)
    seen, counts = Counter(), [0] * n_classes
    steps = data.draw(st.lists(st.one_of(
        st.tuples(*(st.integers(0, k - 1) for k in arities), st.integers(0, n_classes - 1)),
        st.sampled_from(attributes),
    ), max_size=150))
    for step in steps:
        if isinstance(step, int):  # deactivate the attribute, if still active
            if step in block.attributes:
                block = block.without(step)
                if block is None:
                    return
            continue
        *drawn, c = step
        values = [v for value in drawn for v in (value, -1)]
        counts[c] += 1
        block.learn(values, c, counts[c])
        seen.update((a, values[a], c) for a in attributes)
    assert block.num.dtype == np.float32 and block.num.nbytes == 4 * block.num.size
    cells = [[seen[a, v, c] for c in range(n_classes)]
             for a, arity in zip(block.attributes, block.arities) for v in range(arity)]
    assert (block.num - 1).tolist() == cells


class GaussianOracle:
    """One numeric attribute's class-conditional running Gaussians, updated
    one attribute at a time with its own class counts: the per-attribute
    observer that ``GaussianNumericObserver`` replaced, kept as its oracle.
    """

    def __init__(self, n_classes: int):
        self.counts = [0.0] * n_classes
        self.means = [0.0] * n_classes
        self.m2 = [0.0] * n_classes
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value, class_index: int) -> None:
        x = float(value)
        n = self.counts[class_index] + 1.0
        self.counts[class_index] = n
        delta = x - self.means[class_index]
        self.means[class_index] += delta / n
        self.m2[class_index] += delta * (x - self.means[class_index])
        if x < self.vmin:
            self.vmin = x
        if x > self.vmax:
            self.vmax = x


class Column:
    """A one-attribute block and the class counts of what it has learned."""

    def __init__(self, n_classes: int):
        self.block = GaussianNumericObserver((0,), n_classes)
        self.pre = [0] * n_classes

    def observe(self, x, c: int) -> None:
        self.pre[c] += 1
        self.block.learn((x,), c, self.pre[c])

    def mean(self, c: int) -> float:
        return self.block.means[c][0]

    def variance(self, c: int) -> float:
        """Unbiased variance of class c; zero until two observations exist."""
        n = self.pre[c]
        return self.block.m2[c][0] / (n - 1.0) if n > 1.0 else 0.0

    def best_split(self, bins: int = 100):
        """The column's candidate, attribute 0, or None."""
        candidates = self.block.best_split(self.pre, bins)
        return candidates[0] if candidates else None


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
        obs = Column(n_classes=2)
        for x in (1, 2, 3, 4, 5):
            obs.observe(x, 0)
        assert obs.mean(0) == pytest.approx(3.0)
        assert obs.variance(0) == pytest.approx(2.5)

    def test_single_value_has_zero_variance(self):
        obs = Column(n_classes=2)
        obs.observe(4.2, 1)
        assert obs.variance(1) == 0.0

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=300))
    def test_matches_two_pass_batch(self, xs):
        obs = Column(n_classes=1)
        for x in xs:
            obs.observe(x, 0)
        mean, var = batch_mean_variance(xs)
        assert obs.mean(0) == pytest.approx(mean, rel=1e-9, abs=1e-9)
        assert obs.variance(0) == pytest.approx(var, rel=1e-9, abs=1e-6)

    def test_long_sequence_matches_batch(self):
        rng = random.Random(42)
        xs = [rng.gauss(10.0, 3.0) for _ in range(100_000)]
        obs = Column(n_classes=1)
        for x in xs:
            obs.observe(x, 0)
        mean, var = batch_mean_variance(xs)
        assert obs.mean(0) == pytest.approx(mean, rel=1e-9)
        assert obs.variance(0) == pytest.approx(var, rel=1e-9)

    def test_well_separated_classes_recover_full_entropy(self):
        rng = random.Random(7)
        obs = Column(n_classes=2)
        for _ in range(200):
            obs.observe(rng.gauss(-10.0, 1.0), 0)
            obs.observe(rng.gauss(10.0, 1.0), 1)
        cand = obs.best_split()
        assert cand is not None
        assert abs(cand.threshold) < 5.0
        assert cand.merit == pytest.approx(entropy(obs.pre), abs=0.05)

    def test_zero_range_absent(self):
        obs = Column(n_classes=2)
        for _ in range(10):
            obs.observe(3.0, 0)
            obs.observe(3.0, 1)
        assert obs.best_split() is None

    def test_unseen_class_contributes_no_weight(self):
        obs = Column(n_classes=2)
        for x in (1.0, 2.0, 3.0):
            obs.observe(x, 0)
        cand = obs.best_split()
        for branch in cand.post_split:
            assert branch[1] == 0.0

    def test_zero_variance_point_mass_sides(self):
        obs = Column(n_classes=2)
        for _ in range(5):
            obs.observe(0.0, 0)
            obs.observe(10.0, 1)
        cand = obs.best_split(bins=9)
        # Point masses sit entirely on one side of the best threshold.
        assert cand.merit == pytest.approx(1.0)
        assert cand.post_split[0] == [5.0, 0.0]
        assert cand.post_split[1] == [0.0, 5.0]

    def _random_observer(self, rng, n_classes=3):
        obs = Column(n_classes=n_classes)
        for _ in range(rng.randrange(5, 80)):
            c = rng.randrange(n_classes)
            obs.observe(rng.gauss(c * 2.0, 1.0 + c), c)
        return obs

    @given(st.integers())
    @settings(max_examples=40)
    def test_branch_weights_match_pre_split(self, seed):
        obs = self._random_observer(random.Random(seed))
        cand = obs.best_split(self.BINS)
        if cand is None:
            return
        for c in range(3):
            total = sum(branch[c] for branch in cand.post_split)
            assert total == pytest.approx(obs.pre[c], rel=1e-6, abs=1e-9)

    @given(st.integers())
    @settings(max_examples=25)
    def test_merit_is_argmax_over_thresholds(self, seed):
        rng = random.Random(seed)
        obs = self._random_observer(rng)
        cand = obs.best_split(self.BINS)
        if cand is None:
            return
        lo, hi = obs.block.vmin[0], obs.block.vmax[0]
        for i in range(1, self.BINS + 1):
            threshold = lo + (hi - lo) * i / (self.BINS + 1)
            below = []
            above = []
            for c in range(3):
                n_c = obs.pre[c]
                if n_c == 0:
                    below.append(0.0)
                    above.append(0.0)
                    continue
                sd = math.sqrt(obs.variance(c))
                if sd == 0.0:
                    frac = 1.0 if obs.mean(c) <= threshold else 0.0
                else:
                    z = (threshold - obs.mean(c)) / sd
                    frac = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
                below.append(n_c * frac)
                above.append(n_c * (1.0 - frac))
            merit = information_gain(obs.pre, [below, above])
            assert cand.merit >= merit - 1e-9


values_in_range = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(-1000, 1000),
    st.sampled_from([0.0, -0.0, 1.0]),
)


@st.composite
def block_histories(draw):
    """Attributes, class count and a history of learned rows, deactivations
    of one active attribute and pickle round trips."""
    n_classes = draw(st.integers(1, 4))
    width = draw(st.integers(1, 6))
    attributes = sorted(draw(st.sets(st.integers(0, width + 2), min_size=1, max_size=width)))
    events = draw(st.lists(st.one_of(
        st.tuples(st.just("row"), st.lists(values_in_range, min_size=width + 3,
                                           max_size=width + 3),
                  st.integers(0, n_classes - 1)),
        st.tuples(st.just("drop"), st.integers(0, width - 1)),
        st.tuples(st.just("pickle")),
    ), max_size=60))
    return attributes, n_classes, events


@settings(max_examples=200, deadline=None)
@given(block_histories())
def test_block_matches_per_attribute_oracle_to_the_bit(history):
    attributes, n_classes, events = history
    block = GaussianNumericObserver(attributes, n_classes)
    oracles = {a: GaussianOracle(n_classes) for a in attributes}
    pre = [0] * n_classes
    for event in events:
        if event[0] == "row":
            _, values, label = event
            pre[label] += 1
            block.learn(tuple(values), label, pre[label])
            for a, oracle in oracles.items():
                oracle.observe(values[a], label)
        elif event[0] == "drop":
            a = block.attributes[event[1] % len(block.attributes)]
            del oracles[a]
            block = block.without(a)
            if block is None:
                assert not oracles
                return
        else:
            block = pickle.loads(pickle.dumps(block))
    assert block.attributes == sorted(oracles)
    for j, a in enumerate(block.attributes):
        oracle = oracles[a]
        assert pre == oracle.counts
        assert [block.means[c][j].hex() for c in range(n_classes)] == [
            m.hex() for m in oracle.means]
        assert [block.m2[c][j].hex() for c in range(n_classes)] == [m.hex() for m in oracle.m2]
        assert (block.vmin[j], block.vmax[j]) == (oracle.vmin, oracle.vmax)
        assert [type(v) for v in (block.vmin[j], block.vmax[j])] == [float, float]


def test_deactivation_deletes_the_column():
    block = GaussianNumericObserver((1, 3, 4), n_classes=2)
    block.learn((9, 0.5, 9, 1.5, 2.5), 0, 1.0)
    block.learn((9, 1.0, 9, 2.0, 3.0), 1, 1.0)
    assert block.without(3) is block
    assert block.attributes == [1, 4]
    assert block.means == [[0.5, 2.5], [1.0, 3.0]]
    assert (block.vmin, block.vmax) == ([0.5, 2.5], [1.0, 3.0])
    assert block.without(1).without(4) is None
