"""The leaf-level numeric split kernel against per-attribute scoring.

``numeric_best_splits`` scores every Gaussian observer of a leaf in one
numpy pass.  ``reference_best_split`` below is the per-observer scoring it
replaced; the kernel must reproduce its thresholds, merits and post-split
weights to the bit, whichever other observers are scored with it.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from streamtree.core import (
    Attribute,
    ClassDistribution,
    ContractViolation,
    Schema,
    entropy,
)
from streamtree.observers import (
    GaussianNumericObserver,
    SplitCandidate,
    _column_entropies,
    numeric_best_splits,
)
from streamtree.tree import HoeffdingTree, LeafNode


def reference_best_split(obs: GaussianNumericObserver, pre_dist: ClassDistribution):
    """One observer's best threshold, scored on its own."""
    lo, hi = obs.vmin, obs.vmax
    if not lo < hi:
        return None
    n_classes = len(obs.counts)
    steps = np.arange(1, obs.bins + 1, dtype=float) / (obs.bins + 1)
    thresholds = lo + (hi - lo) * steps
    below = np.zeros((n_classes, obs.bins))
    for c in range(n_classes):
        n_c = obs.counts[c]
        if n_c <= 0.0:
            continue
        sd = math.sqrt(obs.variance(c))
        if sd == 0.0:
            below[c] = np.where(obs.means[c] <= thresholds, n_c, 0.0)
        else:
            below[c] = n_c * ndtr((thresholds - obs.means[c]) / sd)
    totals = np.asarray(obs.counts)
    above = totals[:, None] - below
    n = pre_dist.total
    gains = (
        entropy(pre_dist)
        - _column_entropies(below) * (below.sum(axis=0) / n)
        - _column_entropies(above) * (above.sum(axis=0) / n)
    )
    best = int(np.argmax(gains))
    post = [
        ClassDistribution.from_weights(below[:, best]),
        ClassDistribution.from_weights(above[:, best]),
    ]
    return SplitCandidate(obs.attribute, float(thresholds[best]), float(gains[best]), post)


def bits(candidate):
    if candidate is None:
        return None
    return (
        candidate.attribute,
        candidate.threshold.hex(),
        candidate.merit.hex(),
        [[w.hex() for w in branch.weights] for branch in candidate.post_split],
    )


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def leaf_states(draw):
    """Observers of one leaf fed the same labelled rows, plus the leaf's
    observed distribution.  Columns are free floats, a few repeated values
    (so some classes are point masses) or one constant; short rows leave
    classes with count 0 or 1, and half weights leave counts below 1."""
    n_classes = draw(st.integers(2, 5))
    bins = draw(st.integers(1, 100))
    kinds = draw(st.lists(st.sampled_from(["free", "few", "constant"]), min_size=1,
                          max_size=5))
    pools = [draw(st.lists(finite, min_size=1, max_size=1 if kind == "constant" else 3))
             for kind in kinds]
    n_rows = draw(st.integers(0, 40))
    observers = [GaussianNumericObserver(a, n_classes, bins) for a in range(len(kinds))]
    pre = ClassDistribution(n_classes)
    for _ in range(n_rows):
        label = draw(st.integers(0, n_classes - 1))
        weight = draw(st.sampled_from([1.0, 1.0, 0.5, 2.0]))
        pre.add(label, weight)
        for obs, kind, pool in zip(observers, kinds, pools):
            x = draw(finite) if kind == "free" else draw(st.sampled_from(pool))
            obs.observe(x, label, weight)
    return observers, pre


@settings(max_examples=300, deadline=None)
@given(leaf_states())
def test_kernel_matches_per_attribute_scoring_to_the_bit(state):
    observers, pre = state
    expected = [bits(reference_best_split(obs, pre)) for obs in observers]
    assert [bits(c) for c in numeric_best_splits(observers, pre)] == expected
    assert [bits(obs.best_split(pre)) for obs in observers] == expected


def test_point_mass_on_a_threshold_goes_below():
    # One threshold, at 1.0; class 1 is a point mass there, so "<=" sends it left.
    obs = GaussianNumericObserver(0, 2, bins=1)
    pre = ClassDistribution(2)
    for x, label in ((0.0, 0), (1.0, 1), (1.0, 1), (2.0, 0)):
        obs.observe(x, label)
        pre.add(label)
    (cand,) = numeric_best_splits([obs], pre)
    assert cand.threshold == 1.0
    assert cand.post_split[0].weights[1] == 2.0 and cand.post_split[1].weights[1] == 0.0
    assert bits(cand) == bits(reference_best_split(obs, pre))


def test_no_live_observer_scores_nothing():
    empty = GaussianNumericObserver(0, 2)
    constant = GaussianNumericObserver(1, 2)
    constant.observe(4.0, 0)
    constant.observe(4.0, 1)
    pre = ClassDistribution.from_weights([1, 1])
    assert numeric_best_splits([], pre) == []
    assert numeric_best_splits([empty, constant], pre) == [None, None]


def test_observers_with_different_bins_rejected():
    observers = [GaussianNumericObserver(a, 2, bins) for a, bins in enumerate((10, 20))]
    for obs in observers:
        obs.observe(0.0, 0)
        obs.observe(1.0, 1)
    with pytest.raises(ContractViolation, match="share bins"):
        numeric_best_splits(observers, ClassDistribution.from_weights([1, 1]))


@pytest.mark.parametrize("kinds", [("numeric", "nominal", "numeric"),
                                   ("nominal", "numeric", "numeric"),
                                   ("numeric", "numeric", "nominal")])
def test_tied_merits_rank_in_attribute_order(kinds):
    # Every attribute copies the label, so each scores the full entropy of
    # 1 bit exactly and the ranking must fall back on attribute order.
    schema = Schema(tuple(
        Attribute.nominal(f"a{i}", 2) if kind == "nominal" else Attribute.numeric(f"a{i}")
        for i, kind in enumerate(kinds)
    ), 2)
    tree = HoeffdingTree(schema)
    leaf = tree.root
    for label in (0, 1) * 5:
        leaf.learn(tuple(label for _ in kinds), label)
    rank = tree._rank_candidates(leaf)
    assert [c.merit for c in rank] == [1.0, 1.0, 1.0]
    assert [c.attribute for c in rank] == [0, 1, 2]
    assert [c.is_nominal for c in rank] == [kind == "nominal" for kind in kinds]


def test_rank_skips_deactivated_and_unsplittable_attributes():
    schema = Schema((Attribute.numeric("x"), Attribute.nominal("a", 2),
                     Attribute.numeric("y"), Attribute.numeric("z")), 2)
    leaf = LeafNode(0, schema, (0, 1, 2, 3), 10)
    for label in (0, 1) * 5:
        leaf.learn((label, label, 3.0, label * 2.0), label)
    leaf.disable_attribute(0)
    rank = HoeffdingTree(schema)._rank_candidates(leaf)
    # y never varies, so only a and z compete; they tie at 1 bit.
    assert [c.attribute for c in rank] == [1, 3]
