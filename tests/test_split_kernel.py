"""The leaf-level numeric split kernel against per-attribute scoring.

``GaussianNumericObserver.best_split`` scores every numeric attribute of a
leaf in one numpy pass.  ``reference_best_split`` below scores one
per-attribute oracle on its own; the kernel must reproduce its thresholds,
merits and post-split weights to the bit, whichever other attributes are
scored with it.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from streamtree.core import Attribute, Schema, entropy
from streamtree.observers import GaussianNumericObserver, SplitCandidate, _column_entropies
from streamtree.tree import HoeffdingTree, LeafNode
from test_observers import GaussianOracle


def reference_best_split(attribute: int, obs: GaussianOracle,
                         pre: list[float], bins: int):
    """One oracle's best threshold, scored on its own."""
    lo, hi = obs.vmin, obs.vmax
    if not lo < hi:
        return None
    n_classes = len(obs.counts)
    steps = np.arange(1, bins + 1, dtype=float) / (bins + 1)
    thresholds = lo + (hi - lo) * steps
    below = np.zeros((n_classes, bins))
    for c in range(n_classes):
        n_c = obs.counts[c]
        if n_c <= 0.0:
            continue
        sd = math.sqrt(obs.m2[c] / (n_c - 1.0)) if n_c > 1.0 else 0.0
        if sd == 0.0:
            below[c] = np.where(obs.means[c] <= thresholds, n_c, 0.0)
        else:
            below[c] = n_c * ndtr((thresholds - obs.means[c]) / sd)
    totals = np.asarray(obs.counts)
    above = totals[:, None] - below
    n = math.fsum(pre)
    gains = (
        entropy(pre)
        - _column_entropies(below) * (below.sum(axis=0) / n)
        - _column_entropies(above) * (above.sum(axis=0) / n)
    )
    best = int(np.argmax(gains))
    post = [below[:, best].tolist(), above[:, best].tolist()]
    return SplitCandidate(attribute, float(thresholds[best]), float(gains[best]), post)


def observe_weighted(obs: GaussianOracle, x: float, label: int, weight: float):
    """``GaussianOracle.observe`` with an instance weight: the weighted
    Welford update, so states can hold counts below 1 or steps of 2."""
    n = obs.counts[label] + weight
    obs.counts[label] = n
    delta = x - obs.means[label]
    obs.means[label] += delta * weight / n
    obs.m2[label] += weight * delta * (x - obs.means[label])
    obs.vmin = min(obs.vmin, x)
    obs.vmax = max(obs.vmax, x)


def block_of(pairs, n_classes: int) -> GaussianNumericObserver:
    """The block of the (attribute, oracle) pairs' statistics, in pair order."""
    block = GaussianNumericObserver([a for a, _ in pairs], n_classes)
    block.means = [[obs.means[c] for _, obs in pairs] for c in range(n_classes)]
    block.m2 = [[obs.m2[c] for _, obs in pairs] for c in range(n_classes)]
    block.vmin = [obs.vmin for _, obs in pairs]
    block.vmax = [obs.vmax for _, obs in pairs]
    return block


def only(candidates):
    """The one candidate of a one-attribute block, or None."""
    assert len(candidates) <= 1
    return candidates[0] if candidates else None


def bits(candidate):
    if candidate is None:
        return None
    return (
        candidate.attribute,
        candidate.threshold.hex(),
        candidate.merit.hex(),
        [[w.hex() for w in branch] for branch in candidate.post_split],
    )


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def leaf_states(draw):
    """(attribute, oracle) pairs of one leaf fed the same labelled rows,
    the leaf's observed distribution and the bin count.  Columns are free
    floats, a few repeated values (so some classes are point masses) or one
    constant; short rows leave classes with count 0 or 1, and half weights
    leave counts below 1."""
    n_classes = draw(st.integers(2, 5))
    bins = draw(st.integers(1, 100))
    kinds = draw(st.lists(st.sampled_from(["free", "few", "constant"]), min_size=1,
                          max_size=5))
    pools = [draw(st.lists(finite, min_size=1, max_size=1 if kind == "constant" else 3))
             for kind in kinds]
    n_rows = draw(st.integers(0, 40))
    pairs = [(a, GaussianOracle(n_classes)) for a in range(len(kinds))]
    pre = [0.0] * n_classes
    for _ in range(n_rows):
        label = draw(st.integers(0, n_classes - 1))
        weight = draw(st.sampled_from([1.0, 1.0, 0.5, 2.0]))
        pre[label] += weight
        for (_, obs), kind, pool in zip(pairs, kinds, pools):
            x = draw(finite) if kind == "free" else draw(st.sampled_from(pool))
            observe_weighted(obs, x, label, weight)
    return pairs, pre, bins


@settings(max_examples=300, deadline=None)
@given(leaf_states())
def test_kernel_matches_per_attribute_scoring_to_the_bit(state):
    pairs, pre, bins = state
    k = len(pre)
    expected = [bits(reference_best_split(a, obs, pre, bins)) for a, obs in pairs]
    # An attribute without a candidate is left out.
    assert [bits(c) for c in block_of(pairs, k).best_split(pre, bins)] == [
        e for e in expected if e is not None]
    assert [bits(only(block_of([pair], k).best_split(pre, bins))) for pair in pairs] == expected


def test_weighted_update_of_weight_one_is_observe():
    rng = np.random.default_rng(3)
    plain, weighted = GaussianOracle(3), GaussianOracle(3)
    for x, label in zip(rng.normal(size=200).tolist(), rng.integers(0, 3, 200).tolist()):
        plain.observe(x, label)
        observe_weighted(weighted, x, label, 1.0)
    assert vars(plain) == vars(weighted)


def test_point_mass_on_a_threshold_goes_below():
    # One threshold, at 1.0; class 1 is a point mass there, so "<=" sends it left.
    obs = GaussianOracle(2)
    pre = [0, 0]
    for x, label in ((0.0, 0), (1.0, 1), (1.0, 1), (2.0, 0)):
        obs.observe(x, label)
        pre[label] += 1
    (cand,) = block_of([(0, obs)], 2).best_split(pre, 1)
    assert cand.threshold == 1.0
    assert cand.post_split[0][1] == 2.0 and cand.post_split[1][1] == 0.0
    assert bits(cand) == bits(reference_best_split(0, obs, pre, 1))


def test_no_live_observer_scores_nothing():
    empty = GaussianOracle(2)
    constant = GaussianOracle(2)
    constant.observe(4.0, 0)
    constant.observe(4.0, 1)
    pre = [1, 1]
    assert GaussianNumericObserver((), 2).best_split(pre, 100) == []
    assert block_of([(0, empty), (1, constant)], 2).best_split(pre, 100) == []
    fed = GaussianNumericObserver((0, 1), 2)
    for label in (0, 1):
        fed.learn((4.0, 4.0), label, 1.0)
    assert fed.best_split(pre, 100) == []


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
    leaf = LeafNode(schema, (0, 1, 2, 3))
    for label in (0, 1) * 5:
        leaf.learn((label, label, 3.0, label * 2.0), label)
    leaf.disable_attribute(0)
    rank = HoeffdingTree(schema)._rank_candidates(leaf)
    # y never varies, so only a and z compete; they tie at 1 bit.
    assert [c.attribute for c in rank] == [1, 3]
