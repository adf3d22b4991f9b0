"""The naive-Bayes leaf kernel against the per-(value, class) likelihoods.

``HoeffdingTree._predict_nb`` gathers a leaf's nominal likelihood rows from
its ``NominalObserver`` block, whose Laplace denominators are kept per
arity as instances arrive.  Every count is an exact integer, so the kernel
must give the very bits of multiplying the per-(value, class) likelihoods
below in attribute order: predictions, probability vectors and split logs
are compared with ``==``.
"""
import math
import random
import warnings

import pytest

from streamtree.core import Attribute, ContractViolation, Instance, Schema
from streamtree.streams import LedStream, RbfStream, SeaStream
from streamtree.svfdt import StrictHoeffdingTree
from streamtree.tree import HoeffdingTree, TreeConfig

CONFIG = TreeConfig(leaf_prediction="nb", grace_period=100, tiebreak=0.15)
MIXED = Schema(
    (
        Attribute.nominal("a", 3),
        Attribute.numeric("x"),
        Attribute.nominal("b", 2),
        Attribute.numeric("y"),
    ),
    3,
)


def mixed_stream(n, seed):
    """Three classes over interleaved nominal and numeric attributes.

    ``x`` takes few distinct values, so some leaves hold zero-variance
    classes whose point-mass likelihood is 0.
    """
    rng = random.Random(seed)
    for _ in range(n):
        c = rng.randrange(3)
        a = c if rng.random() < 0.6 else rng.randrange(3)
        x = float(rng.randrange(4) + c)
        y = rng.gauss(-c, 2.0)
        yield Instance((a, x, rng.randrange(2), y), c)


STREAMS = {
    "led": lambda: (LedStream(noise=0.1, seed=5, n=4000).schema,
                    list(LedStream(noise=0.1, seed=5, n=4000))),
    "sea": lambda: (SeaStream(seed=5, n=4000).schema, list(SeaStream(seed=5, n=4000))),
    "rbf10": lambda: (RbfStream(n_attrs=10, seed=5, n=3000).schema,
                      list(RbfStream(n_attrs=10, seed=5, n=3000))),
    "mixed": lambda: (MIXED, list(mixed_stream(4000, seed=5))),
}


def make(algorithm, schema):
    if algorithm == "vfdt":
        return HoeffdingTree(schema, CONFIG)
    return StrictHoeffdingTree(schema, CONFIG, variant=1 if algorithm == "svfdt-i" else 2)


def nominal_likelihood(block, a, value, c):
    """Laplace-smoothed P(value | c) of attribute ``a`` from the block's counts.

    The denominator sums the attribute's count row here, so the block's
    per-arity ``den`` bookkeeping is checked, not trusted.
    """
    i = block.attributes.index(a)
    start = sum(block.arities[:i])
    row = [block.num[start + v, c] - 1.0 for v in range(block.arities[i])]
    return (row[int(value)] + 1.0) / (sum(row) + block.arities[i])


def likelihoods(leaf):
    """(attribute, P(value | class) function) of each active attribute, in attribute order."""
    pairs = [(a, obs.nb_likelihood) for a, obs in leaf.observers]
    if leaf.nominal is not None:
        pairs += [(a, lambda v, c, a=a: nominal_likelihood(leaf.nominal, a, v, c))
                  for a in leaf.nominal.attributes]
    return sorted(pairs, key=lambda pair: pair[0])


def reference_nb(leaf, values):
    """The leaf's NB prediction as the product of per-(value, class) likelihoods."""
    dist = leaf.dist
    k = len(dist)
    if dist.total <= 0.0:
        return 0, [1.0 / k] * k
    scores = []
    for c, prior in enumerate(dist.weights):
        s = 0.0
        if prior > 0.0:
            s = prior / dist.total
            for a, likelihood in likelihoods(leaf):
                s *= likelihood(values[a], c)
        scores.append(s)
    total = math.fsum(scores)
    if total <= 0.0:
        scores = [w / dist.total for w in dist.weights]
        total = 1.0
    scores = [s / total for s in scores]
    return scores.index(max(scores)), scores


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("algorithm", ["vfdt", "svfdt-i", "svfdt-ii"])
def test_kernel_matches_reference_product(stream, algorithm, monkeypatch):
    schema, instances = STREAMS[stream]()
    tree = make(algorithm, schema)
    reference = make(algorithm, schema)
    monkeypatch.setattr(reference, "_predict_nb", reference_nb)
    probe = [Instance(inst.values) for inst in instances[::40]]
    predictions, expected = [], []
    for i, inst in enumerate(instances, start=1):
        predictions.append(tree.train_one(inst))
        expected.append(reference.train_one(inst))
        if i % 1000 == 0:
            vectors = [tree.predict(p) for p in probe]
            assert vectors == [reference_nb(tree.sort_to_leaf(p), p.values) for p in probe]
    assert predictions == expected
    assert tree.split_log == reference.split_log
    assert len(tree.split_log) >= 2, "the stream must grow the tree"


@pytest.mark.parametrize("schema,good", [
    (Schema((Attribute.nominal("a", 2), Attribute.nominal("b", 3)), 2), (1, 2)),
    (Schema((Attribute.numeric("x"), Attribute.nominal("b", 3)), 2), (0.5, 2)),
])
def test_out_of_range_nominal_value_rejected(schema, good):
    tree = HoeffdingTree(schema, TreeConfig(leaf_prediction="nb"))
    for label in (0, 1, 0):
        tree.root.learn(good, label)
    tree.predict(Instance(good))
    for bad in (-1, 3):
        with pytest.raises(ContractViolation, match=r"out of range \[0, 3\)"):
            tree.predict(Instance((good[0], bad)))


@pytest.mark.parametrize("bad", [1.5, -0.5, 2.999, math.nan, math.inf])
def test_value_that_is_no_whole_number_rejected(bad):
    # The schema rejects the value before the kernel, which reads int(value).
    tree = HoeffdingTree(MIXED, CONFIG)
    for inst in mixed_stream(20, seed=1):
        tree.root.learn(inst.values, inst.label)
    assert tree.predict(Instance((2.0, 1.0, 0, 0.5))) == tree.predict(Instance((2, 1.0, 0, 0.5)))
    with pytest.raises(ContractViolation, match=r"out of range \[0, 3\)"):
        tree.predict(Instance((bad, 1.0, 0, 0.5)))


def overflow_tree(n_attrs):
    """Two classes over ``n_attrs`` numeric attributes whose values sit at the
    class value or 1e-9 above it, so each density at the class value is huge."""
    schema = Schema(tuple(Attribute.numeric(f"x{i}") for i in range(n_attrs)), 2)
    tree = HoeffdingTree(schema, TreeConfig(leaf_prediction="nb", grace_period=10_000))
    for i in range(100):
        c = i % 2
        tree.train_one(Instance(tuple(c + 1e-9 * ((i // 2 + j) % 2) for j in range(n_attrs)), c))
    return tree


@pytest.mark.parametrize("n_attrs", [40, 3])
def test_overflowing_product_keeps_a_probability_vector(n_attrs):
    # At 40 attributes class 1's product overflows to inf, and inf / inf
    # would read nan; the inf class takes the whole probability instead.
    # At 3 the product is finite and keeps its bits.
    tree = overflow_tree(n_attrs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        label, scores = tree.predict(Instance((1.0,) * n_attrs))
    assert (label, scores) == (1, [0.0, 1.0])
    assert all(math.isfinite(s) for s in scores) and math.fsum(scores) == 1.0
