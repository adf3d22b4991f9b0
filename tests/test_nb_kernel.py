"""The naive-Bayes leaf kernel against the per-(value, class) likelihoods.

``naive_bayes_scores`` hoists the per-attribute work out of the class loop
and reads each Laplace denominator from the leaf's observed class counts.
With unit weights every count is an exact integer, so the kernel must give
the very bits of multiplying the observers' ``nb_likelihood`` values in
attribute order: predictions, probability vectors and split logs are
compared with ``==``.
"""
import math
import random

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
            for a, obs in leaf.observers:
                s *= obs.nb_likelihood(values[a], c)
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
