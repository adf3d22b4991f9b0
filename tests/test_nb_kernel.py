"""The naive-Bayes leaf kernel against the per-(value, class) likelihoods.

``HoeffdingTree._predict_nb`` multiplies each class's prior by one factor
per active attribute, or, on an all-nominal leaf of more than
``NB_GATHER_CELLS`` (attribute, class) cells, gathers the nominal
likelihood rows from its ``NominalObserver`` block, whose Laplace
denominators are kept per arity as instances arrive.  Every count is an
exact integer, so either path must give the very bits of multiplying the
per-(value, class) likelihoods below in attribute order: predictions,
probability vectors and split logs are compared with ``==`` or as hex
strings.
"""
import math
import pickle
import random
import warnings

import pytest

from streamtree.core import Attribute, ContractViolation, Instance, Schema
from streamtree.streams import LedStream, RbfStream, SeaStream
from streamtree.svfdt import StrictHoeffdingTree
from streamtree.tree import NB_GATHER_CELLS, HoeffdingTree, TreeConfig

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
    per-arity ``den`` bookkeeping is checked, not trusted.  Each count is read
    as a Python float, so the arithmetic here is float64 whatever the block's dtype.
    """
    i = block.attributes.index(a)
    start = sum(block.arities[:i])
    row = [float(block.num[start + v, c]) - 1.0 for v in range(block.arities[i])]
    return (row[int(value)] + 1.0) / (sum(row) + block.arities[i])


def gaussian_likelihood(leaf, a, value, c):
    """Gaussian density of ``value`` under class c for numeric attribute ``a``;
    a point mass where the variance is 0, and 1 for a class the leaf has not
    observed.  The class count is the leaf's observed count."""
    block = leaf.numeric
    j = block.attributes.index(a)
    n = leaf.observed[c]
    if n <= 0.0:
        return 1.0
    diff = float(value) - block.means[c][j]
    if n > 1.0:
        var = block.m2[c][j] / (n - 1.0)
        if var > 0.0:
            return math.exp(-diff * diff / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return 1.0 if abs(diff) <= 1e-9 else 0.0


def likelihoods(leaf):
    """(attribute, P(value | class) function) of each active attribute, in attribute order."""
    pairs = []
    if leaf.numeric is not None:
        pairs += [(a, lambda v, c, a=a: gaussian_likelihood(leaf, a, v, c))
                  for a in leaf.numeric.attributes]
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


def hexes(prediction):
    label, scores = prediction
    return label, [s.hex() for s in scores]


def fed_leaf_tree(schema, n, seed):
    """A one-leaf NB tree whose root has learnt ``n`` random instances."""
    tree = HoeffdingTree(schema, TreeConfig(leaf_prediction="nb", grace_period=10 ** 9))
    rng = random.Random(seed)
    for _ in range(n):
        tree.root.learn(random_values(schema, rng), rng.randrange(schema.class_count))
    return tree


def random_values(schema, rng):
    return tuple(rng.randrange(t.arity) if t.is_nominal else rng.gauss(0.0, 1.0)
                 for t in schema.attributes)


def plan(leaf):
    """The leaf's derived attribute-order plan; a loaded leaf has none set."""
    return getattr(leaf, "nb_plan", None)


def assert_matches_reference(tree, probes):
    for values in probes:
        assert hexes(tree.predict(Instance(values))) == hexes(reference_nb(tree.root, values))


@pytest.mark.parametrize("extra", [0, 1], ids=["at-the-constant", "one-attribute-above"])
def test_all_nominal_leaves_either_side_of_the_gather_constant(extra):
    k = 4
    width = NB_GATHER_CELLS // k + extra
    schema = Schema(tuple(Attribute.nominal(f"a{i}", 2 + i % 3) for i in range(width)), k)
    tree = fed_leaf_tree(schema, 300, seed=width)
    rng = random.Random(1)
    assert_matches_reference(tree, [random_values(schema, rng) for _ in range(50)])
    # the gather reads den and no plan; the scalar product the reverse
    gathers = width * k > NB_GATHER_CELLS
    assert (plan(tree.root) is None, tree.root.nominal.den is not None) == (gathers, gathers)


def test_mixed_leaf_after_a_numeric_and_after_a_nominal_deactivation():
    schema = Schema(tuple(Attribute.numeric(f"x{i}") if i % 2 else Attribute.nominal(f"a{i}", 3)
                          for i in range(6)), 3)
    tree = fed_leaf_tree(schema, 400, seed=2)
    rng = random.Random(3)
    probes = [random_values(schema, rng) for _ in range(30)]
    assert_matches_reference(tree, probes)
    for attribute in (3, 2):  # numeric, then nominal
        tree.root.disable_attribute(attribute)
        assert plan(tree.root) is None
        assert_matches_reference(tree, probes)
        for _ in range(50):
            tree.root.learn(random_values(schema, rng), rng.randrange(3))
        assert_matches_reference(tree, probes)
    assert [a for a, _, _ in plan(tree.root)] == [0, 1, 4, 5]


@pytest.mark.parametrize("stream", ["mixed", "led", "sea"])
def test_leaf_pickled_and_loaded_between_predictions(stream):
    schema, instances = STREAMS[stream]()
    tree = HoeffdingTree(schema, TreeConfig(leaf_prediction="nb", grace_period=10 ** 9))
    for inst in instances[:500]:
        tree.train_one(inst)
    probes = [inst.values for inst in instances[500:540]]
    assert_matches_reference(tree, probes)
    copy = pickle.loads(pickle.dumps(tree))
    assert plan(copy.root) is None
    assert_matches_reference(copy, probes)
    for inst in instances[540:800]:
        assert copy.train_one(inst) == tree.train_one(inst)
    assert_matches_reference(copy, probes)
    assert [hexes(copy.predict(Instance(v))) for v in probes] == \
        [hexes(tree.predict(Instance(v))) for v in probes]


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_a_naive_bayes_read_leaves_the_pickle_unchanged(stream):
    schema, instances = STREAMS[stream]()
    tree = make("svfdt-ii", schema)
    for inst in instances[:2000]:
        tree.train_one(inst)
    unread = pickle.loads(pickle.dumps(tree))  # no leaf holds a plan or denominators
    before = pickle.dumps(unread)
    for inst in instances[2000:2200]:
        unread.predict(Instance(inst.values))
    leaves = list(unread.iter_leaves())  # each read derives a plan or den
    assert any(plan(leaf) is not None for leaf in leaves) or any(
        leaf.nominal.den is not None for leaf in leaves if leaf.nominal is not None)
    assert pickle.dumps(unread) == before
