"""Hypothesis properties of the learners that hand examples cannot pin."""
import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree.core import Attribute, ClassDistribution, Instance, Schema
from streamtree.experiment import make_learner
from streamtree.streams import LedStream, SeaStream
from streamtree.svfdt import leaf_entropy_stats
from streamtree.tree import LeafNode, TreeConfig

THREE_CLASSES = Schema((Attribute.nominal("a", 2),), 3)

weights = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
)


def bits(snapshot):
    count, mean, std = snapshot
    return count, mean.hex(), std.hex()


@given(st.data(), st.lists(weights, min_size=1, max_size=40))
def test_leaf_entropy_stats_ignore_leaf_order(data, leaf_weights):
    leaves = [
        LeafNode(i, THREE_CLASSES, (0,), 10, ClassDistribution.from_weights(w))
        for i, w in enumerate(leaf_weights)
    ]
    shuffled = data.draw(st.permutations(leaves))
    assert bits(leaf_entropy_stats(shuffled)) == bits(leaf_entropy_stats(leaves))


def make_stream(kind: str, seed: int, n: int):
    if kind == "led":
        return LedStream(noise=0.1, seed=seed, n=n)
    return SeaStream(seed=seed, n=n)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["led", "sea"]),
    seed=st.integers(1, 10_000),
    prefix=st.integers(0, 1500),
    algorithm=st.sampled_from(["vfdt", "svfdt-i", "svfdt-ii"]),
    mode=st.sampled_from(["mc", "nb"]),
)
def test_train_one_prediction_is_label_blind(kind, seed, prefix, algorithm, mode):
    stream = make_stream(kind, seed, prefix + 1)
    config = TreeConfig(grace_period=50, tiebreak=0.2, leaf_prediction=mode)
    learner = make_learner(algorithm, stream.schema, config)
    *trained, probe = stream
    for instance in trained:
        learner.train_one(instance)
    predictions = {
        copy.deepcopy(learner).train_one(Instance(probe.values, label))
        for label in range(learner.schema.class_count)
    }
    assert len(predictions) == 1
