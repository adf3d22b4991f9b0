import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree.core import Attribute, ContractViolation, Instance, Schema
from streamtree.evaluation import kappa_m, prequential_run
from streamtree.streams import LedStream
from streamtree.tree import HoeffdingTree, TreeConfig

SCHEMA = Schema((Attribute.nominal("a", 2),), 2)


class TestKappaM:
    def test_majority_equivalent_classifier_scores_zero(self):
        assert kappa_m(0.6, 0.6) == 0.0

    def test_perfect_classifier_scores_one(self):
        assert kappa_m(1.0, 0.3) == 1.0

    def test_published_pair(self):
        # back-solved from a published ACC / Kappa M pairing
        assert kappa_m(0.763, 0.48812) == pytest.approx(0.537, abs=0.001)

    def test_below_baseline_is_negative(self):
        assert kappa_m(0.4, 0.6) < 0.0

    def test_pm_one_rejected(self):
        with pytest.raises(ContractViolation):
            kappa_m(0.9, 1.0)

    def test_monotone_in_p0(self):
        values = [kappa_m(p0, 0.5) for p0 in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values)


def reference_majority(labels, n_classes):
    """The plain prequential majority baseline: before each label, the argmax
    of the labels counted so far, the lowest index on a tie."""
    counts = [0] * n_classes
    predictions = []
    for label in labels:
        predictions.append(counts.index(max(counts)))
        counts[label] += 1
    return predictions


class StubLearner:
    """Predicts the given classes in turn and never grows."""

    def __init__(self, n_classes, predictions):
        self.schema = Schema((Attribute.nominal("a", 2),), n_classes)
        self._predictions = iter(predictions)

    def train_one(self, instance):
        return next(self._predictions)

    def tree_size(self):
        return 1, 1, 0


def baseline_run(labels, predictions, n_classes=2):
    """The final record of a stub run, and the reference baseline's rate."""
    learner = StubLearner(n_classes, predictions)
    final = prequential_run(learner, [Instance((0,), label) for label in labels]).final
    majority = reference_majority(labels, n_classes)
    rate = sum(m == label for m, label in zip(majority, labels)) / len(labels)
    return final, rate


def expected_kappa(accuracy, rate):
    return kappa_m(accuracy, rate) if rate < 1.0 else 0.0


class TestMajorityBaseline:
    def test_balanced_iid_stream_near_half(self):
        rng = random.Random(3)
        labels = [rng.randrange(2) for _ in range(100_000)]
        final, rate = baseline_run(labels, [0] * len(labels))
        assert rate == pytest.approx(0.5, abs=0.02)
        assert final.kappa_m == expected_kappa(final.accuracy, rate)

    def test_constant_class_zero_benefits_from_tie_rule(self):
        assert reference_majority([0] * 50, 2) == [0] * 50
        final, rate = baseline_run([0] * 50, [1] * 50)
        assert rate == 1.0
        assert final.accuracy == 0.0 and final.kappa_m == 0.0  # pm == 1 convention

    def test_constant_class_one_misses_first(self):
        assert reference_majority([1] * 50, 2) == [0] + [1] * 49
        final, rate = baseline_run([1] * 50, [0] * 50)
        assert rate == pytest.approx(49 / 50)
        assert final.kappa_m == pytest.approx(kappa_m(0.0, 49 / 50))
        assert final.kappa_m == expected_kappa(final.accuracy, rate)

    def test_alternating_trace_by_hand(self):
        # each 0/1 tie goes back to class 0: 3 of 6 predicted right
        assert reference_majority([0, 1] * 3, 2) == [0] * 6
        final, rate = baseline_run([0, 1] * 3, [1] * 6)
        assert rate == pytest.approx(0.5)
        assert final.kappa_m == pytest.approx(kappa_m(0.5, 0.5))
        assert final.kappa_m == expected_kappa(final.accuracy, rate)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 5))
    def test_kappa_m_reads_the_reference_baseline(self, data, n_classes):
        classes = st.integers(0, n_classes - 1)
        labels = data.draw(st.lists(classes, min_size=1, max_size=200))
        predictions = data.draw(st.lists(classes, min_size=len(labels), max_size=len(labels)))
        final, rate = baseline_run(labels, predictions, n_classes)
        assert final.kappa_m == expected_kappa(final.accuracy, rate)


def constant_stream(label, n):
    return [Instance((0,), label) for _ in range(n)]


class TestPrequentialRun:
    def test_constant_class_one_accuracy(self):
        # empty leaf predicts class 0 first, then the majority takes over
        learner = HoeffdingTree(SCHEMA)
        result = prequential_run(learner, constant_stream(1, 100), snapshot_every=1000)
        assert result.final.accuracy == pytest.approx(99 / 100)

    def test_constant_class_zero_accuracy_is_one(self):
        learner = HoeffdingTree(SCHEMA)
        result = prequential_run(learner, constant_stream(0, 100), snapshot_every=1000)
        assert result.final.accuracy == 1.0
        assert result.final.kappa_m == 0.0  # pm == 1 convention

    def test_snapshot_cadence(self):
        learner = HoeffdingTree(SCHEMA)
        result = prequential_run(learner, constant_stream(0, 10), snapshot_every=4)
        assert [s.instances_seen for s in result.snapshots] == [4, 8, 10]

    def test_tree_is_walked_once_per_snapshot_and_final_is_the_last(self, monkeypatch):
        walks = []
        tree_size = HoeffdingTree.tree_size
        monkeypatch.setattr(HoeffdingTree, "tree_size",
                            lambda self: walks.append(self) or tree_size(self))
        result = prequential_run(HoeffdingTree(SCHEMA), constant_stream(0, 10), snapshot_every=4)
        assert len(walks) == len(result.snapshots) == 3
        assert result.final is result.snapshots[-1]

    def test_snapshot_every_equal_to_n(self):
        learner = HoeffdingTree(SCHEMA)
        result = prequential_run(learner, constant_stream(0, 10), snapshot_every=10)
        assert [s.instances_seen for s in result.snapshots] == [10]
        assert result.final.instances_seen == 10

    def test_empty_stream_rejected(self):
        learner = HoeffdingTree(SCHEMA)
        with pytest.raises(ContractViolation):
            prequential_run(learner, [])

    def test_accuracy_invariant_to_snapshot_frequency(self):
        stream = LedStream(noise=0.1, seed=4, n=3000)
        instances = list(stream)
        finals = []
        for every in (100, 999, 3000):
            learner = HoeffdingTree(stream.schema, TreeConfig(tiebreak=0.1))
            finals.append(prequential_run(learner, instances, snapshot_every=every).final)
        assert finals[0].accuracy == finals[1].accuracy == finals[2].accuracy
        assert finals[0].node_count == finals[1].node_count == finals[2].node_count

    def test_identical_runs_identical_non_time_fields(self):
        stream = LedStream(noise=0.1, seed=4, n=5000)
        results = []
        for _ in range(2):
            learner = HoeffdingTree(stream.schema, TreeConfig(tiebreak=0.1))
            results.append(prequential_run(learner, stream, snapshot_every=1000))
        for a, b in zip(results[0].snapshots, results[1].snapshots):
            assert (a.instances_seen, a.accuracy, a.kappa_m, a.node_count) == (
                b.instances_seen, b.accuracy, b.kappa_m, b.node_count
            )

    def test_node_count_never_decreases(self):
        stream = LedStream(noise=0.1, seed=6, n=20000)
        learner = HoeffdingTree(stream.schema, TreeConfig(tiebreak=0.2))
        result = prequential_run(learner, stream, snapshot_every=1000)
        counts = [s.node_count for s in result.snapshots]
        assert counts == sorted(counts)
        assert result.final.node_count == result.final.leaf_count + len(learner.split_log)

    def test_kappa_m_against_the_prequential_majority(self):
        # NB leaves learn the label from the attribute; the running majority
        # predicts 0 1 1 1 0 1 against labels 1 1 0 0 1 0, so pm = 1/6.
        learner = HoeffdingTree(SCHEMA, TreeConfig(leaf_prediction="nb"))
        stream = [Instance((lab,), lab) for lab in (1, 1, 0, 0, 1, 0)]
        result = prequential_run(learner, stream)
        assert result.final.accuracy == pytest.approx(4 / 6)
        assert result.final.kappa_m == pytest.approx(kappa_m(4 / 6, 1 / 6))
