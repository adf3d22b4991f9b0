import math
import pickle
import random

import pytest

from streamtree.core import (
    Attribute,
    ClassDistribution,
    ContractViolation,
    Instance,
    Schema,
    hoeffding_bound,
)
from streamtree.observers import SplitCandidate
from streamtree.tree import (
    HoeffdingTree,
    LeafNode,
    SplitNode,
    TreeConfig,
    feature_selection,
    vfdt_split_condition,
)

TWO_NOMINAL = Schema((Attribute.nominal("a", 2), Attribute.nominal("b", 2)), 2)
TWO_NUMERIC = Schema((Attribute.numeric("x"), Attribute.numeric("y")), 2)


def active(leaf):
    """The attributes a leaf still observes, in attribute order."""
    nominal = leaf.nominal.attributes if leaf.nominal is not None else ()
    return sorted([a for a, _ in leaf.observers] + list(nominal))


def perfect_attribute_stream(n, seed=0):
    """Attribute 0 copies the label; attribute 1 is random noise."""
    rng = random.Random(seed)
    for _ in range(n):
        label = rng.randrange(2)
        yield Instance((label, rng.randrange(2)), label)


class TestRouting:
    def test_single_leaf_returns_root(self):
        tree = HoeffdingTree(TWO_NUMERIC)
        inst = Instance((1.0, 2.0))
        assert tree.sort_to_leaf(inst) is tree.root

    def test_boundary_goes_left(self):
        tree = HoeffdingTree(TWO_NUMERIC)
        left, right = tree.root, LeafNode(99, TWO_NUMERIC, (0, 1), 10)
        tree.root = SplitNode(0, 5.0, [left, right])
        assert tree.sort_to_leaf(Instance((5.0, 0.0))) is left
        assert tree.sort_to_leaf(Instance((5.0001, 0.0))) is right

    def test_depth_two_tree_all_paths(self):
        # (x <= 1.0) then (y <= 2.0) on the left; a bare leaf on the right.
        tree = HoeffdingTree(TWO_NUMERIC)
        leaves = [LeafNode(i, TWO_NUMERIC, (0, 1), 10) for i in range(3)]
        inner = SplitNode(1, 2.0, [leaves[0], leaves[1]])
        tree.root = SplitNode(0, 1.0, [inner, leaves[2]])
        cases = {
            (0.5, 1.0): leaves[0],
            (0.5, 3.0): leaves[1],
            (1.5, 1.0): leaves[2],
            (1.5, 3.0): leaves[2],
        }
        for values, expected in cases.items():
            assert tree.sort_to_leaf(Instance(values)) is expected

    def test_nominal_fanout_routes_by_value(self):
        tree = HoeffdingTree(TWO_NOMINAL)
        leaves = [LeafNode(i, TWO_NOMINAL, (1,), 10) for i in range(2)]
        tree.root = SplitNode(0, None, leaves)
        assert tree.sort_to_leaf(Instance((0, 1))) is leaves[0]
        assert tree.sort_to_leaf(Instance((1, 0))) is leaves[1]

    @pytest.mark.parametrize("mode", ["mc", "nb"])
    def test_out_of_range_nominal_value_rejected_at_routing(self, mode):
        # Attribute 0 (3 values) copies the 3-valued label, so the root
        # splits on it; its children no longer model attribute 0.
        schema = Schema((Attribute.nominal("a", 3), Attribute.nominal("b", 2)), 3)
        tree = HoeffdingTree(schema, TreeConfig(leaf_prediction=mode))
        rng = random.Random(1)
        while not tree.split_log:
            label = rng.randrange(3)
            tree.train_one(Instance((label, rng.randrange(2)), label))
        assert tree.root.attribute == 0 and tree.root.threshold is None
        trained = tree.instances_trained
        for bad in (-1, 3, 1.7, -0.5, math.nan, math.inf):
            with pytest.raises(ContractViolation, match=r"out of range \[0, 3\)"):
                tree.predict(Instance((bad, 0)))
            with pytest.raises(ContractViolation, match=r"out of range \[0, 3\)"):
                tree.train_one(Instance((bad, 0), 0))
        assert tree.instances_trained == trained

    def test_mc_leaf_prediction_rejects_out_of_range_nominal_values(self):
        # No split yet, so routing checks nothing; predict() itself must.
        schema = Schema((Attribute.nominal("a", 3), Attribute.nominal("b", 2)), 3)
        tree = HoeffdingTree(schema, TreeConfig(leaf_prediction="mc"))
        rng = random.Random(1)
        for _ in range(50):
            tree.train_one(Instance((rng.randrange(3), rng.randrange(2)), rng.randrange(3)))
        assert not tree.split_log
        tree.predict(Instance((2, 1)))
        with pytest.raises(ContractViolation, match=r"-1 out of range \[0, 3\)"):
            tree.predict(Instance((-1, 7)))
        with pytest.raises(ContractViolation, match=r"5 out of range \[0, 3\)"):
            tree.predict(Instance((5, 0)))
        with pytest.raises(ContractViolation, match=r"2.9 out of range \[0, 3\)"):
            tree.predict(Instance((2.9, 0)))
        with pytest.raises(ContractViolation, match=r"7 out of range \[0, 2\)"):
            tree.predict(Instance((0, 7)))

    def test_routing_is_deterministic(self):
        tree = HoeffdingTree(TWO_NOMINAL)
        for inst in perfect_attribute_stream(600, seed=3):
            tree.train_one(inst)
        probe = Instance((1, 0))
        leaf = tree.sort_to_leaf(probe)
        assert all(tree.sort_to_leaf(probe) is leaf for _ in range(5))


class TestPrediction:
    def test_majority_class(self):
        tree = HoeffdingTree(TWO_NOMINAL)
        tree.root.dist = ClassDistribution.from_weights([3, 7])
        cls, scores = tree.predict(Instance((0, 0)))
        assert cls == 1
        assert scores == pytest.approx([0.3, 0.7])

    def test_majority_tie_goes_low(self):
        tree = HoeffdingTree(TWO_NOMINAL)
        tree.root.dist = ClassDistribution.from_weights([5, 5])
        assert tree.predict(Instance((0, 0)))[0] == 0

    def test_empty_leaf_uniform(self):
        tree = HoeffdingTree(TWO_NOMINAL)
        cls, scores = tree.predict(Instance((0, 0)))
        assert cls == 0
        assert scores == [0.5, 0.5]

    def test_naive_bayes_hand_example(self):
        schema = Schema((Attribute.nominal("a", 2),), 2)
        tree = HoeffdingTree(schema, TreeConfig(leaf_prediction="nb"))
        # class 0: values [3, 1]; class 1: values [1, 3]
        for _ in range(3):
            tree.root.learn((0,), 0)
            tree.root.learn((1,), 1)
        tree.root.learn((1,), 0)
        tree.root.learn((0,), 1)
        # P(c) = 0.5 each; P(v=0|0) = (3+1)/(4+2) = 2/3, P(v=0|1) = (1+1)/(4+2) = 1/3
        cls, scores = tree.predict(Instance((0,)))
        assert cls == 0
        assert scores[0] == pytest.approx((0.5 * 2 / 3) / (0.5 * 2 / 3 + 0.5 * 1 / 3))

    def test_prediction_precedes_update(self):
        # Test-then-train: train_one's return value must match predict()
        # evaluated immediately before on the same instance.
        tree = HoeffdingTree(TWO_NOMINAL)
        for inst in perfect_attribute_stream(800, seed=5):
            expected = tree.predict(inst)[0]
            assert tree.train_one(inst) == expected


class TestTraining:
    def test_grace_period_blocks_early_attempts(self):
        tree = HoeffdingTree(TWO_NOMINAL, TreeConfig(grace_period=200))
        stream = list(perfect_attribute_stream(200, seed=1))
        for inst in stream:
            tree.train_one(inst)
        assert tree.split_log == []
        assert tree.root.last_check_weight == 0.0  # no check has run yet

    def test_perfect_attribute_splits_exactly_once(self):
        tree = HoeffdingTree(TWO_NOMINAL, TreeConfig(grace_period=200, delta=1e-5, tiebreak=0.05))
        for inst in perfect_attribute_stream(2000, seed=1):
            tree.train_one(inst)
        # Gain gap is 1.0 > epsilon at the first permitted check (n = 201),
        # and the resulting children are pure, so growth stops there.
        assert tree.split_log == [(201, 0)]
        assert tree.tree_size() == (3, 2, 1)

    def test_pure_stream_never_splits(self):
        tree = HoeffdingTree(TWO_NOMINAL)
        rng = random.Random(0)
        for _ in range(3000):
            tree.train_one(Instance((rng.randrange(2), rng.randrange(2)), 1))
        assert tree.tree_size() == (1, 1, 0)

    def test_unlabelled_instance_rejected(self):
        tree = HoeffdingTree(TWO_NOMINAL)
        with pytest.raises(ContractViolation):
            tree.train_one(Instance((0, 0), None))

    @pytest.mark.parametrize("bad", [-1, 3, 1.5])
    def test_label_outside_the_classes_rejected_before_learning(self, bad):
        schema = Schema((Attribute.nominal("a", 3), Attribute.numeric("x")), 3)
        tree = HoeffdingTree(schema)
        for label in (0, 1, 2):
            tree.train_one(Instance((label, 0.5), label))
        with pytest.raises(ContractViolation, match=r"class index in \[0, 3\)"):
            tree.train_one(Instance((1, 0.5), bad))
        assert tree.instances_trained == 3
        assert tree.root.dist.weights == [1.0, 1.0, 1.0]
        assert tree.split_log == []

    @pytest.mark.parametrize("weight", [math.nan, math.inf, 2.0])
    def test_an_instance_carries_no_weight(self, weight):
        # Every instance counts once, so count + 1 and n_c + arity stay whole
        # numbers; a nan or inf weight used to be learned into the leaf.
        schema = Schema((Attribute.nominal("a", 2), Attribute.numeric("x")), 2)
        tree = HoeffdingTree(schema, TreeConfig(leaf_prediction="nb"))
        with pytest.raises(TypeError):
            tree.train_one(Instance((1, 0.5), 0), weight=weight)
        with pytest.raises(TypeError):
            tree.root.learn((1, 0.5), 0, weight)
        assert tree.root.dist.weights == [0.0, 0.0] and tree.instances_trained == 0
        tree.train_one(Instance((1, 0.5), 0))
        assert tree.predict(Instance((1, 0.5))) == (0, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [1.7, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["mc", "nb"])
    def test_nominal_value_that_is_no_whole_number_rejected(self, bad, mode):
        # Rejected both at an empty leaf and at one that has learned.
        schema = Schema((Attribute.nominal("a", 3), Attribute.numeric("x")), 2)
        tree = HoeffdingTree(schema, TreeConfig(leaf_prediction=mode))
        with pytest.raises(ContractViolation, match=r"out of range \[0, 3\)"):
            tree.train_one(Instance((bad, 0.5), 0))
        tree = HoeffdingTree(schema, TreeConfig(leaf_prediction=mode))
        for label in (0, 1, 0):
            tree.train_one(Instance((label, 0.5), label))
        with pytest.raises(ContractViolation, match=r"out of range \[0, 3\)"):
            tree.train_one(Instance((bad, 0.5), 0))

    def test_rejected_instance_leaves_the_tree_unchanged(self):
        schema = Schema((Attribute.numeric("x"), Attribute.nominal("a", 3)), 2)
        tree = HoeffdingTree(schema)
        for inst in (Instance((0.1, 0), 0), Instance((0.3, 1), 1), Instance((0.5, 2), 0)):
            tree.train_one(inst)
        before = pickle.dumps(tree)
        for bad in ((0.7, 5), (0.5,), (0.5, 1, 0)):
            with pytest.raises(ContractViolation):
                tree.train_one(Instance(bad, 1))
        assert pickle.dumps(tree) == before
        assert tree.root.dist.weights == [2.0, 1.0] and tree.root.weight_seen == 3.0

    @pytest.mark.parametrize("mode", ["mc", "nb"])
    def test_value_of_a_deactivated_attribute_still_checked(self, mode):
        # a and b copy the label, so their merits tie and every check is
        # refused at tiebreak 0; noise attribute c trails and is dropped.
        schema = Schema(
            (Attribute.nominal("a", 2), Attribute.nominal("b", 2), Attribute.nominal("c", 3)), 2
        )
        tree = HoeffdingTree(schema, TreeConfig(grace_period=50, tiebreak=0.0,
                                                leaf_prediction=mode))
        rng = random.Random(2)
        for _ in range(400):
            label = rng.randrange(2)
            tree.train_one(Instance((label, label, rng.randrange(3)), label))
        assert active(tree.root) == [0, 1]
        before = pickle.dumps(tree)
        with pytest.raises(ContractViolation, match=r"7 out of range \[0, 3\) for attribute 'c'"):
            tree.train_one(Instance((0, 0, 7), 0))
        assert pickle.dumps(tree) == before

    def test_children_inherit_post_split_state(self):
        tree = HoeffdingTree(TWO_NOMINAL, TreeConfig(grace_period=200))
        for inst in perfect_attribute_stream(300, seed=1):
            tree.train_one(inst)
        assert isinstance(tree.root, SplitNode)
        for child in tree.root.children:
            assert child.weight_seen == pytest.approx(child.dist.total, rel=1e-9)
            assert child.last_check_weight <= child.weight_seen
            # the nominal split attribute is gone from the children
            assert active(child) == [1]

    def test_no_instance_counted_twice_across_leaves(self):
        tree = HoeffdingTree(TWO_NOMINAL, TreeConfig(grace_period=50, tiebreak=0.5))
        n = 3000
        for inst in perfect_attribute_stream(n, seed=9):
            tree.train_one(inst)
        observed_total = sum(leaf.observed.total for leaf in tree.iter_leaves())
        assert observed_total <= n + 1e-9

    def test_growth_is_independent_of_leaf_prediction(self):
        # Predictions never feed training, so mc and nb trees are identical.
        rng = random.Random(4)
        instances = [
            Instance((rng.randrange(2), rng.randrange(2)), rng.randrange(2))
            for _ in range(4000)
        ]
        outcomes = []
        for mode in ("mc", "nb"):
            tree = HoeffdingTree(TWO_NOMINAL, TreeConfig(tiebreak=0.3, leaf_prediction=mode))
            for inst in instances:
                tree.train_one(inst)
            outcomes.append((tree.split_log, tree.tree_size()))
        assert outcomes[0] == outcomes[1]

    def test_high_tiebreak_forces_splits(self):
        # With tiebreak >= the bound at the first check, every impure check
        # with a distinct best attribute splits.
        config = TreeConfig(grace_period=50, delta=1e-5, tiebreak=1.0)
        eps_at_first_check = hoeffding_bound(1.0, config.delta, 51)
        assert config.tiebreak >= eps_at_first_check
        tree = HoeffdingTree(TWO_NOMINAL, config)
        rng = random.Random(2)
        for _ in range(200):
            label = rng.randrange(2)
            noisy = label if rng.random() < 0.7 else 1 - label
            tree.train_one(Instance((noisy, rng.randrange(2)), label))
        assert tree.split_log, "tiebreak regime must grow the tree"


class TestSplitCondition:
    def test_clear_winner(self):
        assert vfdt_split_condition([0.6, 0.1], epsilon=0.2, tiebreak=0.05)

    def test_neither_branch(self):
        assert not vfdt_split_condition([0.11, 0.10], epsilon=0.2, tiebreak=0.05)

    def test_tiebreak_fires(self):
        assert vfdt_split_condition([0.11, 0.10], epsilon=0.04, tiebreak=0.05)

    def test_single_candidate_competes_with_zero(self):
        assert vfdt_split_condition([0.5], epsilon=0.3, tiebreak=0.0)
        assert not vfdt_split_condition([0.2], epsilon=0.3, tiebreak=0.0)


def make_leaf_with_observers(schema):
    return LeafNode(0, schema, tuple(range(schema.n_attributes)), 10)


class TestFeatureSelection:
    def rank(self, merits):
        return [SplitCandidate(i, None, m, []) for i, m in enumerate(merits)]

    def test_trailing_attribute_dropped(self):
        leaf = make_leaf_with_observers(TWO_NOMINAL)
        feature_selection(self.rank([0.9, 0.1]), epsilon=0.3, leaf=leaf)
        assert active(leaf) == [0]

    def test_equal_merits_keep_everything(self):
        leaf = make_leaf_with_observers(TWO_NOMINAL)
        feature_selection(self.rank([0.5, 0.5]), epsilon=0.0, leaf=leaf)
        assert active(leaf) == [0, 1]

    def test_large_epsilon_keeps_everything(self):
        leaf = make_leaf_with_observers(TWO_NOMINAL)
        feature_selection(self.rank([0.9, 0.1]), epsilon=0.85, leaf=leaf)
        assert active(leaf) == [0, 1]


class TestTreeSize:
    def test_fresh_tree(self):
        assert HoeffdingTree(TWO_NOMINAL).tree_size() == (1, 1, 0)

    def test_single_binary_split(self):
        tree = HoeffdingTree(TWO_NUMERIC)
        tree.root = SplitNode(0, 1.0, [LeafNode(1, TWO_NUMERIC, (0, 1), 10),
                                       LeafNode(2, TWO_NUMERIC, (0, 1), 10)])
        assert tree.tree_size() == (3, 2, 1)

    def test_hand_built_three_splits(self):
        tree = HoeffdingTree(TWO_NUMERIC)
        mk = lambda i: LeafNode(i, TWO_NUMERIC, (0, 1), 10)
        tree.root = SplitNode(
            0,
            1.0,
            [
                SplitNode(1, 2.0, [mk(1), SplitNode(0, 0.5, [mk(2), mk(3)])]),
                mk(4),
            ],
        )
        # 3 split nodes + 4 leaves, longest path has 3 edges
        assert tree.tree_size() == (7, 4, 3)
