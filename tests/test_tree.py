import math
import pickle
import random

import pytest

import streamtree.tree as tree_module
from streamtree.core import (
    Attribute,
    ClassDistribution,
    ConfigError,
    ContractViolation,
    Instance,
    Schema,
    hoeffding_bound,
)
from streamtree.experiment import make_learner
from streamtree.observers import SplitCandidate
from streamtree.tree import (
    HoeffdingTree,
    LeafNode,
    SplitNode,
    TreeConfig,
    feature_selection,
    vfdt_split_condition,
)
from test_golden import stream_prefix

TWO_NOMINAL = Schema((Attribute.nominal("a", 2), Attribute.nominal("b", 2)), 2)
TWO_NUMERIC = Schema((Attribute.numeric("x"), Attribute.numeric("y")), 2)


def active(leaf):
    """The attributes a leaf still observes, in attribute order."""
    nominal = leaf.nominal.attributes if leaf.nominal is not None else ()
    numeric = leaf.numeric.attributes if leaf.numeric is not None else ()
    return sorted([*numeric, *nominal])


def denominators(leaf):
    """n_c + k of each distinct arity k of the leaf's nominal block, ascending."""
    return [[w + k for w in leaf.observed] for k in sorted(set(leaf.nominal.arities))]


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
        left, right = tree.root, LeafNode(TWO_NUMERIC, (0, 1))
        tree.root = SplitNode(0, 5.0, [left, right])
        assert tree.sort_to_leaf(Instance((5.0, 0.0))) is left
        assert tree.sort_to_leaf(Instance((5.0001, 0.0))) is right

    def test_depth_two_tree_all_paths(self):
        # (x <= 1.0) then (y <= 2.0) on the left; a bare leaf on the right.
        tree = HoeffdingTree(TWO_NUMERIC)
        leaves = [LeafNode(TWO_NUMERIC, (0, 1)) for _ in range(3)]
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
        leaves = [LeafNode(TWO_NOMINAL, (1,)) for _ in range(2)]
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

    @pytest.mark.parametrize("algorithm", ["vfdt", "svfdt-i", "svfdt-ii"])
    @pytest.mark.parametrize("name", ["led", "csv"])
    def test_majority_class_leaves_hold_no_denominators(self, name, algorithm, tmp_path):
        stream = stream_prefix(name, tmp_path)
        tree = make_learner(algorithm, stream.schema, TreeConfig(leaf_prediction="mc"))
        instances = list(stream)
        for inst in instances:
            tree.train_one(inst)
        for inst in instances[:200]:
            tree.predict(inst)
        blocks = [leaf.nominal for leaf in tree.iter_leaves() if leaf.nominal is not None]
        assert blocks and tree.tree_size()[1] > 1
        assert all(block.den is None for block in blocks)

    def test_naive_bayes_denominators_are_the_observed_counts_plus_arity(self, monkeypatch):
        monkeypatch.setattr(tree_module, "NB_GATHER_CELLS", 0)  # den serves the numpy gather
        # a and b copy the label, so every check is refused at tiebreak 0 and
        # noise attribute c, of arity 3, is deactivated at the first one.
        schema = Schema(
            (Attribute.nominal("a", 2), Attribute.nominal("b", 2), Attribute.nominal("c", 3)), 2
        )
        tree = HoeffdingTree(schema, TreeConfig(grace_period=50, tiebreak=0.0,
                                                leaf_prediction="nb"))
        rng = random.Random(2)
        states = set()
        for _ in range(400):
            label = rng.randrange(2)
            tree.train_one(Instance((label, label, rng.randrange(3)), label))
            block = tree.root.nominal
            states.add((block.arities, block.den is None))
            if block.den is not None:
                assert block.den.tolist() == denominators(tree.root)
        # None before the first read and right after the deactivation; each
        # next read derives it, and learn keeps it current
        assert states == {((2, 2, 3), True), ((2, 2, 3), False), ((2, 2), True), ((2, 2), False)}
        tree.predict(Instance((0, 0, 1)))
        assert tree.root.nominal.den.tolist() == denominators(tree.root)

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
        numeric_faults = [(x, 1) for x in ("abc", None, math.nan, math.inf, -math.inf)]
        for bad in ((0.7, 5), (0.5,), (0.5, 1, 0), *numeric_faults):
            with pytest.raises(ContractViolation):
                tree.train_one(Instance(bad, 1))
        assert pickle.dumps(tree) == before
        assert tree.root.dist.weights == [2.0, 1.0] and tree.root.dist.total == 3.0
        assert tree.root.numeric.vmax == [0.5] and tree.instances_trained == 3

    @pytest.mark.parametrize("schema,good", [
        (Schema((Attribute.nominal("a", 2), Attribute.numeric("x")), 2), 0.5),
        (Schema((Attribute.nominal("a", 2), Attribute.nominal("b", 3)), 2), 1),
    ])
    @pytest.mark.parametrize("bad", [[0], {}, ([0],)])
    @pytest.mark.parametrize("mode", ["mc", "nb"])
    def test_unhashable_nominal_value_rejected(self, schema, good, bad, mode):
        # a copies the label and the other attribute is constant, so the
        # root splits on a; the bad value is tried at the root and below it.
        tree = HoeffdingTree(schema, TreeConfig(grace_period=20, leaf_prediction=mode))
        faults = [((bad, good), "a")]
        if schema.attributes[1].is_nominal:
            faults.append(((0, bad), "b"))
        for grown in (False, True):
            rng = random.Random(1)
            while grown and not tree.split_log:
                label = rng.randrange(2)
                tree.train_one(Instance((label, good), label))
            before = pickle.dumps(tree)
            for values, name in faults:
                message = f"out of range .* for attribute '{name}'"
                with pytest.raises(ContractViolation, match=message):
                    schema.check_values(values)
                with pytest.raises(ContractViolation, match=message):
                    tree.train_one(Instance(values, 0))
                with pytest.raises(ContractViolation, match=message):
                    tree.predict(Instance(values))
            assert pickle.dumps(tree) == before
        assert tree.root.attribute == 0

    @pytest.mark.parametrize("bad", ["abc", None, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", ["mc", "nb"])
    def test_numeric_value_that_is_not_a_finite_real_rejected_below_a_split(self, bad, mode):
        # Either numeric attribute may carry the bad value.
        tree = HoeffdingTree(TWO_NUMERIC, TreeConfig(grace_period=20, leaf_prediction=mode))
        rng = random.Random(3)
        while isinstance(tree.root, LeafNode):
            label = rng.randrange(2)
            tree.train_one(Instance((label + rng.random(), rng.random()), label))
        leaf = tree.sort_to_leaf(Instance((0.5, 0.5)))
        before = pickle.dumps(tree)
        state = (leaf.dist.weights[:], leaf.observed[:], pickle.dumps(leaf.numeric),
                 tree.split_log[:], tree.instances_trained)
        for values, name in (((bad, 0.5), "x"), ((0.5, bad), "y")):
            message = f"finite real number for attribute '{name}'"
            with pytest.raises(ContractViolation, match=message):
                tree.train_one(Instance(values, 1))
            with pytest.raises(ContractViolation, match=message):
                tree.predict(Instance(values))
        assert (leaf.dist.weights, leaf.observed, pickle.dumps(leaf.numeric),
                tree.split_log, tree.instances_trained) == state
        assert pickle.dumps(tree) == before

    def test_values_whose_sum_overflows_are_learned(self):
        tree = HoeffdingTree(TWO_NUMERIC)
        tree.train_one(Instance((1e308, 1e308), 0))
        tree.train_one(Instance((-1e308, -1e308), 1))
        assert tree.root.observed == [1.0, 1.0]
        assert tree.root.numeric.vmin == [-1e308, -1e308]
        assert tree.root.numeric.vmax == [1e308, 1e308]
        assert tree.predict(Instance((1e308, 1e308)))[0] == 0

    def test_leaf_starts_from_its_own_copy_of_the_branch_weights(self):
        weights = [2.5, 0.0]
        leaf = LeafNode(TWO_NUMERIC, (0, 1), weights)
        weights[0] = 9.0
        assert leaf.dist.weights == [2.5, 0.0] and leaf.dist.total == 2.5
        assert leaf.observed == [0, 0] and leaf.last_check_weight == 2.5
        with pytest.raises(ContractViolation, match="weight nan"):
            LeafNode(TWO_NUMERIC, (0, 1), [math.nan, 1.0])

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0, 3.0]])
    def test_one_weight_per_class_required(self, weights):
        schema = Schema((Attribute.numeric("x"),), 2)
        with pytest.raises(ContractViolation, match=f"{len(weights)} class weights for 2 classes"):
            LeafNode(schema, (0,), weights)

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
            assert child.last_check_weight <= child.dist.total
            # the nominal split attribute is gone from the children
            assert active(child) == [1]

    def test_no_instance_counted_twice_across_leaves(self):
        tree = HoeffdingTree(TWO_NOMINAL, TreeConfig(grace_period=50, tiebreak=0.5))
        n = 3000
        for inst in perfect_attribute_stream(n, seed=9):
            tree.train_one(inst)
        observed_total = sum(math.fsum(leaf.observed) for leaf in tree.iter_leaves())
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


class TestTreeConfig:
    @pytest.mark.parametrize("field", ["grace_period", "numeric_bins"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, 2.5, 2.0, 0, -1])
    def test_count_that_is_not_a_whole_number_from_one_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be a whole number in \\[1, inf\\]"):
            TreeConfig(**{field: bad})

    def test_count_of_one_accepted(self):
        assert TreeConfig(grace_period=1, numeric_bins=1).numeric_bins == 1


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
    return LeafNode(schema, tuple(range(schema.n_attributes)))


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
        tree.root = SplitNode(0, 1.0, [LeafNode(TWO_NUMERIC, (0, 1)),
                                       LeafNode(TWO_NUMERIC, (0, 1))])
        assert tree.tree_size() == (3, 2, 1)

    def test_hand_built_three_splits(self):
        tree = HoeffdingTree(TWO_NUMERIC)
        mk = lambda: LeafNode(TWO_NUMERIC, (0, 1))
        tree.root = SplitNode(
            0,
            1.0,
            [
                SplitNode(1, 2.0, [mk(), SplitNode(0, 0.5, [mk(), mk()])]),
                mk(),
            ],
        )
        # 3 split nodes + 4 leaves, longest path has 3 edges
        assert tree.tree_size() == (7, 4, 3)
