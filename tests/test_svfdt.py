import math
import random
import statistics

import pytest

from streamtree.core import Attribute, ClassDistribution, ContractViolation, Schema, entropy
from streamtree.streams import LedStream, SeaStream
import streamtree.svfdt as svfdt
from streamtree.svfdt import (
    GrowthStatistics,
    RunningStat,
    StatSnapshot,
    StrictHoeffdingTree,
    can_split,
    leaf_entropy_stats,
    phi,
    varpi,
)
from streamtree.tree import HoeffdingTree, LeafNode, TreeConfig

SCHEMA = Schema((Attribute.nominal("a", 2), Attribute.nominal("b", 2)), 2)


def dist_with_entropy(h_target: float, total: float) -> ClassDistribution:
    """Two-class distribution with the requested entropy, by bisection on p."""
    lo, hi = 0.5, 1.0 - 1e-12
    for _ in range(200):
        p = (lo + hi) / 2
        h = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        if h > h_target:
            lo = p
        else:
            hi = p
    p = (lo + hi) / 2
    return ClassDistribution.from_weights([p * total, (1 - p) * total])


def make_leaf(leaf_id: int, h: float, total: float) -> LeafNode:
    leaf = LeafNode(SCHEMA, (0, 1))
    leaf.dist = dist_with_entropy(h, total)
    assert entropy(leaf.dist) == pytest.approx(h, abs=1e-9)
    return leaf


def primed_stats(hs=(), igs=(), ns=()) -> GrowthStatistics:
    stats = GrowthStatistics()
    for h, ig, n in zip(hs, igs, ns):
        stats.record_satisfy(h, ig, n)
    return stats


# The sample {1, 2, 3}: mean 2, unbiased sigma 1.
ONE_TWO_THREE = StatSnapshot(3, 2.0, 1.0)
EMPTY = StatSnapshot(0, 0.0, 0.0)


class TestRunningStat:
    def test_empty_snapshot_has_zero_count(self):
        assert RunningStat().snapshot() == EMPTY

    def test_single_value(self):
        stat = RunningStat()
        stat.push(4.0)
        assert stat.snapshot() == (1, 4.0, 0.0)

    def test_matches_statistics_module(self):
        rng = random.Random(5)
        xs = [rng.uniform(-10, 10) for _ in range(500)]
        stat = RunningStat()
        for x in xs:
            stat.push(x)
        snap = stat.snapshot()
        assert snap.count == 500
        assert snap.mean == pytest.approx(statistics.fmean(xs), rel=1e-12)
        assert snap.std == pytest.approx(statistics.stdev(xs), rel=1e-9)


class TestPhiVarpi:
    def test_phi_boundary_sigma_zero(self):
        stat = RunningStat()
        stat.push(2.0)
        assert phi(2.0, stat.snapshot())

    def test_phi_two_sigma_below_fails(self):
        assert not phi(0.0, ONE_TWO_THREE)

    def test_phi_hand_sample(self):
        assert phi(1.2, ONE_TWO_THREE)  # 1.2 >= 2 - 1

    def test_phi_empty_passes(self):
        assert phi(0.0, RunningStat().snapshot())
        assert phi(-100.0, EMPTY)

    def test_varpi_boundary_inclusive(self):
        assert varpi(3.0, ONE_TWO_THREE)  # 3.0 >= 2 + 1

    def test_varpi_mean_fails_with_positive_sigma(self):
        assert not varpi(2.0, ONE_TWO_THREE)

    def test_varpi_hand_sample(self):
        assert varpi(3.1, ONE_TWO_THREE)

    def test_varpi_empty_never_fires(self):
        assert not varpi(100.0, RunningStat().snapshot())
        assert not varpi(100.0, EMPTY)


class TestLeafEntropyStats:
    def test_single_leaf(self):
        leaf = make_leaf(0, 0.7, 100)
        count, mean, std = leaf_entropy_stats([leaf])
        assert count == 1
        assert mean == pytest.approx(0.7, abs=1e-9)
        assert std == 0.0

    def test_two_leaves_mean(self):
        leaves = [make_leaf(0, 0.0, 50), make_leaf(1, 1.0, 50)]
        count, mean, std = leaf_entropy_stats(leaves)
        assert count == 2
        assert mean == pytest.approx(0.5, abs=1e-9)
        assert std == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_five_leaves_match_batch(self):
        hs = [0.1, 0.3, 0.55, 0.8, 0.95]
        leaves = [make_leaf(i, h, 40) for i, h in enumerate(hs)]
        count, mean, std = leaf_entropy_stats(leaves)
        assert count == 5
        assert mean == pytest.approx(statistics.fmean(hs), abs=1e-9)
        assert std == pytest.approx(statistics.stdev(hs), abs=1e-9)


class TestCanSplit:
    def test_first_attempt_with_empty_history_splits(self):
        for variant in (1, 2):
            leaf = make_leaf(0, 0.9, 250)
            stats = primed_stats()
            assert can_split([0.5, 0.1], 0.01, 0.0, leaf, [leaf], stats, variant)
            assert stats.h_stats.count == 1

    def test_failed_vfdt_condition_short_circuits(self):
        leaf = make_leaf(0, 0.9, 250)
        stats = primed_stats()
        # gap 0.02 <= epsilon 0.3 and epsilon >= tiebreak: no satisfy event
        assert not can_split([0.52, 0.5], 0.3, 0.05, leaf, [leaf], stats, 1)
        assert stats.h_stats.count == 0

    def test_low_entropy_leaf_refused_against_history(self):
        # History: H {0.9, 0.8, 1.0} -> mean 0.9, sigma 0.1; IG {0.5, 0.4, 0.6}
        # -> mean 0.5, sigma 0.1; n {300 x3} -> mean 300.
        leaf = make_leaf(0, 0.2, 300)
        stats = primed_stats(hs=(0.9, 0.8, 1.0), igs=(0.5, 0.4, 0.6), ns=(300, 300, 300))
        # entropy gate: 0.2 < 0.9 - 0.1, everything else passes
        assert not can_split([0.45, 0.0], 1e-6, 0.0, leaf, [leaf], stats, 1)
        assert stats.h_stats.count == 4  # refusal still recorded the attempt

    def test_all_four_gates_pass(self):
        leaf = make_leaf(0, 0.85, 300)
        other = make_leaf(1, 0.9, 300)
        stats = primed_stats(hs=(0.9, 0.8, 1.0), igs=(0.5, 0.4, 0.6), ns=(300, 300, 300))
        # current leaves {0.85, 0.9}: mean 0.875, sigma ~0.0354 -> rho holds;
        # xi: 0.85 >= 0.8; kappa: 0.45 >= 0.4; psi: 300 >= 300.
        assert can_split([0.45, 0.0], 1e-6, 0.0, leaf, [leaf, other], stats, 1)

    def test_weight_gate_uses_mean_without_sigma(self):
        # n history {100, 300} -> mean 200, sigma ~141: a leaf at n=150
        # would pass mean - sigma but must fail the mean-only gate.
        leaf = make_leaf(0, 0.9, 150)
        stats = primed_stats(hs=(0.9, 0.9), igs=(0.5, 0.5), ns=(100, 300))
        assert not can_split([0.5, 0.0], 1e-6, 0.0, leaf, [leaf], stats, 1)

    def test_snapshot_before_update_order(self):
        # Crafted trace where evaluating against the *updated* statistics
        # flips the outcome; the implementation must refuse (snapshot-first).
        leaf = LeafNode(SCHEMA, (0, 1))
        leaf.dist = ClassDistribution.from_weights([450, 50])
        h_leaf = entropy(leaf.dist)  # ~0.469
        stats = primed_stats(hs=(1.0,), igs=(0.2,), ns=(100,))
        result = can_split([0.9, 0.0], 0.01, 0.0, leaf, [leaf], stats, 1)

        # Snapshot-first: entropy gate 0.469 >= 1.0 - 0 is false -> refuse.
        assert result is False
        assert stats.h_stats.count == 2  # the attempt itself was recorded

        # Update-first would have passed every gate; spell it out.
        h_mean, h_std = statistics.fmean([1.0, h_leaf]), statistics.stdev([1.0, h_leaf])
        ig_mean, ig_std = statistics.fmean([0.2, 0.9]), statistics.stdev([0.2, 0.9])
        n_mean = statistics.fmean([100, 500])
        wrong_order = (
            h_leaf >= h_mean - h_std
            and 0.9 >= ig_mean - ig_std
            and 500 >= n_mean
            and h_leaf >= h_leaf  # current-leaves gate, single leaf
        )
        assert wrong_order is True

    def test_variant_two_skip_overrides_gates(self):
        leaf = make_leaf(0, 0.9, 500)
        base = dict(hs=(0.5, 0.5), igs=(0.3, 0.3), ns=(1000, 1000))
        # weight gate fails (500 < 1000), so variant I refuses...
        assert not can_split([0.8, 0.0], 1e-6, 0.0, leaf, [leaf], primed_stats(**base), 1)
        # ...but both skip conditions hold (0.9 >= 0.5, 0.8 >= 0.3): II splits.
        assert can_split([0.8, 0.0], 1e-6, 0.0, leaf, [leaf], primed_stats(**base), 2)

    def test_skip_connective_and_vs_or(self):
        # The skip needs entropy AND gain.  Either one alone, which an OR
        # would accept, leaves the decision to the gates, and they refuse.
        leaf = make_leaf(0, 0.9, 500)
        entropy_only = primed_stats(hs=(0.5, 0.5), igs=(0.95, 0.95), ns=(1000, 1000))
        assert not can_split([0.8, 0.0], 1e-6, 0.0, leaf, [leaf], entropy_only, 2)
        gain_only = primed_stats(hs=(0.95, 0.95), igs=(0.5, 0.5), ns=(1000, 1000))
        assert not can_split([0.8, 0.0], 1e-6, 0.0, leaf, [leaf], gain_only, 2)

    def test_variant_two_accepts_whenever_variant_one_does(self):
        rng = random.Random(11)
        for _ in range(300):
            h_hist = [rng.uniform(0, 1) for _ in range(rng.randrange(0, 5))]
            ig_hist = [rng.uniform(0, 1) for _ in h_hist]
            n_hist = [rng.uniform(100, 1000) for _ in h_hist]
            leaf_h = rng.uniform(0, 1)
            leaf_n = rng.uniform(100, 1000)
            merits = sorted([rng.uniform(0, 1), rng.uniform(0, 1)], reverse=True)
            outcomes = []
            for variant in (1, 2):
                leaf = make_leaf(0, leaf_h, leaf_n)
                extra = make_leaf(1, rng.uniform(0, 1), 100)
                stats = primed_stats(h_hist, ig_hist, n_hist)
                outcomes.append(
                    can_split(merits, 0.01, 0.05, leaf, [leaf, extra], stats, variant)
                )
            if outcomes[0]:
                assert outcomes[1], "variant II must accept whenever variant I does"


class TestStrictTree:
    def test_variant_validation(self):
        with pytest.raises(ContractViolation):
            StrictHoeffdingTree(SCHEMA, variant=3)

    def test_entropy_gate_reads_reachable_leaves(self, monkeypatch):
        stream = LedStream(noise=0.10, seed=3, n=30000)
        tree = StrictHoeffdingTree(stream.schema, TreeConfig(tiebreak=0.2), variant=1)
        reads = []

        def recording(leaves):
            leaves = list(leaves)
            reachable = {id(leaf) for leaf in tree.iter_leaves()}
            reads.append({id(leaf) for leaf in leaves} == reachable)
            return leaf_entropy_stats(leaves)

        monkeypatch.setattr(svfdt, "leaf_entropy_stats", recording)
        for inst in stream:
            tree.train_one(inst)
        assert tree.split_log, "stream should have caused growth"
        assert reads and all(reads)

    def test_statistics_counts_stay_aligned(self):
        stream = SeaStream(seed=2, n=20000)
        tree = StrictHoeffdingTree(stream.schema, TreeConfig(tiebreak=0.05), variant=2)
        for inst in stream:
            tree.train_one(inst)
        growth = tree.growth
        assert growth.h_stats.count == growth.ig_stats.count == growth.n_stats.count
        assert growth.h_stats.count >= len(tree.split_log)

    @pytest.mark.parametrize("make_stream", [
        lambda: LedStream(noise=0.10, seed=5, n=40000),
        lambda: SeaStream(seed=5, n=40000),
    ])
    def test_first_split_matches_vfdt(self, make_stream):
        config = TreeConfig(tiebreak=0.05)
        logs = []
        for algo in ("vfdt", "svfdt-i", "svfdt-ii"):
            stream = make_stream()
            if algo == "vfdt":
                tree = HoeffdingTree(stream.schema, config)
            else:
                tree = StrictHoeffdingTree(stream.schema, config,
                                           variant=1 if algo == "svfdt-i" else 2)
            for inst in stream:
                tree.train_one(inst)
                if tree.split_log:
                    break
            assert tree.split_log, f"{algo} never split"
            logs.append(tree.split_log[0])
        assert logs[0] == logs[1] == logs[2]

    def test_strict_trees_never_larger_here(self):
        stream = LedStream(noise=0.10, seed=8, n=60000)
        instances = list(stream)
        config = TreeConfig(tiebreak=0.05)
        sizes = {}
        for name, tree in (
            ("vfdt", HoeffdingTree(stream.schema, config)),
            ("svfdt-i", StrictHoeffdingTree(stream.schema, config, variant=1)),
            ("svfdt-ii", StrictHoeffdingTree(stream.schema, config, variant=2)),
        ):
            for inst in instances:
                tree.train_one(inst)
            sizes[name] = tree.tree_size()[0]
        assert sizes["svfdt-i"] <= sizes["vfdt"]
        assert sizes["svfdt-ii"] <= sizes["vfdt"]
