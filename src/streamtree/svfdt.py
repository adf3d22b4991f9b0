"""Strict growth gating on top of the Hoeffding tree.

The strict learner keeps constant-size running statistics over every split
attempt that satisfied the plain VFDT condition (entropy, best gain, and
leaf weight at those moments); at each such attempt it also reads the
entropies of the tree's current leaves.  A split that VFDT would perform
is only executed when the attempting leaf also looks "hard enough" against
that history: its entropy and gain must not fall more than one standard
deviation below the historical means, its entropy must hold up against the
current leaves, and it must have seen at least the average weight.
Variant II adds a skip branch that waves through exceptionally hard leaves
without consulting the gates.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .core import ContractViolation, Schema, entropy
from .tree import HoeffdingTree, LeafNode, SplitCandidate, TreeConfig, vfdt_split_condition


class StatSnapshot(NamedTuple):
    count: int
    mean: float
    std: float


class RunningStat:
    """One-pass mean / unbiased standard deviation accumulator."""

    __slots__ = ("count", "_mean", "_m2")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)

    def snapshot(self) -> StatSnapshot:
        """Count, mean and unbiased sigma; sigma is 0 below two values, the mean 0 at none."""
        n = self.count
        std = math.sqrt(self._m2 / (n - 1)) if n > 1 else 0.0
        return StatSnapshot(n, self._mean, std)


def phi(x: float, snap: StatSnapshot) -> bool:
    """True when x is no more than one sigma below the mean (or no history exists)."""
    return snap.count == 0 or x >= snap.mean - snap.std


def varpi(x: float, snap: StatSnapshot) -> bool:
    """True when x reaches mean + sigma; an empty history never fires."""
    return snap.count > 0 and x >= snap.mean + snap.std


class GrowthStatistics:
    """Split-attempt history.

    The three running statistics are updated together, once per attempt at
    which the VFDT condition held, so their counts always agree.
    """

    def __init__(self):
        self.h_stats = RunningStat()
        self.ig_stats = RunningStat()
        self.n_stats = RunningStat()

    def record_satisfy(self, leaf_entropy: float, best_gain: float, leaf_weight: float) -> None:
        self.h_stats.push(leaf_entropy)
        self.ig_stats.push(best_gain)
        self.n_stats.push(leaf_weight)


def leaf_entropy_stats(leaves) -> StatSnapshot:
    """Count, mean and unbiased sigma of a non-empty set of leaves' entropies.

    Both sums are ``math.fsum``, which rounds correctly, so the order of
    the leaves cannot change a bit of the result.
    """
    hs = [entropy(leaf.dist) for leaf in leaves]
    n = len(hs)
    mean = math.fsum(hs) / n
    var = math.fsum((h - mean) ** 2 for h in hs) / (n - 1) if n > 1 else 0.0
    return StatSnapshot(n, mean, math.sqrt(var))


def can_split(
    merits: list[float],
    epsilon: float,
    tiebreak: float,
    leaf: LeafNode,
    leaves,
    stats: GrowthStatistics,
    variant: int,
) -> bool:
    """Full strict split check for one attempt by ``leaf``.

    ``leaves`` are the tree's current leaves, ``leaf`` among them.  Order
    matters and is pinned by tests: (1) bail out before touching any
    statistic if the VFDT condition fails; (2) snapshot the historical and
    current-leaf statistics; (3) record this attempt into the history;
    (4) variant II skips the gates when both the entropy and the gain reach
    their historical mean + sigma; (5) evaluate the four gates against the
    *snapshot*, not the just-updated history.  The weight gate compares
    against the mean alone: a leaf can always satisfy it by waiting, which
    is what keeps the gate deadlock-free.
    """
    if not vfdt_split_condition(merits, epsilon, tiebreak):
        return False
    best_gain = merits[0]
    h_leaf = entropy(leaf.dist)
    n_leaf = leaf.dist.total

    lh_snap = leaf_entropy_stats(leaves)
    h_snap = stats.h_stats.snapshot()
    ig_snap = stats.ig_stats.snapshot()
    n_snap = stats.n_stats.snapshot()

    stats.record_satisfy(h_leaf, best_gain, n_leaf)

    if variant == 2 and varpi(h_leaf, h_snap) and varpi(best_gain, ig_snap):
        return True

    rho = phi(h_leaf, lh_snap)
    xi = phi(h_leaf, h_snap)
    kappa = phi(best_gain, ig_snap)
    psi = n_snap.count == 0 or n_leaf >= n_snap.mean
    return rho and xi and kappa and psi


class StrictHoeffdingTree(HoeffdingTree):
    """Hoeffding tree whose split decisions pass through the strict gates.

    ``variant`` 1 applies the four gates; variant 2 additionally enables
    the skip branch.  Everything else (training loop, refusal handling,
    feature deactivation) is inherited unchanged.
    """

    def __init__(self, schema: Schema, config: TreeConfig | None = None, variant: int = 1):
        if variant not in (1, 2):
            raise ContractViolation(f"variant must be 1 or 2, got {variant!r}")
        self.variant = variant
        self.growth = GrowthStatistics()
        super().__init__(schema, config)

    def _should_split(self, leaf: LeafNode, rank: list[SplitCandidate], epsilon: float) -> bool:
        return can_split([c.merit for c in rank], epsilon, self.config.tiebreak, leaf,
                         self.iter_leaves(), self.growth, self.variant)
