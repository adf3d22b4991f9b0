"""Incremental Hoeffding-tree classifier.

Training is test-then-train: each labelled instance is routed to a leaf,
predicted from that leaf's pre-update state, and only then absorbed into
the leaf's distribution and attribute observers.  A leaf attempts a split
when its class distribution is impure and it has accumulated more than
``grace_period`` weight since the last check; the split fires when the
best candidate's gain beats the runner-up by more than the Hoeffding
bound, or when the bound itself has shrunk below the tiebreak threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ClassDistribution, ConfigError, ContractViolation, Instance, Schema,
                   checked, hoeffding_bound)
from .observers import GaussianNumericObserver, NominalObserver, SplitCandidate, density

LEAF_PREDICTION_MODES = ("mc", "nb")
MERIT_RANGE_MODES = ("unit", "log2c")
# Naive Bayes gathers with numpy on an all-nominal leaf of more (attribute, class) cells.
NB_GATHER_CELLS = 40


@dataclass(frozen=True)
class TreeConfig:
    """Hyperparameters shared by the plain and strict learners."""

    grace_period: int = 200
    delta: float = 1e-5
    tiebreak: float = 0.05
    leaf_prediction: str = "mc"
    numeric_bins: int = 100
    merit_range: str = "unit"

    def __post_init__(self) -> None:
        checked("grace_period", self.grace_period, 1, whole=True)
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 <= self.tiebreak < math.inf:  # a NaN tiebreak would break no tie
            raise ConfigError(f"tiebreak must be finite and >= 0, got {self.tiebreak}")
        if self.leaf_prediction not in LEAF_PREDICTION_MODES:
            raise ConfigError(f"leaf_prediction must be one of {LEAF_PREDICTION_MODES}")
        checked("numeric_bins", self.numeric_bins, 1, whole=True)
        if self.merit_range not in MERIT_RANGE_MODES:
            raise ConfigError(f"merit_range must be one of {MERIT_RANGE_MODES}")

    def bound_range(self, class_count: int) -> float:
        """Range R fed to the Hoeffding bound when comparing gain merits.

        "unit" treats the merit gap as a range-1 variable, which is the
        reading that reproduces the published tie-explosion thresholds on
        multi-class streams; "log2c" uses the information-theoretic range
        of the gain itself.
        """
        if self.merit_range == "unit":
            return 1.0
        return math.log2(class_count)


class LeafNode:
    """A growing leaf: class counts, observers, and split-check bookkeeping.

    ``dist`` includes the weight inherited from the parent's post-split
    estimate, and its total is the leaf's weight; ``observed`` is the list
    of whole-number class counts of the instances this leaf has actually
    seen, which is exactly the population the observers describe.
    ``numeric`` holds the running Gaussians of every active numeric
    attribute and ``nominal`` the counts of every active nominal one; each
    is None when the leaf has no such attribute, and ``learn`` hands both
    the class's count.  Deactivating an attribute drops its column or its
    rows.  ``weights``, one per class, seed ``dist``.  ``nb_plan``, the
    naive-Bayes attribute order, is derived: set on the first read, dropped
    at each deactivation and never pickled.
    """

    __slots__ = ("dist", "observed", "numeric", "available", "last_check_weight", "nominal",
                 "nb_plan")

    def __init__(self, schema: Schema, available: tuple[int, ...], weights=None):
        k = schema.class_count
        if weights is not None and len(weights) != k:
            raise ContractViolation(f"{len(weights)} class weights for {k} classes")
        self.dist = (ClassDistribution(k) if weights is None
                     else ClassDistribution.from_weights(weights))
        self.observed = [0] * k
        self.available = available
        numeric = [a for a in available if not schema.attributes[a].is_nominal]
        self.numeric = GaussianNumericObserver(numeric, k) if numeric else None
        nominal = [a for a in available if schema.attributes[a].is_nominal]
        arities = [schema.attributes[a].arity for a in nominal]
        self.nominal = NominalObserver(nominal, arities, k) if nominal else None
        self.last_check_weight = self.dist.total

    def __getstate__(self):  # the default state of the slots, less nb_plan
        return None, {name: getattr(self, name) for name in self.__slots__ if name != "nb_plan"}

    def learn(self, values, label: int) -> None:
        self.dist.add(label)
        observed = self.observed
        observed[label] += 1
        if self.numeric is not None:
            self.numeric.learn(values, label, observed[label])
        if self.nominal is not None:
            self.nominal.learn(values, label, observed[label])

    def disable_attribute(self, attribute: int) -> None:
        self.nb_plan = None
        if self.nominal is not None and attribute in self.nominal.attributes:
            self.nominal = self.nominal.without(attribute)
        elif self.numeric is not None and attribute in self.numeric.attributes:
            self.numeric = self.numeric.without(attribute)

    def __repr__(self) -> str:
        return f"LeafNode(n={self.dist.total:.1f})"


class SplitNode:
    """Internal decision node: numeric binary test or nominal fan-out."""

    __slots__ = ("attribute", "threshold", "children")

    def __init__(self, attribute: int, threshold: float | None, children: list):
        self.attribute = attribute
        self.threshold = threshold
        self.children = children

    def __repr__(self) -> str:
        test = "multiway" if self.threshold is None else f"<= {self.threshold:.4g}"
        return f"SplitNode(attr={self.attribute}, {test})"


def vfdt_split_condition(merits: list[float], epsilon: float, tiebreak: float) -> bool:
    """Split test on a descending merit ranking: clear winner, or tie-broken.

    A single-candidate ranking competes against an implicit second-best of 0.
    """
    best = merits[0]
    second = merits[1] if len(merits) > 1 else 0.0
    return (best - second > epsilon) or (epsilon < tiebreak)


def feature_selection(rank: list[SplitCandidate], epsilon: float, leaf: LeafNode) -> None:
    """Drop attributes whose merit trails the best by more than epsilon.

    Runs only after a refused split check.  The top-ranked attribute can
    never trail itself, so it always survives.
    """
    best = rank[0].merit
    for cand in rank[1:]:
        if best - cand.merit > epsilon:
            leaf.disable_attribute(cand.attribute)


class HoeffdingTree:
    """Plain VFDT learner over a fixed schema."""

    def __init__(self, schema: Schema, config: TreeConfig | None = None):
        # The first field, so a pickle memoizes the leaves' field names ahead
        # of the schema's attribute names, where references are one byte.
        self.root = None
        self.schema = schema
        self.config = config if config is not None else TreeConfig()
        self._hb_range = self.config.bound_range(schema.class_count)
        self.instances_trained = 0
        # (instances_trained at the moment of the split, attribute index)
        self.split_log: list[tuple[int, int]] = []
        self.root = LeafNode(schema, tuple(range(schema.n_attributes)))

    # -- structure -----------------------------------------------------

    def _sort_path(self, values):
        """Follow split tests down to a leaf, tracking where to re-attach it."""
        node = self.root
        parent = None
        branch = -1
        while node.__class__ is SplitNode:
            parent = node
            if node.threshold is None:
                branch = int(values[node.attribute])
            else:
                branch = 0 if values[node.attribute] <= node.threshold else 1
            node = node.children[branch]
        return node, parent, branch

    def sort_to_leaf(self, instance: Instance) -> LeafNode:
        """Raises ContractViolation for values the schema does not admit."""
        self.schema.check_values(instance.values)
        return self._sort_path(instance.values)[0]

    def tree_size(self) -> tuple[int, int, int]:
        """(node count, leaf count, depth) of the current tree."""
        nodes = leaves = depth = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            nodes += 1
            depth = max(depth, d)
            if isinstance(node, LeafNode):
                leaves += 1
            else:
                stack.extend((child, d + 1) for child in node.children)
        return nodes, leaves, depth

    def iter_leaves(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, LeafNode):
                yield node
            else:
                stack.extend(node.children)

    # -- prediction ----------------------------------------------------

    def predict(self, instance: Instance) -> tuple[int, list[float]]:
        """The class and normalised class scores of the instance's leaf.

        Raises ContractViolation for values the schema does not admit.
        """
        leaf = self.sort_to_leaf(instance)
        dist = leaf.dist
        if dist.total <= 0.0:
            k = len(dist)
            return 0, [1.0 / k] * k
        if self.config.leaf_prediction == "mc":
            return dist.argmax(), [w / dist.total for w in dist.weights]
        return self._predict_nb(leaf, instance.values)

    def _predict_leaf(self, leaf: LeafNode, values) -> int:
        """``predict``'s class with no scores built; an empty leaf's argmax is 0."""
        if self.config.leaf_prediction == "mc" or leaf.dist.total <= 0.0:
            return leaf.dist.argmax()
        return self._predict_nb(leaf, values)[0]

    def _predict_nb(self, leaf: LeafNode, values) -> tuple[int, list[float]]:
        """Scores P(c) * prod_a P(x_a | c), multiplied factor by factor in
        attribute order: (n_vc + 1) / (n_c + arity) for a nominal attribute,
        the Gaussian density for a numeric one.  A wide all-nominal leaf
        multiplies the prior by its gathered likelihood rows in turn
        (``np.multiply.reduce``), which gives the same bits."""
        dist, nominal, numeric, observed = leaf.dist, leaf.nominal, leaf.numeric, leaf.observed
        k = len(observed)
        if numeric is None and nominal is not None and len(nominal.attributes) * k > NB_GATHER_CELLS:
            factors = np.empty((1 + len(nominal.attributes), k))
            np.divide(dist.weights, dist.total, out=factors[0])
            nominal.likelihoods(values, observed, factors[1:])
            scores = np.multiply.reduce(factors, axis=0).tolist()
        else:
            plan = getattr(leaf, "nb_plan", None)  # unset until the first read
            if plan is None:  # (attribute, first cell, arity) or (attribute, column, None)
                rows = zip(nominal.rows, nominal.arities) if nominal is not None else ()
                columns = enumerate(numeric.attributes) if numeric is not None else ()
                plan = leaf.nb_plan = sorted([(a, row * k, arity) for (a, row), arity in rows]
                                             + [(a, j, None) for j, a in columns])
            cells = [(None, i + int(values[a]) * k, arity) if arity else (values[a], i, None)
                     for a, i, arity in plan]
            num = nominal.num_flat if nominal is not None else None
            scores = []
            for c, w in enumerate(dist.weights):
                n = observed[c]
                if numeric is not None:  # a float count: the int's bits, cheaper densities
                    n, means, m2 = float(n), numeric.means[c], numeric.m2[c]
                s = w / dist.total
                for x, i, arity in cells:  # a float product overflows to inf, never raises
                    s *= num[i + c] / (n + arity) if arity else density(x, n, means[i], m2[i])
                scores.append(s)
        total = math.fsum(scores)
        if not math.isfinite(total):  # an overflow: inf classes share it, nan counts 0
            top = [float(s == math.inf) for s in scores]
            scores = top if any(top) else [0.0 if math.isnan(s) else s for s in scores]
            total = math.fsum(scores)
        if total <= 0.0:  # every class annihilated; fall back to the priors
            scores = [w / dist.total for w in dist.weights]
            total = 1.0
        scores = [s / total for s in scores]
        return scores.index(max(scores)), scores

    # -- training ------------------------------------------------------

    def train_one(self, instance: Instance) -> int:
        """Predict from the pre-update leaf, then absorb the instance.

        Returns the prediction, which never depends on the instance's label.
        An instance the schema does not admit raises ContractViolation before
        the tree changes.
        """
        label = instance.label
        values = instance.values
        self.schema.check_label(label)
        self.schema.check_values(values)
        leaf, parent, branch = self._sort_path(values)
        prediction = self._predict_leaf(leaf, values)
        leaf.learn(values, label)
        self.instances_trained += 1
        dist = leaf.dist  # the cheap weight test first; neither test changes anything
        if dist.total - leaf.last_check_weight > self.config.grace_period and dist.impure:
            self._attempt_split(leaf, parent, branch)
        return prediction

    def _rank_candidates(self, leaf: LeafNode) -> list[SplitCandidate]:
        pre = leaf.observed
        numeric = leaf.numeric
        scored = numeric.best_split(pre, self.config.numeric_bins) if numeric is not None else []
        if leaf.nominal is not None:
            scored += leaf.nominal.best_split(pre)
        return sorted(scored, key=lambda c: (-c.merit, c.attribute))

    def _attempt_split(self, leaf: LeafNode, parent, branch: int) -> None:
        rank = self._rank_candidates(leaf)
        if rank:
            epsilon = hoeffding_bound(self._hb_range, self.config.delta, leaf.dist.total)
            if self._should_split(leaf, rank, epsilon):
                self._split(leaf, parent, branch, rank[0])
                return
            feature_selection(rank, epsilon, leaf)
        leaf.last_check_weight = leaf.dist.total

    def _should_split(self, leaf: LeafNode, rank: list[SplitCandidate], epsilon: float) -> bool:
        return vfdt_split_condition([c.merit for c in rank], epsilon, self.config.tiebreak)

    def _split(self, leaf: LeafNode, parent, branch: int, winner: SplitCandidate) -> None:
        if winner.is_nominal:
            child_attrs = tuple(a for a in leaf.available if a != winner.attribute)
        else:
            child_attrs = leaf.available
        children = [LeafNode(self.schema, child_attrs, weights) for weights in winner.post_split]
        node = SplitNode(winner.attribute, winner.threshold, children)
        if parent is None:
            self.root = node
        else:
            parent.children[branch] = node
        self.split_log.append((self.instances_trained, winner.attribute))
