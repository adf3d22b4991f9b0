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

from .core import ClassDistribution, ConfigError, Instance, Schema, hoeffding_bound
from .observers import GaussianNumericObserver, NominalObserver, SplitCandidate, numeric_best_splits

LEAF_PREDICTION_MODES = ("mc", "nb")
MERIT_RANGE_MODES = ("unit", "log2c")


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
        if self.grace_period < 1:
            raise ConfigError(f"grace_period must be >= 1, got {self.grace_period}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.tiebreak < 0.0:
            raise ConfigError(f"tiebreak must be >= 0, got {self.tiebreak}")
        if self.leaf_prediction not in LEAF_PREDICTION_MODES:
            raise ConfigError(f"leaf_prediction must be one of {LEAF_PREDICTION_MODES}")
        if self.numeric_bins < 1:
            raise ConfigError(f"numeric_bins must be >= 1, got {self.numeric_bins}")
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
    estimate; ``observed`` counts only instances this leaf has actually
    seen, which is exactly the population the observers describe.
    ``observers`` lists the (attribute, observer) pairs of the active
    numeric attributes in attribute order; ``nominal`` holds the counts of
    every active nominal attribute, or None when there is none.
    Deactivating an attribute drops its pair or its rows.
    """

    # ``nominal`` comes last, which ``__getstate__`` relies on.
    __slots__ = ("leaf_id", "dist", "observed", "observers", "available", "weight_seen",
                 "last_check_weight", "nominal")

    def __init__(self, leaf_id: int, schema: Schema, available: tuple[int, ...], bins: int,
                 initial_dist: ClassDistribution | None = None):
        self.leaf_id = leaf_id
        k = schema.class_count
        self.dist = initial_dist.copy() if initial_dist is not None else ClassDistribution(k)
        self.observed = ClassDistribution(k)
        self.available = available
        self.observers = [(a, GaussianNumericObserver(a, k, bins))
                          for a in available if not schema.attributes[a].is_nominal]
        nominal = [a for a in available if schema.attributes[a].is_nominal]
        arities = [schema.attributes[a].arity for a in nominal]
        self.nominal = NominalObserver(nominal, arities, k) if nominal else None
        self.weight_seen = self.dist.total
        self.last_check_weight = self.weight_seen

    def __getstate__(self):  # a leaf without nominal attributes pickles no ``nominal``
        names = self.__slots__[:-1] if self.nominal is None else self.__slots__
        return None, {name: getattr(self, name) for name in names}

    def __setstate__(self, state) -> None:
        for name, value in {"nominal": None, **state[1]}.items():
            setattr(self, name, value)

    def learn(self, values, label: int) -> None:
        self.dist.add(label)
        self.observed.add(label)
        self.weight_seen += 1.0
        for a, obs in self.observers:
            obs.observe(values[a], label)
        if self.nominal is not None:
            self.nominal.learn(values, label)

    def disable_attribute(self, attribute: int) -> None:
        if self.nominal is not None and attribute in self.nominal.attributes:
            self.nominal = self.nominal.without(attribute)
        else:
            self.observers = [(a, obs) for a, obs in self.observers if a != attribute]

    def __repr__(self) -> str:
        return f"LeafNode(id={self.leaf_id}, n={self.weight_seen:.1f})"


class SplitNode:
    """Internal decision node: numeric binary test or nominal fan-out."""

    __slots__ = ("attribute", "threshold", "children")

    def __init__(self, attribute: int, threshold: float | None, children: list):
        self.attribute = attribute
        self.threshold = threshold
        self.children = children

    def branch_for(self, values) -> int:
        """Child index for ``values``, which ``Schema.check_values`` has admitted."""
        if self.threshold is None:
            return int(values[self.attribute])
        return 0 if values[self.attribute] <= self.threshold else 1

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
        self._next_leaf_id = 0
        self.instances_trained = 0
        # (instances_trained at the moment of the split, attribute index)
        self.split_log: list[tuple[int, int]] = []
        self.root = self._new_leaf(tuple(range(schema.n_attributes)), None)

    # -- structure -----------------------------------------------------

    def _new_leaf(self, available, initial_dist) -> LeafNode:
        leaf = LeafNode(self._next_leaf_id, self.schema, available, self.config.numeric_bins,
                        initial_dist)
        self._next_leaf_id += 1
        return leaf

    def _sort_path(self, values):
        """Follow split tests down to a leaf, tracking where to re-attach it."""
        node = self.root
        parent = None
        branch = -1
        while not isinstance(node, LeafNode):
            parent = node
            branch = node.branch_for(values)
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
        """Raises ContractViolation for values the schema does not admit."""
        leaf = self.sort_to_leaf(instance)
        return self._predict_leaf(leaf, instance.values)

    def _predict_leaf(self, leaf: LeafNode, values) -> tuple[int, list[float]]:
        dist = leaf.dist
        k = len(dist)
        if dist.total <= 0.0:
            return 0, [1.0 / k] * k
        if self.config.leaf_prediction == "mc":
            scores = [w / dist.total for w in dist.weights]
            return dist.argmax(), scores
        return self._predict_nb(leaf, values)

    def _predict_nb(self, leaf: LeafNode, values) -> tuple[int, list[float]]:
        """Scores P(c) * prod_a P(x_a | c), the attributes in attribute order.

        Row 0 of ``factors`` is the prior, each further row one attribute's
        finite likelihoods; ``np.multiply.reduce`` multiplies the rows in
        turn, so a score has the bits of the product taken factor by factor.
        """
        dist, nominal, numeric = leaf.dist, leaf.nominal, leaf.observers
        k = len(dist)
        attrs = nominal.attributes if nominal is not None else ()
        factors = np.empty((1 + len(attrs) + len(numeric), k))
        np.divide(dist.weights, dist.total, out=factors[0])
        if nominal is not None:
            nominal.likelihoods(values, factors[1:1 + len(attrs)])
        if not numeric:  # no factor exceeds 1, so the product cannot overflow
            scores = np.multiply.reduce(factors, axis=0).tolist()
        else:
            for r, (a, obs) in enumerate(numeric, start=1 + len(attrs)):
                factors[r] = [obs.nb_likelihood(values[a], c) for c in range(k)]
            order = np.argsort(attrs + tuple(a for a, _ in numeric)) + 1  # attribute order
            with np.errstate(over="ignore", invalid="ignore"):  # a density may exceed 1
                scores = np.multiply.reduce(factors[[0, *order]], axis=0).tolist()
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
        prediction = self._predict_leaf(leaf, values)[0]
        leaf.learn(values, label)
        self.instances_trained += 1
        if leaf.dist.impure and (
            leaf.weight_seen - leaf.last_check_weight > self.config.grace_period
        ):
            self._attempt_split(leaf, parent, branch)
        return prediction

    def _rank_candidates(self, leaf: LeafNode) -> list[SplitCandidate]:
        pre = leaf.observed
        scored = numeric_best_splits([obs for _, obs in leaf.observers], pre)
        if leaf.nominal is not None:
            scored += leaf.nominal.best_split(pre)
        return sorted((c for c in scored if c is not None), key=lambda c: (-c.merit, c.attribute))

    def _attempt_split(self, leaf: LeafNode, parent, branch: int) -> None:
        rank = self._rank_candidates(leaf)
        if not rank:
            leaf.last_check_weight = leaf.weight_seen
            return
        epsilon = hoeffding_bound(self._hb_range, self.config.delta, leaf.weight_seen)
        if self._should_split(leaf, rank, epsilon):
            self._split(leaf, parent, branch, rank[0])
        else:
            leaf.last_check_weight = leaf.weight_seen
            feature_selection(rank, epsilon, leaf)

    def _should_split(self, leaf: LeafNode, rank: list[SplitCandidate], epsilon: float) -> bool:
        merits = [c.merit for c in rank]
        return vfdt_split_condition(merits, epsilon, self.config.tiebreak)

    def _split(self, leaf: LeafNode, parent, branch: int, winner: SplitCandidate) -> None:
        if winner.is_nominal:
            child_attrs = tuple(a for a in leaf.available if a != winner.attribute)
        else:
            child_attrs = leaf.available
        children = [self._new_leaf(child_attrs, dist) for dist in winner.post_split]
        node = SplitNode(winner.attribute, winner.threshold, children)
        if parent is None:
            self.root = node
        else:
            parent.children[branch] = node
        self.split_log.append((self.instances_trained, winner.attribute))
