"""Per-leaf attribute statistics and split-candidate enumeration.

Nominal attributes keep exact per-value class counts; numeric attributes
keep one running Gaussian per class (one-pass mean/variance) plus the
global observed range, and candidate thresholds are scored through the
class-conditional normal CDF.
"""
from __future__ import annotations

import math
from math import exp, sqrt
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, xlogy

from .core import Attribute, ClassDistribution, ContractViolation, entropy

# Point-mass window for zero-variance Gaussians when used as NB densities.
_POINT_MASS_TOL = 1e-9
_TWO_PI = 2.0 * math.pi


@dataclass(slots=True)
class SplitCandidate:
    """One possible split of a leaf: an attribute test plus its merit.

    ``threshold`` is None for nominal (multiway) tests.  ``post_split``
    holds the estimated class distribution of each branch: [<=, >] for
    numeric tests, one entry per value for nominal ones.
    """

    attribute: int
    threshold: float | None
    merit: float
    post_split: list[ClassDistribution] = field(default_factory=list)

    @property
    def is_nominal(self) -> bool:
        return self.threshold is None


class NominalObserver:
    """Exact per-class, per-value counts for one nominal attribute."""

    __slots__ = ("attribute", "arity", "counts")

    def __init__(self, attribute: int, n_classes: int, arity: int):
        self.attribute = attribute
        self.arity = arity
        self.counts = [[0.0] * arity for _ in range(n_classes)]

    def observe(self, value, class_index: int, weight: float = 1.0) -> None:
        self.counts[class_index][int(value)] += weight

    def best_split(self, pre_dist: ClassDistribution) -> SplitCandidate | None:
        """Single multiway candidate with exact information gain, if any data seen."""
        counts = self.counts
        branch_totals = [0.0] * self.arity
        seen = 0.0
        for row in counts:
            for v, w in enumerate(row):
                branch_totals[v] += w
                seen += w
        if seen <= 0.0:
            return None
        n = pre_dist.total
        gain = entropy(pre_dist)
        post = []
        for v in range(self.arity):
            branch = ClassDistribution.from_weights([row[v] for row in counts])
            post.append(branch)
            if branch.total > 0.0:
                gain -= (branch.total / n) * entropy(branch)
        return SplitCandidate(self.attribute, None, gain, post)

    def nb_likelihood(self, value, class_index: int) -> float:
        """Laplace-smoothed P(value | class) from the observed counts.

        The reference for ``naive_bayes_scores``, which takes the class
        total from the leaf instead of summing the row.
        """
        row = self.counts[class_index]
        return (row[int(value)] + 1.0) / (sum(row) + self.arity)


class GaussianNumericObserver:
    """Class-conditional running Gaussians for one numeric attribute.

    Candidate thresholds are ``bins`` equally spaced points strictly between
    the observed min and max; each side's per-class weight is the class count
    scaled by the normal CDF (a point mass when the class variance is zero).
    """

    __slots__ = ("attribute", "bins", "counts", "means", "m2", "vmin", "vmax")

    def __init__(self, attribute: int, n_classes: int, bins: int = 100):
        if bins < 1:
            raise ContractViolation(f"bins must be >= 1, got {bins}")
        self.attribute = attribute
        self.bins = bins
        self.counts = [0.0] * n_classes
        self.means = [0.0] * n_classes
        self.m2 = [0.0] * n_classes
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value, class_index: int, weight: float = 1.0) -> None:
        x = float(value)
        n = self.counts[class_index] + weight
        self.counts[class_index] = n
        delta = x - self.means[class_index]
        self.means[class_index] += delta * weight / n
        self.m2[class_index] += weight * delta * (x - self.means[class_index])
        if x < self.vmin:
            self.vmin = x
        if x > self.vmax:
            self.vmax = x

    def variance(self, class_index: int) -> float:
        """Unbiased per-class variance; zero until two observations exist."""
        n = self.counts[class_index]
        if n <= 1.0:
            return 0.0
        return self.m2[class_index] / (n - 1.0)

    def best_split(self, pre_dist: ClassDistribution) -> SplitCandidate | None:
        return numeric_best_splits([self], pre_dist)[0]

    def nb_likelihood(self, value, class_index: int) -> float:
        """Gaussian density of ``value`` under the class; point mass if variance is 0."""
        n = self.counts[class_index]
        if n <= 0.0:
            return 1.0
        diff = float(value) - self.means[class_index]
        if n > 1.0:
            var = self.m2[class_index] / (n - 1.0)
            if var > 0.0:
                return exp(-diff * diff / (2.0 * var)) / sqrt(_TWO_PI * var)
        return 1.0 if abs(diff) <= _POINT_MASS_TOL else 0.0


def numeric_best_splits(observers, pre_dist: ClassDistribution) -> list[SplitCandidate | None]:
    """Best threshold candidate of each Gaussian observer of one leaf, in one pass.

    The observers must share ``bins``.  Entry i is None when observer i has
    no observations or one repeated value.  Every float is computed by the
    same elementwise operation as scoring the observers one at a time, and
    the class sums run over a contiguous leading class axis in class order,
    so the candidates do not depend on which other observers are scored.
    """
    results: list[SplitCandidate | None] = [None] * len(observers)
    live = [i for i, obs in enumerate(observers) if obs.vmin < obs.vmax]
    if not live:
        return results
    bins = observers[live[0]].bins
    if any(observers[i].bins != bins for i in live):
        raise ContractViolation("observers scored together must share bins")
    lo = np.array([observers[i].vmin for i in live])
    hi = np.array([observers[i].vmax for i in live])
    counts = np.array([observers[i].counts for i in live])  # (attributes, classes)
    means = np.array([observers[i].means for i in live])
    m2 = np.array([observers[i].m2 for i in live])
    steps = np.arange(1, bins + 1, dtype=float) / (bins + 1)
    thresholds = lo[:, None] + (hi - lo)[:, None] * steps  # (attributes, bins)

    sd = np.sqrt(np.divide(m2, counts - 1.0, out=np.zeros_like(m2), where=counts > 1.0))
    # (classes, attributes, 1) against (attributes, bins): each side's weight is
    # the class count scaled by the normal CDF, or a point mass where sd is 0.
    # An unseen class has count 0 and sd 0, so it puts no weight on either side.
    n_c, mu, sd = (x.T[:, :, None] for x in (counts, means, sd))
    spread = sd > 0.0
    below = np.where(
        spread,
        n_c * ndtr((thresholds - mu) / np.where(spread, sd, 1.0)),
        np.where(mu <= thresholds, n_c, 0.0),
    )
    above = n_c - below

    n = pre_dist.total
    gains = (
        entropy(pre_dist)
        - _column_entropies(below) * (below.sum(axis=0) / n)
        - _column_entropies(above) * (above.sum(axis=0) / n)
    )
    rows = np.arange(len(live))
    best = gains.argmax(axis=1)
    picked = zip(
        live,
        thresholds[rows, best].tolist(),
        gains[rows, best].tolist(),
        below[:, rows, best].T.tolist(),
        above[:, rows, best].T.tolist(),
    )
    for i, threshold, merit, left, right in picked:
        post = [ClassDistribution.from_weights(left), ClassDistribution.from_weights(right)]
        results[i] = SplitCandidate(observers[i].attribute, threshold, merit, post)
    return results


def naive_bayes_scores(observers, values, priors, prior_total: float, class_counts) -> list[float]:
    """Unnormalised naive-Bayes scores P(c) * prod_a P(x_a | c) of one leaf.

    ``observers`` is the leaf's (attribute, observer) list, ``priors`` and
    ``prior_total`` its class weights, and ``class_counts`` the per-class
    weight its observers have seen.  A nominal Laplace denominator is
    n_c + arity with n_c from ``class_counts``: that is the count row's sum,
    because every observer of a leaf sees every instance the leaf learns
    (to the last bit when the weights are whole numbers, as in prequential
    runs).  Each class's product runs over the attributes in leaf order, so
    a score has the bits of multiplying the observers' ``nb_likelihood``
    values in turn.  Classes without prior weight score 0.  The nominal
    values must be ones ``Schema.check_values`` admits.
    """
    # Per-instance work, once per attribute.  A nominal entry is
    # (index, counts, arity, None), a numeric one (value, None, None, observer).
    hoisted = []
    for a, obs in observers:
        if type(obs) is NominalObserver:
            hoisted.append((int(values[a]), obs.counts, obs.arity, None))
        else:
            hoisted.append((values[a], None, None, obs))
    scores = []
    for c, prior in enumerate(priors):
        if prior <= 0.0:
            scores.append(0.0)
            continue
        n_c = class_counts[c]
        s = prior / prior_total
        for v, counts, arity, numeric in hoisted:
            if numeric is None:
                s *= (counts[c][v] + 1.0) / (n_c + arity)
            else:
                s *= numeric.nb_likelihood(v, c)
                if s == 0.0:  # a missed point mass; finite factors keep it 0
                    break
        scores.append(s)
    return scores


def _column_entropies(matrix: np.ndarray) -> np.ndarray:
    """Entropy in bits of each column of a weight array whose first axis is the class."""
    totals = matrix.sum(axis=0)
    safe = np.where(totals > 0.0, totals, 1.0)
    p = matrix / safe
    h = -xlogy(p, p).sum(axis=0) / math.log(2.0)
    return np.where(totals > 0.0, h, 0.0)


def make_observer(attribute_index: int, attribute: Attribute, n_classes: int, bins: int):
    if attribute.is_nominal:
        return NominalObserver(attribute_index, n_classes, attribute.arity)
    return GaussianNumericObserver(attribute_index, n_classes, bins)
