"""Per-leaf attribute statistics and split-candidate enumeration.

A leaf keeps the exact per-value class counts of all its nominal
attributes in one array block; each numeric attribute keeps one running
Gaussian per class (one-pass mean/variance) plus the global observed
range, and candidate thresholds are scored through the class-conditional
normal CDF.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from math import exp, sqrt

import numpy as np
from scipy.special import ndtr, xlogy

from .core import ClassDistribution, ContractViolation, entropy

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
    """Laplace-smoothed class counts of every active nominal attribute of one leaf.

    ``num`` has one row per (attribute, value), in attribute order, and holds
    count + 1 per class: the Laplace numerator.  ``den`` has one row per
    distinct arity k, ascending, and holds n_c + k: every attribute sees
    every instance the leaf learns, so attributes of one arity share it.
    Both hold whole numbers; ``learn`` updates them through flat
    memoryviews.  A pickle carries the arrays; the other fields derive.
    """

    __slots__ = ("attributes", "arities", "n_classes", "num", "den",
                 "_counts", "_denominators", "_plan", "_den_offsets", "_den_rows")

    def __init__(self, attributes, arities, n_classes: int, num=None, den=None):
        self.attributes, self.arities, self.n_classes = tuple(attributes), tuple(arities), n_classes
        sizes = sorted(set(self.arities))
        if num is None:
            num = np.ones((sum(self.arities), n_classes))
            den = np.repeat(np.array(sizes, dtype=float)[:, None], n_classes, axis=1)
        self.num, self.den = num, den
        # cast() refuses an array that is not C-contiguous, so these are views.
        self._counts = memoryview(num).cast("B").cast("d")
        self._denominators = memoryview(den).cast("B").cast("d")
        # (attribute, first row) pairs: value v of the attribute is row first + v.
        self._plan = list(zip(self.attributes, accumulate(self.arities[:-1], initial=0)))
        self._den_offsets = range(0, den.size, n_classes)
        self._den_rows = slice(None) if len(sizes) == 1 else np.searchsorted(sizes, self.arities)

    def __reduce__(self):
        return NominalObserver, (self.attributes, self.arities, self.n_classes, self.num, self.den)

    def learn(self, values, class_index: int) -> None:
        counts, k = self._counts, self.n_classes
        for a, row in self._plan:
            try:
                counts[(row + values[a]) * k + class_index] += 1.0
            except TypeError:  # a whole float such as 2.0 indexes no memoryview
                counts[(row + int(values[a])) * k + class_index] += 1.0
        for offset in self._den_offsets:
            self._denominators[offset + class_index] += 1.0

    def likelihoods(self, values, out: np.ndarray) -> None:
        """Write each attribute's P(value | class) row into ``out``, in order."""
        # take() accepts a whole float such as 2.0 as a row index.
        self.num.take([row + values[a] for a, row in self._plan], axis=0, out=out, mode="clip")
        np.divide(out, self.den[self._den_rows], out=out)

    def best_split(self, pre_dist: ClassDistribution) -> list[SplitCandidate]:
        """One multiway candidate per attribute with its exact information gain,
        none before any observation; ``pre_dist`` is what the leaf observed."""
        n = pre_dist.total
        if n <= 0.0:
            return []
        h = entropy(pre_dist)
        counts = (self.num - 1.0).tolist()
        candidates = []
        for (a, row), arity in zip(self._plan, self.arities):
            post = [ClassDistribution.from_weights(w) for w in counts[row:row + arity]]
            gain = h
            for branch in post:
                if branch.total > 0.0:
                    gain -= (branch.total / n) * entropy(branch)
            candidates.append(SplitCandidate(a, None, gain, post))
        return candidates

    def without(self, attribute: int) -> NominalObserver | None:
        """The block minus ``attribute``'s rows, or None when none is left."""
        i = self.attributes.index(attribute)
        (_, row), arity = self._plan[i], self.arities[i]
        arities = self.arities[:i] + self.arities[i + 1:]
        if not arities:
            return None
        num = np.concatenate((self.num[:row], self.num[row + arity:]))
        den = self.den if arity in arities else np.delete(
            self.den, sorted(set(self.arities)).index(arity), axis=0)
        attributes = self.attributes[:i] + self.attributes[i + 1:]
        return NominalObserver(attributes, arities, self.n_classes, num, den)


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


def _column_entropies(matrix: np.ndarray) -> np.ndarray:
    """Entropy in bits of each column of a weight array whose first axis is the class."""
    totals = matrix.sum(axis=0)
    safe = np.where(totals > 0.0, totals, 1.0)
    p = matrix / safe
    h = -xlogy(p, p).sum(axis=0) / math.log(2.0)
    return np.where(totals > 0.0, h, 0.0)

