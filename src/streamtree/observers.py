"""Per-leaf attribute statistics and split-candidate enumeration.

A leaf keeps the exact per-value class counts of all its nominal
attributes in one array block, and one running Gaussian per class
(one-pass mean/variance) plus the observed range of all its numeric
attributes in another; candidate thresholds are scored through the
class-conditional normal CDF.

That CDF (``ndtr``) and ``xlogy`` come from ``scipy.special``, the package's
slowest import, which ``scipy_special`` loads on first use: in the numeric split
search and in the numeric observer's constructor.  Nominal leaves never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import exp, sqrt

import numpy as np

from .core import entropy

# Point-mass window for zero-variance Gaussians when used as NB densities.
_POINT_MASS_TOL = 1e-9
_TWO_PI = 2.0 * math.pi


@cache
def scipy_special():
    """The ``scipy.special`` module, imported on the first call."""
    import scipy.special
    return scipy.special


@dataclass(slots=True)
class SplitCandidate:
    """One possible split of a leaf: an attribute test plus its merit.

    ``threshold`` is None for nominal (multiway) tests.  ``post_split``
    holds the estimated class weights of each branch as a plain list:
    [<=, >] for numeric tests, one entry per value for nominal ones.  Only
    the winning candidate's lists become distributions, of its new leaves.
    """

    attribute: int
    threshold: float | None
    merit: float
    post_split: list[list[float]]

    @property
    def is_nominal(self) -> bool:
        return self.threshold is None


class NominalObserver:
    """Laplace-smoothed class counts of every active nominal attribute of one leaf.

    ``num`` has one row per (attribute, value), in attribute order (``rows``
    holds each attribute's first row), and holds count + 1 per class: the
    Laplace numerator, whole numbers that ``learn`` updates through
    ``num_flat``, a flat memoryview.  It is float32, which holds every
    whole number up to 2^24 exactly; the learn at which a class count
    reaches 2^24 widens it to float64 once.  A pickle carries ``num`` alone,
    in its dtype.
    ``den`` holds n_c + k once per distinct arity k, ascending: every
    attribute sees every instance the leaf learns.  It is None until the
    first ``likelihoods`` call, the numpy gather of naive Bayes, derives it
    from the leaf's class counts, and ``learn`` keeps it current from then on.
    """

    __slots__ = ("attributes", "arities", "n_classes", "num", "den",
                 "num_flat", "_denominators", "rows", "_den_offsets", "_den_rows")

    def __init__(self, attributes, arities, n_classes: int, num=None):
        self.attributes, self.arities, self.n_classes = tuple(attributes), tuple(arities), n_classes
        self.num = np.ones((sum(self.arities), n_classes), np.float32) if num is None else num
        # cast() refuses an array that is not C-contiguous, so this is a view.
        self.num_flat = memoryview(self.num).cast("B").cast(self.num.dtype.char)
        # (attribute, first row) pairs: value v of the attribute is row first + v.
        self.rows = list(zip(self.attributes, accumulate(self.arities[:-1], initial=0)))
        self.den, self._den_offsets = None, ()

    def __reduce__(self):
        return NominalObserver, (self.attributes, self.arities, self.n_classes, self.num)

    def learn(self, values, class_index: int, n: int) -> None:
        """Count one instance of the class; ``n`` is the class's count with it."""
        if n >= 2 ** 24 and self.num_flat.format == "f":  # a cell, at most n + 1, may pass 2^24
            self.num = self.num.astype(float)
            self.num_flat = memoryview(self.num).cast("B").cast("d")
        counts, k = self.num_flat, self.n_classes
        for a, row in self.rows:
            try:
                counts[(row + values[a]) * k + class_index] += 1.0
            except TypeError:  # a whole float such as 2.0 indexes no memoryview
                counts[(row + int(values[a])) * k + class_index] += 1.0
        for offset in self._den_offsets:
            self._denominators[offset + class_index] += 1.0

    def likelihoods(self, values, counts, out: np.ndarray) -> None:
        """Write each attribute's P(value | class) row into ``out``, in order;
        ``counts`` are the leaf's observed class counts."""
        if self.den is None:  # whole numbers, so n_c + k has the bits of k + 1 + ... + 1
            sizes = sorted(set(self.arities))
            self.den = np.add.outer(np.array(sizes, dtype=float), counts)
            self._denominators = memoryview(self.den).cast("B").cast("d")
            self._den_offsets = range(0, self.den.size, self.n_classes)
            self._den_rows = slice(None) if len(sizes) == 1 else np.searchsorted(sizes, self.arities)
        # take() accepts a whole float such as 2.0 as a row index; float32 -> float64 is exact.
        rows = self.num.take([row + values[a] for a, row in self.rows], axis=0, mode="clip")
        np.divide(rows, self.den[self._den_rows], out=out)

    def best_split(self, observed) -> list[SplitCandidate]:
        """One multiway candidate per attribute with its exact information gain,
        none before any observation; ``observed`` are the leaf's class counts."""
        n = math.fsum(observed)
        if n <= 0.0:
            return []
        h = entropy(observed)
        counts = (self.num - 1.0).tolist()
        candidates = []
        for (a, row), arity in zip(self.rows, self.arities):
            post = counts[row:row + arity]
            gain = h
            for weights in post:  # an empty branch subtracts 0.0, which changes no bit
                gain -= (math.fsum(weights) / n) * entropy(weights)
            candidates.append(SplitCandidate(a, None, gain, post))
        return candidates

    def without(self, attribute: int) -> NominalObserver | None:
        """The block minus ``attribute``'s rows in the block's dtype, or None when
        none is left; the next ``likelihoods`` call derives its ``den`` afresh."""
        i = self.attributes.index(attribute)
        (_, row), arity = self.rows[i], self.arities[i]
        arities = self.arities[:i] + self.arities[i + 1:]
        if not arities:
            return None
        num = np.concatenate((self.num[:row], self.num[row + arity:]))
        attributes = self.attributes[:i] + self.attributes[i + 1:]
        return NominalObserver(attributes, arities, self.n_classes, num)


class GaussianNumericObserver:
    """Class-conditional running Gaussians of every active numeric attribute
    of one leaf: per class c and attribute column j the mean ``means[c][j]``
    and sum of squared deviations ``m2[c][j]`` (Welford), plus each column's
    observed range ``vmin[j]``/``vmax[j]``.  Every column sees every
    instance the leaf learns, so the count of class c is the leaf's
    observed weight of c, which ``learn`` and ``best_split`` are handed.
    """

    __slots__ = ("attributes", "means", "m2", "vmin", "vmax")

    def __init__(self, attributes, n_classes: int):
        scipy_special()  # imported here, so no train_one pays for the import
        self.attributes = list(attributes)
        width = len(self.attributes)
        self.means = [[0.0] * width for _ in range(n_classes)]
        self.m2 = [[0.0] * width for _ in range(n_classes)]
        self.vmin = [math.inf] * width
        self.vmax = [-math.inf] * width

    def learn(self, values, class_index: int, n: float) -> None:
        """Absorb one instance of the class; ``n`` is the class's count with it."""
        means, m2, vmin, vmax = self.means[class_index], self.m2[class_index], self.vmin, self.vmax
        for j, a in enumerate(self.attributes):
            x = values[a]
            delta = x - means[j]
            means[j] = mean = means[j] + delta / n
            m2[j] += delta * (x - mean)
            if x < vmin[j]:
                vmin[j] = float(x)
            if x > vmax[j]:
                vmax[j] = float(x)

    def without(self, attribute: int) -> GaussianNumericObserver | None:
        """Delete ``attribute``'s column in place; this block, or None when none is left."""
        j = self.attributes.index(attribute)
        for column in (self.attributes, self.vmin, self.vmax, *self.means, *self.m2):
            del column[j]
        return self if self.attributes else None

    def best_split(self, observed, bins: int) -> list[SplitCandidate]:
        """Best threshold candidate of each attribute, in one pass; ``observed``
        are the leaf's class counts, and the thresholds are ``bins`` equally
        spaced points strictly between a column's min and max.

        A column with no observations or one repeated value has no
        candidate.  Every float is computed by the same elementwise operation as
        scoring the attributes one at a time, and the class sums run over a
        contiguous leading class axis in class order, so the candidates do
        not depend on which other attributes are scored.
        """
        lo, hi = np.array(self.vmin), np.array(self.vmax)
        live = np.flatnonzero(lo < hi)
        if not live.size:
            return []
        lo, hi = lo[live], hi[live]
        means = np.array(self.means)[:, live]  # (classes, attributes)
        m2 = np.array(self.m2)[:, live]
        counts = np.array(observed, dtype=float)[:, None]
        steps = np.arange(1, bins + 1, dtype=float) / (bins + 1)
        thresholds = lo[:, None] + (hi - lo)[:, None] * steps  # (attributes, bins)

        sd = np.sqrt(np.divide(m2, counts - 1.0, out=np.zeros_like(m2), where=counts > 1.0))
        # (classes, attributes, 1) against (attributes, bins): each side's weight is
        # the class count scaled by the normal CDF, or a point mass where sd is 0.
        # An unseen class has count 0 and sd 0, so it puts no weight on either side.
        n_c, mu, sd = counts[:, :, None], means[:, :, None], sd[:, :, None]
        spread = sd > 0.0
        below = np.where(
            spread,
            n_c * scipy_special().ndtr((thresholds - mu) / np.where(spread, sd, 1.0)),
            np.where(mu <= thresholds, n_c, 0.0),
        )
        above = n_c - below

        n = math.fsum(observed)
        gains = (
            entropy(observed)
            - _column_entropies(below) * (below.sum(axis=0) / n)
            - _column_entropies(above) * (above.sum(axis=0) / n)
        )
        rows = np.arange(live.size)
        best = gains.argmax(axis=1)
        picked = zip(
            live.tolist(),
            thresholds[rows, best].tolist(),
            gains[rows, best].tolist(),
            below[:, rows, best].T.tolist(),
            above[:, rows, best].T.tolist(),
        )
        return [SplitCandidate(self.attributes[j], threshold, merit, [left, right])
                for j, threshold, merit, left, right in picked]


def density(x, n: float, mean: float, m2: float) -> float:
    """Gaussian density of ``x`` for a class of count n; point mass if variance is 0."""
    if n <= 0.0:
        return 1.0
    diff = x - mean
    if n > 1.0:
        var = m2 / (n - 1.0)
        if var > 0.0:
            return exp(-diff * diff / (2.0 * var)) / sqrt(_TWO_PI * var)
    return 1.0 if abs(diff) <= _POINT_MASS_TOL else 0.0


def _column_entropies(matrix: np.ndarray) -> np.ndarray:
    """Entropy in bits of each column of a weight array whose first axis is the class."""
    totals = matrix.sum(axis=0)
    safe = np.where(totals > 0.0, totals, 1.0)
    p = matrix / safe
    h = -scipy_special().xlogy(p, p).sum(axis=0) / math.log(2.0)
    return np.where(totals > 0.0, h, 0.0)

