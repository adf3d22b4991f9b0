"""Stream data model plus the entropy and Hoeffding-bound formulas.

Everything downstream (attribute observers, tree learners, growth gates)
works in terms of the types defined here.  All information measures are in
bits (base-2 logs) and class weights are reals, because split estimates for
numeric attributes produce fractional per-class weights.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


class ConfigError(ValueError):
    """A configuration value is invalid or missing."""


_LOG2 = math.log(2.0)


def checked(name: str, value, low=-math.inf, high=math.inf, whole: bool = False):
    """``value`` when it is a finite real number in [low, high], an int when
    ``whole``; otherwise a ConfigError that names the parameter."""
    if (isinstance(value, bool) or not isinstance(value, int if whole else (int, float))
            or not low <= value <= high or abs(value) > sys.float_info.max):
        kind = "a whole number" if whole else "a finite real number"
        raise ConfigError(f"{name} must be {kind} in [{low}, {high}], got {value!r}")
    return value


@dataclass(frozen=True)
class Attribute:
    """Descriptor of one stream attribute: either nominal (fixed arity) or numeric."""

    name: str
    kind: str  # "nominal" | "numeric"
    arity: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("nominal", "numeric"):
            raise ConfigError(f"unknown attribute kind {self.kind!r}")
        if self.kind == "nominal":
            if self.arity is None or self.arity < 2:
                raise ConfigError(f"nominal attribute {self.name!r} needs arity >= 2")
        elif self.arity is not None:
            raise ConfigError(f"numeric attribute {self.name!r} must not declare an arity")

    @staticmethod
    def nominal(name: str, arity: int) -> "Attribute":
        return Attribute(name, "nominal", arity)

    @staticmethod
    def numeric(name: str) -> "Attribute":
        return Attribute(name, "numeric")

    @property
    def is_nominal(self) -> bool:
        return self.kind == "nominal"


@dataclass(frozen=True)
class Schema:
    """Attribute typing and class labelling for a stream."""

    attributes: tuple[Attribute, ...]
    class_count: int
    class_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ConfigError("schema needs at least one attribute")
        if self.class_count < 2:
            raise ConfigError("schema needs class_count >= 2")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ConfigError("attribute names must be unique")
        if self.class_names is None:
            object.__setattr__(
                self, "class_names", tuple(str(c) for c in range(self.class_count))
            )
        elif len(self.class_names) != self.class_count:
            raise ConfigError("class_names length must equal class_count")
        for name in self.class_names:
            if self.class_names.count(name) > 1:
                raise ConfigError(f"class_names declare {name!r} twice")
        # (admitted values, getter) per nominal arity: membership admits 2.0 and
        # rejects 1.5, -1, nan and inf.  A repeated index keeps a getter's result
        # a tuple; a group of every attribute takes the values as they are.
        groups: dict[int, list[int]] = {}
        for a, t in enumerate(self.attributes):
            if t.is_nominal:
                groups.setdefault(t.arity, []).append(a)
        object.__setattr__(self, "_nominal", tuple(
            (frozenset(range(k)), tuple if len(idx) == len(names) else itemgetter(*idx, idx[0]))
            for k, idx in groups.items()
        ))
        object.__setattr__(self, "_numeric", tuple(
            a for a, t in enumerate(self.attributes) if not t.is_nominal))

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def __reduce__(self):  # pickles carry the fields, not ``_nominal`` or ``_numeric``
        return (Schema, (self.attributes, self.class_count, self.class_names))

    def check_values(self, values) -> None:
        """Admit one value per attribute, each nominal one a whole number in
        [0, arity) and each numeric one a finite real number."""
        if len(values) != len(self.attributes):
            raise ContractViolation(
                f"instance has {len(values)} values, schema expects {len(self.attributes)}"
            )
        for allowed, getter in self._nominal:
            try:
                if allowed.issuperset(getter(values)):
                    continue
            except TypeError:  # an unhashable value, such as a list
                pass
            k = len(allowed)  # the value is sought by equality, which hashes nothing
            a = next(a for a, t in enumerate(self.attributes) if t.arity == k and (
                type(values[a]).__hash__ is None or values[a] not in range(k)))
            raise ContractViolation(f"nominal value {values[a]!r} out of range [0, {k}) "
                                    f"for attribute {self.attributes[a].name!r}")
        if self._numeric:
            # Admitted nominal values are finite, so one finite float sum admits
            # every value; a sum that fails or overflows is settled value by value.
            try:
                if math.isfinite(sum(values, 0.0)):
                    return
            except (TypeError, OverflowError):
                pass
            for a in self._numeric:
                try:
                    if math.isfinite(values[a] + 0.0):
                        continue
                except (TypeError, OverflowError):  # not a number, or an int beyond floats
                    pass
                raise ContractViolation(
                    f"numeric value {values[a]!r} is not a finite real number "
                    f"for attribute {self.attributes[a].name!r}"
                )

    def check_label(self, label) -> None:
        """Raise ContractViolation unless ``label`` is an int class index."""
        if not isinstance(label, int) or not 0 <= label < self.class_count:
            raise ContractViolation(
                f"label must be a class index in [0, {self.class_count}), got {label!r}"
            )


@dataclass(slots=True)
class Instance:
    """One observation: a value vector aligned to a schema, optionally labelled."""

    values: tuple
    label: int | None = None


class ClassDistribution:
    """Per-class weight vector with a cached total.

    Mutable: leaves increment it in place while training.  Weights never go
    negative; ``impure`` means at least two classes carry positive weight.
    """

    __slots__ = ("weights", "total")

    def __init__(self, n_classes: int):
        self.weights = [0.0] * n_classes
        self.total = 0.0

    @classmethod
    def from_weights(cls, weights) -> "ClassDistribution":
        dist = cls(len(weights))
        for i, w in enumerate(weights):
            if not 0.0 <= w < math.inf:  # NaN fails both comparisons
                raise ContractViolation(f"class {i} weight {w!r} is not finite and >= 0")
            if w > 0:
                dist.weights[i] = float(w)
        try:
            dist.total = math.fsum(dist.weights)
        except OverflowError:  # finite weights >= 0 whose sum passes the largest float
            raise ContractViolation(f"total of weights {dist.weights!r} is not finite") from None
        return dist

    def add(self, class_index: int) -> None:
        """Count one instance of the class."""
        self.weights[class_index] += 1.0
        self.total += 1.0

    @property
    def impure(self) -> bool:
        return len(self.weights) - self.weights.count(0.0) >= 2

    def argmax(self) -> int:
        """Index of the heaviest class; ties resolve to the lowest index."""
        ws = self.weights
        return ws.index(max(ws))

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"ClassDistribution({self.weights!r})"


def entropy(dist) -> float:
    """Shannon entropy in bits of a class distribution (or raw weight sequence).

    Zero-weight classes contribute nothing (0*log 0 := 0); an empty or
    all-zero distribution has entropy 0.
    """
    weights = dist.weights if isinstance(dist, ClassDistribution) else list(dist)
    total = dist.total if isinstance(dist, ClassDistribution) else math.fsum(weights)
    if total <= 0.0:
        return 0.0
    h = 0.0
    for w in weights:
        if w > 0.0:
            p = w / total
            if p > 0.0:  # guards subnormal weights that underflow to 0
                h -= p * math.log(p)
    return h / _LOG2


def hoeffding_bound(value_range: float, delta: float, n: float) -> float:
    """Deviation bound for the mean of a range-R variable after n observations.

    For information gain over c classes the caller passes R = log2(c).
    ``n`` may be fractional because leaves accumulate instance *weight*.
    """
    if value_range <= 0:
        raise ContractViolation(f"range must be positive, got {value_range!r}")
    if not 0.0 < delta < 1.0:
        raise ContractViolation(f"delta must lie in (0, 1), got {delta!r}")
    if n <= 0:
        raise ContractViolation(f"n must be positive, got {n!r}")
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))
