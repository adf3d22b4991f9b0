"""Seeded synthetic data streams and a delimited-file stream.

Every stream is re-iterable: each ``__iter__`` restarts the generator from
its seed, so (configuration, seed) fully determines the sequence.  The
random source is Python's Mersenne Twister; its identifier is recorded in
run metadata so results stay reproducible across builds.
"""
from __future__ import annotations

import csv
import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from .core import Attribute, ConfigError, Instance, Schema, checked

RNG_ALGORITHM = "python-random-mt19937"

# Lit segments (top, top-left, top-right, middle, bottom-left, bottom-right,
# bottom) of the digits 0-9 on a seven-segment display.
LED_SEGMENTS = (
    (1, 1, 1, 0, 1, 1, 1),
    (0, 0, 1, 0, 0, 1, 0),
    (1, 0, 1, 1, 1, 0, 1),
    (1, 0, 1, 1, 0, 1, 1),
    (0, 1, 1, 1, 0, 1, 0),
    (1, 1, 0, 1, 0, 1, 1),
    (1, 1, 0, 1, 1, 1, 1),
    (1, 0, 1, 0, 0, 1, 0),
    (1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 0, 1, 1),
)


class StreamFormatError(ValueError):
    """A data file row could not be parsed; carries its position.

    The constructor arguments are the exception's ``args``, so it survives
    the pickle round trip from a worker process.
    """

    def __init__(self, message: str, row: int, column: str | None = None):
        super().__init__(message, row, column)
        self.row = row
        self.column = column

    def __str__(self) -> str:
        message, row, column = self.args
        where = f"row {row}" + (f", column {column!r}" if column else "")
        return f"{message} ({where})"


class LedStream:
    """Digit stream from a noisy seven-segment display.

    Each instance encodes a uniformly drawn digit on 7 binary segment
    attributes, each independently flipped with probability ``noise``,
    padded with ``irrelevant`` uniformly random binary attributes.
    """

    def __init__(self, noise: float = 0.0, irrelevant: int = 17, seed: int = 1, n: int = 1000):
        self.noise = checked("noise", noise, 0, 1)
        self.irrelevant = checked("irrelevant", irrelevant, 0, whole=True)
        self.seed = seed
        self.n = checked("n", n, 1, whole=True)
        attrs = [Attribute.nominal(f"seg_{i}", 2) for i in range(7)]
        attrs += [Attribute.nominal(f"noise_{i}", 2) for i in range(irrelevant)]
        self.schema = Schema(tuple(attrs), 10, tuple(str(d) for d in range(10)))

    def __iter__(self):
        rng = random.Random(self.seed)
        noise = self.noise
        irrelevant = self.irrelevant
        for _ in range(self.n):
            digit = rng.randrange(10)
            values = list(LED_SEGMENTS[digit])
            if noise > 0.0:
                for i in range(7):
                    if rng.random() < noise:
                        values[i] ^= 1
            for _ in range(irrelevant):
                values.append(rng.getrandbits(1))
            yield Instance(tuple(values), digit)


def sea_label(f1: float, f2: float, threshold: float) -> int:
    """0 when f1 + f2 <= threshold, else 1."""
    return 0 if f1 + f2 <= threshold else 1


class SeaStream:
    """Three uniform [0, 10] features; the class tests f1 + f2 against a
    per-block threshold, so the concept drifts at each block boundary.
    The label is flipped with probability ``noise``.
    """

    def __init__(
        self,
        seed: int = 1,
        n: int = 1000,
        thresholds: tuple[float, ...] = (8.0, 9.0, 7.0, 9.5),
        block_size: int | None = None,
        noise: float = 0.10,
    ):
        if not thresholds:
            raise ConfigError("thresholds must not be empty")
        self.seed = seed
        self.n = checked("n", n, 1, whole=True)
        self.thresholds = tuple(float(checked("thresholds", t)) for t in thresholds)
        if block_size is None:
            block_size = max(1, n // len(thresholds))
        self.block_size = checked("block_size", block_size, 1, whole=True)
        self.noise = checked("noise", noise, 0, 1)
        attrs = tuple(Attribute.numeric(f"f{i + 1}") for i in range(3))
        self.schema = Schema(attrs, 2, ("le", "gt"))

    def threshold_at(self, index: int) -> float:
        return self.thresholds[min(index // self.block_size, len(self.thresholds) - 1)]

    def __iter__(self):
        rng = random.Random(self.seed)
        noise = self.noise
        for i in range(self.n):
            f1 = rng.uniform(0.0, 10.0)
            f2 = rng.uniform(0.0, 10.0)
            f3 = rng.uniform(0.0, 10.0)
            label = sea_label(f1, f2, self.threshold_at(i))
            if noise > 0.0 and rng.random() < noise:
                label ^= 1
            yield Instance((f1, f2, f3), label)


class RbfStream:
    """Gaussian-blob stream: weighted random centroids in the unit cube,
    each instance a centroid plus a normal-magnitude offset along a
    uniformly random direction, labelled with the centroid's class.
    """

    def __init__(
        self,
        n_attrs: int = 10,
        n_classes: int = 2,
        n_centroids: int = 50,
        seed: int = 1,
        n: int = 1000,
        deviation_range: tuple[float, float] = (0.0, 1.0),
    ):
        self.n_attrs = checked("n_attrs", n_attrs, 1, whole=True)
        self.n_classes = checked("n_classes", n_classes, 2, whole=True)
        self.n_centroids = checked("n_centroids", n_centroids, n_classes, whole=True)
        self.seed = seed
        self.n = checked("n", n, 1, whole=True)
        lo, hi = deviation_range
        lo = checked("deviation_range", lo, 0)
        self.deviation_range = (float(lo), float(checked("deviation_range", hi, lo)))
        attrs = tuple(Attribute.numeric(f"x{i}") for i in range(n_attrs))
        self.schema = Schema(attrs, n_classes)
        self.centroids = self._draw_centroids(random.Random(seed))

    def _draw_centroids(self, rng: random.Random):
        lo, hi = self.deviation_range
        centroids = []
        for _ in range(self.n_centroids):
            center = tuple(rng.random() for _ in range(self.n_attrs))
            label = rng.randrange(self.n_classes)
            weight = rng.random()
            stdev = lo + rng.random() * (hi - lo)
            centroids.append((center, label, weight, stdev))
        cumulative = []
        acc = 0.0
        for _, _, weight, _ in centroids:
            acc += weight
            cumulative.append(acc)
        return centroids, cumulative

    def __iter__(self):
        """Each instance takes n_attrs + 1 draws of ``rng.gauss(0.0, 1.0)``,
        inlined with the same random numbers: a Box-Muller pair gives its
        cosine value, and its sine value waits for the next draw, across
        instances too, as ``gauss_next`` does.  ``0.0 + z * 1.0`` is gauss's
        ``mu + z * sigma``, which turns -0.0 into 0.0.
        """
        rng = random.Random(self.seed)
        centroids, cumulative = self._draw_centroids(rng)  # same draws as __init__
        total = cumulative[-1]
        need = self.n_attrs + 1
        uniform = rng.random
        cos, sin, log, sqrt, fsum = math.cos, math.sin, math.log, math.sqrt, math.fsum
        two_pi = 2.0 * math.pi
        draws = []  # Gaussian draws not used yet: at most the one cached sine value
        for _ in range(self.n):
            center, label, _, stdev = centroids[bisect_left(cumulative, uniform() * total)]
            while len(draws) < need:
                angle = uniform() * two_pi
                radius = sqrt(-2.0 * log(1.0 - uniform()))
                draws.append(0.0 + cos(angle) * radius * 1.0)
                draws.append(0.0 + sin(angle) * radius * 1.0)
            direction = draws[: need - 1]
            magnitude = draws[need - 1] * stdev
            draws = draws[need:]
            scale = magnitude / (sqrt(fsum([x * x for x in direction])) or 1.0)
            yield Instance(tuple([c + x * scale for c, x in zip(center, direction)]), label)


@dataclass(frozen=True)
class CsvColumn:
    """Declared type of one CSV feature column."""

    name: str
    kind: str  # "nominal" | "numeric"
    values: tuple[str, ...] | None = None  # nominal value list, in index order

    def to_attribute(self) -> Attribute:
        if self.kind == "nominal":
            if not self.values or len(self.values) < 2:
                raise ConfigError(f"nominal column {self.name!r} needs >= 2 declared values")
            for value in self.values:
                if self.values.count(value) > 1:  # it would take the index of its last entry
                    raise ConfigError(f"nominal column {self.name!r} declares {value!r} twice")
            return Attribute.nominal(self.name, len(self.values))
        if self.kind == "numeric":
            return Attribute.numeric(self.name)
        raise ConfigError(f"unknown column kind {self.kind!r} for {self.name!r}")


class CsvStream:
    """UTF-8 comma-separated stream: feature columns then the class label.

    Column kinds and nominal value lists come from the declared sidecar
    spec, not from the file.  A leading byte-order mark and blank lines at
    the end of the file are skipped.  Parse failures, a blank line before a
    data row among them, raise StreamFormatError with the offending row
    (and column, when identifiable).
    """

    def __init__(self, path, columns: list[CsvColumn], class_values: tuple[str, ...],
                 has_header: bool = False):
        if len(class_values) < 2:
            raise ConfigError("class_values needs at least two entries")
        self.path = path
        self.columns = list(columns)
        self.class_values = tuple(class_values)
        self.has_header = has_header
        self.schema = Schema(
            tuple(c.to_attribute() for c in self.columns),
            len(self.class_values),
            self.class_values,
        )
        self._value_maps = [
            {v: i for i, v in enumerate(c.values)} if c.kind == "nominal" else None
            for c in self.columns
        ]
        self._class_map = {v: i for i, v in enumerate(self.class_values)}

    def __iter__(self):
        expected = len(self.columns) + 1
        blank = None  # the first blank row; only blank rows may follow it
        with open(self.path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            for row_number, row in enumerate(reader, start=1):
                if self.has_header and row_number == 1:
                    continue
                if not row:
                    blank = blank or row_number
                    continue
                if blank or len(row) != expected:  # a blank row is short when a data row follows
                    raise StreamFormatError(f"expected {expected} fields, found "
                                            f"{0 if blank else len(row)}", blank or row_number)
                values = []
                for col, cell, vmap in zip(self.columns, row, self._value_maps):
                    cell = cell.strip()
                    if vmap is None:
                        try:
                            x = float(cell)
                        except ValueError:
                            raise StreamFormatError(
                                f"cannot parse {cell!r} as a number", row_number, col.name
                            ) from None
                        if not math.isfinite(x):
                            raise StreamFormatError(
                                f"non-finite number {cell!r}", row_number, col.name
                            )
                        values.append(x)
                    else:
                        try:
                            values.append(vmap[cell])
                        except KeyError:
                            raise StreamFormatError(
                                f"value {cell!r} is not among the declared values",
                                row_number,
                                col.name,
                            ) from None
                label_cell = row[-1].strip()
                try:
                    label = self._class_map[label_cell]
                except KeyError:
                    raise StreamFormatError(
                        f"class {label_cell!r} is not among the declared classes",
                        row_number,
                        "class",
                    ) from None
                yield Instance(tuple(values), label)
