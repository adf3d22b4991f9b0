"""Prequential (test-then-train) evaluation.

Each instance is predicted, scored, and only then learned.  Snapshots of
running accuracy, Kappa M, and tree size are taken every ``snapshot_every``
instances and at stream end; wall-clock time covers prediction+training
only (stream generation is excluded).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .core import ContractViolation


@dataclass(slots=True)
class EvalRecord:
    """One prequential snapshot."""

    instances_seen: int
    accuracy: float
    kappa_m: float
    node_count: int
    leaf_count: int
    elapsed_train_seconds: float


@dataclass
class RunResult:
    """Outcome of one prequential run: its snapshots, the last at stream end."""

    snapshots: list[EvalRecord]

    @property
    def final(self) -> EvalRecord:
        return self.snapshots[-1]


def kappa_m(p0: float, pm: float) -> float:
    """Accuracy relative to a majority-class predictor: (p0 - pm) / (1 - pm).

    Negative when the classifier does worse than the majority baseline.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ContractViolation(f"p0 must lie in [0, 1], got {p0!r}")
    if not 0.0 <= pm < 1.0:
        raise ContractViolation(f"pm must lie in [0, 1), got {pm!r}")
    return (p0 - pm) / (1.0 - pm)


class RunningMajority:
    """Prequential majority-class baseline: predict, then count the label.

    Ties (including the empty start) resolve to the lowest class index.
    """

    __slots__ = ("counts", "current", "correct", "seen")

    def __init__(self, n_classes: int):
        self.counts = [0] * n_classes
        self.current = 0
        self.correct = 0
        self.seen = 0

    def predict(self) -> int:
        return self.current

    def update(self, label: int) -> None:
        if label == self.current:
            self.correct += 1
        self.seen += 1
        counts = self.counts
        counts[label] += 1
        cur = self.current
        if label != cur and (
            counts[label] > counts[cur] or (counts[label] == counts[cur] and label < cur)
        ):
            self.current = label

    @property
    def prequential_rate(self) -> float:
        return self.correct / self.seen if self.seen else 0.0


def prequential_run(learner, stream, snapshot_every: int = 10000) -> RunResult:
    """Run one learner over one stream, test-then-train, collecting snapshots."""
    if snapshot_every < 1:
        raise ContractViolation(f"snapshot_every must be >= 1, got {snapshot_every}")
    majority = RunningMajority(learner.schema.class_count)
    correct = 0
    seen = 0
    elapsed = 0.0
    snapshots: list[EvalRecord] = []
    train_one = learner.train_one
    clock = time.perf_counter

    def record() -> EvalRecord:
        accuracy = correct / seen
        pm = majority.prequential_rate
        kappa = kappa_m(accuracy, pm) if pm < 1.0 else 0.0
        nodes, leaves, _ = learner.tree_size()
        return EvalRecord(seen, accuracy, kappa, nodes, leaves, elapsed)

    for instance in stream:
        label = instance.label
        t0 = clock()
        prediction = train_one(instance)
        elapsed += clock() - t0
        if prediction == label:
            correct += 1
        majority.update(label)
        seen += 1
        if seen % snapshot_every == 0:
            snapshots.append(record())
    if seen == 0:
        raise ContractViolation("stream produced no instances")
    if not snapshots or snapshots[-1].instances_seen != seen:
        snapshots.append(record())
    return RunResult(snapshots)
