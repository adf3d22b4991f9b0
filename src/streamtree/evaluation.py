"""Prequential (test-then-train) evaluation.

Each instance is predicted, scored, and only then learned.  Snapshots of
running accuracy, Kappa M, and tree size are taken every ``snapshot_every``
instances and at stream end; wall-clock time covers prediction+training
only (stream generation is excluded).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

from .core import ContractViolation


class EvalRecord(NamedTuple):
    """One prequential snapshot; its field names are a results record's keys."""

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


def prequential_run(learner, stream, snapshot_every: int = 10000) -> RunResult:
    """Run one learner over one stream, test-then-train, collecting snapshots.

    Kappa M's baseline is the prequential majority class: the class with the
    most labels counted so far, the lowest index on a tie (the empty start
    included), predicted before each label is counted.
    """
    if snapshot_every < 1:
        raise ContractViolation(f"snapshot_every must be >= 1, got {snapshot_every}")
    counts = [0] * learner.schema.class_count
    majority = majority_correct = 0
    correct = seen = 0
    elapsed = 0.0
    snapshots: list[EvalRecord] = []
    train_one = learner.train_one
    clock = time.perf_counter

    def record() -> EvalRecord:
        accuracy = correct / seen
        pm = majority_correct / seen
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
        counts[label] += 1
        if label == majority:
            majority_correct += 1
        elif counts[label] > counts[majority] or (
                counts[label] == counts[majority] and label < majority):
            majority = label
        seen += 1
        if seen % snapshot_every == 0:
            snapshots.append(record())
    if seen == 0:
        raise ContractViolation("stream produced no instances")
    if not snapshots or snapshots[-1].instances_seen != seen:
        snapshots.append(record())
    return RunResult(snapshots)
