"""Reference computations the benchmark checks the program against.

Nothing here imports the program: each figure is computed from the
benchmark's own copy of the stream definitions, so a fault in the program's
generators or learners cannot also hide in its check.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import product

# Lit segments (top, top-left, top-right, middle, bottom-left, bottom-right,
# bottom) of the digits 0-9, written out independently of the program's table.
SEVEN_SEGMENT = {
    0: "1110111",
    1: "0010010",
    2: "1011101",
    3: "1011011",
    4: "0111010",
    5: "1101011",
    6: "1101111",
    7: "1010010",
    8: "1111111",
    9: "1111011",
}

SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)


def led_bayes_rate(noise: float, table: dict[int, str] = SEVEN_SEGMENT) -> float:
    """Exact accuracy of the Bayes-optimal classifier on the noisy LED stream.

    Digits are uniform and each of the 7 segments flips independently with
    probability ``noise``; irrelevant attributes are independent of the
    digit and drop out.  The optimal rule picks, for each observed pattern
    x, the digit d maximising P(x | d) = noise^h (1 - noise)^(7 - h), with h
    the Hamming distance between x and d's segments, so the rate is
    sum_x max_d P(x | d) / 10.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    codes = [tuple(int(c) for c in table[d]) for d in sorted(table)]
    width = len(codes[0])
    total = 0.0
    for pattern in product((0, 1), repeat=width):
        best = 0.0
        for code in codes:
            flips = sum(a != b for a, b in zip(pattern, code))
            best = max(best, noise ** flips * (1.0 - noise) ** (width - flips))
        total += best
    return total / len(codes)


def sea_concept(f1: float, f2: float, index: int, n: int,
                thresholds: tuple[float, ...] = SEA_THRESHOLDS) -> int:
    """Noise-free SEA label of instance ``index`` in a stream of ``n``: the
    threshold changes at each of ``len(thresholds)`` equal blocks."""
    block = max(1, n // len(thresholds))
    threshold = thresholds[min(index // block, len(thresholds) - 1)]
    return 0 if f1 + f2 <= threshold else 1


def majority_rate(labels) -> float:
    """Share of the most common label: the best constant prediction."""
    counts: dict = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    if not counts:
        raise ValueError("no labels")
    return max(counts.values()) / sum(counts.values())


def sampling_slack(rate: float, n: int, sigmas: float = 4.0) -> float:
    """Allowance for an empirical rate over n draws to exceed its expectation."""
    return sigmas * math.sqrt(rate * (1.0 - rate) / n)


def binary_tree_faults(nodes: int, leaves: int, splits: int | None = None) -> list[str]:
    """Faults in the size identities of a tree whose every split is binary."""
    faults = []
    if nodes != 2 * leaves - 1:
        faults.append(f"nodes {nodes} != 2*leaves-1 with {leaves} leaves")
    if splits is not None and splits != leaves - 1:
        faults.append(f"{splits} logged splits != leaves-1 with {leaves} leaves")
    return faults


def decision_digest(cells) -> str:
    """Hash of a learner's split decisions and final sizes.

    ``cells`` holds one (split_log, nodes, leaves) triple per trained model.
    """
    payload = json.dumps([[[list(entry) for entry in split_log], nodes, leaves]
                          for split_log, nodes, leaves in cells])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def digest_summary(parts: dict) -> dict:
    """Per learner: the decision digest of its cells and their summed sizes."""
    return {learner: {"digest": decision_digest(cells),
                      "nodes": sum(cell[1] for cell in cells),
                      "leaves": sum(cell[2] for cell in cells)}
            for learner, cells in parts.items()}


def derive_seed(seed: int, *parts) -> int:
    """A stable sub-seed for one input of a workload."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


CSV_COLUMNS = ("x1", "x2", "color")
CSV_COLORS = ("r", "g", "b")
CSV_CLASSES = ("neg", "pos")
CSV_THRESHOLD = 0.5


def threshold_csv_rows(seed: int, rows: int) -> list[tuple[float, float, str, str]]:
    """Rows that one threshold on x1 separates; x2 and color carry no signal."""
    rng = random.Random(seed)
    out = []
    for _ in range(rows):
        x1, x2, color = rng.random(), rng.random(), rng.choice(CSV_COLORS)
        out.append((x1, x2, color, CSV_CLASSES[x1 > CSV_THRESHOLD]))
    return out


def write_csv(path, rows, nan_row: int | None = None) -> None:
    """Write rows with a header; ``nan_row`` (1-based data row) gets x1 = nan."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(CSV_COLUMNS) + ",label\n")
        for number, (x1, x2, color, label) in enumerate(rows, start=1):
            first = "nan" if number == nan_row else repr(x1)
            handle.write(f"{first},{x2!r},{color},{label}\n")
