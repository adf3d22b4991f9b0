"""Hypothesis properties of the learners that hand examples cannot pin."""
import copy
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree.core import Attribute, ClassDistribution, Instance, Schema
from streamtree.experiment import ExperimentConfig, make_learner, run_experiment
from streamtree.streams import LedStream, SeaStream
from streamtree.svfdt import leaf_entropy_stats
from streamtree.tree import LeafNode, TreeConfig

THREE_CLASSES = Schema((Attribute.nominal("a", 2),), 3)

weights = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
)


def bits(snapshot):
    count, mean, std = snapshot
    return count, mean.hex(), std.hex()


@given(st.data(), st.lists(weights, min_size=1, max_size=40))
def test_leaf_entropy_stats_ignore_leaf_order(data, leaf_weights):
    leaves = [
        LeafNode(i, THREE_CLASSES, (0,), 10, ClassDistribution.from_weights(w))
        for i, w in enumerate(leaf_weights)
    ]
    shuffled = data.draw(st.permutations(leaves))
    assert bits(leaf_entropy_stats(shuffled)) == bits(leaf_entropy_stats(leaves))


def make_stream(kind: str, seed: int, n: int):
    if kind == "led":
        return LedStream(noise=0.1, seed=seed, n=n)
    return SeaStream(seed=seed, n=n)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["led", "sea"]),
    seed=st.integers(1, 10_000),
    prefix=st.integers(0, 1500),
    algorithm=st.sampled_from(["vfdt", "svfdt-i", "svfdt-ii"]),
    mode=st.sampled_from(["mc", "nb"]),
)
def test_train_one_prediction_is_label_blind(kind, seed, prefix, algorithm, mode):
    stream = make_stream(kind, seed, prefix + 1)
    config = TreeConfig(grace_period=50, tiebreak=0.2, leaf_prediction=mode)
    learner = make_learner(algorithm, stream.schema, config)
    *trained, probe = stream
    for instance in trained:
        learner.train_one(instance)
    predictions = {
        copy.deepcopy(learner).train_one(Instance(probe.values, label))
        for label in range(learner.schema.class_count)
    }
    assert len(predictions) == 1


def untimed(record: dict) -> dict:
    return dict(record, elapsed_train_seconds=0.0,
                snapshots=[row[:5] for row in record["snapshots"]])


def csv_spec(directory: Path, seed: int, n: int) -> dict:
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        x, color = rng.random(), rng.randrange(3)
        rows.append(f"{x!r},{'rgb'[color]},{'ab'[(x > 0.5) ^ (color == 2)]}\n")
    path = directory / f"data{seed}.csv"
    path.write_text("".join(rows), encoding="utf-8")
    return {"name": f"csv{seed}", "type": "csv", "path": str(path),
            "columns": [{"name": "x", "kind": "numeric"},
                        {"name": "color", "kind": "nominal", "values": ["r", "g", "b"]}],
            "classes": ["a", "b"]}


@settings(max_examples=6, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["led", "sea", "csv"]), min_size=1, max_size=3),
    seeds=st.lists(st.integers(1, 10_000), min_size=1, max_size=2, unique=True),
    algorithms=st.lists(st.sampled_from(["vfdt", "svfdt-i", "svfdt-ii"]), min_size=1,
                        unique=True),
    tiebreak=st.sampled_from([0.05, 0.2]),
    mode=st.sampled_from(["mc", "nb"]),
    n=st.integers(50, 400),
)
def test_records_do_not_depend_on_the_worker_count(kinds, seeds, algorithms, tiebreak,
                                                   mode, n):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        streams = []
        for index, kind in enumerate(kinds):
            if kind == "csv":
                streams.append(csv_spec(directory, index, n))
            else:
                streams.append({"name": f"{kind}{index}", "type": kind, "n": n})
        raw = {"streams": streams, "algorithms": algorithms, "tiebreaks": [tiebreak],
               "seeds": seeds, "leaf_prediction": mode, "grace_period": 50,
               "snapshot_every": max(1, n // 3)}
        runs = [
            [untimed(r) for r in run_experiment(
                ExperimentConfig.from_dict(dict(raw, workers=workers)), directory / str(workers))]
            for workers in (1, 2)
        ]
        assert runs[0] == runs[1]
        assert len(runs[0]) == len(kinds) * len(seeds) * len(algorithms)
