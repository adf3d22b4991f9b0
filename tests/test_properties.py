"""Hypothesis properties of the learners that hand examples cannot pin."""
import contextlib
import copy
import io
import json
import math
import pickle
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamtree.tree as tree_module
from streamtree.core import Attribute, ContractViolation, Instance, Schema
from streamtree.experiment import ExperimentConfig, main, make_learner, run_experiment
from streamtree.streams import LedStream, RbfStream, SeaStream
from streamtree.svfdt import leaf_entropy_stats
from streamtree.tree import NB_GATHER_CELLS, LeafNode, TreeConfig
from test_nb_kernel import reference_nb
from test_tree import active, denominators

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
    leaves = [LeafNode(THREE_CLASSES, (0,), w) for w in leaf_weights]
    shuffled = data.draw(st.permutations(leaves))
    assert bits(leaf_entropy_stats(shuffled)) == bits(leaf_entropy_stats(leaves))


def make_stream(kind: str, seed: int, n: int):
    if kind == "led":
        return LedStream(noise=0.1, seed=seed, n=n)
    if kind == "rbf10":
        return RbfStream(n_attrs=10, seed=seed, n=n)
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


CSV_LIKE = Schema((Attribute.numeric("x"), Attribute.nominal("color", 3)), 2)


def csv_like_stream(seed: int, n: int):
    """The rows of ``csv_spec`` as instances: a numeric and a 3-valued nominal
    attribute whose interaction sets the class."""
    rng = random.Random(seed)
    for _ in range(n):
        x, color = rng.random(), rng.randrange(3)
        yield Instance((x, color), int((x > 0.5) ^ (color == 2)))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["led", "sea", "csv"]),
    seed=st.integers(1, 10_000),
    n=st.integers(100, 2000),
    algorithm=st.sampled_from(["vfdt", "svfdt-i", "svfdt-ii"]),
    mode=st.sampled_from(["mc", "nb"]),
)
def test_train_one_returns_the_class_that_predict_scores(kind, seed, n, algorithm, mode):
    # train_one predicts without building the scores; it must not drift from predict.
    if kind == "csv":
        schema, instances = CSV_LIKE, csv_like_stream(seed, n)
    else:
        instances = make_stream(kind, seed, n)
        schema = instances.schema
    learner = make_learner(algorithm, schema,
                           TreeConfig(grace_period=50, tiebreak=0.2, leaf_prediction=mode))
    for instance in instances:
        expected = learner.predict(Instance(instance.values))[0]
        assert learner.train_one(instance) == expected


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["led", "sea", "rbf10"]),
    seed=st.integers(1, 10_000),
    n=st.integers(200, 3000),
    algorithm=st.sampled_from(["vfdt", "svfdt-i", "svfdt-ii"]),
    mode=st.sampled_from(["mc", "nb"]),
)
def test_splits_conserve_the_leaf_weight(kind, seed, n, algorithm, mode):
    # A split hands the leaf's observed weight of each class to its children:
    # exactly for a nominal fan-out, up to rounding for a numeric threshold.
    learner = make_learner(algorithm, make_stream(kind, seed, 1).schema,
                           TreeConfig(grace_period=50, tiebreak=0.2, leaf_prediction=mode))
    splits = []
    split = learner._split

    def recording_split(leaf, parent, branch, winner):
        split(leaf, parent, branch, winner)
        node = learner.root if parent is None else parent.children[branch]
        splits.append((list(leaf.observed), winner.is_nominal,
                       [list(child.dist.weights) for child in node.children]))

    learner._split = recording_split
    for instance in make_stream(kind, seed, n):
        learner.train_one(instance)
    for observed, nominal, children in splits:
        for c, weight in enumerate(observed):
            handed_down = math.fsum(child[c] for child in children)
            if nominal:
                assert handed_down == weight
            else:
                assert abs(handed_down - weight) <= 1e-9 * weight


@st.composite
def mixed_schemas(draw):
    """One to five attributes, at least one nominal, over two or three classes."""
    arities = draw(st.lists(st.sampled_from([None, 2, 3, 4]), min_size=0, max_size=4))
    arities.insert(draw(st.integers(0, len(arities))), draw(st.integers(2, 4)))
    attributes = tuple(
        Attribute.numeric(f"x{i}") if arity is None else Attribute.nominal(f"a{i}", arity)
        for i, arity in enumerate(arities)
    )
    return Schema(attributes, draw(st.integers(2, 3)))


def valid_instance(schema, rng, informative):
    """Attributes in ``informative`` follow the label; two tied ones refuse splits
    at tiebreak 0, so the leaves deactivate the noise attributes."""
    label = rng.randrange(schema.class_count)
    values = tuple(
        (label % a.arity if i in informative else rng.randrange(a.arity)) if a.is_nominal
        else (label if i in informative else 0.0) + rng.gauss(0.0, 1.0)
        for i, a in enumerate(schema.attributes)
    )
    return Instance(values, label)


@settings(max_examples=60, deadline=None)
@given(
    schema=mixed_schemas(),
    seed=st.integers(1, 10_000),
    prefix=st.integers(0, 600),
    algorithm=st.sampled_from(["vfdt", "svfdt-i", "svfdt-ii"]),
    mode=st.sampled_from(["mc", "nb"]),
    fault=st.sampled_from(["value", "deactivated", "numeric", "length", "label"]),
    data=st.data(),
)
def test_rejected_instance_leaves_the_tree_unchanged(schema, seed, prefix, algorithm, mode,
                                                     fault, data):
    learner = make_learner(algorithm, schema,
                           TreeConfig(grace_period=20, tiebreak=0.0, leaf_prediction=mode))
    informative = data.draw(st.sets(st.integers(0, schema.n_attributes - 1)))
    rng = random.Random(seed)
    for _ in range(prefix):
        learner.train_one(valid_instance(schema, rng, informative))
    values, label = valid_instance(schema, rng, informative).values, 0
    nominal = [a for a, attr in enumerate(schema.attributes) if attr.is_nominal]
    numeric = [a for a, attr in enumerate(schema.attributes) if not attr.is_nominal]
    if fault == "numeric" and not numeric:
        fault = "value"  # no numeric attribute to spoil
    if fault == "deactivated":
        # Prefer an attribute the instance's leaf has deactivated, if any.
        leaf = learner.sort_to_leaf(Instance(values))
        dropped = set(leaf.available) - set(active(leaf))
        nominal = [a for a in nominal if a in dropped] or nominal
    if fault in ("value", "deactivated"):
        a = data.draw(st.sampled_from(nominal))
        arity = schema.attributes[a].arity
        bad = data.draw(st.sampled_from([-1, arity, 0.5, arity - 0.5, math.nan, math.inf]))
        values = values[:a] + (bad,) + values[a + 1:]
    elif fault == "numeric":
        a = data.draw(st.sampled_from(numeric))
        bad = data.draw(st.sampled_from(["abc", None, math.nan, math.inf, -math.inf]))
        values = values[:a] + (bad,) + values[a + 1:]
    elif fault == "length":
        values = data.draw(st.sampled_from([values[:-1], values + (0,)]))
    else:
        label = data.draw(st.sampled_from([-1, schema.class_count, 1.5]))
    before = pickle.dumps(learner)
    with pytest.raises(ContractViolation):
        learner.train_one(Instance(values, label))
    assert pickle.dumps(learner) == before


@st.composite
def nominal_block_schemas(draw):
    """Up to five nominal attributes, of two arities or more when there are
    several, and up to three numeric ones (one at least when no attribute is
    nominal), in a drawn order, over two to five classes."""
    arities = draw(st.lists(st.integers(2, 5), max_size=5))
    if len(arities) > 1 and len(set(arities)) == 1:
        arities[-1] = 2 + arities[0] % 4
    kinds = draw(st.permutations(arities + [None] * draw(st.integers(0 if arities else 1, 3))))
    attributes = tuple(
        Attribute.numeric(f"x{i}") if arity is None else Attribute.nominal(f"a{i}", arity)
        for i, arity in enumerate(kinds)
    )
    return Schema(attributes, draw(st.integers(2, 5)))


@settings(max_examples=40, deadline=None)
@given(
    schema=nominal_block_schemas(),
    seed=st.integers(1, 10_000),
    n=st.integers(0, 600),
    algorithm=st.sampled_from(["vfdt", "svfdt-i", "svfdt-ii"]),
    data=st.data(),
)
def test_nominal_block_matches_the_reference_and_survives_pickling(schema, seed, n,
                                                                    algorithm, data):
    # Every all-nominal leaf gathers with numpy at 0 cells, none at the drawn schemas' widths.
    gather_cells = data.draw(st.sampled_from([0, NB_GATHER_CELLS]), label="gather_cells")
    with mock.patch.object(tree_module, "NB_GATHER_CELLS", gather_cells):
        # tiebreak 0: label-following attributes tie, so checks are refused and
        # the leaves deactivate the attributes that trail them.
        learner = make_learner(algorithm, schema,
                               TreeConfig(grace_period=20, tiebreak=0.0, leaf_prediction="nb"))
        informative = data.draw(st.sets(st.integers(0, schema.n_attributes - 1)))
        rng = random.Random(seed)
        for _ in range(n):
            learner.train_one(valid_instance(schema, rng, informative))
        for leaf in learner.iter_leaves():
            numeric = [a for a in active(leaf) if not schema.attributes[a].is_nominal]
            assert (leaf.numeric is None) == (not numeric)
            nominal = [a for a in active(leaf) if schema.attributes[a].is_nominal]
            if not nominal:
                assert leaf.nominal is None
                continue
            arities = [schema.attributes[a].arity for a in nominal]
            assert leaf.nominal.num.shape == (sum(arities), schema.class_count)
            # None before a leaf's first gathered read and after a deactivation
            if leaf.nominal.den is not None:
                assert leaf.nominal.den.tolist() == denominators(leaf)
        probes = [valid_instance(schema, rng, informative) for _ in range(20)]
        for probe in probes:
            leaf = learner.sort_to_leaf(probe)
            assert learner.predict(Instance(probe.values)) == reference_nb(leaf, probe.values)
            if leaf.nominal is not None and leaf.dist.total > 0.0:  # only the gather derives den
                gathers = leaf.numeric is None and gather_cells == 0
                assert (leaf.nominal.den is not None) == gathers
                assert not gathers or leaf.nominal.den.tolist() == denominators(leaf)
        copy = pickle.loads(pickle.dumps(learner))
        for leaf, twin in zip(learner.iter_leaves(), copy.iter_leaves()):
            assert (twin.nominal is None) == (leaf.nominal is None)
            assert twin.nominal is None or twin.nominal.den is None
        more = [valid_instance(schema, rng, informative) for _ in range(300)]
        assert [copy.train_one(i) for i in more] == [learner.train_one(i) for i in more]
        assert copy.split_log == learner.split_log
        assert [copy.predict(p) for p in probes] == [learner.predict(p) for p in probes]


CSV_COLUMNS = [{"name": "x", "kind": "numeric"},
               {"name": "color", "kind": "nominal", "values": ["r", "g", "b"]}]
# Each fault: the feature cells of a faulty row, and the column its error must name
# (none for a missing field, which no single column owns).
CSV_FAULTS = {
    "nan": (lambda x, color: [" nan", color], "x"),
    "inf": (lambda x, color: ["-inf", color], "x"),
    "text": (lambda x, color: ["abc", color], "x"),
    "unknown value": (lambda x, color: [x, "purple"], "color"),
    "missing column": (lambda x, color: [x], None),
}


@settings(max_examples=15, deadline=None)
@given(rows=st.lists(
    st.tuples(st.floats(0.0, 1.0), st.sampled_from("rgb"), st.sampled_from("ab"),
              st.sampled_from([None, None, None, *CSV_FAULTS])),
    min_size=1, max_size=60,
))
def test_csv_rows_are_learned_or_rejected_with_their_position(rows):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        lines = []
        for x, color, label, fault in rows:
            cells = [repr(x), color] if fault is None else CSV_FAULTS[fault][0](repr(x), color)
            lines.append(",".join([*cells, label]) + "\n")
        data = directory / "data.csv"
        data.write_text("".join(lines), encoding="utf-8")
        config = directory / "config.json"
        config.write_text(json.dumps({
            "streams": [{"name": "file", "type": "csv", "path": str(data),
                         "columns": CSV_COLUMNS, "classes": ["a", "b"]}],
            "algorithms": ["vfdt", "svfdt-ii"], "seeds": [1], "grace_period": 10,
            "snapshot_every": 20, "workers": 1,
        }), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(config), "--output-dir", str(directory / "out")])
    faults = [(row, fault) for row, (*_, fault) in enumerate(rows, start=1) if fault]
    if not faults:
        assert code == 0
        return
    row, fault = faults[0]
    assert code == 2
    assert f"(row {row}" in err.getvalue()
    column = CSV_FAULTS[fault][1]
    if column is not None:
        assert f"column {column!r}" in err.getvalue()


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
