"""When the slow modules load: scipy only for numeric split search, the
process pool only where a grid starts one.

Each check runs in a fresh interpreter, because the test process has
already imported scipy (``test_split_kernel`` uses it as a reference).
"""
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from streamtree.experiment import make_learner
from streamtree.streams import SeaStream
from streamtree.tree import TreeConfig

ROOT = Path(__file__).resolve().parents[1]
LEARNERS = ("vfdt", "svfdt-i", "svfdt-ii")


def fresh(script: str, cwd) -> dict:
    """The JSON object that ``script``, run in a new interpreter with this
    checkout's source, prints on its last line."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
                          text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_loads_neither_scipy_nor_the_process_pool(tmp_path):
    loaded = fresh("""
        import json, sys
        import streamtree
        print(json.dumps([m for m in ("scipy", "concurrent.futures.process") if m in sys.modules]))
    """, tmp_path)
    assert loaded == []


def test_nominal_runs_relative_and_curves_never_load_scipy(tmp_path):
    report = fresh("""
        import json, sys
        from streamtree.evaluation import prequential_run
        from streamtree.experiment import ExperimentConfig, main, make_learner, run_experiment
        from streamtree.streams import LedStream
        from streamtree.tree import TreeConfig

        stream = LedStream(noise=0.1, n=600, seed=3)
        accuracy = {}
        for mode in ("mc", "nb"):
            for name in ("vfdt", "svfdt-i", "svfdt-ii"):
                learner = make_learner(name, stream.schema, TreeConfig(grace_period=50,
                                                                       leaf_prediction=mode))
                accuracy[f"{name}-{mode}"] = prequential_run(learner, stream, 200).final.accuracy
        config = ExperimentConfig.from_dict({"streams": [{"type": "led", "n": 300}],
                                             "tiebreaks": [0.05, 0.1], "snapshot_every": 100})
        run_experiment(config, "out")
        codes = [main(["relative", "--results", "out/results.jsonl", "--output", "rel.csv"]),
                 main(["curves", "--results", "out/results.jsonl", "--output-dir", "curves"])]
        print(json.dumps({"codes": codes, "accuracy": accuracy,
                          "scipy": "scipy" in sys.modules}))
    """, tmp_path)
    assert report["codes"] == [0, 0]
    accuracy = report["accuracy"].values()
    assert len(accuracy) == 6 and all(0.0 < a <= 1.0 for a in accuracy)
    assert report["scipy"] is False


@pytest.mark.parametrize("name", LEARNERS)
@pytest.mark.parametrize("schema", [
    "SeaStream(n=10).schema",
    "CsvStream('data.csv', [CsvColumn('c', 'nominal', ('a', 'b')), CsvColumn('x', 'numeric')],"
    " ('p', 'q')).schema",
], ids=["sea", "csv-one-numeric"])
def test_a_learner_over_a_numeric_attribute_returns_with_scipy_loaded(tmp_path, name, schema):
    # Loaded in the constructor, so that no timed train_one pays for the import.
    report = fresh(f"""
        import json, sys
        from streamtree.experiment import make_learner
        from streamtree.streams import CsvColumn, CsvStream, SeaStream
        from streamtree.tree import TreeConfig

        schema = {schema}
        before = "scipy.special" in sys.modules
        make_learner({name!r}, schema, TreeConfig())
        print(json.dumps([before, "scipy.special" in sys.modules]))
    """, tmp_path)
    assert report == [False, True]


def test_the_parent_holds_scipy_when_the_worker_pool_starts(tmp_path):
    # Forked workers then share the module instead of each importing it
    # inside its first timed cell.
    (tmp_path / "config.json").write_text(json.dumps({
        "streams": [{"name": "sea", "type": "sea", "n": 400}], "algorithms": ["vfdt"],
        "tiebreaks": [0.05], "seeds": [1, 2], "snapshot_every": 100}), encoding="utf-8")
    report = fresh("""
        import json, sys
        from concurrent.futures import process
        from streamtree.experiment import main

        seen = []
        start = process.ProcessPoolExecutor.__init__

        def recording(self, *args, **kwargs):
            seen.append("scipy.special" in sys.modules)
            start(self, *args, **kwargs)

        process.ProcessPoolExecutor.__init__ = recording
        code = main(["run", "--config", "config.json", "--output-dir", "out", "--workers", "2"])
        print(json.dumps({"code": code, "seen": seen}))
    """, tmp_path)
    assert report == {"code": 0, "seen": [True]}


@pytest.mark.parametrize("streams", [["led"], ["led", "sea"]], ids="-".join)
def test_the_parent_loads_scipy_for_the_pool_only_when_a_stream_is_numeric(tmp_path, streams):
    # No worker of a grid over LED alone reads a numeric split, so the
    # parent has no module to share; a later numeric stream still needs it.
    (tmp_path / "config.json").write_text(json.dumps({
        "streams": [{"name": name, "type": name, "n": 400} for name in streams],
        "algorithms": ["vfdt"], "tiebreaks": [0.05], "seeds": [1, 2], "snapshot_every": 100,
        "leaf_prediction": "nb"}), encoding="utf-8")
    report = fresh("""
        import json, sys
        from concurrent.futures import process
        from streamtree.experiment import main

        seen = []
        start = process.ProcessPoolExecutor.__init__

        def recording(self, *args, **kwargs):
            seen.append("scipy" in sys.modules)
            start(self, *args, **kwargs)

        process.ProcessPoolExecutor.__init__ = recording
        code = main(["run", "--config", "config.json", "--output-dir", "out", "--workers", "2"])
        print(json.dumps({"code": code, "seen": seen, "scipy": "scipy" in sys.modules}))
    """, tmp_path)
    numeric = "sea" in streams
    assert report == {"code": 0, "seen": [numeric], "scipy": numeric}


def test_an_unpickled_learner_finds_the_same_split_candidates(tmp_path):
    config = TreeConfig(grace_period=100)
    learner = make_learner("vfdt", SeaStream(n=10).schema, config)
    for instance in SeaStream(n=3000, seed=5):
        learner.train_one(instance)

    def candidates(tree):
        return [[(c.attribute, c.merit.hex(), c.threshold.hex())
                 for c in leaf.numeric.best_split(leaf.observed, tree.config.numeric_bins)]
                for leaf in tree.iter_leaves()]

    expected = candidates(learner)
    assert len(expected) > 1 and all(expected)
    (tmp_path / "learner.pkl").write_bytes(pickle.dumps(learner))
    report = fresh("""
        import json, pickle, sys

        with open("learner.pkl", "rb") as handle:
            tree = pickle.load(handle)
        unpickled_alone = "scipy" not in sys.modules
        got = [[(c.attribute, c.merit.hex(), c.threshold.hex())
                for c in leaf.numeric.best_split(leaf.observed, tree.config.numeric_bins)]
               for leaf in tree.iter_leaves()]
        print(json.dumps({"unpickled_alone": unpickled_alone, "got": got}))
    """, tmp_path)
    assert report["unpickled_alone"] is True
    assert report["got"] == [[list(c) for c in leaf] for leaf in expected]
