"""The program names that the benchmark under ``streambench/`` uses still exist.

``streambench/layers.py`` wraps the learners' layer boundaries by name and
skips a missing one with a message, so a renamed method would leave its
traced figures at 0; the workloads call program functions through
``prog.<module>.<name>``.  A rename must fail here, not in a benchmark run.
The command line the README documents starts cleanly, too, and ``relative``
prints the CSV that it writes with ``--output``.
"""
import csv
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "streambench"
MODULES = ("evaluation", "experiment", "observers", "streams", "svfdt", "tree")
LEARNERS = ("vfdt", "svfdt-i", "svfdt-ii")


def program():
    return SimpleNamespace(**{name: importlib.import_module(f"streamtree.{name}")
                              for name in MODULES})


def test_every_wrapped_layer_exists(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import instrument
    from tracing import Tracer

    patches = instrument(Tracer(), program())
    try:
        assert patches._undo, "nothing was wrapped"
        assert capsys.readouterr().err == ""
    finally:
        patches.remove()


def test_every_looked_up_name_exists():
    modules = program()
    names = set()
    for path in BENCH.glob("*.py"):
        names.update(re.findall(r"\bprog\.(\w+)\.(\w+)", path.read_text(encoding="utf-8")))
    assert names
    for module, name in sorted(names):
        assert hasattr(getattr(modules, module), name), f"streamtree.{module}.{name}"


def test_no_traced_layer_is_left_empty(monkeypatch):
    # A fast path that skipped a wrapped method would read 0 under --trace 1.
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import instrument
    from tracing import Tracer

    from streamtree.experiment import make_learner
    from streamtree.streams import SeaStream
    from streamtree.tree import TreeConfig

    stream = SeaStream(seed=1, n=1000)
    instances = list(stream)
    modules = program()
    for mode in ("mc", "nb"):
        tracer = Tracer()
        patches = instrument(tracer, modules)
        try:
            for algorithm in LEARNERS:
                learner = make_learner(algorithm, stream.schema, TreeConfig(leaf_prediction=mode))
                modules.evaluation.prequential_run(learner, instances)
        finally:
            patches.remove()
        totals = tracer.totals()
        for algorithm in LEARNERS:
            def calls(span):
                return totals.get((algorithm, span), (0.0, 0.0, 0))[2]

            for span in ("tree.route", "tree.predict", "tree.learn"):
                assert calls(span) == len(instances), (mode, algorithm, span)
            for span in ("tree.attempt", "observers.best_split"):
                assert calls(span) >= 1, (mode, algorithm, span)


def streamtree(cwd, *args):
    """``python -W error -m streamtree *args`` run from ``cwd``, with this checkout's source."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", "-m", "streamtree", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path))


def test_package_runs_as_a_module_without_a_warning(tmp_path):
    done = streamtree(tmp_path, "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: streamtree") and done.stderr == ""


def test_relative_without_output_prints_the_csv_it_would_write(tmp_path):
    from streamtree.experiment import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_dict({"streams": [{"type": "led", "n": 300}],
                                         "tiebreaks": [0.05, 0.1], "snapshot_every": 100})
    run_experiment(config, tmp_path)
    results = tmp_path / "results.jsonl"
    written = streamtree(tmp_path, "relative", "--results", results, "--output", "rel.csv")
    printed = streamtree(tmp_path, "relative", "--results", results)
    assert written.returncode == printed.returncode == 0, written.stderr + printed.stderr
    assert printed.stderr == ""
    with open(tmp_path / "rel.csv", encoding="utf-8", newline="") as handle:
        expected = csv.DictReader(handle)
        rows = list(expected)
    got = csv.DictReader(io.StringIO(printed.stdout))
    assert got.fieldnames == expected.fieldnames
    assert list(got) == rows and len(rows) == 4


def test_record_keys_are_the_eval_record_fields(monkeypatch):
    # grid's reference reads finished records through workloads._untimed.
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import _untimed

    from streamtree.evaluation import EvalRecord, prequential_run
    from streamtree.experiment import make_learner, record_dict
    from streamtree.streams import SeaStream
    from streamtree.tree import TreeConfig

    stream = SeaStream(seed=1, n=300)
    run = prequential_run(make_learner("vfdt", stream.schema, TreeConfig()), stream,
                          snapshot_every=100)
    record = record_dict(run)
    assert tuple(record) == EvalRecord._fields + ("snapshots",)
    assert json.loads(json.dumps(record)) == record  # as results.jsonl gives it back
    read = set(re.findall(r'record\["(\w+)"\]', inspect.getsource(_untimed)))
    assert len(read) == 6 and read <= set(record)
    assert _untimed(record)["snapshots"] == [s[:5] for s in record["snapshots"]]
