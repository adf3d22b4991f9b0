"""The program names that the benchmark under ``streambench/`` uses still exist.

``streambench/layers.py`` wraps the learners' layer boundaries by name and
skips a missing one with a message, so a renamed method would leave its
traced figures at 0; the workloads call program functions through
``prog.<module>.<name>``.  A rename must fail here, not in a benchmark run.
"""
import importlib
import re
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "streambench"
MODULES = ("evaluation", "experiment", "observers", "streams", "svfdt", "tree")


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
