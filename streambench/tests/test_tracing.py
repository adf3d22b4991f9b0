"""Self-time arithmetic and wrapping of the benchmark's tracer.

    python3 -m pytest streambench/tests -q
"""
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import Patches, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("outer")          # t=0
    clock.now = 2.0
    child = tracer.enter("child")          # t=2
    clock.now = 3.0
    grandchild = tracer.enter("grand")     # t=3
    clock.now = 4.0
    tracer.exit(grandchild)                # grand: 1
    clock.now = 5.0
    tracer.exit(child)                     # child: 3 total, 2 self
    clock.now = 6.0
    second = tracer.enter("child")         # t=6
    clock.now = 8.0
    tracer.exit(second)                    # child: 2 total, 2 self
    clock.now = 10.0
    assert tracer.exit(outer) == 10.0      # outer: 10 - 3 - 2 = 5 self
    totals = tracer.totals()
    assert totals[(None, "outer")] == [5.0, 10.0, 1]
    assert totals[(None, "child")] == [4.0, 5.0, 2]
    assert totals[(None, "grand")] == [1.0, 1.0, 1]
    assert sum(v[0] for v in totals.values()) == 10.0


def test_label_applies_to_children_and_is_restored():
    clock = FakeClock()
    tracer = Tracer(clock)
    run = tracer.enter("run", label="vfdt")
    inner = tracer.enter("predict")
    tracer.count("gate")
    tracer.exit(inner)
    tracer.exit(run)
    after = tracer.enter("other")
    tracer.exit(after)
    totals = tracer.totals()
    assert (("vfdt", "predict") in totals and ("vfdt", "gate") in totals
            and (None, "other") in totals)
    assert totals[("vfdt", "gate")][2] == 1


def test_out_of_order_exit_is_refused():
    tracer = Tracer(FakeClock())
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_spans_on_other_threads_are_not_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    entered, done = threading.Event(), threading.Event()

    def worker():
        entered.wait(5)
        span = tracer.enter("cell")
        clock.now += 4.0
        tracer.exit(span)
        done.set()

    thread = threading.Thread(target=worker)
    thread.start()
    main = tracer.enter("grid")
    entered.set()
    assert done.wait(5)
    clock.now += 1.0
    tracer.exit(main)
    thread.join(5)
    assert not thread.is_alive()
    totals = tracer.totals()
    assert totals[(None, "grid")] == [5.0, 5.0, 1]
    assert totals[(None, "cell")] == [4.0, 4.0, 1]


class Model:
    def step(self, x):
        return x + 1


class Numbers:
    def __iter__(self):
        yield from (1, 2, 3)


def test_patches_wrap_and_restore():
    clock = FakeClock()
    tracer = Tracer(clock)
    patches = Patches(tracer)
    original = Model.__dict__["step"]
    seen = []
    patches.wrap(Model, "step", "model.step", on_result=seen.append)
    patches.wrap_iter(Numbers, "gen")
    assert [Model().step(x) for x in Numbers()] == [2, 3, 4]
    assert seen == [2, 3, 4]
    totals = tracer.totals()
    assert totals[(None, "model.step")][2] == 3
    assert totals[(None, "gen.items")][2] == 3
    assert totals[(None, "gen")][2] == 4  # three items and the final stop
    patches.remove()
    assert Model.__dict__["step"] is original
    assert list(Numbers()) == [1, 2, 3]


def test_missing_target_is_skipped(capsys):
    patches = Patches(Tracer(FakeClock()))
    patches.wrap(Model, "absent", "x")
    assert "absent" in capsys.readouterr().err
    patches.remove()
