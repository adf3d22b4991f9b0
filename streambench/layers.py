"""Which program entry points the traced run wraps, and the per-layer
metrics derived from the spans.

Each wrapped call becomes a span named after its layer.  ``nb_likelihood``
and ``observe`` are deliberately not wrapped: they run once per attribute
(and class) per instance, so wrapping them would swamp the figures; their
cost shows inside ``tree.predict_s`` and ``tree.learn_s``.
"""
from __future__ import annotations

from tracing import Patches, Tracer
from workloads import LEARNERS, SizeProbe

STRICT = ("svfdt-i", "svfdt-ii")

# (metric suffix, span name, field) per learner; field 0 is self seconds,
# 2 is the call count.
LEARNER_LAYERS = (
    ("tree.route_s", "tree.route", 0),
    ("tree.predict_s", "tree.predict", 0),
    ("tree.learn_s", "tree.learn", 0),
    ("tree.train_self_s", "tree.train_one", 0),
    ("tree.attempt_self_s", "tree.attempt", 0),
    ("tree.attempts", "tree.attempt", 2),
    ("tree.splits", "tree.split", 2),
    ("observers.best_split_s", "observers.best_split", 0),
    ("observers.best_split_calls", "observers.best_split", 2),
    ("evaluation.self_s", "evaluation.prequential_run", 0),
)
STRICT_LAYERS = (
    ("svfdt.can_split_s", "svfdt.can_split", 0),
    ("svfdt.can_split_calls", "svfdt.can_split", 2),
    ("svfdt.gate_pass", "svfdt.gate_pass", 2),
    ("svfdt.leaf_entropy_stats_s", "svfdt.leaf_entropy_stats", 0),
)


def learner_label(learner) -> str:
    variant = getattr(learner, "variant", None)
    return "vfdt" if variant is None else ("svfdt-i" if variant == 1 else "svfdt-ii")


def instrument(tracer: Tracer, modules) -> Patches:
    """Wrap the layer boundaries of the imported program ``modules``."""
    tree, observers, svfdt = modules.tree, modules.observers, modules.svfdt
    evaluation, experiment, streams = modules.evaluation, modules.experiment, modules.streams
    patches = Patches(tracer)

    def labelled(args):
        return learner_label(args[0])

    for owner in (evaluation, experiment):
        patches.wrap(owner, "prequential_run", "evaluation.prequential_run", label_of=labelled)
    patches.wrap(tree.HoeffdingTree, "train_one", "tree.train_one")
    patches.wrap(tree.HoeffdingTree, "_sort_path", "tree.route")
    patches.wrap(tree.HoeffdingTree, "_predict_leaf", "tree.predict")
    patches.wrap(tree.LeafNode, "learn", "tree.learn")
    patches.wrap(tree.HoeffdingTree, "_attempt_split", "tree.attempt")
    patches.wrap(tree.HoeffdingTree, "_split", "tree.split")
    for cls in (observers.NominalObserver, observers.GaussianNumericObserver):
        patches.wrap(cls, "best_split", "observers.best_split")

    def count_pass(passed):
        if passed:
            tracer.count("svfdt.gate_pass")

    patches.wrap(svfdt, "can_split", "svfdt.can_split", on_result=count_pass)
    patches.wrap(svfdt, "leaf_entropy_stats", "svfdt.leaf_entropy_stats")
    for cls in (streams.LedStream, streams.SeaStream, streams.RbfStream, streams.CsvStream):
        patches.wrap_iter(cls, "streams.gen")
    patches.wrap(experiment, "run_experiment", "experiment.run_experiment", keep=True)
    patches.wrap(experiment, "_execute_run", "experiment.cell", keep=True)
    # The benchmark's own size measurements run inside prequential_run's
    # loop; as a span of their own they stay out of its self time.
    patches.wrap(SizeProbe, "_measure", "bench.size_probe")
    return patches


def per_layer_names() -> list[str]:
    names = []
    for learner in LEARNERS:
        names += [f"{learner}.{suffix}" for suffix, _, _ in LEARNER_LAYERS]
        names.append(f"{learner}.tree.split_ratio")
        if learner in STRICT:
            names += [f"{learner}.{suffix}" for suffix, _, _ in STRICT_LAYERS]
    return names + [
        "streams.gen_s",
        "streams.ips",
        "experiment.cell_s",
        "experiment.write_s",
        "experiment.relative_s",
        "experiment.curves_s",
        "experiment.parallel_efficiency",
        "trace.overhead",
    ]


def per_layer_metrics(tracer: Tracer, rounds: int, workers: int, overhead: float,
                      cli_seconds: dict[str, float],
                      setup_totals: dict) -> dict[str, tuple[float, str]]:
    """Per-round figures from the spans of ``rounds`` traced rounds.

    ``cli_seconds`` holds the benchmark's own spans around the ``relative``
    and ``curves`` commands, summed over the rounds.  ``setup_totals`` are
    the spans of the traced set-up: streams generated there once feed every
    round, so they count in full towards each round's stream figures.
    """
    totals = tracer.totals()

    def field(label, span, index):
        if label is None:
            return sum(v[index] for (lab, name), v in totals.items() if name == span)
        return totals.get((label, span), (0.0, 0.0, 0))[index]

    out: dict[str, tuple[float, str]] = {}
    for learner in LEARNERS:
        layers = LEARNER_LAYERS + (STRICT_LAYERS if learner in STRICT else ())
        for suffix, span, index in layers:
            value = field(learner, span, index) / rounds
            out[f"{learner}.{suffix}"] = (value, "s" if index == 0 else "count")
        attempts = field(learner, "tree.attempt", 2)
        splits = field(learner, "tree.split", 2)
        out[f"{learner}.tree.split_ratio"] = (splits / attempts if attempts else 0.0, "ratio")

    def setup_field(span, index):
        return sum(v[index] for (_, name), v in setup_totals.items() if name == span)

    gen_s = setup_field("streams.gen", 0) + field(None, "streams.gen", 0) / rounds
    items = setup_field("streams.gen.items", 2) + field(None, "streams.gen.items", 2) / rounds
    out["streams.gen_s"] = (gen_s, "s")
    out["streams.ips"] = (items / gen_s if gen_s else 0.0, "1/s")

    cells = [span for span in tracer.kept if span[0] == "experiment.cell"]
    grids = [span for span in tracer.kept if span[0] == "experiment.run_experiment"]
    cell_s = sum(end - start for _, _, _, start, end in cells)
    write_s = 0.0
    efficiency = 0.0
    if grids:
        wall = 0.0
        for _, _, _, start, end in grids:
            inside = [c_end for _, _, _, c_start, c_end in cells if start <= c_start <= end]
            write_s += end - max(inside, default=start)
            wall += end - start
        efficiency = cell_s / (wall * workers)
    out["experiment.cell_s"] = (cell_s / rounds, "s")
    out["experiment.write_s"] = (write_s / rounds, "s")
    out["experiment.relative_s"] = (cli_seconds.get("relative", 0.0) / rounds, "s")
    out["experiment.curves_s"] = (cli_seconds.get("curves", 0.0) / rounds, "s")
    out["experiment.parallel_efficiency"] = (efficiency, "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out
