"""The benchmark's workloads: how each prepares its inputs, runs one round
of operations, and checks the program's outputs.

A round is the same fixed set of operations in every run, so the share of
failed operations never depends on the run length or the seed.  Outputs
that do not depend on time (accuracy, sizes, split decisions) must be the
same in every round of a run; the first round's are checked and reported.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import pickle
import random
import shutil
import statistics
import time
from pathlib import Path

import oracles

LEARNERS = ("vfdt", "svfdt-i", "svfdt-ii")
LED_NOISE = 0.10


class CheckFailed(Exception):
    """The program produced an output that a reference computation refutes."""


def model_bytes(learner) -> int:
    return len(pickle.dumps(learner, protocol=pickle.HIGHEST_PROTOCOL))


class SizeProbe:
    """Feeds instances to ``prequential_run`` and measures the learner's
    pickle length at ``points`` evenly spaced positions of the stream, the
    last one after the final instance.

    The mean of those lengths is the memory the model holds while it
    learns.  The length after the last instance alone jumps by a third or
    more with the timing of the last splits, because a new leaf holds an
    observer for every attribute until its first refused split attempt.
    ``cpu_s`` and ``wall_s`` are the time spent measuring, to subtract from
    timings that enclose it.
    """

    points = 20

    def __init__(self, instances, learner):
        self.instances = instances
        self.learner = learner
        self.sizes: list[int] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def _measure(self) -> None:
        cpu, wall = time.thread_time(), time.perf_counter()
        self.sizes.append(model_bytes(self.learner))
        self.cpu_s += time.thread_time() - cpu
        self.wall_s += time.perf_counter() - wall

    def __iter__(self):
        n = len(self.instances)
        marks = {n * i // self.points for i in range(1, self.points)}
        for index, instance in enumerate(self.instances):
            if index in marks:
                self._measure()
            yield instance
        self._measure()

    @property
    def mean_bytes(self) -> float:
        return statistics.fmean(self.sizes)


class Round:
    """What one round produced: timings, decisions and operation counts."""

    def __init__(self):
        self.wall_s = 0.0
        self.rate = {}  # per learner: instances trained per second of training time
        # Per learner, one dict per cell of what must not depend on time.
        self.outputs = {name: [] for name in LEARNERS}
        self.attempted = 0
        self.failed = 0
        self.records = []  # results.jsonl records, for the grid


def cell_output(learner, accuracy, probe) -> dict:
    nodes, leaves, _ = learner.tree_size()
    return {
        "accuracy": accuracy,
        "nodes": nodes,
        "leaves": leaves,
        "split_log": [list(e) for e in learner.split_log],
        "model_bytes": probe.mean_bytes,
    }


class PrequentialWorkload:
    """Trains each learner, test-then-train, over pre-built instance lists.

    Subclasses define ``prepare``; a round runs ``prequential_run`` for every
    (instance list, learner) pair and times each call from outside.  Training
    time is the calling thread's CPU time: on a shared machine the wall clock
    also counts the time other tenants hold the processor, which moved
    single runs by up to half.
    """

    name = ""
    leaf_prediction = "mc"
    warm_up_instances = 2000

    def warm_up(self, prog, inputs) -> None:
        schema, instances = inputs[0]
        for learner_name in LEARNERS:
            learner = self._learner(prog, learner_name, schema)
            prog.evaluation.prequential_run(learner, instances[: self.warm_up_instances])

    def _learner(self, prog, name, schema):
        config = prog.tree.TreeConfig(leaf_prediction=self.leaf_prediction)
        return prog.experiment.make_learner(name, schema, config)

    def run_round(self, prog, inputs, cli_seconds=None) -> Round:
        result = Round()
        seconds = {name: 0.0 for name in LEARNERS}
        probes_s = 0.0
        start = time.perf_counter()
        for schema, instances in inputs:
            for name in LEARNERS:
                learner = self._learner(prog, name, schema)
                probe = SizeProbe(instances, learner)
                t0 = time.thread_time()
                run = prog.evaluation.prequential_run(
                    learner, probe, snapshot_every=len(instances))
                seconds[name] += time.thread_time() - t0 - probe.cpu_s
                probes_s += probe.wall_s
                result.attempted += 1
                result.outputs[name].append(cell_output(learner, run.final.accuracy, probe))
        result.wall_s = time.perf_counter() - start - probes_s
        total = sum(len(instances) for _, instances in inputs)
        for name in LEARNERS:
            result.rate[name] = total / seconds[name]
        return result

    def reference(self, prog, inputs):
        return None

    def check(self, prog, inputs, first: Round, reference) -> list[str]:
        faults = []
        for name in LEARNERS:
            for (schema, instances), cell in zip(inputs, first.outputs[name]):
                faults += [f"{name}: {f}" for f in oracles.binary_tree_faults(
                    cell["nodes"], cell["leaves"], len(cell["split_log"]))]
                faults += self.check_accuracy(name, instances, cell["accuracy"])
        return faults

    def check_accuracy(self, name, instances, accuracy) -> list[str]:
        return []

    def metrics(self, first: Round, reference) -> dict:
        return quality(first.outputs)

    def digest_parts(self, first: Round, reference) -> dict:
        return {name: [(c["split_log"], c["nodes"], c["leaves"]) for c in first.outputs[name]]
                for name in LEARNERS}


def quality(outputs) -> dict:
    """Per learner: accuracy, final node count and model bytes, each the
    mean over the learner's cells."""
    return {name: {key: statistics.fmean(c[key] for c in cells)
                   for key in ("accuracy", "nodes", "model_bytes")}
            for name, cells in outputs.items()}


class LedNb(PrequentialWorkload):
    """LED, 10% noise, 7 segments plus 17 irrelevant binary attributes, NB leaves.

    Each run trains on ``streams`` fresh LED streams drawn from the seed.
    """

    name = "led-nb"
    leaf_prediction = "nb"
    streams = 6
    n = 30_000

    def prepare(self, prog, seed, workdir):
        inputs = []
        for k in range(self.streams):
            stream = prog.streams.LedStream(
                noise=LED_NOISE, irrelevant=17, seed=oracles.derive_seed(seed, self.name, k),
                n=self.n)
            inputs.append((stream.schema, list(stream)))
        return inputs

    def check_accuracy(self, name, instances, accuracy) -> list[str]:
        n = len(instances)
        baseline = oracles.majority_rate(i.label for i in instances)
        bayes = oracles.led_bayes_rate(LED_NOISE)
        faults = []
        if not accuracy > baseline:
            faults.append(f"{name}: accuracy {accuracy:.4f} not above the majority "
                          f"baseline {baseline:.4f}")
        if accuracy > bayes + oracles.sampling_slack(bayes, n):
            faults.append(f"{name}: accuracy {accuracy:.4f} exceeds the LED Bayes rate "
                          f"{bayes:.4f} beyond sampling slack over {n} instances")
        return faults


class RbfMc(PrequentialWorkload):
    """Random RBF, 50 numeric attributes, 2 classes, 50 centroids, MC leaves.

    The RBF model is fixed (generator seed ``model_seed``) because a new
    model per seed changes training speed and tree size far more than any
    change to the program would; the benchmark seed draws which ``n`` of
    the ``pool`` generated instances each of the ``passes`` trains on, and
    in what order.
    """

    name = "rbf-mc"
    model_seed = 1
    pool = 30_000
    passes = 20
    n = 20_000
    warm_up_instances = 1000

    def prepare(self, prog, seed, workdir):
        stream = prog.streams.RbfStream(
            n_attrs=50, n_classes=2, n_centroids=50, seed=self.model_seed, n=self.pool)
        pool = list(stream)
        return [
            (stream.schema,
             random.Random(oracles.derive_seed(seed, self.name, k)).sample(pool, self.n))
            for k in range(self.passes)
        ]


class Grid:
    """``streamtree run`` over SEA, LED and a CSV file with two workers,
    then ``relative`` and ``curves`` on its results, and one run on a CSV
    file with a ``nan`` cell that must be rejected.

    A round is those four commands.  After the timed rounds every cell is
    re-trained in this process: each must reproduce the grid's record,
    whatever the worker count, and the re-runs give ``model_bytes``.
    """

    name = "grid"
    workers = 2
    n_sea = 20_000
    n_led = 20_000
    csv_rows = 3000
    nan_row = 1500  # 1-based data row; the file row is one more (header)
    tiebreaks = (0.05, 0.10)
    csv_margin = 0.2

    def prepare(self, prog, seed, workdir):
        workdir = Path(workdir)
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        rows = oracles.threshold_csv_rows(oracles.derive_seed(seed, self.name, "csv"),
                                          self.csv_rows)
        oracles.write_csv(workdir / "threshold.csv", rows)
        # Seed-independent, so the one failing operation fails in every run.
        oracles.write_csv(workdir / "nan.csv", oracles.threshold_csv_rows(0, self.csv_rows),
                          nan_row=self.nan_row)
        seeds = [oracles.derive_seed(seed, self.name, k) for k in range(2)]
        config = self._config(workdir / "threshold.csv", seeds, self.n_sea, self.n_led)
        (workdir / "grid.json").write_text(json.dumps(config), encoding="utf-8")
        nan_config = {
            "streams": [self._csv_spec(workdir / "nan.csv")],
            "algorithms": ["vfdt"], "tiebreaks": [0.05], "seeds": [1],
        }
        (workdir / "nan.json").write_text(json.dumps(nan_config), encoding="utf-8")
        warm = self._config(workdir / "threshold.csv", seeds[:1], 1000, 1000)
        (workdir / "warm.json").write_text(json.dumps(warm), encoding="utf-8")
        return {"dir": workdir, "csv_labels": [r[-1] for r in rows], "seeds": seeds}

    def _csv_spec(self, path):
        return {
            "name": "csv", "type": "csv", "path": str(path), "header": True,
            "columns": [{"name": "x1", "kind": "numeric"}, {"name": "x2", "kind": "numeric"},
                        {"name": "color", "kind": "nominal",
                         "values": list(oracles.CSV_COLORS)}],
            "classes": list(oracles.CSV_CLASSES),
        }

    def _config(self, csv_path, seeds, n_sea, n_led):
        return {
            "streams": [
                {"name": "sea", "type": "sea", "n": n_sea},
                {"name": "led", "type": "led", "noise": LED_NOISE, "n": n_led},
                self._csv_spec(csv_path),
            ],
            "algorithms": list(LEARNERS),
            "tiebreaks": list(self.tiebreaks),
            "seeds": seeds,
            "snapshot_every": max(1, min(n_sea, n_led) // 10),
        }

    @staticmethod
    def _cli(prog, argv):
        """Run the command-line entry point; return (exit code, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = prog.experiment.main([str(a) for a in argv])
        return code, err.getvalue()

    def _commands(self, prog, config, out, cli_seconds=None):
        """The grid's three commands; returns the failures among them."""
        failures = []
        steps = (
            ("run", ["run", "--config", config, "--output-dir", out,
                     "--workers", self.workers]),
            ("relative", ["relative", "--results", out / "results.jsonl",
                          "--output", out / "relative.csv"]),
            ("curves", ["curves", "--results", out / "results.jsonl",
                        "--output-dir", out / "curves"]),
        )
        for label, argv in steps:
            t0 = time.perf_counter()
            code, err = self._cli(prog, argv)
            if cli_seconds is not None:
                cli_seconds[label] = cli_seconds.get(label, 0.0) + time.perf_counter() - t0
            if code != 0:
                failures.append(f"streamtree {label} exited {code}: {err.strip()}")
        return failures

    def warm_up(self, prog, inputs) -> None:
        workdir = inputs["dir"]
        failures = self._commands(prog, workdir / "warm.json", workdir / "warm")
        if failures:
            raise CheckFailed("; ".join(failures))

    def run_round(self, prog, inputs, cli_seconds=None) -> Round:
        workdir = inputs["dir"]
        out = workdir / "out"
        if out.exists():
            shutil.rmtree(out)
        result = Round()
        start = time.perf_counter()
        failures = self._commands(prog, workdir / "grid.json", out, cli_seconds)
        rejected = self._nan_rejected(prog, workdir)
        result.wall_s = time.perf_counter() - start
        if failures:
            raise CheckFailed("; ".join(failures))
        result.attempted = 4
        result.failed = 0 if rejected else 1
        result.records = prog.experiment.load_records(out / "results.jsonl")
        for name in LEARNERS:
            mine = [r for r in result.records if r["algorithm"] == name]
            result.rate[name] = (sum(r["instances_seen"] for r in mine)
                                 / sum(r["elapsed_train_seconds"] for r in mine))
            result.outputs[name] = [{
                "run_id": r["run_id"],
                "accuracy": r["accuracy"],
                "nodes": r["node_count"],
                "leaves": r["leaf_count"],
                "untimed": _untimed(r),
            } for r in mine]
        return result

    def _nan_rejected(self, prog, workdir) -> bool:
        """A CSV run over a ``nan`` cell must exit 2 naming the row and column."""
        code, err = self._cli(prog, ["run", "--config", workdir / "nan.json",
                                     "--output-dir", workdir / "nan-out", "--workers", 1])
        return code == 2 and f"row {self.nan_row + 1}" in err and "x1" in err

    def reference(self, prog, inputs):
        """Re-train every cell of the grid in this process, untimed."""
        config = prog.experiment.load_config(inputs["dir"] / "grid.json")
        cells = {name: [] for name in LEARNERS}
        for spec in config.streams:
            for seed in config.seeds:
                stream = spec.build(seed)
                instances = list(stream)
                for name in LEARNERS:
                    for tiebreak in config.tiebreaks:
                        learner = prog.experiment.make_learner(name, stream.schema,
                                                               config.tree_config(tiebreak))
                        probe = SizeProbe(instances, learner)
                        run = prog.evaluation.prequential_run(
                            learner, probe, snapshot_every=config.snapshot_every)
                        cell = cell_output(learner, run.final.accuracy, probe)
                        cell["key"] = (spec.name, tiebreak, seed)
                        cell["untimed"] = _untimed(prog.experiment.record_dict(run))
                        cells[name].append(cell)
        return cells

    def check(self, prog, inputs, first: Round, reference) -> list[str]:
        faults = []
        records = first.records
        expected = 3 * 2 * len(self.tiebreaks) * len(LEARNERS)
        if len(records) != expected:
            faults.append(f"results.jsonl has {len(records)} records, expected {expected}")
        config = prog.experiment.load_config(inputs["dir"] / "grid.json")
        specs = {s.name: s for s in config.streams}
        agreement = {seed: self._sea_agreement(specs["sea"].build(seed), self.n_sea)
                     for seed in inputs["seeds"]}
        bayes = oracles.led_bayes_rate(LED_NOISE)
        baseline = oracles.majority_rate(inputs["csv_labels"])
        for rec in records:
            where = rec["run_id"]
            faults += [f"{where}: {f}" for f in oracles.binary_tree_faults(
                rec["node_count"], rec["leaf_count"])]
            acc, n = rec["accuracy"], rec["instances_seen"]
            if rec["stream"] == "sea":
                cap = agreement[rec["seed"]]
                if acc > cap + oracles.sampling_slack(cap, n):
                    faults.append(f"{where}: accuracy {acc:.4f} exceeds the noise-free "
                                  f"SEA concept's agreement {cap:.4f}")
            elif rec["stream"] == "led":
                if acc > bayes + oracles.sampling_slack(bayes, n):
                    faults.append(f"{where}: accuracy {acc:.4f} exceeds the LED Bayes "
                                  f"rate {bayes:.4f}")
            elif acc < baseline + self.csv_margin:
                faults.append(f"{where}: accuracy {acc:.4f} is not {self.csv_margin} above "
                              f"the CSV majority baseline {baseline:.4f}")
        out = inputs["dir"] / "out"
        faults += self._check_relative(records, out / "relative.csv")
        faults += self._check_curves(records, out / "curves")
        by_key = {(r["algorithm"], r["stream"], r["tiebreak"], r["seed"]): r for r in records}
        for name, cells in reference.items():
            for cell in cells:
                rec = by_key.get((name, *cell["key"]))
                if rec is None or cell["untimed"] != _untimed(rec):
                    faults.append(f"{name} {cell['key']}: in-process re-run differs from "
                                  f"the {self.workers}-worker grid's record")
                faults += [f"{name} {cell['key']} re-run: {f}" for f in
                           oracles.binary_tree_faults(cell["nodes"], cell["leaves"],
                                                      len(cell["split_log"]))]
        return faults

    @staticmethod
    def _sea_agreement(stream, n) -> float:
        agree = sum(inst.label == oracles.sea_concept(inst.values[0], inst.values[1], i, n)
                    for i, inst in enumerate(stream))
        return agree / n

    def _check_relative(self, records, path) -> list[str]:
        with open(path, encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        faults = []
        candidates = [a for a in LEARNERS if a != "vfdt"]
        if len(rows) != len(self.tiebreaks) * len(candidates):
            faults.append(f"relative.csv has {len(rows)} rows, expected "
                          f"{len(self.tiebreaks) * len(candidates)}")
        index = {(r["algorithm"], r["stream"], r["tiebreak"], r["seed"]): r for r in records}
        for row in rows:
            tiebreak, algo = float(row["tiebreak"]), row["algorithm"]
            pairs = [(index[(algo, s, t, sd)], base) for (a, s, t, sd), base in index.items()
                     if a == "vfdt" and t == tiebreak]
            for column, field in (("relative_accuracy", "accuracy"),
                                  ("relative_size", "node_count")):
                mine = statistics.fmean(c[field] / b[field] for c, b in pairs)
                if not row[column] or abs(float(row[column]) - mine) > 1e-5:
                    faults.append(f"relative.csv {algo} tau={tiebreak:g} {column} "
                                  f"{row[column]!r}, recomputed {mine:.6f}")
            if not row["relative_time"]:
                faults.append(f"relative.csv {algo} tau={tiebreak:g} has no relative_time")
        return faults

    @staticmethod
    def _check_curves(records, directory) -> list[str]:
        faults = []
        files = list(Path(directory).glob("curve__*.csv"))
        if len(files) != len(records):
            faults.append(f"{len(files)} curve files for {len(records)} runs")
        for rec in records:
            path = Path(directory) / f"curve__{rec['run_id']}.csv"
            if not path.is_file():
                faults.append(f"no curve file for {rec['run_id']}")
                continue
            with open(path, encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            want = [[s[0], s[1], s[3]] for s in rec["snapshots"]]
            got = [[int(r[0]), float(r[1]), int(r[2])] for r in rows]
            if got != want:
                faults.append(f"curve file for {rec['run_id']} does not match its snapshots")
        return faults

    def metrics(self, first: Round, reference) -> dict:
        sizes = quality(reference)
        return {name: {
            "accuracy": statistics.fmean(c["accuracy"] for c in first.outputs[name]),
            "nodes": statistics.fmean(c["nodes"] for c in first.outputs[name]),
            "model_bytes": sizes[name]["model_bytes"],
        } for name in LEARNERS}

    def digest_parts(self, first: Round, reference) -> dict:
        return {name: [(c["split_log"], c["nodes"], c["leaves"]) for c in reference[name]]
                for name in LEARNERS}


def _untimed(record: dict) -> dict:
    """A results record without its time fields and run metadata."""
    return {
        "instances_seen": record["instances_seen"],
        "accuracy": record["accuracy"],
        "kappa_m": record["kappa_m"],
        "node_count": record["node_count"],
        "leaf_count": record["leaf_count"],
        "snapshots": [s[:5] for s in record["snapshots"]],
    }


WORKLOADS = {w.name: w for w in (LedNb(), RbfMc(), Grid())}
