"""Benchmark harness: algorithm x tiebreak x seed grids over configured streams.

``run`` executes a declarative JSON config and writes one JSON record per
run (results.jsonl) plus an aggregate CSV (summary.csv), on worker
processes and resuming from the records a previous run left; ``relative``
produces the candidate/baseline ratio table; ``curves`` exports per-run
(instances_seen, accuracy, node_count) series for plotting.

Exit codes: 0 success, 1 configuration error, 2 I/O or data-format error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

from .core import ConfigError
from .evaluation import RunResult, prequential_run
from .streams import RNG_ALGORITHM, CsvColumn, CsvStream, LedStream, RbfStream, SeaStream
from .svfdt import StrictHoeffdingTree
from .tree import HoeffdingTree, TreeConfig

ALGORITHMS = ("vfdt", "svfdt-i", "svfdt-ii")
GENERATORS = {"led": LedStream, "sea": SeaStream, "rbf": RbfStream}

RESULTS_FILE = "results.jsonl"
SUMMARY_FILE = "summary.csv"
SUMMARY_COLUMNS = (
    "stream,algorithm,tiebreak,runs,accuracy_mean,kappa_m_mean,nodes_mean,"
    "time_mean_s,time_std_s"
)
CURVE_HEADER = "instances_seen,accuracy,node_count"


def make_learner(name: str, schema, config: TreeConfig):
    if name == "vfdt":
        return HoeffdingTree(schema, config)
    if name == "svfdt-i":
        return StrictHoeffdingTree(schema, config, variant=1)
    if name == "svfdt-ii":
        return StrictHoeffdingTree(schema, config, variant=2)
    raise ConfigError(f"unknown algorithm {name!r} (expected one of {ALGORITHMS})")


@dataclass(frozen=True)
class StreamSpec:
    """Declarative description of one stream; ``build(seed)`` instantiates it."""

    name: str
    type: str
    params: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "StreamSpec":
        if "type" not in raw:
            raise ConfigError("stream entry is missing the 'type' field")
        params = dict(raw)
        kind = params.pop("type")
        name = params.pop("name", None) or kind
        if kind not in (*GENERATORS, "csv"):
            raise ConfigError(f"unknown stream type {kind!r} in stream {name!r}")
        return StreamSpec(name, kind, params)

    def build(self, seed: int):
        """The stream; an unknown or missing parameter raises ConfigError."""
        p = dict(self.params)
        try:
            if self.type != "csv":
                return GENERATORS[self.type](seed=seed, n=p.pop("n"), **p)
            columns = [
                CsvColumn(
                    c["name"],
                    c["kind"],
                    tuple(c["values"]) if c.get("values") else None,
                )
                for c in p.pop("columns")
            ]
            return CsvStream(
                p.pop("path"),
                columns,
                tuple(p.pop("classes")),
                has_header=p.pop("header", False),
                **p,
            )
        except KeyError as exc:
            raise ConfigError(
                f"stream {self.name!r} is missing required field {exc.args[0]!r}"
            ) from None
        except TypeError as exc:
            raise ConfigError(f"stream {self.name!r}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    streams: tuple[StreamSpec, ...]
    algorithms: tuple[str, ...] = ALGORITHMS
    tiebreaks: tuple[float, ...] = (0.05, 0.10, 0.15, 0.20)
    delta: float = 1e-5
    grace_period: int = 200
    leaf_prediction: str = "mc"
    numeric_bins: int = 100
    merit_range: str = "unit"
    seeds: tuple[int, ...] = (1,)
    repetitions: int = 1
    snapshot_every: int = 10000
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.streams:
            raise ConfigError("config needs at least one stream")
        if not self.algorithms:
            raise ConfigError("config needs at least one algorithm")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {algo!r} (expected one of {ALGORITHMS})")
        if any(t < 0 for t in self.tiebreaks):
            raise ConfigError("tiebreak values must be >= 0")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if not self.seeds:
            raise ConfigError("config needs at least one seed")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        # Fail fast on bad learner hyperparameters.
        self.tree_config(self.tiebreaks[0])

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        try:
            streams = tuple(StreamSpec.from_dict(s) for s in raw.pop("streams"))
        except KeyError:
            raise ConfigError("config is missing the 'streams' field") from None
        unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key in ("algorithms", "tiebreaks", "seeds"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return ExperimentConfig(streams=streams, **raw)

    def tree_config(self, tiebreak: float) -> TreeConfig:
        """The learners' settings: each TreeConfig field but ``tiebreak`` is
        the field of this config with the same name."""
        shared = {f.name: getattr(self, f.name) for f in fields(TreeConfig)
                  if f.name != "tiebreak"}
        return TreeConfig(tiebreak=tiebreak, **shared)

    def config_hash(self) -> str:
        """Digest of every field but ``workers``, which changes no record, so
        a grid resumes under any worker count.  Existing results.jsonl files
        resume only while these digits stay the same."""
        settings = asdict(self)
        del settings["workers"]
        canonical = json.dumps(settings, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


def run_id(stream: str, algorithm: str, tiebreak: float, seed: int, repetition: int) -> str:
    return f"{stream}__{algorithm}__tau{tiebreak:g}__seed{seed}__rep{repetition}"


def _execute_run(config: ExperimentConfig, spec: StreamSpec, seed: int, schema, instances,
                 algorithm: str, tiebreak: float, repetition: int, cfg_hash: str) -> RunResult:
    learner = make_learner(algorithm, schema, config.tree_config(tiebreak))
    metadata = {
        "run_id": run_id(spec.name, algorithm, tiebreak, seed, repetition),
        "stream": spec.name,
        "stream_type": spec.type,
        "stream_params": spec.params,
        "algorithm": algorithm,
        **asdict(learner.config),
        "seed": seed,
        "repetition": repetition,
        "rng": RNG_ALGORITHM,
        "config_hash": cfg_hash,
    }
    return prequential_run(
        learner, instances, snapshot_every=config.snapshot_every, metadata=metadata
    )


def _run_task(config: ExperimentConfig, spec: StreamSpec, seed: int, cells,
              cfg_hash: str) -> list[RunResult]:
    """One (stream, seed): build the stream once, run each (algorithm,
    tiebreak, repetition) cell on its instances."""
    stream = spec.build(seed)
    instances = list(stream)
    return [_execute_run(config, spec, seed, stream.schema, instances, *cell, cfg_hash)
            for cell in cells]


def _in_task_order(config: ExperimentConfig, tasks, cfg_hash: str):
    """Each task's results, in task order: on worker processes when there
    are more than one worker and task, else in this process."""
    processes = min(config.workers, len(tasks))
    if processes < 2:
        yield from (_run_task(config, *task, cfg_hash) for task in tasks)
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            yield from pool.map(_run_task, repeat(config), *zip(*tasks), repeat(cfg_hash))


def run_experiment(config: ExperimentConfig, output_dir) -> list[dict]:
    """Execute the full grid; write results.jsonl and summary.csv under output_dir.

    One task is one (stream, seed) pair.  Records already in results.jsonl
    for this config are kept and their cells not re-run, so an interrupted
    grid resumes; each finished task's records are appended in task order.
    Returns every record of the grid in that order.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / RESULTS_FILE
    cfg_hash = config.config_hash()
    cells = [
        (algorithm, tiebreak, repetition)
        for algorithm in config.algorithms
        for tiebreak in config.tiebreaks
        for repetition in range(1, config.repetitions + 1)
    ]
    grid = [
        (spec, seed, {run_id(spec.name, a, t, seed, r): (a, t, r) for a, t, r in cells})
        for spec in config.streams
        for seed in config.seeds
    ]
    order = [rid for _, _, ids in grid for rid in ids]
    if len(set(order)) < len(config.streams) * len(config.seeds) * len(cells):
        raise ConfigError("two cells share a run_id: stream names, algorithms, tiebreaks "
                          "and seeds must not repeat")
    done = _resumable_records(path, cfg_hash, set(order))
    _write_records(path, [done[rid] for rid in order if rid in done])
    tasks = [
        (spec, seed, [cell for rid, cell in ids.items() if rid not in done])
        for spec, seed, ids in grid
    ]
    tasks = [task for task in tasks if task[2]]
    resumed = bool(done)
    with open(path, "a", encoding="utf-8") as handle:
        for results in _in_task_order(config, tasks, cfg_hash):
            for result in results:
                record = record_dict(result)
                done[record["run_id"]] = record
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
    records = [done[rid] for rid in order]
    if resumed:
        _write_records(path, records)
    _write_summary(records, out / SUMMARY_FILE)
    return records


def _resumable_records(path: Path, cfg_hash: str, wanted: set) -> dict[str, dict]:
    """Records of ``path`` with a wanted run_id and this config hash.

    A last line that does not parse is the torn write of a crash and is
    dropped; any other unparseable line is an error.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
    except FileNotFoundError:
        return {}
    kept = {}
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines):
                break
            raise ValueError(f"{path}: line {number} is not valid JSON") from None
        if (isinstance(record, dict) and record.get("config_hash") == cfg_hash
                and record.get("run_id") in wanted):
            kept[record["run_id"]] = record
    return kept


def _write_records(path: Path, records: list[dict]) -> None:
    """Replace ``path`` with ``records``; a crash leaves the old file or the new."""
    partial = path.with_name(path.name + ".partial")
    with open(partial, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    os.replace(partial, path)


def record_dict(result: RunResult) -> dict:
    final = result.final
    return {
        **result.metadata,
        "instances_seen": final.instances_seen,
        "accuracy": final.accuracy,
        "kappa_m": final.kappa_m,
        "node_count": final.node_count,
        "leaf_count": final.leaf_count,
        "elapsed_train_seconds": final.elapsed_train_seconds,
        "snapshots": [
            [s.instances_seen, s.accuracy, s.kappa_m, s.node_count, s.leaf_count,
             s.elapsed_train_seconds]
            for s in result.snapshots
        ],
    }


def _write_summary(records: list[dict], path) -> None:
    groups: dict[tuple, list[dict]] = {}
    for record in records:
        key = (record["stream"], record["algorithm"], record["tiebreak"])
        groups.setdefault(key, []).append(record)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(SUMMARY_COLUMNS + "\n")
        for (stream, algorithm, tiebreak), group in groups.items():
            times = [r["elapsed_train_seconds"] for r in group]
            handle.write(
                f"{stream},{algorithm},{tiebreak:g},{len(group)},"
                f"{statistics.fmean(r['accuracy'] for r in group):.6f},"
                f"{statistics.fmean(r['kappa_m'] for r in group):.6f},"
                f"{statistics.fmean(r['node_count'] for r in group):.2f},"
                f"{statistics.fmean(times):.4f},"
                f"{statistics.stdev(times) if len(times) > 1 else 0.0:.4f}\n"
            )


class PairingError(ValueError):
    """Baseline and candidate result sets do not cover the same runs."""


def relative_metrics(records: list[dict]) -> list[dict]:
    """Candidate/VFDT ratio table in the style of a per-tiebreak summary.

    Ratios are computed per (stream, seed, repetition) pair and averaged
    over all of them for each (algorithm, tiebreak).  A baseline value of
    zero yields a None ratio (excluded from the mean).
    """
    baseline = "vfdt"
    by_key: dict[tuple, dict] = {}
    for rec in records:
        key = (rec["algorithm"], rec["stream"], rec["tiebreak"], rec["seed"],
               rec["repetition"])
        by_key[key] = rec
    candidates = sorted({r["algorithm"] for r in records} - {baseline})
    if not any(r["algorithm"] == baseline for r in records):
        raise PairingError(f"no runs found for baseline {baseline!r}")
    missing = []
    rows = []
    tiebreaks = sorted({r["tiebreak"] for r in records})
    pair_keys = sorted(
        {(r["stream"], r["seed"], r["repetition"]) for r in records if r["algorithm"] == baseline}
    )
    metrics = ("accuracy", "kappa_m", "node_count", "elapsed_train_seconds")
    for tiebreak in tiebreaks:
        for algorithm in candidates:
            ratios: dict[str, list[float]] = {m: [] for m in metrics}
            for stream, seed, repetition in pair_keys:
                base = by_key.get((baseline, stream, tiebreak, seed, repetition))
                cand = by_key.get((algorithm, stream, tiebreak, seed, repetition))
                if base is None or cand is None:
                    missing.append((algorithm, stream, tiebreak, seed, repetition))
                    continue
                for metric in metrics:
                    if base[metric]:
                        ratios[metric].append(cand[metric] / base[metric])
            rows.append(
                {
                    "tiebreak": tiebreak,
                    "algorithm": algorithm,
                    "relative_accuracy": _mean_or_none(ratios["accuracy"]),
                    "relative_kappa_m": _mean_or_none(ratios["kappa_m"]),
                    "relative_size": _mean_or_none(ratios["node_count"]),
                    "relative_time": _mean_or_none(ratios["elapsed_train_seconds"]),
                }
            )
    if missing:
        listing = ", ".join(
            f"{a}/{s}/tau={t:g}/seed={sd}/rep={r}" for a, s, t, sd, r in missing[:20]
        )
        raise PairingError(f"missing baseline/candidate pairs: {listing}")
    return rows


def _mean_or_none(values: list[float]):
    return statistics.fmean(values) if values else None


def write_relative_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "tiebreak,algorithm,relative_accuracy,relative_kappa_m,"
            "relative_size,relative_time\n"
        )
        for row in rows:
            cells = [f"{row['tiebreak']:g}", row["algorithm"]] + [
                "" if row[k] is None else f"{row[k]:.6f}"
                for k in ("relative_accuracy", "relative_kappa_m", "relative_size",
                          "relative_time")
            ]
            handle.write(",".join(cells) + "\n")


def export_curves(records: list[dict], output_dir) -> list[Path]:
    """One CSV per run: instances_seen, accuracy, node_count."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for rec in records:
        path = out / f"curve__{rec['run_id']}.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(CURVE_HEADER + "\n")
            for seen, accuracy, _kappa, nodes, _leaves, _t in rec["snapshots"]:
                handle.write(f"{seen},{accuracy!r},{nodes}\n")
        paths.append(path)
    return paths


def load_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamtree",
        description="Hoeffding-tree stream benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("--config", required=True, help="path to the JSON experiment config")
    run_p.add_argument("--output-dir", default="results", help="directory for result files")
    run_p.add_argument("--seed", type=int, action="append", default=None,
                       help="override config seeds (repeatable)")
    run_p.add_argument("--streams", default=None,
                       help="comma-separated stream names to keep")
    run_p.add_argument("--algorithms", default=None,
                       help="comma-separated algorithm names to keep")
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: the config's workers)")

    rel_p = sub.add_parser("relative", help="candidate/VFDT ratio table")
    rel_p.add_argument("--results", required=True, help="path to results.jsonl")
    rel_p.add_argument("--output", default=None, help="CSV output path (default: stdout)")

    cur_p = sub.add_parser("curves", help="export per-run accuracy/size curves")
    cur_p.add_argument("--results", required=True, help="path to results.jsonl")
    cur_p.add_argument("--output-dir", default="curves")
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed:
        config = replace(config, seeds=tuple(args.seed))
    if args.streams:
        wanted = {s.strip() for s in args.streams.split(",") if s.strip()}
        keep = tuple(s for s in config.streams if s.name in wanted)
        unknown = wanted - {s.name for s in config.streams}
        if unknown:
            raise ConfigError(f"unknown stream names in filter: {sorted(unknown)}")
        config = replace(config, streams=keep)
    if args.algorithms:
        wanted = {a.strip() for a in args.algorithms.split(",") if a.strip()}
        unknown = wanted - set(config.algorithms)
        if unknown:
            raise ConfigError(f"unknown algorithms in filter: {sorted(unknown)}")
        config = replace(config, algorithms=tuple(a for a in config.algorithms if a in wanted))
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            if not os.path.exists(args.config):
                print(f"error: config file not found: {args.config}", file=sys.stderr)
                return 2
            config = _apply_overrides(load_config(args.config), args)
            results = run_experiment(config, args.output_dir)
            print(f"wrote {len(results)} runs to {args.output_dir}/{RESULTS_FILE}")
            return 0
        if args.command == "relative":
            rows = relative_metrics(load_records(args.results))
            if args.output:
                write_relative_csv(rows, args.output)
                print(f"wrote {len(rows)} rows to {args.output}")
            else:
                for row in rows:
                    print(row)
            return 0
        if args.command == "curves":
            paths = export_curves(load_records(args.results), args.output_dir)
            print(f"wrote {len(paths)} curve files to {args.output_dir}")
            return 0
    except (ConfigError, PairingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # ValueError: malformed csv/json data files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
