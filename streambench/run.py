"""streamtree benchmark: run one workload and print its metrics as JSON.

    python3 streambench/run.py --workload led-nb --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run wraps the program's layer boundaries and reports per-layer self times
and counts, plus the tracing overhead against untraced rounds of the same
run.  Exit code 0 means every output check passed, 1 that one failed, 2
that the benchmark could not run.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import oracles
from layers import instrument, per_layer_metrics
from tracing import Tracer
from workloads import LEARNERS, WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
MODULES = ("evaluation", "experiment", "observers", "streams", "svfdt", "tree")


class CannotRun(Exception):
    """The benchmark cannot run here, e.g. the program's source is missing."""


def import_program():
    """Import streamtree from this checkout's ``src``; return (modules, seconds)."""
    package = SRC / "streamtree" / "__init__.py"
    if not package.is_file():
        raise CannotRun(f"no program source at {package}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    modules = {name: importlib.import_module(f"streamtree.{name}") for name in MODULES}
    seconds = time.perf_counter() - t0
    loaded = Path(sys.modules["streamtree"].__file__).resolve()
    if loaded != package.resolve():
        raise CannotRun(f"imported streamtree from {loaded}, not from {package}")
    return SimpleNamespace(**modules), seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; whole rounds run until the next would overrun it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and prepare the inputs, print the seconds taken, exit")
    return parser.parse_args(argv)


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process plus that of fresh processes doing the same."""
    samples = [first]
    for index in range(1, SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise CannotRun(f"set-up process {index} failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_rounds(workload, prog, inputs, seconds, trace, tracer=None, cli_seconds=None):
    """Whole rounds until the next one would end after ``seconds``.

    With ``trace`` each round is an untraced pass followed by a traced one;
    returns (untraced rounds, traced rounds).
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(workload.run_round(prog, inputs))
        if trace:
            patches = instrument(tracer, prog)
            try:
                traced.append(workload.run_round(prog, inputs, cli_seconds))
            finally:
                patches.remove()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return plain, traced


def measure(args) -> tuple[dict, bool]:
    prog, import_s = import_program()
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return run_workload(args, prog, import_s, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, prog, import_s, workload, workdir) -> tuple[dict, bool]:
    tracer = Tracer() if args.trace else None
    patches = instrument(tracer, prog) if args.trace else None
    t0 = time.perf_counter()
    try:
        inputs = workload.prepare(prog, args.seed, workdir)
    finally:
        if patches is not None:
            patches.remove()
    setup_first = import_s + time.perf_counter() - t0
    if args.setup_only:
        return {"setup_s": setup_first}, True

    setup_totals = None
    if args.trace:
        setup_totals = tracer.totals()
        tracer.reset()
        samples = [setup_first]
    else:
        samples = setup_samples(args, setup_first)
    workload.warm_up(prog, inputs)
    cli_seconds: dict[str, float] = {}
    plain, traced = run_rounds(workload, prog, inputs, args.seconds, args.trace, tracer,
                               cli_seconds)
    rounds = plain + traced
    first = rounds[0]
    faults = [f"round {i + 1} decisions differ from round 1"
              for i, r in enumerate(rounds[1:], start=1) if r.outputs != first.outputs]
    reference = workload.reference(prog, inputs)
    faults += workload.check(prog, inputs, first, reference)
    quality = workload.metrics(first, reference)
    parts = workload.digest_parts(first, reference)
    for name, summary in oracles.digest_summary(parts).items():
        print(f"digest {workload.name} {name} {summary['digest']} "
              f"nodes={summary['nodes']} leaves={summary['leaves']}")
    for fault in faults:
        print(f"CHECK FAILED: {fault}", file=sys.stderr)

    if args.trace:
        overhead = (sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain)) - 1.0
        metrics = per_layer_metrics(tracer, len(traced), getattr(workload, "workers", 1),
                                    overhead, cli_seconds, setup_totals)
        write_trace(args, tracer, setup_totals, len(traced))
    else:
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
        }
        for name in LEARNERS:
            metrics[f"{name}.ips"] = (statistics.median(r.rate[name] for r in plain), "1/s")
            metrics[f"{name}.accuracy"] = (quality[name]["accuracy"], "ratio")
            metrics[f"{name}.nodes"] = (quality[name]["nodes"], "count")
            metrics[f"{name}.model_bytes"] = (quality[name]["model_bytes"], "bytes")
    result = {
        "correct": not faults,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return result, not faults


def write_trace(args, tracer, setup_totals, rounds) -> None:
    """Keep the raw span aggregates of a traced run next to its metrics."""
    def rows(totals):
        return [{"label": label, "span": span, "self_s": v[0], "total_s": v[1], "calls": v[2]}
                for (label, span), v in sorted(totals.items(), key=lambda kv: str(kv[0]))]

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "traced_rounds": rounds,
        "setup": rows(setup_totals), "rounds": rows(tracer.totals()),
        "kept_spans": [list(span) for span in tracer.kept],
    }, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, ok = measure(args)
    except CannotRun as exc:
        print(f"streambench: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
