"""Write the decision digests of this checkout, to compare two commits.

    python3 streambench/digest.py --seed 1 --out streambench/out/digests.json

Runs one untimed round of each workload (or of each ``--workload`` given)
and writes, per workload and learner, the hash of every split decision and
the final node and leaf counts.  Run it in two checkouts and diff the two
files: equal digests mean the learners made the same decisions.  Exit code
1 means an output check failed, 2 that the program could not be imported.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import oracles
from run import OUT, CannotRun, import_program
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", default=str(OUT / "digests.json"))
    args = parser.parse_args(argv)
    try:
        prog, _ = import_program()
    except CannotRun as exc:
        print(f"streambench: {exc}", file=sys.stderr)
        return 2
    digests, faults = {}, []
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        workdir = OUT / f"{name}-digest-{os.getpid()}"
        try:
            inputs = workload.prepare(prog, args.seed, workdir)
            first = workload.run_round(prog, inputs)
            reference = workload.reference(prog, inputs)
            faults += [f"{name}: {fault}" for fault in
                       workload.check(prog, inputs, first, reference)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        digests[name] = oracles.digest_summary(workload.digest_parts(first, reference))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "digests": digests}, handle, indent=1, sort_keys=True)
    for fault in faults:
        print(f"CHECK FAILED: {fault}", file=sys.stderr)
    print(f"wrote the digests of {len(digests)} workloads to {args.out}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
