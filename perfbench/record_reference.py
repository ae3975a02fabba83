"""Record the reference outputs the benchmark checks its runs against.

    python3 perfbench/record_reference.py [--seeds 0-31] [--workloads W1,W2]

Runs the workloads' commands (default: every workload) once per seed,
untraced, and writes the summary.json of each command (minus run-directory
paths) to reference.json. Workloads not named keep their recorded entries.
Run it only on a commit whose outputs are known to be right: a later run of
the benchmark fails its reference check wherever its outputs differ.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, as FIRST-LAST")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = run.BLAS_THREADS

    recorded = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    reference = {"rtol": run.RTOL, "atol": run.ATOL,
                 "workloads": recorded.get("workloads", {})}
    work = run.WORK / "reference"
    for workload in args.workloads.split(","):
        _, _, steps = run.plan(workload, work / "configs")
        per_seed = reference["workloads"][workload] = {}
        for seed in range(first, last + 1):
            rep = work / f"{workload}-{seed}"
            per_seed[str(seed)] = {}
            for label, make_args in steps:
                rec = run.run_command(make_args(rep), rep / label, seed)
                if rec["exit_code"] != 0:
                    print(f"{workload} seed {seed}: {label} failed", file=sys.stderr)
                    return 1
                per_seed[str(seed)][label] = run.normalized_summary(rep / label)
            shutil.rmtree(rep)
            print(f"{workload} seed {seed}: recorded", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
