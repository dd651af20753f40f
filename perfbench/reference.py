"""Recompute the long-run reference values stored in workloads.json.

Runs a workload's config under ``--runs`` master seeds that the benchmark
never uses and prints, per estimate, the pooled value, its standard error
and the run-to-run standard deviation of single-run values; paste the
result into the workload's ``reference`` entry.

    python3 perfbench/reference.py --workload conj-n2 --runs 40 --workers 2
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys

import common

common.pin_environment()

from gpextremes.experiments import run_experiment  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=40)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    workload = common.load_workloads()[args.workload]
    samples = {}
    for k in range(args.runs):
        tree = common.build_config(workload, common.derive_seed("reference", args.workload, k))
        manifest = run_experiment(tree, workers=args.workers)
        for key, est in common.estimates(manifest.records).items():
            samples.setdefault(key, []).append(est)
        print(f"run {k + 1}/{args.runs}", file=sys.stderr, flush=True)
    reference = {}
    for key, vals in sorted(samples.items()):
        mean, se = common.pool(vals)
        run_sd = statistics.stdev(v for v, _ in vals)
        reference[key] = {"value": mean, "se": se, "run_sd": run_sd, "runs": len(vals)}
    print(json.dumps(reference, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
