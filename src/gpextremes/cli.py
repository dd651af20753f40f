"""Command-line front end for the experiment runner.

Verbs map one-to-one onto experiment kinds; every verb takes the same
flags.  A run writes its results table, manifest, plot series and path
dump to the output directory; ``--format json`` adds the table as JSON
beside the CSV.  Exit codes: 0 success, 1 config error (or an argument
such as ``--workers 0`` rejected before the run), 2 runtime failure (an
estimator error, or results that cannot be written), 3 audit-verdict
failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, GpxError
from .experiments import load_config, run_experiment, write_results

_VERB_TO_KIND = {
    "sample-paths": "sample_paths",
    "estimate-constant": "constant",
    "estimate-prob": "probability",
    "compare": "compare",
    "audit": "audit",
    "bounds-table": "bounds_table",
}

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERDICT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpextremes",
        description="Reproducible experiments on extremes of vector-valued Gaussian processes",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERB_TO_KIND:
        p = sub.add_parser(verb, help=f"run a '{_VERB_TO_KIND[verb]}' config")
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="master seed override (64-bit unsigned)")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir or ./gpx-results)")
        p.add_argument("--workers", type=int, default=1, help="worker threads; never changes results")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="results table format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tree = load_config(args.config)
        kind = tree.get("kind")
        expected = _VERB_TO_KIND[args.verb]
        if kind != expected:
            raise ConfigError("kind", f"verb '{args.verb}' needs kind '{expected}', config says {kind!r}")
        out_dir = args.out or tree.get("output_dir") or "gpx-results"
        manifest = run_experiment(tree, out_dir=out_dir, seed_override=args.seed, workers=args.workers)
        exp_id = tree.get("experiment_id", kind)
        results = Path(out_dir) / f"{exp_id}.results.csv"
        if args.format == "json":
            results = write_results(manifest, out_dir, exp_id, fmt="json")["results"]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GpxError as exc:  # an argument rejected before the run; run-time failures are result rows
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for rec in manifest.records:
        marker = rec["verdict"] or "ok"
        value = rec["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"[{marker}] {rec['kind']}/{rec['regime']}: value={shown} se={rec['se']} {rec['notes']}")
    print(f"results written to {results}")
    if manifest.failed:
        return EXIT_RUNTIME
    if tree.get("kind") == "audit" and manifest.audit_failed:
        return EXIT_VERDICT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
