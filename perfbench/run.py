"""gpextremes benchmark: one closed-loop caller running experiment configs.

    python3 perfbench/run.py --workload conj-n2 --seed 7 --seconds 24 --trace 0

The caller builds experiment trees from ``--seed`` (workloads.json holds the
templates), passes each to ``gpextremes.run_experiment`` -- the path the CLI
takes -- with results written to a temporary directory, and starts the next
experiment only after the previous one returned.  Every tree runs at
workers=1 and then workers=2; the two results tables must be byte-identical.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh
interpreter, median wall time per experiment at each worker count, and the
peak RSS of this (fresh) process after its first workers=1 experiment.  It
runs rounds of one workers=1/workers=2 pair and SETUP_PER_ROUND set-up
samples, and starts a round only if the longest round so far still fits in
``--seconds``.
``--trace 1`` runs one tree untraced, then traced at workers=1 and 2, then
the single-layer probes, and reports the per-layer metrics.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; a full record (environment,
samples, checks, layer split) goes to perfbench/out/.  The exit code is 0
only when every correctness check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import common

OUT_DIR = common.BENCH_DIR / "out"
# Standard errors allowed between a run's pooled estimates and the reference.
# The run's standard error is taken as at least the reference's run-to-run
# standard deviation over sqrt(runs pooled): these estimators are heavy-tailed,
# so a single run without a large replication under-reports its own error.
Z_TOLERANCE = 5.0
# Set-up samples taken after each workers=1/workers=2 pair.
SETUP_PER_ROUND = 2
# Workloads with n >= 3 also check ewv_batch against ewv_exact on EWV_CHECK_CLOUDS
# drifted Brownian clouds of EWV_CHECK_POINTS points, where the exact
# inclusion-exclusion is cheap.  The mean ratio batch/exact has a standard
# error of about 0.07%, so a bias of 1% fails.
EWV_CHECK_CLOUDS = 1000
EWV_CHECK_POINTS = 8


# -- environment ---------------------------------------------------------------


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((common.SRC / "gpextremes").rglob("*.py")):
        h.update(path.relative_to(common.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (common.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True, text=True, timeout=60
        )
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "machine": platform.node(),
        "platform": platform.platform(),
        "arch": platform.machine(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in common.THREAD_VARS},
    }


# -- one experiment ----------------------------------------------------------------


@dataclass
class Op:
    """One run_experiment call: its wall time, manifest, results bytes and problems."""

    label: str
    workers: int
    seconds: float | None = None
    manifest: object = None
    csv: bytes | None = None
    problems: list = field(default_factory=list)

    def record(self) -> dict:
        found = common.estimates(self.manifest.records) if self.manifest is not None else {}
        return {
            "label": self.label,
            "workers": self.workers,
            "seconds": self.seconds,
            "estimates": found,
            "problems": self.problems,
        }


def execute(label, tree, out_dir, workers, checks, tracer=None) -> Op:
    from gpextremes import run_experiment
    from gpextremes.experiments import results_csv_bytes

    op = Op(label, workers)
    try:
        start = time.perf_counter()
        if tracer is not None:
            root = tracer.begin("experiments.run_experiment")
        try:
            op.manifest = run_experiment(tree, out_dir=out_dir, workers=workers)
        finally:
            if tracer is not None:
                tracer.end(root)
        op.seconds = time.perf_counter() - start
        op.csv = results_csv_bytes(op.manifest)
    except Exception:  # any raise is a failed operation, not a crashed benchmark
        op.problems.append("raised: " + traceback.format_exc(limit=3))
        return op
    op.problems.extend(checks.structural(op.manifest))
    return op


def same_results(ops):
    """Flag every op whose results table differs from the first one's."""
    base = ops[0]
    for op in ops[1:]:
        if base.csv is not None and op.csv is not None and op.csv != base.csv:
            op.problems.append(f"results table differs from {base.label} (workers={base.workers})")


# -- correctness ---------------------------------------------------------------------


class Checks:
    """Checks that hold for any correct bitstream: structure, worker invariance, reference."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = workload["reference"]

    def structural(self, manifest) -> list:
        from gpextremes import pickands_bounds

        problems = []
        for rec in manifest.records:
            if rec.get("verdict") == "error":
                problems.append(f"error record: {rec.get('notes')}")
        found = common.estimates(manifest.records)
        if not found:
            problems.append("no estimate rows")
        for key, (value, se) in found.items():
            if not (math.isfinite(value) and math.isfinite(se) and se >= 0):
                problems.append(f"{key}: non-finite value {value!r} or se {se!r}")
            elif key.startswith("window") and value < 1.0:
                problems.append(f"{key}: {value!r} < 1, but the t=0 node alone contributes e^0")
            elif key == "conjunction" and not 0.0 <= value <= 1.0:
                problems.append(f"{key}: probability {value!r} outside [0, 1]")
        if "slope" in found:
            section = self.workload["config"]["constant"]
            lower, _ = pickands_bounds(len(section["C"]), section["C"], section["kappa"])
            value, se = found["slope"]
            if value < lower - 3.0 * se:
                problems.append(f"slope {value!r} below the Pickands lower bound {lower!r} by more than 3 se")
        return problems

    def ewv_against_exact(self, seed) -> Op:
        """ewv_batch (the n >= 3 Monte Carlo fallback) must agree with ewv_exact on average."""
        import numpy as np
        from gpextremes.orthants import PointCloud, ewv_batch, ewv_exact

        op = Op("ewv-batch-vs-exact", workers=1)
        m, n = EWV_CHECK_POINTS, len(self.workload["config"]["constant"]["C"])
        gen = np.random.default_rng(seed)
        t = np.linspace(0.0, 1.0, m)
        inc = math.sqrt(t[1]) * gen.standard_normal((EWV_CHECK_CLOUDS, m - 1, n))
        paths = np.concatenate([np.zeros((EWV_CHECK_CLOUDS, 1, n)), np.cumsum(inc, axis=1)], axis=1)
        clouds = math.sqrt(2.0) * paths - t[None, :, None]
        try:
            batch = ewv_batch(clouds, gen=gen)
            exact = np.array([ewv_exact(PointCloud(n, c)) for c in clouds])
        except Exception:
            op.problems.append("raised: " + traceback.format_exc(limit=3))
            return op
        ratio = batch / exact
        mean = float(ratio.mean())
        se = float(ratio.std(ddof=1)) / math.sqrt(ratio.size)
        # an exact ewv_batch gives se = 0; allow rounding
        if not abs(mean - 1.0) <= Z_TOLERANCE * se + 1e-9:
            op.problems.append(
                f"mean ewv_batch / ewv_exact over {ratio.size} clouds (m={m}, n={n}) is {mean!r} +- {se!r}, "
                f"more than {Z_TOLERANCE} se from 1"
            )
        return op

    def layer_checks(self, seed) -> list:
        section = self.workload["config"].get("constant")
        if section is not None and len(section["C"]) >= 3:
            return [self.ewv_against_exact(seed)]
        return []

    def against_reference(self, manifests) -> list:
        samples = defaultdict(list)
        for manifest in manifests:
            for key, est in common.estimates(manifest.records).items():
                samples[key].append(est)
        problems = []
        for key, ref in self.reference.items():
            if not samples.get(key):
                problems.append(f"{key}: no estimate to compare with the reference")
                continue
            mean, se = common.pool(samples[key])
            se = max(se, ref["run_sd"] / math.sqrt(len(samples[key])))
            tol = Z_TOLERANCE * math.hypot(se, ref["se"])
            if abs(mean - ref["value"]) > tol:
                problems.append(
                    f"{key}: pooled {mean!r} +- {se!r} is more than {Z_TOLERANCE} pooled se "
                    f"from the reference {ref['value']!r} +- {ref['se']!r}"
                )
        return problems


# -- end-to-end run ------------------------------------------------------------------------


def setup_seconds(config_path) -> float:
    """Wall seconds of a fresh interpreter that imports gpextremes and validates the config."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "setup_probe.py"), str(config_path)],
        cwd=common.ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name, workload, seed, seconds, tmp, checks):
    deadline = time.perf_counter() + seconds
    layer_ops = checks.layer_checks(common.derive_seed(seed, "ewv-check"))
    first = common.build_config(workload, common.derive_seed(seed, name, 0))
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(first))
    setup_seconds(config_path)  # warm-up, not counted: fills the page cache after a cold start
    ops, setup, walls, longest, i = [], [], {1: [], 2: []}, 0.0, 0
    # at least one round; set-up samples sit between the pairs, so that they
    # spread over the run like the wall-time samples do
    while i == 0 or time.perf_counter() + longest <= deadline:
        start = time.perf_counter()
        tree = first if i == 0 else common.build_config(workload, common.derive_seed(seed, name, i))
        pair = [execute(f"pair{i}", tree, tmp / f"pair{i}-w1", 1, checks)]
        if i == 0:
            # workers=1 only: at workers=2 the peak depends on how the two blocks
            # in flight happen to overlap, and spreads by 8% between runs
            peak = peak_rss_mb()
        pair.append(execute(f"pair{i}", tree, tmp / f"pair{i}-w2", 2, checks))
        same_results(pair)
        ops.extend(pair)
        for op in pair:
            if op.seconds is not None:
                walls[op.workers].append(op.seconds)
        setup.extend(setup_seconds(config_path) for _ in range(SETUP_PER_ROUND))
        longest = max(longest, time.perf_counter() - start)
        i += 1
    done = [op.manifest for op in ops if op.workers == 1 and op.manifest is not None]
    pooled = checks.against_reference(done)
    samples = {"setup_s": setup, "wall_s": walls[1], "wall_w2_s": walls[2], "peak_rss_mb": [peak]}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls[1]) if walls[1] else math.nan, "s"),
        "wall_w2_s": (statistics.median(walls[2]) if walls[2] else math.nan, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return layer_ops + ops, pooled, metrics, {"samples": samples}


# -- traced run -------------------------------------------------------------------------------


def traced(name, workload, seed, tmp, checks):
    from probes import SIZES, run_probes
    from tracer import Tracer

    tree = common.build_config(workload, common.derive_seed(seed, name, 0))
    plain = execute("untraced", tree, tmp / "untraced", 1, checks)
    with Tracer() as t1:
        one = execute("traced-w1", tree, tmp / "traced-w1", 1, checks, t1)
    with Tracer() as t2:
        two = execute("traced-w2", tree, tmp / "traced-w2", 2, checks, t2)
    same_results([plain, one, two])
    ops = [plain, one, two] + checks.layer_checks(common.derive_seed(seed, "ewv-check"))
    pooled = checks.against_reference([plain.manifest] if plain.manifest is not None else [])
    probes, probe_missing = run_probes(common.derive_seed(seed, "probe"))
    metrics, split = layer_metrics(t1, t2, plain, one)
    metrics.update({k: (v, "ms") for k, v in probes.items()})
    extra = {
        "layer_split_w1": split,
        "probe_sizes": SIZES,
        "missing_hooks": sorted(set(t1.missing + probe_missing)),
        "spans": {"w1": t1.export(), "w2": t2.export()},
    }
    return ops, pooled, metrics, extra


def layer_metrics(t1, t2, plain, one):
    """Per-layer metrics from the workers=1 trace.

    Idle time comes from the workers=2 trace: 1 - block CPU time / (workers x map_blocks wall).
    """
    by_name = t1.by_name()
    selfs = t1.self_times()

    def calls(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[1] for n in names)

    layer_self = defaultdict(float)
    for span in t1.spans:
        layer_self[span.name.split(".")[0]] += selfs[span.id]
    root = total("experiments.run_experiment")
    counters = t1.counters

    draw_s = total("sampling.FgnSampler.increments", "sampling.StationarySampler.sample")
    nodes = counters.get("sampling.nodes", 0)
    ewv_s = total("orthants.ewv_batch")
    clouds = counters.get("orthants.clouds", 0)
    pareto_in = counters.get("orthants.pareto_in", 0)
    records = plain.manifest.records if plain.manifest is not None else []
    found = common.estimates(records)
    conj = next((rec for rec in records if rec["regime"] == "conjunction"), None)

    def rel_se(key):
        value, se = found.get(key, (0.0, 0.0))
        return se / abs(value) if value else 0.0

    busy = sum(s.cpu for s in t2.spans if s.name.endswith(".block"))
    capacity = sum(s.workers * s.duration for s in t2.spans if s.name == "parallel.map_blocks")

    metrics = {
        "sampling.draw_s": (draw_s, "s"),
        "sampling.draw_ns_per_node": (1e9 * draw_s / nodes if nodes else 0.0, "ns"),
        "sampling.nodes": (nodes, "count"),
        "sampling.embed_s": (total("sampling._embedding_eigenvalues"), "s"),
        "sampling.embed_calls": (calls("sampling._embedding_eigenvalues"), "count"),
        "sampling.clamped_eigs": (counters.get("sampling.clamped_eigs", 0), "count"),
        "sampling.self_frac": (layer_self["sampling"] / root, "fraction"),
        "orthants.ewv_s": (ewv_s, "s"),
        "orthants.clouds": (clouds, "count"),
        "orthants.us_per_cloud": (1e6 * ewv_s / clouds if clouds else 0.0, "us"),
        "orthants.pareto_s": (total("orthants._pareto_mask"), "s"),
        "orthants.pareto_kept_frac": (
            counters.get("orthants.pareto_kept", 0) / pareto_in if pareto_in else 0.0,
            "fraction",
        ),
        "orthants.self_frac": (layer_self["orthants"] / root, "fraction"),
        "constants.self_s": (layer_self["constants"], "s"),
        "constants.window_calls": (calls("constants.estimate_window_constant"), "count"),
        "constants.rel_se": (rel_se("slope" if "slope" in found else "window"), "fraction"),
        "conjunction.scan_s": (layer_self["conjunction"], "s"),
        "conjunction.hits": (round(conj["value"] * conj["R"]) if conj else 0, "count"),
        "conjunction.rel_se": (rel_se("conjunction"), "fraction"),
        "parallel.blocks": (calls("constants.block", "conjunction.block"), "count"),
        "parallel.idle_frac": (1.0 - busy / capacity if capacity else 0.0, "fraction"),
        "rng.generators": (calls("rng.RngStream.generator"), "count"),
        "processes.validate_calls": (calls("processes.ensure_valid"), "count"),
        "experiments.self_s": (by_name.get("experiments.run_experiment", (0, 0.0, 0.0))[2], "s"),
        "experiments.write_s": (total("experiments.write_results"), "s"),
        "trace.overhead_frac": (
            one.seconds / plain.seconds - 1.0 if one.seconds and plain.seconds else 0.0,
            "fraction",
        ),
    }
    split = {
        "root_s": root,
        "self_sum_s": sum(selfs.values()),
        "layers": {k: {"self_s": v, "share": v / root} for k, v in sorted(layer_self.items())},
        "spans": {k: {"calls": c, "total_s": d, "self_s": s} for k, (c, d, s) in sorted(by_name.items())},
    }
    return metrics, split


# -- main -------------------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="gpextremes benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(name, args, env, ops, pooled, metrics, extra, out_file):
    failed = sum(1 for op in ops if op.problems) if not pooled else len(ops)
    correct = failed == 0 and not pooled
    flags = {}
    if env["nproc"] < 2 and "wall_w2_s" in metrics:
        flags["wall_w2_s"] = f"not measured: nproc = {env['nproc']} < 2"
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
        "operations": [op.record() for op in ops],
        "reference_problems": pooled,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "flags": flags,
    } | extra
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True, default=float))

    print(
        f"{name} seed={args.seed} trace={args.trace} commit={env['commit']} machine={env['machine']} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']}"
    )
    counts = {k: len(v) for k, v in extra.get("samples", {}).items()}
    for key, (value, unit) in metrics.items():
        note = f"median of {counts[key]}" if key in counts else ""
        if key in flags:
            note += f"; {flags[key]}"
        print(f"  {key:28s} {value:14.6g} {unit:8s} {note}")
    print(f"  {'failed_frac':28s} {failed / len(ops):14.6g} {'fraction':8s} {failed} of {len(ops)} operations")
    for op in ops:
        for problem in op.problems:
            print(f"  FAIL {op.label} workers={op.workers}: {problem}")
    for problem in pooled:
        print(f"  FAIL reference: {problem}")
    if "layer_split_w1" in extra:
        split = extra["layer_split_w1"]
        shares = ", ".join(f"{k} {v['share']:.1%}" for k, v in split["layers"].items())
        print(f"  self-time split at workers=1 ({split['self_sum_s']:.3f} s of {split['root_s']:.3f} s): {shares}")
    print(f"  full record: {out_file.relative_to(common.ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return correct


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = common.load_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(workloads)}", file=sys.stderr)
        return 2
    if not (common.SRC / "gpextremes" / "__init__.py").is_file():
        print(f"no gpextremes sources under {common.SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    common.pin_environment()
    import gpextremes

    if Path(gpextremes.__file__).resolve().parent != (common.SRC / "gpextremes").resolve():
        print(f"imported gpextremes from {gpextremes.__file__}, not from this checkout", file=sys.stderr)
        return 2
    name, workload = args.workload, workloads[args.workload]
    env = environment()
    checks = Checks(workload)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as tmp:
        if args.trace:
            ops, pooled, metrics, extra = traced(name, workload, args.seed, Path(tmp), checks)
        else:
            ops, pooled, metrics, extra = end_to_end(name, workload, args.seed, args.seconds, Path(tmp), checks)
    out_file = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    return 0 if report(name, args, env, ops, pooled, metrics, extra, out_file) else 1


if __name__ == "__main__":
    sys.exit(main())
