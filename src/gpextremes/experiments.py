"""Declarative experiment runner.

A config is a single JSON tree: a ``kind``, a master seed, optional named
process definitions, and one section of numeric budget for that kind.  The
runner validates the tree (reporting the offending key path), derives all
randomness from the master seed through purpose-tagged streams, executes
the pipeline, and writes a results table (CSV, fixed column order), a
manifest (JSON), and plot-ready TSV series.  Rerunning a config with the
same seed reproduces the results table byte for byte at any worker count.
"""
from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .asymptotics import (
    ClosedFormProvider,
    MonteCarloProvider,
    approx_locally_stationary,
    approx_nonstationary,
)
from .conjunction import (
    audit_borell,
    audit_piterbarg_decay,
    audit_slepian,
    compare_with_asymptotic,
    default_grid_step,
    estimate_conjunction_prob,
)
from .constants import (
    DriftSpec,
    estimate_discrete_zero,
    estimate_pickands,
    estimate_piterbarg,
    estimate_window_constant,
    pickands_bounds,
    piterbarg_lower_bound,
)
from .errors import ConfigError, GpxError
from .processes import (
    FractionalBrownian,
    LocallyStationary,
    NonStationary,
    ProfileTable,
    Stationary,
    ThresholdFamily,
    VectorProcessSpec,
    validate_spec,
    variance_profile,
)
from .rng import derive_stream
from .sampling import SampleGrid, sample_vector, write_path_dump

__all__ = [
    "KINDS",
    "RESULT_COLUMNS",
    "ResultsManifest",
    "load_config",
    "config_hash",
    "run_experiment",
    "emit_bounds_table",
    "write_results",
]

KINDS = ("sample_paths", "constant", "probability", "compare", "audit", "bounds_table")

RESULT_COLUMNS = (
    "experiment_id",
    "kind",
    "regime",
    "value",
    "se",
    "lower_ci",
    "upper_ci",
    "grid_step",
    "R",
    "seed_tag",
    "verdict",
    "notes",
)


@dataclass
class ResultsManifest:
    config_hash: str
    master_seed: int
    tool_version: str
    wall_time_s: float
    records: list = field(default_factory=list)
    plots: dict = field(default_factory=dict)  # name -> list of (x, y, se)

    @property
    def failed(self) -> bool:
        return any(r.get("verdict") == "error" for r in self.records)

    @property
    def audit_failed(self) -> bool:
        return any(r.get("verdict") == "fail" for r in self.records)


# -- config access ---------------------------------------------------------------


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(str(path), "config root must be an object")
    return tree


def config_hash(tree: dict) -> str:
    """Hash of the canonical serialization; invariant under key order."""
    canon = json.dumps(tree, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _join(at, key):
    return f"{at}.{key}" if at else key


def _get(node, at, key, types, required=True, default=None):
    """Look up the dotted ``key`` below ``node``, whose own path is ``at``.

    ``at`` is the dotted path of ``node`` from the config root (``""`` for
    the root), with ``[i]`` for list entries, so every :class:`ConfigError`
    raised here names the offending key by its full path from the root.
    """
    path = at
    for part in key.split("."):
        if not isinstance(node, dict):
            raise ConfigError(path, "expected an object")
        path = _join(path, part)
        if part not in node:
            if required:
                raise ConfigError(path, "missing required key")
            return default
        node = node[part]
    if types is not None and not _is_a(node, types):
        raise ConfigError(path, f"expected {types}, got {type(node).__name__}")
    return node


def _is_a(value, types) -> bool:
    """``isinstance``, except that a JSON boolean is not a number (bool subclasses int)."""
    if isinstance(value, bool):
        return types is bool or (isinstance(types, tuple) and bool in types)
    return isinstance(value, types)


def _number(node, at, key, required=True, default=None):
    val = _get(node, at, key, (int, float), required=required, default=default)
    return val if val is None else float(val)


def _vector(node, at, key, required=True, default=None):
    val = _get(node, at, key, list, required=required, default=default)
    if val is None:
        return None
    if not val or not all(_is_a(v, (int, float)) for v in val):
        raise ConfigError(_join(at, key), "expected a non-empty array of numbers")
    return [float(v) for v in val]


def _parse_profile(node, path) -> ProfileTable:
    if not isinstance(node, dict):
        raise ConfigError(path, "expected an object with 'nodes' and 'values'")
    nodes, values = _vector(node, path, "nodes"), _vector(node, path, "values")
    try:
        return ProfileTable(tuple(nodes), tuple(values))
    except GpxError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_coord(node, path):
    variant = _get(node, path, "variant", str)
    if variant == "stationary":
        return Stationary(a=_number(node, path, "a"), kappa=_number(node, path, "kappa"))
    if variant == "locally_stationary":
        return LocallyStationary(
            a_profile=_parse_profile(_get(node, path, "a_profile", dict), f"{path}.a_profile"),
            kappa=_number(node, path, "kappa"),
            block_count=int(_number(node, path, "block_count", required=False, default=32)),
        )
    if variant == "nonstationary":
        return NonStationary(
            sigma_profile=_parse_profile(_get(node, path, "sigma_profile", dict), f"{path}.sigma_profile"),
            alpha=_number(node, path, "alpha"),
            a=_number(node, path, "a"),
            beta=_number(node, path, "beta"),
            b_lower=_number(node, path, "b_lower"),
            b_upper=_number(node, path, "b_upper"),
            holder_G=_number(node, path, "holder_G", required=False, default=1.0),
            holder_gamma=_number(node, path, "holder_gamma", required=False, default=1.0),
            holder_rho=_number(node, path, "holder_rho", required=False, default=1.0),
        )
    if variant == "fbm":
        return FractionalBrownian(kappa=_number(node, path, "kappa"))
    raise ConfigError(f"{path}.variant", f"unknown coordinate variant {variant!r}")


def _resolve_process(tree, name, path) -> VectorProcessSpec:
    procs = _get(tree, "", "processes", dict, required=False, default={})
    if name not in procs:
        raise ConfigError(path, f"process {name!r} is not defined under 'processes'")
    node, at = procs[name], f"processes.{name}"
    coords = _get(node, at, "coords", list)
    if not coords:
        raise ConfigError(f"{at}.coords", "needs at least one coordinate")
    spec = VectorProcessSpec(
        tuple(_parse_coord(c, f"{at}.coords[{i}]") for i, c in enumerate(coords)),
        horizon_T=_number(node, at, "horizon"),
    )
    report = validate_spec(spec)
    if not report.ok:
        raise ConfigError(at, "; ".join(report.failures))
    return spec


def _parse_drift(node, path) -> DriftSpec:
    exponent = _number(node, path, "exponent")
    d_lower = _vector(node, path, "d_lower")
    d_upper = _vector(node, path, "d_upper")
    try:
        return DriftSpec(exponent, tuple(d_lower), tuple(d_upper))
    except GpxError as exc:
        raise ConfigError(path, str(exc)) from exc


# -- row building -----------------------------------------------------------------


def _row(experiment_id, kind, regime, value=None, se=None, grid_step=None, R=None, seed_tag="", verdict="", notes=""):
    lower = upper = None
    if value is not None and se is not None:
        lower, upper = value - 3.0 * se, value + 3.0 * se
    return {
        "experiment_id": experiment_id,
        "kind": kind,
        "regime": regime,
        "value": value,
        "se": se,
        "lower_ci": lower,
        "upper_ci": upper,
        "grid_step": grid_step,
        "R": R,
        "seed_tag": seed_tag,
        "verdict": verdict,
        "notes": notes,
    }


def emit_bounds_table(n_range, kappa_set, drift_examples=()):
    """Closed-form bound rows across a range of dimensions and exponents.

    One row per (n, kappa) with the lower/upper limit-constant bounds at
    unit amplitudes, then one row per drift example using the lower bound as
    a conservative stand-in for the unknown limit constant.
    """
    rows = []
    for n in n_range:
        n = int(n)
        for kappa in kappa_set:
            kappa = float(kappa)
            lower, upper = pickands_bounds(n, np.ones(n), kappa)
            rows.append(
                {
                    "regime": "pickands_bounds",
                    "n": n,
                    "kappa": kappa,
                    "lower": lower,
                    "upper": upper,
                }
            )
            for j, drift in enumerate(drift_examples):
                if drift.n != n:
                    continue
                try:
                    for variant in ("right", "two_sided"):
                        rows.append(
                            {
                                "regime": f"piterbarg_lower_{variant}",
                                "n": n,
                                "kappa": kappa,
                                "drift_index": j,
                                "lower": piterbarg_lower_bound(
                                    np.ones(n), kappa, DriftSpec(kappa, drift.d_lower, drift.d_upper), variant, lower
                                ),
                                "upper": None,
                            }
                        )
                except GpxError:
                    continue
    return rows


# -- experiment kinds --------------------------------------------------------------


def _run_sample_paths(tree, exp_id, seed, workers, out_dir, records, plots):
    section = _get(tree, "", "sample_paths", dict)
    spec = _resolve_process(tree, _get(section, "sample_paths", "process", str), "sample_paths.process")
    grid = SampleGrid(
        origin=_number(section, "sample_paths", "grid.origin", required=False, default=0.0),
        step=_number(section, "sample_paths", "grid.step"),
        count=int(_number(section, "sample_paths", "grid.count")),
    )
    R = int(_number(section, "sample_paths", "replications"))
    stream = derive_stream(seed, "paths", 0)
    batch = sample_vector(spec, grid, R, stream)
    notes = ""
    if _get(section, "sample_paths", "dump", bool, required=False, default=True) and out_dir is not None:
        dump_path = out_dir / f"{exp_id}.paths.gpb"
        write_path_dump(batch, dump_path)
        notes = f"dump={dump_path.name}"
    final_var = float(batch.values[:, :, -1].var(axis=0).mean())
    records.append(
        _row(exp_id, "sample_paths", "paths", final_var, None, grid.step, R, "paths:0", "", notes or "variance at last node")
    )


def _run_constant(tree, exp_id, seed, workers, out_dir, records, plots):
    section = _get(tree, "", "constant", dict)
    estimator = _get(section, "constant", "estimator", str)
    C = np.asarray(_vector(section, "constant", "C"), dtype=float)
    kappa = _number(section, "constant", "kappa")
    R = int(_number(section, "constant", "replications"))
    grid_step = _number(section, "constant", "grid_step", required=False)
    stream = derive_stream(seed, "const", 0)
    tag = "const:0"
    if estimator == "window":
        drift_node = _get(section, "constant", "drift", None, required=False)
        drift = DriftSpec.zero(C.size) if drift_node is None else _parse_drift(drift_node, "constant.drift")
        window = _vector(section, "constant", "window")
        if len(window) != 2:
            raise ConfigError("constant.window", "expected [S1, S2]")
        est = estimate_window_constant(C, kappa, drift, window, grid_step, R, stream, workers)
        records.append(_row(exp_id, "constant", "window", est.value, est.se, est.grid_step, R, tag))
    elif estimator == "pickands":
        ladder = _vector(section, "constant", "S_ladder")
        est = estimate_pickands(C, kappa, ladder, grid_step, R, stream, workers)
        xs = est.diagnostics["S_ladder"]
        ys = est.diagnostics["window_values"]
        ses = est.diagnostics["window_se"]
        for S, v, s in zip(xs, ys, ses):
            records.append(_row(exp_id, "constant", "window", v, s, est.grid_step, R, tag, notes=f"S={S}"))
        records.append(_row(exp_id, "constant", "slope", est.value, est.se, est.grid_step, R, tag))
        plots[exp_id] = list(zip(xs, ys, ses))
    elif estimator == "piterbarg":
        drift = _parse_drift(_get(section, "constant", "drift", dict), "constant.drift")
        variant = _get(section, "constant", "variant", str)
        ladder = _vector(section, "constant", "S_ladder")
        est = estimate_piterbarg(C, kappa, drift, variant, ladder, grid_step, R, stream, workers)
        for S, v, s in est.diagnostics["rungs"]:
            records.append(_row(exp_id, "constant", "window", v, s, est.grid_step, R, tag, notes=f"S={S}"))
        records.append(
            _row(exp_id, "constant", "piterbarg", est.value, est.se, est.grid_step, R, tag,
                 notes=f"variant={variant}, converged_at_S={est.diagnostics['converged_at_S']}")
        )
        plots[exp_id] = [(S, v, s) for S, v, s in est.diagnostics["rungs"]]
    elif estimator == "discrete_zero":
        ladder = _vector(section, "constant", "u_ladder")
        horizon = _number(section, "constant", "horizon")
        est = estimate_discrete_zero(C, kappa, ladder, horizon, R, stream, workers)
        for u, v, s in est.diagnostics["rungs"]:
            records.append(_row(exp_id, "constant", "discrete_zero_rung", v, s, None, R, tag, notes=f"u={u}"))
        records.append(_row(exp_id, "constant", "discrete_zero", est.value, est.se, None, R, tag))
        plots[exp_id] = [(u, v, s) for u, v, s in est.diagnostics["rungs"]]
    else:
        raise ConfigError("constant.estimator", f"unknown estimator {estimator!r}")


def _probability_pieces(tree, section_path, seed, workers, index=0):
    section = _get(tree, "", section_path, dict)
    spec = _resolve_process(tree, _get(section, section_path, "process", str), f"{section_path}.process")
    u = _number(section, section_path, "u")
    limits = _vector(section, section_path, "limits_c", required=False, default=[1.0] * spec.n)
    offsets = _vector(section, section_path, "offsets", required=False, default=[0.0] * spec.n)
    family = ThresholdFamily(tuple(limits), tuple(offsets))
    kappa_min = min(
        c.kappa if isinstance(c, (Stationary, LocallyStationary, FractionalBrownian)) else c.alpha
        for c in spec.coords
    )
    step = _number(section, section_path, "grid_step", required=False)
    if step is None:
        step = default_grid_step(spec.horizon_T, u, kappa_min)
    count = int(round(spec.horizon_T / step)) + 1
    grid = SampleGrid(0.0, step, count)
    R = int(_number(section, section_path, "replications"))
    stream = derive_stream(seed, "prob", index)
    est = estimate_conjunction_prob(spec, family.realize(u), grid, R, stream, workers)
    return spec, family, u, grid, R, est


def _run_probability(tree, exp_id, seed, workers, out_dir, records, plots):
    _, _, u, grid, R, est = _probability_pieces(tree, "probability", seed, workers)
    records.append(
        _row(exp_id, "probability", "conjunction", est.value, est.se, grid.step, R, "prob:0", "", est.notes or f"u={u}")
    )


def _run_compare(tree, exp_id, seed, workers, out_dir, records, plots):
    spec, family, u, grid, R, est = _probability_pieces(tree, "compare.probability", seed, workers)
    section = _get(tree, "", "compare.asymptotic", dict)
    regime = _get(section, "compare.asymptotic", "regime", str)
    provider_kind = _get(section, "compare.asymptotic", "provider", str, required=False, default="closed_form")
    kappa_min = min(
        c.kappa if isinstance(c, (Stationary, LocallyStationary, FractionalBrownian)) else c.alpha
        for c in spec.coords
    )
    if provider_kind == "closed_form":
        provider = ClosedFormProvider(kappa_min)
    elif provider_kind == "monte_carlo":
        provider = MonteCarloProvider(
            kappa_min,
            derive_stream(seed, "provider", 0),
            R=int(_number(section, "compare.asymptotic", "provider_R", required=False, default=20_000)),
            workers=workers,
        )
    else:
        raise ConfigError("compare.asymptotic.provider", f"unknown provider {provider_kind!r}")
    if regime == "locally_stationary":
        approx = approx_locally_stationary(spec, family, u, provider)
    elif regime == "nonstationary":
        profile = variance_profile(spec, scan_step=spec.horizon_T / 512.0)
        approx = approx_nonstationary(spec, u, profile, provider)
    else:
        raise ConfigError("compare.asymptotic.regime", f"unknown regime {regime!r}")
    report = compare_with_asymptotic(est, approx)
    records.append(_row(exp_id, "compare", "empirical", est.value, est.se, grid.step, R, "prob:0", "", est.notes))
    records.append(
        _row(exp_id, "compare", approx.regime, approx.value_at_u, None, None, None, "", "",
             f"leading={approx.leading_constant!r}, u_power={approx.u_power!r}")
    )
    ratio_val = report.ratio if report.ratio is not None else 0.0
    records.append(
        _row(exp_id, "compare", "ratio", ratio_val, None, grid.step, R, "prob:0", "",
             f"ci=[{report.ci[0]!r},{report.ci[1]!r}]" + (f"; {report.notes}" if report.notes else ""))
    )


def _run_audit(tree, exp_id, seed, workers, out_dir, records, plots):
    section = _get(tree, "", "audit", dict)
    which = _get(section, "audit", "check", str)
    R = int(_number(section, "audit", "replications"))
    stream = derive_stream(seed, "audit", 0)
    if which == "slepian":
        spec_a = _resolve_process(tree, _get(section, "audit", "process_a", str), "audit.process_a")
        spec_b = _resolve_process(tree, _get(section, "audit", "process_b", str), "audit.process_b")
        u = _number(section, "audit", "u")
        step = _number(section, "audit", "grid_step", required=False, default=spec_a.horizon_T / 256.0)
        grid = SampleGrid(0.0, step, int(round(spec_a.horizon_T / step)) + 1)
        rep = audit_slepian(spec_a, spec_b, [u] * spec_a.n, grid, R, stream, workers)
        records.append(
            _row(exp_id, "audit", "slepian", rep.p_dominating.value, rep.p_dominating.se, step, R,
                 "audit:0", rep.verdict, f"dominated={rep.p_dominated.value!r}")
        )
        return
    spec = _resolve_process(tree, _get(section, "audit", "process", str), "audit.process")
    us = _vector(section, "audit", "u_ladder")
    step = _number(section, "audit", "grid_step", required=False, default=spec.horizon_T / 1024.0)
    grid = SampleGrid(0.0, step, int(round(spec.horizon_T / step)) + 1)
    if which == "borell":
        reports = audit_borell(spec, us, grid, R, stream, workers)
        series = []
        for u, rep in zip(us, reports):
            records.append(
                _row(exp_id, "audit", "borell", rep.empirical_at_u.value, rep.empirical_at_u.se, step, R,
                     "audit:0", rep.verdict,
                     f"u={u}, bound={rep.bound_at_u!r}, mu={rep.mu_hat!r}, tau_sq={rep.tau_sq!r}")
            )
            series.append((u, rep.empirical_at_u.value, rep.empirical_at_u.se))
        plots[exp_id] = series
    elif which == "piterbarg_decay":
        rep = audit_piterbarg_decay(spec, us, grid, R, stream, workers)
        series = []
        for u, est, rho, bound in zip(rep.us, rep.estimates, rep.ratios, rep.ratio_bounds):
            note = f"u={u}, rho={rho!r}" if rho is not None else f"u={u}, rho<={bound!r} (zero hits)"
            records.append(
                _row(exp_id, "audit", "piterbarg_decay", est.value, est.se, step, R, "audit:0", rep.verdict, note)
            )
            if rho is not None:
                series.append((u, rho, 0.0))
        plots[exp_id] = series
    else:
        raise ConfigError("audit.check", f"unknown audit {which!r}")


def _run_bounds_table(tree, exp_id, seed, workers, out_dir, records, plots):
    section = _get(tree, "", "bounds_table", dict)
    n_range = [int(v) for v in _vector(section, "bounds_table", "n_range")]
    kappa_set = _get(section, "bounds_table", "kappa_set", list)
    if kappa_set:  # an empty kappa_set is allowed and yields no rows
        kappa_set = _vector(section, "bounds_table", "kappa_set")
    if not all(k in (1.0, 2.0) for k in kappa_set):
        raise ConfigError("bounds_table.kappa_set", "upper bounds exist only for kappa in {1, 2}")
    drifts = [
        _parse_drift(node, f"bounds_table.drifts[{j}]")
        for j, node in enumerate(_get(section, "bounds_table", "drifts", list, required=False, default=[]))
    ]
    for row in emit_bounds_table(n_range, kappa_set, drifts):
        records.append(
            _row(
                exp_id,
                "bounds_table",
                row["regime"],
                row["lower"],
                0.0,
                None,
                None,
                "",
                "",
                f"n={row['n']}, kappa={row['kappa']}"
                + (f", upper={row['upper']!r}" if row.get("upper") is not None else ""),
            )
            | {"lower_ci": row["lower"], "upper_ci": row.get("upper")}
        )


_RUNNERS = {
    "sample_paths": _run_sample_paths,
    "constant": _run_constant,
    "probability": _run_probability,
    "compare": _run_compare,
    "audit": _run_audit,
    "bounds_table": _run_bounds_table,
}


def run_experiment(tree: dict, out_dir=None, seed_override=None, workers: int = 1) -> ResultsManifest:
    """Validate and execute one experiment config.

    Estimator failures become per-record 'error' rows instead of aborting;
    config errors raise :class:`ConfigError` before anything runs.
    """
    from pathlib import Path

    kind = _get(tree, "", "kind", str)
    if kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    exp_id = _get(tree, "", "experiment_id", str, required=False, default=kind)
    seed = seed_override if seed_override is not None else int(_number(tree, "", "seed"))
    workers = max(1, int(workers))
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)

    manifest = ResultsManifest(config_hash(tree), seed, __version__, 0.0)
    start = time.perf_counter()
    try:
        _RUNNERS[kind](tree, exp_id, seed, workers, out_path, manifest.records, manifest.plots)
    except ConfigError:
        raise
    except GpxError as exc:
        manifest.records.append(_row(exp_id, kind, "error", verdict="error", notes=str(exc)))
    manifest.wall_time_s = time.perf_counter() - start
    if out_path is not None:
        write_results(manifest, out_path, exp_id)
    return manifest


def _fmt(value) -> str:
    if value is None or value == "":
        return "" if value is None else str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def results_csv_bytes(manifest: ResultsManifest) -> bytes:
    buf = io.StringIO()
    buf.write(",".join(RESULT_COLUMNS) + "\n")
    for rec in manifest.records:
        buf.write(",".join(_fmt(rec.get(col)).replace(",", ";") for col in RESULT_COLUMNS) + "\n")
    return buf.getvalue().encode("utf-8")


def write_results(manifest: ResultsManifest, out_dir, exp_id, fmt="csv") -> dict:
    """Write results table, manifest, and plot series; returns the paths."""
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    if fmt == "json":
        results_path = out_dir / f"{exp_id}.results.json"
        results_path.write_text(
            json.dumps({"columns": list(RESULT_COLUMNS), "records": manifest.records}, indent=2, sort_keys=True)
        )
    else:
        results_path = out_dir / f"{exp_id}.results.csv"
        results_path.write_bytes(results_csv_bytes(manifest))
    paths["results"] = results_path
    manifest_path = out_dir / f"{exp_id}.manifest.json"
    manifest_path.write_text(
        json.dumps(
            {
                "config_hash": manifest.config_hash,
                "master_seed": manifest.master_seed,
                "tool_version": manifest.tool_version,
                "wall_time_s": manifest.wall_time_s,
                "records": manifest.records,
            },
            indent=2,
            sort_keys=True,
        )
    )
    paths["manifest"] = manifest_path
    for name, series in manifest.plots.items():
        if len(series) < 2:
            continue
        plot_path = out_dir / f"{name}.plot.tsv"
        lines = ["x\ty\tse"]
        lines += [f"{_fmt(float(x))}\t{_fmt(float(y))}\t{_fmt(float(s))}" for x, y, s in series]
        plot_path.write_text("\n".join(lines) + "\n")
        paths[f"plot:{name}"] = plot_path
    return paths
