import csv
import io
import json
import math

import numpy as np
import pytest

from gpextremes import ConfigError, DomainError, DriftSpec, config_hash, emit_bounds_table, experiments, run_experiment
from gpextremes.cli import main as cli_main
from gpextremes.experiments import (
    RESULT_COLUMNS,
    ResultsManifest,
    _row,
    load_config,
    results_csv_bytes,
    write_results,
)
from gpextremes.sampling import read_path_dump


def ou_process_tree():
    return {"ou": {"horizon": 1.0, "coords": [{"variant": "stationary", "a": 1.0, "kappa": 1.0}]}}


def constant_config(seed=11, ladder=(1.0, 2.0, 4.0)):
    return {
        "kind": "constant",
        "experiment_id": "pickands-k2",
        "seed": seed,
        "constant": {
            "estimator": "pickands",
            "C": [1.0],
            "kappa": 2.0,
            "S_ladder": list(ladder),
            "replications": 1000,
        },
    }


def probability_config(seed=12, R=2000):
    return {
        "kind": "probability",
        "experiment_id": "ou-u2",
        "seed": seed,
        "processes": ou_process_tree(),
        "probability": {
            "process": "ou",
            "u": 2.0,
            "grid_step": 1.0 / 128,
            "replications": R,
        },
    }


def short_span_config(R=2000):
    coord = {"variant": "stationary", "a": 1.0, "kappa": 1.5}
    return {
        "kind": "probability",
        "experiment_id": "short-span",
        "seed": 21,
        "processes": {"pair": {"horizon": 0.25, "coords": [coord, dict(coord)]}},
        "probability": {"process": "pair", "u": 1.0, "replications": R},
    }


def compare_config():
    return {
        "kind": "compare",
        "experiment_id": "ou-compare",
        "seed": 6,
        "processes": ou_process_tree(),
        "compare": {
            "probability": {
                "process": "ou",
                "u": 2.5,
                "grid_step": 1.0 / 256,
                "replications": 20_000,
            },
            "asymptotic": {"regime": "locally_stationary", "provider": "closed_form"},
        },
    }


def sample_paths_config():
    return {
        "kind": "sample_paths",
        "experiment_id": "paths",
        "seed": 5,
        "processes": ou_process_tree(),
        "sample_paths": {
            "process": "ou",
            "grid": {"origin": 0.0, "step": 0.125, "count": 9},
            "replications": 16,
            "dump": True,
        },
    }


def window_config():
    return {
        "kind": "constant",
        "seed": 7,
        "constant": {
            "estimator": "window",
            "C": [1.0],
            "kappa": 1.0,
            "window": [0.0, 1.0],
            "replications": 2048,
            "drift": {"exponent": 1.0, "d_lower": [0.0], "d_upper": [1.0]},
        },
    }


def audit_config():
    return {
        "kind": "audit",
        "seed": 8,
        "processes": ou_process_tree(),
        "audit": {"check": "borell", "process": "ou", "u_ladder": [1.0, 2.0], "replications": 2048},
    }


def bounds_config():
    return {
        "kind": "bounds_table",
        "experiment_id": "bounds",
        "seed": 1,
        "bounds_table": {"n_range": [1, 2, 3], "kappa_set": [1, 2]},
    }


# (expected path, config builder, mutation); each mutation breaks one key below a section.
NESTED_KEY_CASES = [
    ("probability.limits_c", probability_config, lambda t: t["probability"].update(limits_c="1")),
    ("compare.probability.u", compare_config, lambda t: t["compare"]["probability"].pop("u")),
    ("processes.ou.horizon", probability_config, lambda t: t["processes"]["ou"].pop("horizon")),
    ("processes.ou.coords", probability_config, lambda t: t["processes"]["ou"].update(coords={})),
    ("processes.ou.coords[0].kappa", probability_config, lambda t: t["processes"]["ou"]["coords"][0].pop("kappa")),
    ("processes.ou.coords[0].variant", probability_config, lambda t: t["processes"]["ou"]["coords"][0].pop("variant")),
    ("sample_paths.grid.count", sample_paths_config, lambda t: t["sample_paths"]["grid"].pop("count")),
    ("constant.kappa", window_config, lambda t: t["constant"].pop("kappa")),
    ("constant.drift.d_upper", window_config, lambda t: t["constant"]["drift"].pop("d_upper")),
    ("constant.drift", window_config, lambda t: t["constant"].update(drift=3)),
    ("audit.u_ladder", audit_config, lambda t: t["audit"].pop("u_ladder")),
    ("bounds_table.drifts[0]", bounds_config, lambda t: t["bounds_table"].update(drifts=[3])),
    ("bounds_table.kappa_set", bounds_config, lambda t: t["bounds_table"].update(kappa_set=["a"])),
    # JSON booleans are not numbers, although bool subclasses int
    ("bounds_table.n_range", bounds_config, lambda t: t["bounds_table"].update(n_range=[True, 2], kappa_set=[True])),
    ("probability.u", probability_config, lambda t: t["probability"].update(u=True)),
    (
        "processes.ou.coords[0].a_profile.nodes",
        probability_config,
        lambda t: t["processes"]["ou"]["coords"].__setitem__(
            0, {"variant": "locally_stationary", "a_profile": {"nodes": 3, "values": [1.0, 1.0]}, "kappa": 1.0}
        ),
    ),
    # a fractional dimension is not truncated to an integer one
    pytest.param(
        "bounds_table.n_range",
        bounds_config,
        lambda t: t["bounds_table"].update(n_range=[1.5, 2]),
        id="bounds_table.n_range-fractional",
    ),
    # nor is any other integer key, such as a replication count
    *[
        pytest.param(path, build, mutate, id=f"{path}-fractional")
        for path, build, mutate in [
            ("seed", probability_config, lambda t: t.update(seed=12.5)),
            ("probability.replications", probability_config, lambda t: t["probability"].update(replications=2000.9)),
            ("constant.replications", window_config, lambda t: t["constant"].update(replications=2048.5)),
            ("audit.replications", audit_config, lambda t: t["audit"].update(replications=2048.5)),
            ("sample_paths.replications", sample_paths_config, lambda t: t["sample_paths"].update(replications=16.5)),
            ("sample_paths.grid.count", sample_paths_config, lambda t: t["sample_paths"]["grid"].update(count=9.5)),
            (
                "processes.ou.coords[0].block_count",
                probability_config,
                lambda t: t["processes"]["ou"]["coords"].__setitem__(
                    0,
                    {
                        "variant": "locally_stationary",
                        "a_profile": {"nodes": [0.0, 1.0], "values": [1.0, 1.0]},
                        "kappa": 1.0,
                        "block_count": 8.5,
                    },
                ),
            ),
            (
                "compare.asymptotic.provider_R",
                compare_config,
                lambda t: t["compare"]["asymptotic"].update(provider="monte_carlo", provider_R=20_000.5),
            ),
        ]
    ],
    # JSON's NaN and Infinity literals are not numbers a key can take
    *[
        pytest.param(path, build, mutate, id=f"{path}-{label}")
        for path, label, build, mutate in [
            ("probability.u", "nan", probability_config, lambda t: t["probability"].update(u=math.nan)),
            ("probability.grid_step", "inf", probability_config, lambda t: t["probability"].update(grid_step=math.inf)),
            ("processes.ou.horizon", "inf", probability_config, lambda t: t["processes"]["ou"].update(horizon=math.inf)),
            (
                "processes.ou.coords[0].a",
                "-inf",
                probability_config,
                lambda t: t["processes"]["ou"]["coords"][0].update(a=-math.inf),
            ),
            ("seed", "nan", probability_config, lambda t: t.update(seed=math.nan)),
            # a seed outside 64 bits used to run and end in one error row
            ("seed", "negative", probability_config, lambda t: t.update(seed=-1)),
            ("seed", "65-bit", probability_config, lambda t: t.update(seed=2**64)),
            # array entries that a drift or a threshold family rejects
            ("constant.drift", "nan", window_config, lambda t: t["constant"]["drift"].update(d_upper=[math.nan])),
            (
                "bounds_table.drifts[0]",
                "inf",
                bounds_config,
                lambda t: t["bounds_table"].update(
                    drifts=[{"exponent": 1.0, "d_lower": [math.inf], "d_upper": [1.0]}]
                ),
            ),
            ("probability.limits_c", "nan", probability_config, lambda t: t["probability"].update(limits_c=[math.nan])),
            ("probability.offsets", "inf", probability_config, lambda t: t["probability"].update(offsets=[math.inf])),
            (
                "compare.probability.limits_c",
                "inf",
                compare_config,
                lambda t: t["compare"]["probability"].update(limits_c=[math.inf]),
            ),
            (
                "compare.probability.offsets",
                "-inf",
                compare_config,
                lambda t: t["compare"]["probability"].update(offsets=[-math.inf]),
            ),
            # profile tables whose spline would fail at its first evaluation
            (
                "processes.ou.coords[0].a_profile",
                "nan",
                probability_config,
                lambda t: t["processes"]["ou"]["coords"].__setitem__(
                    0,
                    {
                        "variant": "locally_stationary",
                        "a_profile": {"nodes": [0.0, 0.5, 1.0], "values": [1.0, math.nan, 1.0]},
                        "kappa": 1.0,
                    },
                ),
            ),
            (
                "processes.ou.coords[0].sigma_profile",
                "inf",
                probability_config,
                lambda t: t["processes"]["ou"]["coords"].__setitem__(
                    0,
                    {
                        "variant": "nonstationary",
                        "sigma_profile": {"nodes": [0.0, math.inf], "values": [1.0, 0.5]},
                        "alpha": 1.0,
                        "a": 1.0,
                        "beta": 1.0,
                        "b_lower": 0.0,
                        "b_upper": 1.0,
                    },
                ),
            ),
        ]
    ],
]


class TestConfigHash:
    def test_key_order_invariance(self):
        a = {"kind": "probability", "seed": 1, "x": {"b": 2, "a": [1, 2]}}
        b = {"x": {"a": [1, 2], "b": 2}, "seed": 1, "kind": "probability"}
        assert config_hash(a) == config_hash(b)

    def test_value_changes_hash(self):
        a = probability_config()
        b = probability_config()
        b["probability"]["u"] = 3.0
        assert config_hash(a) != config_hash(b)


class TestBoundsTable:
    def test_six_rows_lower_le_upper(self):
        rows = emit_bounds_table([1, 2, 3], [1.0, 2.0])
        assert len(rows) == 6
        for row in rows:
            assert row["upper"] is None or row["lower"] <= row["upper"]

    def test_known_values(self):
        rows = emit_bounds_table([1], [2.0])
        assert rows[0]["lower"] == pytest.approx(1.0 / (4.0 * math.sqrt(math.pi)), rel=1e-12)
        assert rows[0]["upper"] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_empty_kappa_set(self):
        assert emit_bounds_table([1, 2], []) == []

    def test_drift_examples_add_rows(self):
        drifts = [DriftSpec(1.0, (0.0,), (1.0,))]
        rows = emit_bounds_table([1], [1.0], drifts)
        regimes = {r["regime"] for r in rows}
        assert "piterbarg_lower_right" in regimes and "piterbarg_lower_two_sided" in regimes


class TestRunExperiment:
    def test_constant_record_contract(self):
        manifest = run_experiment(constant_config())
        kinds = [r["regime"] for r in manifest.records]
        assert kinds.count("window") == 3
        assert kinds.count("slope") == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        m1 = run_experiment(probability_config())
        m2 = run_experiment(probability_config())
        assert results_csv_bytes(m1) == results_csv_bytes(m2)

    def test_worker_count_invariance(self):
        m1 = run_experiment(probability_config(R=5000), workers=1)
        m8 = run_experiment(probability_config(R=5000), workers=8)
        assert results_csv_bytes(m1) == results_csv_bytes(m8)

    @pytest.mark.parametrize("check", ["probability", "borell", "piterbarg_decay", "slepian"])
    def test_horizon_grid_ends_inside_the_horizon(self, check):
        # horizon 1 at step 0.35: a rounded node count put the last node at 1.05
        if check == "probability":
            tree = probability_config()
            tree["probability"]["grid_step"] = 0.35
        else:
            tree = audit_config()
            tree["audit"].update(check=check, grid_step=0.35, u_ladder=[1.0, 1.5, 2.0])
            if check == "slepian":
                tree["audit"].update(process_a="ou", process_b="ou", u=1.5)
        manifest = run_experiment(tree)
        assert [r["verdict"] for r in manifest.records if r["verdict"] == "error"] == []
        assert {r["grid_step"] for r in manifest.records} == {0.35}

    @pytest.mark.parametrize(
        "T, step, count", [(1.0, 0.35, 3), (1.0, 1 / 128, 129), (1.0, 0.0009765625, 1025), (0.25, 0.25 / 1024, 1025)]
    )
    def test_horizon_grid_takes_every_node_inside_the_horizon(self, T, step, count):
        grid = experiments._horizon_grid(T, step)
        assert (grid.origin, grid.step, grid.count) == (0.0, step, count)
        assert grid.nodes()[-1] <= T

    def test_nan_literal_in_config_file_is_config_error(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(probability_config()).replace('"u": 2.0', '"u": NaN'))
        with pytest.raises(ConfigError) as err:
            run_experiment(load_config(path))
        assert err.value.path == "probability.u"

    def test_large_seed_is_read_exactly(self, tmp_path):
        seed = 2**62 + 1
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(probability_config(seed=seed)))
        manifest = run_experiment(load_config(path))
        assert manifest.master_seed == seed
        assert results_csv_bytes(manifest) != results_csv_bytes(run_experiment(probability_config(seed=seed + 1)))

    def test_short_span_smooth_coordinates_run(self):
        # two kappa = 1.5 coordinates on a quarter horizon: the default grid
        # has 1025 nodes whose circulant embedding fails, so they draw dense
        tree = short_span_config()
        manifest = run_experiment(tree)
        assert [r["regime"] for r in manifest.records] == ["conjunction"]
        assert manifest.records[0]["value"] > 0

    def test_dense_draw_worker_count_invariance(self):
        tree = short_span_config(R=4096)  # two replication blocks
        one, two = run_experiment(tree, workers=1), run_experiment(tree, workers=2)
        assert one.records[0]["regime"] == "conjunction"
        assert results_csv_bytes(one) == results_csv_bytes(two)

    def test_seed_override_changes_results(self):
        m1 = run_experiment(probability_config())
        m2 = run_experiment(probability_config(), seed_override=999)
        assert results_csv_bytes(m1) != results_csv_bytes(m2)

    @pytest.mark.parametrize("workers", [0, -1, 2.5, "2", True, None])
    def test_workers_must_be_a_positive_integer(self, tmp_path, workers):
        # max(1, int(workers)) used to run 2.5 at 2, parse "2" and run 0 at 1
        with pytest.raises(DomainError, match="workers"):
            run_experiment(bounds_config(), out_dir=tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [1.5, "7", -1, 2**64, True])
    def test_seed_override_must_be_a_seed(self, tmp_path, seed):
        # it used to reach the manifest's master_seed unchecked
        with pytest.raises(DomainError, match="seed"):
            run_experiment(bounds_config(), out_dir=tmp_path / "out", seed_override=seed)
        assert not (tmp_path / "out").exists()

    def test_missing_process_is_config_error(self):
        tree = probability_config()
        tree["probability"]["process"] = "ghost"
        with pytest.raises(ConfigError) as err:
            run_experiment(tree)
        assert "ghost" in str(err.value)
        assert err.value.path == "probability.process"

    def test_invalid_process_is_config_error(self):
        tree = probability_config()
        tree["processes"]["ou"]["coords"][0]["kappa"] = 2.5
        with pytest.raises(ConfigError) as err:
            run_experiment(tree)
        assert err.value.path == "processes.ou"
        assert str(err.value) == "processes.ou: coord[0]: kappa=2.5 outside (0, 2]"

    def test_missing_key_paths(self):
        tree = probability_config()
        del tree["probability"]["u"]
        with pytest.raises(ConfigError) as err:
            run_experiment(tree)
        assert err.value.path == "probability.u"

    @pytest.mark.parametrize(
        "path, build, mutate",
        NESTED_KEY_CASES,
        # a pytest.param's own id takes precedence over its entry here
        ids=[case[0] for case in NESTED_KEY_CASES],
    )
    def test_nested_key_paths(self, path, build, mutate):
        tree = build()
        mutate(tree)
        with pytest.raises(ConfigError) as err:
            run_experiment(tree)
        assert err.value.path == path

    def test_estimator_failure_becomes_error_record(self):
        tree = probability_config(R=100)  # below the estimator's minimum
        manifest = run_experiment(tree)
        assert manifest.failed
        assert manifest.records[0]["verdict"] == "error"

    def test_default_grid_step_with_zero_u_is_error_record(self):
        tree = probability_config()
        del tree["probability"]["grid_step"]
        tree["probability"]["u"] = 0
        manifest = run_experiment(tree)
        assert manifest.failed
        assert "u must be positive" in manifest.records[0]["notes"]

    def test_sample_paths_dump_round_trip(self, tmp_path):
        manifest = run_experiment(sample_paths_config(), out_dir=tmp_path)
        dump = tmp_path / "paths.paths.gpb"
        assert dump.exists()
        batch = read_path_dump(dump)
        assert batch.replications == 16 and batch.grid.count == 9

    def test_compare_kind_emits_ratio(self):
        manifest = run_experiment(compare_config())
        regimes = [r["regime"] for r in manifest.records]
        assert "empirical" in regimes and "locally_stationary" in regimes and "ratio" in regimes
        ratio_row = manifest.records[regimes.index("ratio")]
        assert 0.3 < ratio_row["value"] < 2.0

    def test_results_files_written(self, tmp_path):
        manifest = run_experiment(probability_config(), out_dir=tmp_path)
        csv_path = tmp_path / "ou-u2.results.csv"
        man_path = tmp_path / "ou-u2.manifest.json"
        assert csv_path.exists() and man_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(RESULT_COLUMNS)
        meta = json.loads(man_path.read_text())
        assert meta["config_hash"] == config_hash(probability_config())

    def test_csv_fields_round_trip(self):
        notes = 'rare event, "zero hits"\nse is 3/R'
        manifest = ResultsManifest("hash", 1, "0", 0.0, [_row("e,1", "probability", "x", 0.5, 0.1, notes=notes)])
        rows = list(csv.reader(io.StringIO(results_csv_bytes(manifest).decode("utf-8"), newline="")))
        assert rows[0] == list(RESULT_COLUMNS)
        assert len(rows) == 2
        record = dict(zip(RESULT_COLUMNS, rows[1]))
        assert record["notes"] == notes and record["experiment_id"] == "e,1"
        assert record["value"] == "0.5"

    def test_plot_series_written(self, tmp_path):
        manifest = run_experiment(constant_config(), out_dir=tmp_path)
        plot = tmp_path / "pickands-k2.plot.tsv"
        assert plot.exists()
        lines = plot.read_text().splitlines()
        assert lines[0] == "x\ty\tse" and len(lines) == 4


class TestCli:
    def _write(self, tmp_path, tree, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(tree))
        return str(path)

    def test_bounds_table_verb(self, tmp_path, capsys):
        cfg = self._write(tmp_path, bounds_config())
        code = cli_main(["bounds-table", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "bounds.results.csv").exists()

    def test_verb_kind_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = self._write(tmp_path, probability_config())
        assert cli_main(["audit", "--config", cfg]) == 1

    def test_non_object_drift_entry_is_config_error(self, tmp_path, capsys):
        tree = bounds_config()
        tree["bounds_table"]["drifts"] = [3]
        cfg = self._write(tmp_path, tree)
        assert cli_main(["bounds-table", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "bounds_table.drifts[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--workers", "-2"), ("--seed", "-1")])
    def test_rejected_argument_exits_1(self, tmp_path, capsys, flag, value):
        cfg = self._write(tmp_path, bounds_config())
        assert cli_main(["bounds-table", "--config", cfg, "--out", str(tmp_path / "out"), flag, value]) == 1
        err = capsys.readouterr().err
        assert flag[2:] in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_seed_outside_64_bits_exits_1(self, tmp_path, capsys):
        # it used to run, write master_seed -1 and one error row, and exit 2
        cfg = self._write(tmp_path, probability_config(seed=-1))
        assert cli_main(["estimate-prob", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unreadable_config(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        assert cli_main(["estimate-prob", "--config", str(bad)]) == 1

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        cfg = self._write(tmp_path, bounds_config())
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert cli_main(["bounds-table", "--config", cfg, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert "taken" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "check, ladder",
        [("piterbarg_decay", [0.0, 0.5, 1.0]), ("borell", [1.0, math.nan])],
        ids=["piterbarg_decay-zero", "borell-nan"],
    )
    def test_bad_audit_ladder_is_runtime_failure(self, tmp_path, capsys, check, ladder):
        tree = audit_config()
        tree["audit"].update(check=check, u_ladder=ladder)
        cfg = self._write(tmp_path, tree)  # json writes the NaN rung as the literal NaN
        manifest = run_experiment(load_config(cfg))
        assert [r["verdict"] for r in manifest.records] == ["error"]
        assert "u_ladder" in manifest.records[0]["notes"]
        assert cli_main(["audit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, probability_config(R=100))
        assert cli_main(["estimate-prob", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_json_format(self, tmp_path, capsys):
        cfg = self._write(tmp_path, probability_config())
        code = cli_main(
            ["estimate-prob", "--config", cfg, "--out", str(tmp_path / "oj"), "--format", "json"]
        )
        assert code == 0
        data = json.loads((tmp_path / "oj" / "ou-u2.results.json").read_text())
        assert data["columns"] == list(RESULT_COLUMNS)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sample_paths_verb_writes_the_dump(self, tmp_path, capsys, fmt):
        cfg = self._write(tmp_path, sample_paths_config())
        out = tmp_path / "out"
        assert cli_main(["sample-paths", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        assert (out / f"paths.results.{fmt}").exists()
        batch = read_path_dump(out / "paths.paths.gpb")
        run_experiment(sample_paths_config(), out_dir=tmp_path / "api")
        np.testing.assert_array_equal(batch.values, read_path_dump(tmp_path / "api" / "paths.paths.gpb").values)

    def test_seed_override_flag(self, tmp_path, capsys):
        cfg = self._write(tmp_path, probability_config())
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli_main(["estimate-prob", "--config", cfg, "--out", str(out1), "--seed", "42"]) == 0
        assert cli_main(["estimate-prob", "--config", cfg, "--out", str(out2), "--seed", "42"]) == 0
        assert (out1 / "ou-u2.results.csv").read_bytes() == (out2 / "ou-u2.results.csv").read_bytes()
