import json
import math

import numpy as np
import pytest

from gpextremes import ConfigError, DriftSpec, config_hash, emit_bounds_table, run_experiment
from gpextremes.cli import main as cli_main
from gpextremes.experiments import RESULT_COLUMNS, results_csv_bytes, write_results
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

    def test_seed_override_changes_results(self):
        m1 = run_experiment(probability_config())
        m2 = run_experiment(probability_config(), seed_override=999)
        assert results_csv_bytes(m1) != results_csv_bytes(m2)

    def test_missing_process_is_config_error(self):
        tree = probability_config()
        tree["probability"]["process"] = "ghost"
        with pytest.raises(ConfigError) as err:
            run_experiment(tree)
        assert "ghost" in str(err.value)
        assert err.value.path == "probability.process"

    def test_missing_key_paths(self):
        tree = probability_config()
        del tree["probability"]["u"]
        with pytest.raises(ConfigError) as err:
            run_experiment(tree)
        assert err.value.path == "probability.u"

    @pytest.mark.parametrize(
        "path, build, mutate", NESTED_KEY_CASES, ids=[case[0] for case in NESTED_KEY_CASES]
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

    def test_unreadable_config(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        assert cli_main(["estimate-prob", "--config", str(bad)]) == 1

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

    def test_seed_override_flag(self, tmp_path, capsys):
        cfg = self._write(tmp_path, probability_config())
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli_main(["estimate-prob", "--config", cfg, "--out", str(out1), "--seed", "42"]) == 0
        assert cli_main(["estimate-prob", "--config", cfg, "--out", str(out2), "--seed", "42"]) == 0
        assert (out1 / "ou-u2.results.csv").read_bytes() == (out2 / "ou-u2.results.csv").read_bytes()
