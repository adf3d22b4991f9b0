import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

from streamtree.core import ConfigError
from streamtree.experiment import (
    ExperimentConfig,
    PairingError,
    StreamSpec,
    export_curves,
    load_config,
    load_records,
    main,
    make_learner,
    relative_metrics,
    run_experiment,
    run_id,
)
from streamtree.tree import TreeConfig

BENCHMARK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"
LEARNER_SETTINGS = {"delta": 1e-3, "grace_period": 50, "leaf_prediction": "nb",
                    "numeric_bins": 7, "merit_range": "log2c"}
BASE_CONFIG = {
    "streams": [{"name": "led", "type": "led", "noise": 0.1, "n": 400}],
    "algorithms": ["vfdt", "svfdt-i", "svfdt-ii"],
    "tiebreaks": [0.05],
    "seeds": [1],
    "snapshot_every": 100,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def strip_time(record: dict) -> dict:
    rec = dict(record)
    rec["elapsed_train_seconds"] = 0.0
    rec["snapshots"] = [row[:5] for row in rec["snapshots"]]
    return rec


class TestConfig:
    def test_missing_streams_field(self):
        with pytest.raises(ConfigError, match="streams"):
            ExperimentConfig.from_dict({"algorithms": ["vfdt"]})

    def test_unknown_field_named(self):
        raw = dict(BASE_CONFIG, bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_algorithm_named(self):
        raw = dict(BASE_CONFIG, algorithms=["vfdt", "mystery"])
        with pytest.raises(ConfigError, match="mystery"):
            ExperimentConfig.from_dict(raw)

    def test_negative_tiebreak_rejected(self):
        raw = dict(BASE_CONFIG, tiebreaks=[-0.1])
        with pytest.raises(ConfigError, match="tiebreak"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("field", ["repetitions", "workers", "snapshot_every"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, True, 0])
    def test_count_that_is_not_a_whole_number_from_one_rejected(self, field, bad):
        streams = ExperimentConfig.from_dict(BASE_CONFIG).streams
        with pytest.raises(ConfigError, match=f"{field} must be a whole number"):
            ExperimentConfig(streams, **{field: bad})

    def test_stream_missing_required_field(self):
        spec = StreamSpec.from_dict({"type": "led"})
        with pytest.raises(ConfigError, match="'n'"):
            spec.build(seed=1)

    @pytest.mark.parametrize("kind, required", [
        ("led", {"n": 10}),
        ("sea", {"n": 10}),
        ("rbf", {"n": 10}),
        ("csv", {"path": "data.csv", "columns": [{"name": "x", "kind": "numeric"}],
                 "classes": ["a", "b"]}),
    ])
    def test_stream_unknown_field_named(self, kind, required):
        spec = StreamSpec.from_dict({"type": kind, "headr": True, **required})
        with pytest.raises(ConfigError, match="headr"):
            spec.build(seed=1)

    def test_config_hash_stable_and_sensitive(self):
        a = ExperimentConfig.from_dict(BASE_CONFIG)
        b = ExperimentConfig.from_dict(BASE_CONFIG)
        c = ExperimentConfig.from_dict(dict(BASE_CONFIG, tiebreaks=[0.1]))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        # Records in existing results.jsonl files resume only under these digits.
        assert a.config_hash() == "d37869d3889fd781"
        assert load_config(BENCHMARK_CONFIG).config_hash() == "5a028fda12d0ffd8"
        assert ExperimentConfig.from_dict(dict(BASE_CONFIG, workers=2)).config_hash() == (
            a.config_hash())

    def test_tree_config_carries_the_learner_settings(self):
        config = ExperimentConfig.from_dict(dict(BASE_CONFIG, **LEARNER_SETTINGS))
        assert config.tree_config(0.2) == TreeConfig(tiebreak=0.2, **LEARNER_SETTINGS)

    def test_unknown_learner_name(self):
        stream = StreamSpec.from_dict(BASE_CONFIG["streams"][0]).build(1)
        cfg = ExperimentConfig.from_dict(BASE_CONFIG)
        with pytest.raises(ConfigError):
            make_learner("other", stream.schema, cfg.tree_config(0.05))


class TestRunExperiment:
    def test_record_cardinality(self, tmp_path):
        config = ExperimentConfig.from_dict(BASE_CONFIG)
        results = run_experiment(config, tmp_path / "out")
        assert len(results) == 3  # 1 stream x 3 algorithms x 1 tau x 1 seed x 1 rep
        records = load_records(tmp_path / "out" / "results.jsonl")
        assert len(records) == 3
        ids = {r["run_id"] for r in records}
        assert ids == {
            run_id("led", algo, 0.05, 1, 1) for algo in ("vfdt", "svfdt-i", "svfdt-ii")
        }
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_metadata_reproduces_run(self, tmp_path):
        config = ExperimentConfig.from_dict(dict(BASE_CONFIG, **LEARNER_SETTINGS))
        run_experiment(config, tmp_path / "out")
        rec = load_records(tmp_path / "out" / "results.jsonl")[0]
        for field in ("config_hash", "seed", "stream_params", "rng"):
            assert field in rec
        settings = {f.name: rec[f.name] for f in fields(TreeConfig)}
        assert settings == dict(LEARNER_SETTINGS, tiebreak=config.tiebreaks[0])

    def test_rerun_is_deterministic_outside_time_fields(self, tmp_path):
        config = ExperimentConfig.from_dict(BASE_CONFIG)
        run_experiment(config, tmp_path / "a")
        run_experiment(config, tmp_path / "b")
        a = [strip_time(r) for r in load_records(tmp_path / "a" / "results.jsonl")]
        b = [strip_time(r) for r in load_records(tmp_path / "b" / "results.jsonl")]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_worker_processes_preserve_output_order(self, tmp_path):
        config = ExperimentConfig.from_dict(dict(BASE_CONFIG, workers=3, seeds=[1, 2]))
        run_experiment(config, tmp_path / "par")
        sequential = ExperimentConfig.from_dict(dict(BASE_CONFIG, seeds=[1, 2]))
        run_experiment(sequential, tmp_path / "seq")
        a = [strip_time(r) for r in load_records(tmp_path / "par" / "results.jsonl")]
        b = [strip_time(r) for r in load_records(tmp_path / "seq" / "results.jsonl")]
        assert a == b

    def test_repetitions_only_affect_time(self, tmp_path):
        config = ExperimentConfig.from_dict(dict(BASE_CONFIG, repetitions=2))
        run_experiment(config, tmp_path / "rep")
        records = load_records(tmp_path / "rep" / "results.jsonl")
        assert len(records) == 6
        by_rep = {}
        for rec in records:
            by_rep.setdefault(rec["repetition"], []).append(strip_time(rec))
        first = [dict(r, repetition=0, run_id="") for r in by_rep[1]]
        second = [dict(r, repetition=0, run_id="") for r in by_rep[2]]
        assert first == second

    def test_records_come_in_task_order(self, tmp_path):
        config = ExperimentConfig.from_dict(dict(
            BASE_CONFIG, streams=[BASE_CONFIG["streams"][0], {"name": "sea", "type": "sea",
                                                                "n": 300}],
            tiebreaks=[0.05, 0.1], seeds=[2, 1], workers=2))
        records = run_experiment(config, tmp_path / "out")
        expected = [
            run_id(stream, algorithm, tiebreak, seed, 1)
            for stream in ("led", "sea")
            for seed in (2, 1)
            for algorithm in ("vfdt", "svfdt-i", "svfdt-ii")
            for tiebreak in (0.05, 0.1)
        ]
        assert [r["run_id"] for r in records] == expected
        assert [r["run_id"] for r in load_records(tmp_path / "out" / "results.jsonl")] == expected
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:4] for line in summary] == [
            [stream, algorithm, tiebreak, "2"]
            for stream in ("led", "sea")
            for algorithm in ("vfdt", "svfdt-i", "svfdt-ii")
            for tiebreak in ("0.05", "0.1")
        ]

    def test_repeated_run_id_rejected(self, tmp_path):
        config = ExperimentConfig.from_dict(dict(BASE_CONFIG, seeds=[1, 1]))
        with pytest.raises(ConfigError, match="run_id"):
            run_experiment(config, tmp_path / "out")


class TestResume:
    CONFIG = dict(BASE_CONFIG, streams=[
        {"name": "led", "type": "led", "noise": 0.1, "n": 400},
        {"name": "sea", "type": "sea", "n": 400},
    ], seeds=[1, 2], tiebreaks=[0.05, 0.2])

    def test_truncated_results_resume_to_the_clean_records(self, tmp_path):
        config = ExperimentConfig.from_dict(self.CONFIG)
        clean = [strip_time(r) for r in run_experiment(config, tmp_path / "clean")]
        lines = (tmp_path / "clean" / "results.jsonl").read_text().splitlines(keepends=True)
        assert len(lines) == 24
        out = tmp_path / "resumed"
        out.mkdir()
        # Two whole tasks, half of a third, and a torn line.
        (out / "results.jsonl").write_text("".join(lines[:15]) + lines[15][:40])
        kept = {r["run_id"]: r for r in load_records(tmp_path / "clean" / "results.jsonl")[:15]}
        records = run_experiment(config, out)
        assert [strip_time(r) for r in records] == clean
        written = load_records(out / "results.jsonl")
        assert [strip_time(r) for r in written] == clean
        for record in written:  # kept records are not re-run
            if record["run_id"] in kept:
                assert record == kept[record["run_id"]]
        assert (out / "summary.csv").read_text().splitlines()[0].startswith("stream,")

    def test_finished_tasks_do_not_rebuild_their_stream(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{i % 7 / 7},{'ab'[i % 2]}\n" for i in range(300)))
        payload = dict(self.CONFIG, streams=[{
            "name": "file", "type": "csv", "path": str(data),
            "columns": [{"name": "x1", "kind": "numeric"}], "classes": ["a", "b"],
        }, self.CONFIG["streams"][0]])
        config = ExperimentConfig.from_dict(payload)
        first = run_experiment(config, tmp_path / "out")
        path = tmp_path / "out" / "results.jsonl"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-3]))
        data.unlink()  # only the csv tasks could need it
        again = run_experiment(config, tmp_path / "out")
        assert [strip_time(r) for r in again] == [strip_time(r) for r in first]
        assert again[:12] == first[:12]

    def test_records_of_another_config_are_not_kept(self, tmp_path):
        run_experiment(ExperimentConfig.from_dict(self.CONFIG), tmp_path / "out")
        other = ExperimentConfig.from_dict(dict(self.CONFIG, grace_period=100))
        records = run_experiment(other, tmp_path / "out")
        assert {r["config_hash"] for r in records} == {other.config_hash()}
        assert len(load_records(tmp_path / "out" / "results.jsonl")) == 24

    def test_unparseable_line_before_the_last_is_an_error(self, tmp_path):
        config = ExperimentConfig.from_dict(self.CONFIG)
        run_experiment(config, tmp_path / "out")
        path = tmp_path / "out" / "results.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]) + "{torn\n" + "".join(lines[3:]))
        with pytest.raises(ValueError, match="line 4"):
            run_experiment(config, tmp_path / "out")


def fake_record(algorithm, stream, tiebreak, seed, acc, nodes, kappa=0.5, secs=1.0):
    return {
        "run_id": run_id(stream, algorithm, tiebreak, seed, 1),
        "algorithm": algorithm,
        "stream": stream,
        "tiebreak": tiebreak,
        "seed": seed,
        "repetition": 1,
        "accuracy": acc,
        "kappa_m": kappa,
        "node_count": nodes,
        "elapsed_train_seconds": secs,
        "snapshots": [[100, acc, kappa, nodes, nodes // 2 + 1, secs]],
    }


class TestRelativeMetrics:
    def test_identity_candidate(self):
        records = []
        for stream in ("s1", "s2"):
            records.append(fake_record("vfdt", stream, 0.05, 1, 0.8, 100))
            records.append(fake_record("svfdt-i", stream, 0.05, 1, 0.8, 100))
        rows = relative_metrics(records)
        assert len(rows) == 1
        row = rows[0]
        assert row["relative_accuracy"] == pytest.approx(1.0)
        assert row["relative_size"] == pytest.approx(1.0)

    def test_half_size_candidate(self):
        records = []
        for stream in ("s1", "s2", "s3"):
            records.append(fake_record("vfdt", stream, 0.05, 1, 0.8, 100))
            records.append(fake_record("svfdt-i", stream, 0.05, 1, 0.8, 50))
        assert relative_metrics(records)[0]["relative_size"] == pytest.approx(0.5)

    def test_missing_pair_listed(self):
        records = [
            fake_record("vfdt", "s1", 0.05, 1, 0.8, 100),
            fake_record("svfdt-i", "s1", 0.05, 1, 0.8, 50),
            fake_record("vfdt", "s2", 0.05, 1, 0.8, 100),
        ]
        with pytest.raises(PairingError, match="s2"):
            relative_metrics(records)

    def test_candidate_on_a_stream_without_baseline_runs_listed(self):
        records = [
            fake_record("vfdt", "s1", 0.05, 1, 0.8, 100),
            fake_record("svfdt-i", "s1", 0.05, 1, 0.8, 50),
            fake_record("svfdt-i", "s2", 0.05, 1, 0.8, 50),
        ]
        with pytest.raises(PairingError, match="svfdt-i/s2/tau=0.05/seed=1/rep=1"):
            relative_metrics(records)

    def test_missing_baseline_rejected(self):
        records = [fake_record("svfdt-i", "s1", 0.05, 1, 0.8, 50)]
        with pytest.raises(PairingError, match="vfdt"):
            relative_metrics(records)


class TestExportCurves:
    def test_rows_match_snapshots(self, tmp_path):
        rec = fake_record("vfdt", "s1", 0.05, 1, 0.8, 9)
        rec["snapshots"] = [[100, 0.5, 0.1, 3, 2, 0.1], [200, 0.6, 0.2, 5, 3, 0.2],
                            [250, 0.7, 0.3, 5, 3, 0.3]]
        (path,) = export_curves([rec], tmp_path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "instances_seen,accuracy,node_count"
        assert len(lines) == 4
        seen, acc, nodes = lines[1].split(",")
        assert int(seen) == 100 and float(acc) == 0.5 and int(nodes) == 3
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert counts == sorted(counts)


class TestCli:
    def test_run_and_curves_and_relative(self, tmp_path, capsys):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--output-dir", str(out)]) == 0
        results = out / "results.jsonl"
        assert main(["relative", "--results", str(results),
                     "--output", str(tmp_path / "rel.csv")]) == 0
        rel_lines = (tmp_path / "rel.csv").read_text().strip().splitlines()
        assert rel_lines[0].startswith("tiebreak,algorithm")
        assert len(rel_lines) == 3  # header + two candidate algorithms
        assert main(["curves", "--results", str(results),
                     "--output-dir", str(tmp_path / "curves")]) == 0
        assert len(list((tmp_path / "curves").glob("curve__*.csv"))) == 3

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_config_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE_CONFIG, algorithms=["nope"]))
        assert main(["run", "--config", str(path)]) == 1
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        dict(BASE_CONFIG, tiebreaks=["a"]),
        dict(BASE_CONFIG, tiebreaks=[]),
        dict(BASE_CONFIG, grace_period="200"),
        dict(BASE_CONFIG, grace_period=True),
        dict(BASE_CONFIG, seeds=3),
        dict(BASE_CONFIG, streams={"type": "sea"}),
        dict(BASE_CONFIG, streams=["sea"]),
        [1, 2],
    ], ids=["tiebreak-str", "no-tiebreak", "grace-str", "grace-bool", "seeds-int",
            "streams-object", "stream-str", "top-level-list"])
    def test_config_value_of_the_wrong_json_type_is_config_error(self, tmp_path, capsys,
                                                                 payload):
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("stream, message", [
        ({"type": "sea", "n": 100, "block_size": 2.5}, "block_size must be a whole number"),
        ({"type": "led", "n": 100.5}, "n must be a whole number"),
        ({"type": "led", "n": True}, "n must be a whole number"),
        ({"type": "led", "n": 100, "irrelevant": -1}, "irrelevant must be a whole number"),
        ({"type": "led", "n": 100, "noise": math.nan}, "noise must be a finite real number"),
        ({"type": "sea", "n": 100, "thresholds": [math.nan]}, "thresholds must be a finite"),
        ({"type": "sea", "n": 100, "thresholds": [8, math.inf]}, "thresholds must be a finite"),
        ({"type": "rbf", "n": 100, "deviation_range": [0, math.inf]},
         "deviation_range must be a finite real number"),
        ({"type": "rbf", "n": 100, "n_classes": 2.0}, "n_classes must be a whole number"),
        ({"type": "rbf", "n": 100, "deviation_range": [1]}, "not enough values to unpack"),
        ({"type": "csv", "path": "data.csv", "classes": ["p", "q"],
          "columns": [{"name": "c", "kind": "nominal", "values": ["a", "a"]}]},
         "nominal column 'c' declares 'a' twice"),
        ({"type": "csv", "path": "data.csv", "classes": ["p", "p"],
          "columns": [{"name": "c", "kind": "nominal", "values": ["a", "b"]}]},
         "class_names declare 'p' twice"),
    ], ids=["sea-block-float", "led-n-float", "led-n-bool", "led-irrelevant-negative",
            "led-noise-nan", "sea-threshold-nan", "sea-threshold-inf", "rbf-deviation-inf",
            "rbf-classes-float", "rbf-deviation-short", "csv-value-twice", "csv-class-twice"])
    def test_bad_stream_parameter_is_config_error_before_any_cell_runs(self, tmp_path, capsys,
                                                                        stream, message):
        # json writes NaN and Infinity, and reads them back as floats.
        payload = dict(BASE_CONFIG, streams=[*BASE_CONFIG["streams"], {"name": "bad", **stream}])
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stream 'bad': ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("tiebreak", [math.nan, math.inf, -0.1])
    def test_tiebreak_that_is_not_finite_and_non_negative_is_config_error(self, tmp_path, capsys,
                                                                          tiebreak):
        # Every tiebreak is checked, not only the first.
        path = write_config(tmp_path, dict(BASE_CONFIG, tiebreaks=[0.05, tiebreak]))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tiebreak" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("every", [0, -1])
    def test_snapshot_every_below_one_is_config_error(self, tmp_path, capsys, every):
        path = write_config(tmp_path, dict(BASE_CONFIG, snapshot_every=every))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "snapshot_every" in err and "Traceback" not in err
        assert not out.exists()

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1

    def test_missing_csv_stream_file_is_io_error(self, tmp_path, capsys):
        payload = dict(
            BASE_CONFIG,
            streams=[{
                "name": "file", "type": "csv", "path": str(tmp_path / "absent.csv"),
                "columns": [{"name": "x", "kind": "numeric"}],
                "classes": ["a", "b"],
            }],
        )
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path)]) == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_non_finite_csv_cell_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n0.5,a\n0.25,b\nnan,a\n", encoding="utf-8")
        payload = dict(
            BASE_CONFIG,
            streams=[{
                "name": "file", "type": "csv", "path": str(data), "header": True,
                "columns": [{"name": "x1", "kind": "numeric"}],
                "classes": ["a", "b"],
            }],
        )
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "row 4" in err and "'x1'" in err

    def test_non_finite_csv_cell_is_data_error_on_worker_processes(self, tmp_path, capsys):
        # Two seeds make two tasks, so the error is raised in a worker
        # process and has to reach this one through a pickle.
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n0.5,a\n0.25,b\n0.75,a\nnan,b\n", encoding="utf-8")
        payload = dict(
            BASE_CONFIG,
            seeds=[1, 2],
            streams=[{
                "name": "file", "type": "csv", "path": str(data), "header": True,
                "columns": [{"name": "x1", "kind": "numeric"}],
                "classes": ["a", "b"],
            }],
        )
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out"),
                     "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "row 5" in err and "'x1'" in err and "Traceback" not in err

    def test_stream_filter_unknown_name(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", "--config", str(path), "--streams", "mystery"]) == 1

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output-dir", str(out),
                     "--seed", "7", "--algorithms", "vfdt"]) == 0
        records = load_records(out / "results.jsonl")
        assert [r["seed"] for r in records] == [7]

    def test_workers_default_to_the_config(self, tmp_path):
        from streamtree.experiment import _apply_overrides, build_parser

        config = ExperimentConfig.from_dict(dict(BASE_CONFIG, workers=3))
        path = str(write_config(tmp_path, BASE_CONFIG))
        args = build_parser().parse_args(["run", "--config", path])
        assert _apply_overrides(config, args).workers == 3
        args = build_parser().parse_args(["run", "--config", path, "--workers", "2"])
        assert _apply_overrides(config, args).workers == 2
