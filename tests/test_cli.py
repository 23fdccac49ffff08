"""Tests for the ``pytorchalfi`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_imgclass_defaults(self):
        args = build_parser().parse_args(["run-imgclass"])
        assert args.model == "lenet5"
        assert args.target == "weights"
        assert tuple(args.bit_range) == (23, 30)
        assert args.inj_policy == "per_image"

    def test_run_objdet_defaults(self):
        args = build_parser().parse_args(["run-objdet"])
        assert args.model == "yolov3"
        assert args.num_classes == 5

    def test_batch_size_and_workers_accepted_by_both_subcommands(self):
        for command in ("run-imgclass", "run-objdet"):
            args = build_parser().parse_args([command, "--batch-size", "4", "--workers", "3"])
            assert args.batch_size == 4
            assert args.workers == 3
            defaults = build_parser().parse_args([command])
            assert defaults.batch_size is None
            assert defaults.workers == 1

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-imgclass", "--model", "gpt5"])

    def test_analyze_requires_campaign(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--output-dir", "x"])

    def test_fault_file_is_path_or_none(self):
        from pathlib import Path

        defaults = build_parser().parse_args(["run-imgclass"])
        assert defaults.fault_file is None
        args = build_parser().parse_args(["run-imgclass", "--fault-file", "faults.npz"])
        assert args.fault_file == Path("faults.npz")
        assert isinstance(args.fault_file, Path)
        # An explicit empty value (unset shell variable) means "not given".
        empty = build_parser().parse_args(["run-imgclass", "--fault-file", ""])
        assert empty.fault_file is None

    def test_scenario_file_fault_file_survives_without_cli_override(self, tmp_path):
        from pathlib import Path

        from repro.alficore import default_scenario, save_scenario
        from repro.cli import _built_spec

        scenario_path = tmp_path / "replay.yml"
        save_scenario(default_scenario(fault_file="stored_faults.npz"), scenario_path)
        args = build_parser().parse_args(["run-imgclass", "--scenario", str(scenario_path)])
        assert _built_spec(args).scenario.fault_file == Path("stored_faults.npz")
        args = build_parser().parse_args(
            ["run-imgclass", "--scenario", str(scenario_path), "--fault-file", "other.npz"]
        )
        assert _built_spec(args).scenario.fault_file == Path("other.npz")


class TestSpecCommands:
    def _write_spec(self, tmp_path, **overrides):
        from repro.experiments import Experiment

        builder = (
            Experiment.builder()
            .name("cli-spec")
            .model("lenet5", num_classes=10, seed=0)
            .dataset("synthetic-classification", num_samples=6, num_classes=10,
                     noise=0.25, seed=1)
            .scenario(injection_target="weights", rnd_bit_range=(23, 30),
                      random_seed=3, model_name="lenet5", dataset_size=6)
        )
        spec = builder.build().copy(**overrides)
        return spec.save(tmp_path / "spec.yml")

    def test_run_spec_end_to_end(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        exit_code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "lenet5" in captured
        assert "SDE" in captured
        assert (tmp_path / "out" / "lenet5_corrupted_results.csv").exists()

    def test_run_missing_spec_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yml")]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_serial_spec_with_workers_fails_cleanly(self, tmp_path, capsys):
        import yaml

        path = self._write_spec(tmp_path)
        data = yaml.safe_load(path.read_text())
        data["backend"] = {"name": "serial", "workers": 2}
        path.write_text(yaml.safe_dump(data))
        assert main(["validate", str(path)]) == 1
        assert "serial" in capsys.readouterr().out
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_spec_with_a_mistyped_scenario_value_fails_cleanly(self, tmp_path, capsys):
        import yaml

        path = self._write_spec(tmp_path)
        data = yaml.safe_load(path.read_text())
        data["scenario"]["rnd_bit_range"] = [23]
        path.write_text(yaml.safe_dump(data))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: scenario.rnd_bit_range must be")

    def test_run_spec_with_unknown_model_fails_with_suggestion(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        import yaml

        data = yaml.safe_load(path.read_text())
        data["model"]["name"] = "lenet"
        path.write_text(yaml.safe_dump(data))
        assert main(["run", str(path)]) == 1
        assert "did you mean" in capsys.readouterr().err

    def test_validate_reports_ok_and_failures(self, tmp_path, capsys):
        good = self._write_spec(tmp_path)
        bad = tmp_path / "bad.yml"
        bad.write_text("schema_version: 1\nwarp_drive: true\n")
        assert main(["validate", str(good)]) == 0
        assert "ok" in capsys.readouterr().out
        assert main(["validate", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "warp_drive" in out

    def test_malformed_yaml_reports_the_same_error_everywhere(self, tmp_path, capsys):
        path = tmp_path / "torn.yml"
        path.write_text("model: {name: lenet5\nscenario: [unclosed\n")
        lines = {}
        for command in ("run", "sweep"):
            assert main([command, str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines[command] = captured.err.strip()
        assert main(["validate", str(path)]) == 1
        lines["validate"] = capsys.readouterr().out.strip()
        assert lines["run"].startswith("error: while parsing a flow mapping")
        assert lines["sweep"] == lines["run"]
        assert lines["validate"] == lines["run"].replace("error: ", f"FAIL  {path}: ", 1)

    def test_checked_in_example_specs_validate(self, capsys):
        from pathlib import Path

        specs_dir = Path(__file__).resolve().parents[1] / "examples" / "specs"
        specs = sorted(str(p) for p in specs_dir.glob("*.yml"))
        assert specs, "no example spec files checked in"
        assert main(["validate", *specs]) == 0

    def test_invalid_spec_is_not_persisted_by_save_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "invalid.yml"
        exit_code = main(
            [
                "run-imgclass", "--model", "lenet5", "--images", "4",
                "--golden-cache", "-1",
                "--output-dir", str(tmp_path / "out"),
                "--save-spec", str(spec_path),
            ]
        )
        assert exit_code == 1
        assert "error" in capsys.readouterr().err
        assert not spec_path.exists()

    def test_null_schema_version_fails_cleanly(self, tmp_path, capsys):
        import yaml

        path = self._write_spec(tmp_path)
        data = yaml.safe_load(path.read_text())
        data["schema_version"] = None
        path.write_text(yaml.safe_dump(data))
        assert main(["validate", str(path)]) == 0  # null means "current"
        capsys.readouterr()
        data["schema_version"] = "latest"
        path.write_text(yaml.safe_dump(data))
        assert main(["validate", str(path)]) == 1
        assert "schema_version" in capsys.readouterr().out

    def test_save_spec_round_trips_through_run(self, tmp_path, capsys):
        spec_path = tmp_path / "saved.yml"
        exit_code = main(
            [
                "run-imgclass", "--model", "lenet5", "--images", "6",
                "--output-dir", str(tmp_path / "first"),
                "--save-spec", str(spec_path),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        assert spec_path.exists()
        exit_code = main(["run", str(spec_path), "--output-dir", str(tmp_path / "second")])
        assert exit_code == 0
        first = (tmp_path / "first" / "lenet5_corrupted_results.csv").read_bytes()
        second = (tmp_path / "second" / "lenet5_corrupted_results.csv").read_bytes()
        assert first == second


class TestImgClassCommand:
    def test_end_to_end_run_and_analyze(self, tmp_path, capsys):
        output_dir = tmp_path / "campaign"
        exit_code = main(
            [
                "run-imgclass",
                "--model",
                "lenet5",
                "--images",
                "8",
                "--num-faults",
                "1",
                "--target",
                "weights",
                "--bit-range",
                "23",
                "30",
                "--output-dir",
                str(output_dir),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "lenet5" in captured
        assert "SDE" in captured
        assert (output_dir / "lenet5_scenario.yml").exists()
        assert (output_dir / "lenet5_corrupted_results.csv").exists()

        json_out = tmp_path / "analysis.json"
        exit_code = main(
            [
                "analyze",
                "--output-dir",
                str(output_dir),
                "--campaign",
                "lenet5",
                "--kind",
                "imgclass",
                "--json-out",
                str(json_out),
            ]
        )
        assert exit_code == 0
        analysis = json.loads(json_out.read_text())
        assert analysis["num_inferences"] == 8
        assert 0.0 <= analysis["sde_rate"] <= 1.0

    def test_batch_size_reaches_the_scenario(self, tmp_path, capsys):
        output_dir = tmp_path / "batched"
        exit_code = main(
            [
                "run-imgclass",
                "--model",
                "lenet5",
                "--images",
                "8",
                "--inj-policy",
                "per_batch",
                "--batch-size",
                "4",
                "--workers",
                "2",
                "--output-dir",
                str(output_dir),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        import yaml

        meta = yaml.safe_load((output_dir / "lenet5_scenario.yml").read_text())
        assert meta["scenario"]["batch_size"] == 4
        assert meta["scenario"]["inj_policy"] == "per_batch"

    def test_run_with_protection(self, tmp_path, capsys):
        exit_code = main(
            [
                "run-imgclass",
                "--model",
                "mlp",
                "--images",
                "6",
                "--protection",
                "ranger",
                "--output-dir",
                str(tmp_path / "protected"),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "resil (ranger)" in captured


class TestObjDetCommand:
    def test_end_to_end_run(self, tmp_path, capsys):
        output_dir = tmp_path / "det"
        exit_code = main(
            [
                "run-objdet",
                "--model",
                "yolov3",
                "--images",
                "4",
                "--output-dir",
                str(output_dir),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "IVMOD_SDE" in captured
        assert (output_dir / "yolov3_ground_truth.json").exists()

        exit_code = main(
            [
                "analyze",
                "--output-dir",
                str(output_dir),
                "--campaign",
                "yolov3",
                "--kind",
                "objdet",
            ]
        )
        assert exit_code == 0


class TestSweepCommand:
    def _write_sweep_spec(self, tmp_path, store=None):
        from repro.experiments import Experiment

        builder = (
            Experiment.builder()
            .name("cli-sweep")
            .model("lenet5", num_classes=10, seed=0)
            .dataset("synthetic-classification", num_samples=6, num_classes=10,
                     noise=0.25, seed=1)
            .scenario(injection_target="weights", rnd_bit_range=(23, 30),
                      random_seed=3, model_name="lenet5", dataset_size=6)
            .sweep(axes={"scenario.layer_range": [[0, 0], [1, 1]]}, store=store)
        )
        return builder.build().save(tmp_path / "sweep.yml")

    def test_dry_run_lists_points_without_executing(self, tmp_path, capsys):
        path = self._write_sweep_spec(tmp_path, store=tmp_path / "store")
        assert main(["sweep", str(path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert out.count("pending") == 2
        assert not (tmp_path / "store").exists()  # dry run touches nothing

    def test_end_to_end_skip_on_second_invocation(self, tmp_path, capsys):
        path = self._write_sweep_spec(tmp_path, store=tmp_path / "store")
        assert main(["sweep", str(path)]) == 0
        out = capsys.readouterr().out
        assert "executed=2" in out and "cached=0" in out
        assert (tmp_path / "store" / "cli-sweep_sweep_table.csv").exists()
        # Two points over six images, one group: one golden pass and one
        # lookup per image.
        assert "golden cache: hits=0 misses=6 entries=6 mib=" in out
        assert " rejoined=" in out.split("golden cache:")[1].splitlines()[0]
        # Cache counters describe one invocation; they reach stdout only.
        for file in (tmp_path / "store").rglob("*"):
            if file.is_file() and file.parent.name != "golden":
                assert b"misses" not in file.read_bytes(), file

        assert main(["sweep", str(path)]) == 0
        out = capsys.readouterr().out
        assert "executed=0" in out and "cached=2" in out
        assert "golden cache: hits=0 misses=0 entries=0 mib=0.0 rejoined=0" in out

    def test_shard_workers_report_where_they_shared_the_cache(self, tmp_path, capsys):
        path = self._write_sweep_spec(tmp_path, store=tmp_path / "store")
        assert main(["sweep", str(path), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "executed=2" in out
        golden = tmp_path / "store" / "golden"
        assert (
            f"golden cache: shared by the shard workers through {golden}; "
            "their counts are not collected" in out
        )
        assert "hits=" not in out  # the invoking process's cache saw none of it
        assert len(list(golden.iterdir())) == 6  # one spilled golden pass per image

    def test_store_flag_overrides_spec(self, tmp_path, capsys):
        path = self._write_sweep_spec(tmp_path, store=tmp_path / "declared")
        assert main(["sweep", str(path), "--store", str(tmp_path / "flag")]) == 0
        capsys.readouterr()
        assert (tmp_path / "flag").is_dir()
        assert not (tmp_path / "declared").exists()

    def test_sweep_without_section_fails_cleanly(self, tmp_path, capsys):
        from repro.experiments import Experiment

        spec = (
            Experiment.builder()
            .name("plain")
            .scenario(model_name="lenet5")
            .build()
        )
        path = spec.save(tmp_path / "plain.yml")
        assert main(["sweep", str(path)]) == 1
        assert "error: " in (err := capsys.readouterr().err) and "no sweep: section" in err

    def test_sweep_without_store_fails_cleanly(self, tmp_path, capsys):
        path = self._write_sweep_spec(tmp_path, store=None)
        assert main(["sweep", str(path)]) == 1
        assert "error: no campaign store" in capsys.readouterr().err

    def test_run_redirects_sweep_specs(self, tmp_path, capsys):
        path = self._write_sweep_spec(tmp_path, store=tmp_path / "store")
        assert main(["run", str(path)]) == 1
        assert "pytorchalfi sweep" in capsys.readouterr().err
