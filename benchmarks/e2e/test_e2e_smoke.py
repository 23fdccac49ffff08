"""Tier-1 smoke of the end-to-end benchmark: the real command at a quarter of every size."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from .harness import END_TO_END, ROOT, failed_ops
from .spans import UNITS
from .workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_names_what_the_harness_emits():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert contract["paths"] == ["benchmarks/e2e"]
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    } == END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == UNITS
    for name in [*WORKLOADS, *END_TO_END, *UNITS]:
        assert NAME.fullmatch(name), name


def test_smoke_run_emits_every_metric_and_matches_the_oracle(tmp_path):
    # Two commands side by side, two workloads each, to stay within tier-1's time.
    names = list(WORKLOADS)
    halves = {"a": names[:2], "b": names[2:]}
    started = {
        half: subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--out", str(tmp_path / half)]
            + [argument for name in chosen for argument in ("--workload", name)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for half, chosen in halves.items()
    }
    for half, process in started.items():
        stdout, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr[-4000:]
        out = tmp_path / half
        (run_file,) = out.glob("run-*.json")
        document = json.loads(run_file.read_text(encoding="utf-8"))
        assert list(document["workloads"]) == halves[half]
        for name, report in document["workloads"].items():
            assert list(report["end_to_end"]) == list(END_TO_END)
            assert list(report["per_layer"]) == list(UNITS)
            for metric, stats in {**report["end_to_end"], **report["per_layer"]}.items():
                assert f"  {metric} " in stdout, metric
                unit = END_TO_END[metric][0] if metric in END_TO_END else UNITS[metric]
                assert stats["unit"] == unit
            assert all(stats["value"] > 0 for stats in report["end_to_end"].values())
            # one timed repeat, then one untraced and one traced
            assert report["attempted"] == 3 * report["ops"] > 0
            assert report["failed"] == 0 and report["failed_share"] == 0
            assert report["per_layer"]["trace.unhit"]["value"] == 0
            assert (out / f"{name}.spans.jsonl").stat().st_size > 0
        assert len((out / "history.jsonl").read_text(encoding="utf-8").splitlines()) == 1
        assert not list(out.glob("scratch-*"))


def test_one_corrupted_byte_fails_the_oracle_check(tmp_path, monkeypatch):
    from .phases import digest_files, output_files, run_once

    # run_once points these into its work directory; put them back afterwards.
    for variable in ("HOME", "XDG_CACHE_HOME", "TMPDIR"):
        monkeypatch.setenv(variable, str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    workload = WORKLOADS["cls_weights_cached"]
    images = 3
    repeat, result = run_once(workload.name, images, 0, tmp_path / "fast")
    reference, _ = run_once(workload.name, images, 0, tmp_path / "naive", oracle=True)
    ops = workload.ops(images)
    assert repeat["records"] == ops
    assert failed_ops(repeat, reference, ops) == 0
    files = output_files(result)
    record_file = Path(files["corrupted_csv"])
    content = bytearray(record_file.read_bytes())
    content[len(content) // 2] ^= 0x01
    record_file.write_bytes(bytes(content))
    corrupted = {"records": repeat["records"], "digests": digest_files(files)}
    assert failed_ops(corrupted, reference, ops) == ops
