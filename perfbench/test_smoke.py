"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {
    "end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_fails_nothing(workload):
    plain = run.measure(workload, 7, 0, 0, small=True)
    traced = run.measure(workload, 7, 0, 1, small=True)
    for report, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert report["failed"] == 0, report["errors"]
        assert report["attempted"] > 0
        got = {name: unit for name, (_, unit) in report["metrics"].items()}
        assert got == UNITS[kind]
    for name, (value, _) in plain["metrics"].items():
        assert value > 0, name
    # one untraced pass, then an untraced and a traced one
    assert len(traced["verdicts"]) == 2
    assert traced["verdicts"][0] == traced["verdicts"][1] == plain["verdicts"][0]
    assert None not in plain["verdicts"][0]


def test_command_line_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "random",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(out.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    for name, unit in UNITS["end_to_end"].items():
        assert doc["metrics"][name]["unit"] == unit


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
