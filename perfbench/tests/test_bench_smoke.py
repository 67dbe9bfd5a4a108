"""Tiny runs of every workload print every metric BENCHMARK.json names, with its unit.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "small_corpus": {"max_gates": 12},
    "grid_route": {"gates": 80},
    "wide_roundtrip": {"statements": 150},
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace, tmp_path, monkeypatch, capsys):
    workload = WORKLOADS[name]
    tiny = dataclasses.replace(workload, quality_set=2, params=dict(workload.params, **TINY[name]))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    args = argparse.Namespace(seed=1, seconds=0, trace=trace)

    assert run.measure(args, tiny, str(tmp_path)) == 0

    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = dict(re.fullmatch(r"metric (\S+) = \S+ (\S+)", line).groups() for line in lines[:-1])
    assert expected.items() <= printed.items()
    if trace:
        assert (tmp_path / "out" / f"trace_{name}.json").exists()
    else:
        assert "fail_ratio" in printed and "compile_samples" in printed


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "small_corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
