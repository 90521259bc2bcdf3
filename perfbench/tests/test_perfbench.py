"""Tests of the benchmark itself, on tiny inputs that run in seconds."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import campaign, run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(monkeypatch, capsys, tmp_path, workload: str, trace: int) -> tuple[int, dict, str]:
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
        "--tiny", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_checks_outputs_and_reports_every_layer(monkeypatch, capsys, tmp_path, workload):
    code, result, _ = bench(monkeypatch, capsys, tmp_path, workload, trace=1)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    own = [name for name in result["metrics"] if name.startswith(f"{workload}.")]
    assert own and any(result["metrics"][name]["value"] for name in own)
    report = json.loads((tmp_path / f"{workload}-seed3-trace1-tiny.json").read_text())
    assert report["spans"] and report["per_layer"]["self_s"]
    assert report["stamp"]["repeats"] >= 1 and len(report["stamp"]["workload_digest"]) == 64


def test_untraced_run_prints_every_end_to_end_metric(monkeypatch, capsys, tmp_path):
    code, result, out = bench(monkeypatch, capsys, tmp_path, "fleet", trace=0)
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    for metric in DECLARED["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
        assert metric["name"] in out


def test_a_wrong_reference_answer_counts_one_failed_op(monkeypatch, capsys, tmp_path):
    real = campaign.lazy_reference
    calls = []

    def wrong_once(analyzer, data):
        table, final = real(analyzer, data)
        calls.append(1)
        if len(calls) == 1:
            table = None  # a wrong answer: unequal to any score table
        return table, final

    monkeypatch.setattr(campaign, "lazy_reference", wrong_once)
    code, result, out = bench(monkeypatch, capsys, tmp_path, "campaign", trace=0)
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] % 4 == 0 and result["attempted"] >= 4
    assert "lazily evaluated reference" in out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_the_seed_alone_decides_the_inputs(workload):
    module = importlib.import_module(f"perfbench.{workload}")
    first, again, other = (module.setup(seed, tiny=True)["params"] for seed in (1, 1, 2))
    assert first == again and first != other


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
