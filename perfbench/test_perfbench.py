"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)  # the benchmark's workloads and the hand-run gf3-w6k3

# Figures printed only by the workloads they apply to.
SPECIFIC = {
    "certify-w8k4": {"build_s": "s", "verify_s": "s"},
    "decode-w8k4": {"sim_trials_per_s": "1/s", "decode_ms_p50": "ms", "decode_ms_p90": "ms"},
    "gf3-w6k3": {
        "build_s": "s",
        "verify_s": "s",
        "sim_trials_per_s": "1/s",
        "decode_ms_p50": "ms",
        "decode_ms_p90": "ms",
    },
    "index-g2": {"index_roundtrips_per_s": "1/s", "index_us_p50": "us", "index_us_p99": "us"},
}


def run_cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "0.3", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=cwd)


def test_spec_names_what_the_benchmark_measures():
    assert {w["name"] for w in SPEC["workloads"]} == set(NAMES) - {"gf3-w6k3"}
    assert set(NAMES) == set(workloads.TINY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_cli(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        expected |= SPECIFIC[workload] | {"wall_s": "s", "error_ratio": "ratio"}
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit} (" in line for line in lines), name
    assert any(line.startswith("env: ") and '"kernels_compiled"' in line for line in lines)


def _wrong_certified_distance(plan, monkeypatch):
    first = plan.certify[0]
    return replace(plan, certify=(replace(first, d=first.d + 2), *plan.certify[1:]))


def _wrong_decode_code_size(plan, monkeypatch):
    return replace(plan, decode=replace(plan.decode, size=plan.decode.size + 1))


def _wrong_gf3_code_size(plan, monkeypatch):
    bad = replace(plan.decode, size=plan.decode.size + 1)
    return replace(plan, certify=(bad,), decode=bad)


def _wrong_index_bit_length(plan, monkeypatch):
    monkeypatch.setitem(workloads.INDEX_EXTRA_BITS, "full", 3)
    return plan


@pytest.mark.parametrize(
    "workload, tamper",
    [
        ("certify-w8k4", _wrong_certified_distance),
        ("decode-w8k4", _wrong_decode_code_size),
        ("gf3-w6k3", _wrong_gf3_code_size),
        ("index-g2", _wrong_index_bit_length),
    ],
)
def test_a_failed_check_raises_the_error_ratio(workload, tamper, monkeypatch, tmp_path):
    plan = tamper(workloads.TINY[workload], monkeypatch)
    result = workloads.run(plan, seed=3, seconds=0.2, trace=False, out_dir=str(tmp_path))
    ratio = {row[0]: row[1] for row in result.report(result.setup_s, 1)}["error_ratio"]
    assert result.failed > 0 and ratio > 0 and result.errors


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli(tmp_path, "certify-w8k4", 0)
    assert proc.returncode != 0
    assert "error:" in proc.stderr
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
