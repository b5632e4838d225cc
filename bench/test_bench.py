"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_spec_names_units_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_declared_metric(workload, trace):
    result, lines = _result(run("--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", str(trace), "--size", "tiny"))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert result["failed"] == 0


def test_defect_probe_runs_and_is_reported():
    result, lines = _result(run("--workload", "guard-stream", "--seed", "3", "--seconds", "1",
                                "--trace", "0", "--size", "tiny"))
    extra = json.loads(next(l for l in lines if l.startswith("# extra "))[8:])
    assert result["correct"] and extra["probed"] == 60
    for cause, n in extra["known_defects"].items():
        assert 0 < n <= 60 and any(l.startswith(f"  shown {cause}: {n} ") for l in lines)


def test_digest_depends_on_seed_not_on_run_length():
    digests = []
    for seed, seconds in (("5", "1"), ("5", "3"), ("6", "1")):
        _, lines = _result(run("--workload", "verify-capacity", "--seed", seed, "--seconds", seconds,
                               "--trace", "0", "--size", "tiny"))
        extra = json.loads(next(l for l in lines if l.startswith("# extra "))[8:])
        digests.append(extra["digest"]["verdicts"])
    assert digests[0] == digests[1] != digests[2]


def test_planted_wrong_answers_are_caught():
    proc = run("--self-test")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "MISSED" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
