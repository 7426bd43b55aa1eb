"""Tests of the benchmark itself, run from the repository root:

    python3 -m pytest perfbench

The counter test makes two traced passes of each workload (about a
minute and a half on two cores).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as R
import workload as W

with open(os.path.join(R.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(R.HERE, "layers.json")) as f:
    LAYERS = json.load(f)


def traced_pass(name, seed):
    record = R.launch(name, seed, R.clock() + 170, "--trace")
    assert not record["failed"], record["failures"]
    return record["per_layer"]


def test_layer_map_names_the_benchmark_metrics():
    per_layer = [spec["name"] for spec in BENCH["per_layer"]]
    mapped = [m for layer in LAYERS["layers"].values() for m in layer["metrics"]]
    assert sorted(per_layer) == sorted(mapped)
    assert set(LAYERS["deterministic"]) <= set(per_layer)
    assert sorted(LAYERS["workloads"]) == sorted(w["name"] for w in BENCH["workloads"])


# the layers each workload was chosen to load
DOMINANT = {"exchange": ("rvertex", "scalar"), "grid": ("scalar", "lattice"),
            "crystal": ("crystal",)}


@pytest.mark.parametrize("name", R.WORKLOADS)
def test_deterministic_counters_repeat_exactly(name):
    first = traced_pass(name, 5)
    second = traced_pass(name, 5)
    emitted = set(first) | {"trace.time_to_verdict_s", "trace.overhead_s"}
    assert {spec["name"] for spec in BENCH["per_layer"]} <= emitted
    for metric in LAYERS["deterministic"]:
        assert first[metric] == second[metric], metric
    layers = [layer for layer in LAYERS["layers"] if layer != "trace"]
    total = sum(first[layer + ".self_s"] for layer in layers)
    assert sum(first[layer + ".self_s"] for layer in DOMINANT[name]) > total / 2


def test_seed_reaches_every_modular_leg(monkeypatch):
    argvs, seeds = [], []

    def fake_main(argv):
        argvs.append(argv)
        print("[]")
        return 0

    def fake_ybe(nq, seed):
        seeds.append(seed)
        return {"ok": True}

    monkeypatch.setattr(W.cli, "main", fake_main)
    monkeypatch.setattr(W.QG, "check_graded_ybe", fake_ybe)
    for _name, step in W.exchange(7):
        step(W.Gate({}))
    modular = [argv for argv in argvs if "modular" in argv]
    assert [argv[1] for argv in modular] == ["rrr", "unitarity"]
    for argv in modular:
        assert argv[argv.index("--seed") + 1] == "7"
    assert seeds == [7, 7]


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_legs_pass(seed):
    gate = W.Gate(W.EXPECTED)
    for name, step in W.exchange(seed):
        if "modular" in name or "ybe" in name:
            step(gate)
    assert gate.attempted > 0 and not gate.failures


def test_gate_counts_wrong_results():
    step = dict(W.exchange(1))["exchange twist"]
    good = W.Gate(W.EXPECTED)
    step(good)
    assert good.attempted > 1 and not good.failures
    bad = W.Gate(dict(W.EXPECTED, **{"exchange twist": "0" * 64}))
    step(bad)
    assert bad.attempted == good.attempted
    assert len(bad.failures) == 1 and bad.failures[0].startswith("digest exchange twist")


def test_result_line_follows_the_contract():
    proc = subprocess.run([sys.executable, os.path.join(R.HERE, "run.py"),
                           "--workload", "grid", "--seed", "3", "--seconds", "1"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(s["name"] for s in BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = [json.loads(line)["env"] for line in lines if line.startswith('{"env"')]
    assert env and {"nproc", "python", "platform", "commit"} <= set(env[0])


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(R.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(R.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
