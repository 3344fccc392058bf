"""Smoke test of the end-to-end benchmark (under a minute).

``run.py --smoke`` runs every workload on one small input (three
requests for the service), untraced and traced.  Run it with pytest's
conftest search stopped at this directory, so the ``benchmarks/``
conftest does not rewrite its timing results::

    python -m pytest --confcutdir=benchmarks/e2e benchmarks/e2e
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_PY = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _smoke(out_dir: str, traced: bool):
    argv = [sys.executable, RUN_PY, "--smoke", "--out", out_dir]
    if traced:
        argv.append("--traced")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    records = {}
    for workload in WORKLOADS:
        with open(os.path.join(_run_dir(out_dir, workload, traced), "record.json"), encoding="utf-8") as handle:
            records[workload] = json.load(handle)
    return dict(zip(WORKLOADS, lines)), records, done.stdout


def _run_dir(out_dir: str, workload: str, traced: bool) -> str:
    return os.path.join(out_dir, workload, "s0-r0" + ("-traced" if traced else ""))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("e2e"))


@pytest.fixture(scope="module")
def runs(out_dir):
    return {traced: _smoke(out_dir, traced) for traced in (False, True)}


@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_printed_with_unit(runs, traced):
    lines, _records, stdout = runs[traced]
    wanted = BENCHMARK["per_layer" if traced else "end_to_end"]
    for workload in WORKLOADS:
        line = lines[workload]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for metric in wanted:
            got = line["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (workload, metric["name"])
            assert isinstance(got["value"], (int, float))
    if not traced:
        for metric in wanted:
            assert f": {metric['name']} = " in stdout


@pytest.mark.parametrize("traced", [False, True])
def test_goldens_pass(runs, traced):
    lines, records, _stdout = runs[traced]
    for workload in WORKLOADS:
        assert lines[workload]["correct"], records[workload]["failures"]
        assert lines[workload]["failed"] == 0
        assert lines[workload]["attempted"] >= 2


def test_traced_and_untraced_outputs_agree(runs):
    untraced, traced = runs[False][1], runs[True][1]
    for workload in WORKLOADS:
        assert traced[workload]["outputs"] == untraced[workload]["outputs"], workload
    flat = untraced["corpus-flat"]["outputs"]
    for workload in ("corpus-jobs2", "corpus-guarded"):
        assert untraced[workload]["outputs"] == flat


def test_layers_add_up_to_traced_wall(runs, out_dir):
    for workload in WORKLOADS:
        path = os.path.join(_run_dir(out_dir, workload, True), "layers.json")
        with open(path, encoding="utf-8") as handle:
            layers = json.load(handle)
        self_s = sum(layer["self_s"] for layer in layers["layers"].values())
        total = self_s + layers["metrics"]["unattributed_s"]
        assert abs(total - layers["traced_wall_s"]) < 1e-3, workload
        assert layers["metrics"]["unattributed_s"] < 0.1 * layers["traced_wall_s"], workload


def test_held_out_corpus_seed_checked_across_paths(tmp_path):
    argv = [sys.executable, RUN_PY, "--smoke", "--corpus-seed", "7", "--out", str(tmp_path)]
    for workload in ("corpus-flat", "corpus-guarded"):
        argv += ["--workload", workload]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    outputs = []
    for workload in ("corpus-flat", "corpus-guarded"):
        with open(os.path.join(tmp_path, workload, "s0-r0", "record.json"), encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["correct"] and record["failed"] == 0, record["failures"]
        outputs.append(record["outputs"])
    assert outputs[0] == outputs[1]
    assert all(key.startswith("fuzz:7:") for key in outputs[0])
