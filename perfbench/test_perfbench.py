"""Tests of the benchmark itself, on a tiny config (criterion 10's, n=100).

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from run import (END_TO_END_UNITS, LAYER_COUNTS, PER_LAYER_UNITS,
                 artifact_digest, layer_values)
from tracer import STAGES
from workloads import WORKLOADS, check_structure, draws_consumed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY = {
    "problem": {"kind": "linear-static-experiment", "n": 100,
                "snapshot_count": 20, "sensor_count": 9},
    "pod": {"k": 3},
    "training": {"mc_samples": 60},
    "ensemble": {"count": 80, "level": 0.95, "seed": 5},
}


def run_child(workdir: Path, config: Path, trace: bool) -> tuple[dict, Path]:
    workdir.mkdir()
    out, result = workdir / "artifacts", workdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--config", str(config), "--seed", "5", "--out", str(out),
           "--result", str(result), "--stages", ",".join(STAGES)]
    if trace:
        cmd += ["--trace", "1", "--spans", str(workdir / "spans.json")]
    cmd += ["--started-ns", str(time.monotonic_ns())]
    subprocess.run(cmd, check=True, timeout=300, capture_output=True,
                   env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    return json.loads(result.read_text()), out


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    config = base / "tiny.json"
    config.write_text(json.dumps(TINY))
    return {name: run_child(base / name, config, trace=name != "plain")
            for name in ("plain", "traced-a", "traced-b")}


def test_tracing_leaves_every_artifact_byte_identical(tiny_runs):
    digests = {name: artifact_digest(out) for name, (_, out) in tiny_runs.items()}
    assert len(digests["plain"][1]) >= 8
    assert digests["plain"] == digests["traced-a"] == digests["traced-b"]


def test_stage_sequence_matches_run_pipeline(tiny_runs, tmp_path):
    # Artifacts depend on the BLAS thread count, so run_pipeline gets the
    # same single-threaded BLAS as the benchmark's processes.
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from stochpod import pipeline; from stochpod.config import load_config; "
            "pipeline.run_pipeline(load_config(sys.argv[2]), sys.argv[3])")
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(config),
                    str(tmp_path / "out")], check=True, timeout=300,
                   env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert artifact_digest(tmp_path / "out") == artifact_digest(tiny_runs["plain"][1])


def test_layer_counts_repeat_exactly(tiny_runs):
    a = tiny_runs["traced-a"][0]["trace"]
    b = tiny_runs["traced-b"][0]["trace"]
    assert a["counts"] == b["counts"]
    assert ({k: v["calls"] for k, v in a["layers"].items()}
            == {k: v["calls"] for k, v in b["layers"].items()})
    values_a = layer_values(tiny_runs["traced-a"][0])
    values_b = layer_values(tiny_runs["traced-b"][0])
    for name in LAYER_COUNTS + ("sampling.stream_reuse",):
        assert values_a[name] == values_b[name], name
    assert values_a["sampling.draws"] > 0
    assert values_a["training.objective_calls"] == values_a["training.cache_misses"]


def test_layer_table_accounts_for_each_stage(tiny_runs):
    result = tiny_runs["traced-a"][0]
    layers = result["trace"]["layers"]
    values = layer_values(result)
    for stage in STAGES:
        span = layers[f"pipeline.{stage}"]
        assert span["calls"] == 1
        assert 0.0 <= span["self_s"] <= span["total_s"] <= result["stages"][stage]
        assert values[f"pipeline.{stage}_unattributed_s"] == span["self_s"]
    for info in layers.values():
        assert info["self_s"] <= info["total_s"] + 1e-9


def test_spans_nest_inside_their_parents(tiny_runs, tmp_path):
    spans = json.loads((tiny_runs["traced-a"][1].parent / "spans.json").read_text())
    by_id = {s[0]: s for s in spans["spans"]}
    assert {s[2] for s in spans["spans"]} >= {f"pipeline.{st}" for st in STAGES}
    for span_id, parent, _, start, end in spans["spans"]:
        assert start <= end
        if parent is not None:
            assert by_id[parent][3] <= start and end <= by_id[parent][4]


def test_draw_count_and_structure_check_read_the_artifacts(tiny_runs):
    out = tiny_runs["plain"][1]
    model = json.loads((out / "model.json").read_text())
    assert draws_consumed(TINY, out) == model["integer_evaluations"] * 60 + 80
    assert check_structure(TINY, out) == []


def test_structure_check_catches_non_finite_intervals(tiny_runs, tmp_path):
    out = tmp_path / "broken"
    shutil.copytree(tiny_runs["plain"][1], out)
    summary = out / "summary.csv"
    lines = summary.read_text().splitlines()
    header = lines[1].split(",")
    row = lines[2].split(",")
    row[header.index("upper")] = "nan"
    lines[2] = ",".join(row)
    summary.write_text("\n".join(lines) + "\n")
    assert any("non-finite" in p for p in check_structure(TINY, out))


def test_declared_metrics_match_what_the_benchmark_prints():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS
    untraced_layers = layer_values({"trace": {"layers": {}, "counts": {}}})
    assert set(untraced_layers) | {"trace.total_s", "trace.overhead_pct"} == set(
        PER_LAYER_UNITS)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "ex1-cubic", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
