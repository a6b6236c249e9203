"""The benchmark's own tests; run from the checkout root with

    python -m pytest -q perfbench/tests

Each test drives the ``tiny`` shapes, so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402

run.import_program()

from perfbench import gateway_load, pipeline_load  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from repro.experiments.registry import get_family  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = run.shapes("tiny")


def bench(workload: str, seed: int, trace: int) -> "tuple[int, str]":
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--size",
            "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    code, out = bench(workload, 1, trace)
    assert code == 0
    result = result_of(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: row["unit"] for name, row in result["metrics"].items()
    }
    if not trace:
        assert all(row["value"] > 0 for row in result["metrics"].values())


def test_two_seeds_give_different_inputs_and_the_same_metric_names():
    for shape in (TINY["gateway-fifo-storm"], TINY["gateway-ref-long"]):
        streams = [
            gateway_load.generate_stream(shape.config(s), shape.spec(s))
            for s in (1, 2)
        ]
        assert streams[0] != streams[1]
    shape = TINY["pipeline-ksweep"]
    specs = [shape.spec(s) for s in (1, 2)]
    build = get_family("synthetic")
    jobs = [
        [build(spec, inst)[0].jobs for inst in spec.instances()]
        for spec in specs
    ]
    assert jobs[0] != jobs[1]
    names = []
    for seed in (1, 2):
        code, out = bench("gateway-ref-long", seed, 0)
        assert code == 0
        names.append(sorted(result_of(out)["metrics"]))
    assert names[0] == names[1]


def test_full_gateway_shapes_give_at_least_1000_ticks():
    # the tick percentiles promise p99 at least ten samples to stand on
    full = run.shapes("full")
    for name in ("gateway-fifo-storm", "gateway-ref-long"):
        shape = full[name]
        for seed in range(1, 11):
            stream = gateway_load.generate_stream(
                shape.config(seed), shape.spec(seed)
            )
            assert len({release for release, _, _ in stream}) >= 1000


def test_tampered_gateway_digest_fails_the_run(monkeypatch, capsys):
    real = gateway_load.verify_against_batch

    def tampered(config, accepted):
        digests = real(config, accepted)
        first = min(digests)
        digests[first] = "0" * len(digests[first])
        return digests

    monkeypatch.setattr(gateway_load, "verify_against_batch", tampered)
    code = run.main(
        ["--workload", "gateway-fifo-storm", "--seed", "1", "--seconds",
         "1", "--size", "tiny"]
    )
    assert code == 1
    assert '"metrics"' not in capsys.readouterr().out


def test_tampered_pipeline_reference_fails_the_run(monkeypatch, capsys):
    real = pipeline_load.run_instance_spec

    def tampered(spec, inst):
        result = real(spec, inst)
        metric = next(iter(result.metrics))
        alg = next(iter(result.metrics[metric]))
        result.metrics[metric][alg] += 1.0
        return result

    monkeypatch.setattr(pipeline_load, "run_instance_spec", tampered)
    code = run.main(
        ["--workload", "pipeline-ksweep", "--seed", "1", "--seconds", "1",
         "--size", "tiny"]
    )
    assert code == 1
    assert '"metrics"' not in capsys.readouterr().out


def test_span_self_times_are_non_negative_and_within_the_wall(tmp_path):
    gw_run = gateway_load.GatewayRun(
        TINY["gateway-ref-long"], 3, str(tmp_path)
    )
    front, back = Tracer(), Tracer()
    walls = [
        gw_run.gateway_pass(recover=True, tracer=front)["pass_s"],
        gw_run.inproc_pass(back)["pass_s"],
    ]
    pipe = pipeline_load.PipelineRun(TINY["pipeline-ksweep"], 3)
    tracer = Tracer()
    walls.append(pipe.pipeline_pass(tracer)["pass_s"])
    for tracer, wall in zip((front, back, tracer), walls):
        selfs = tracer.self_times_ns()
        assert selfs and min(selfs) >= 0
        assert sum(selfs) <= wall * 1e9
        assert all(p < i for i, p in enumerate(tracer.parent))


def test_without_program_source_the_benchmark_exits_non_zero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "gateway-fifo-storm", "--seed", "1", "--seconds", "1", "--trace",
         "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
