#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gateway-fifo-storm --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload's pass until ``--seconds`` have gone
by (at least three passes) and prints the end-to-end metrics as medians
over the passes.  ``--trace 1`` makes one untraced and one traced pass of
each kind and prints the per-layer metrics instead.  Every pass checks
its outputs; a mismatch exits 1 without printing any number.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

Earlier lines give the machine stamp and the operations per phase.  The
program is imported from ``src/`` of the same checkout; without it the
benchmark exits 2.  Scratch files go to ``.perfbench/`` in the checkout.
README.md in this directory says why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("gateway-fifo-storm", "gateway-ref-long", "pipeline-ksweep")

#: Passes a measured run makes at least, so each median has company.
MIN_PASSES = 3

#: Every traced span name; each gives ``calls``, ``self_s`` and ``share``
#: on every workload (zero where the workload never enters that layer).
SPANS = (
    "gateway.submit",
    "gateway.admission",
    "gateway.shard_cmd",
    "gateway.advance",
    "gateway.drain",
    "gateway.snapshot_all",
    "gateway.restore_worker",
    "service.submit",
    "service.flush_ingest",
    "service.advance",
    "service.drain",
    "service.snapshot",
    "service.restore",
    "algorithms.ref_step",
    "algorithms.schedule_event",
    "algorithms.ref_run",
    "kernel.submit_many",
    "kernel.advance",
    "kernel.fill_rows",
    "kernel.drive_fifo",
    "engine.advance_to",
    "engine.submit",
    "engine.start_next",
    "pipeline.build_instance",
    "multiref.ref_results_batched",
    "multikernel.sweep",
    "sim.evaluate_portfolio",
)

#: Spans whose callees are traced too; they also give ``total_s``, the
#: inclusive time, next to ``self_s``.
INCLUSIVE = (
    "gateway.submit",
    "gateway.advance",
    "gateway.drain",
    "service.advance",
    "service.drain",
    "service.restore",
    "algorithms.ref_step",
    "algorithms.ref_run",
    "multiref.ref_results_batched",
    "sim.evaluate_portfolio",
)

#: Per-layer metrics that are not span sums: name -> unit.
EXTRAS = {
    "gateway.tax_ratio": "ratio",
    "gateway.events_per_s_q4": "ev/s",
    "gateway.tick_p50_ms": "ms",
    "gateway.tick_p99_ms": "ms",
    "gateway.ticks": "count",
    "gateway.snapshot_s": "s",
    "gateway.recovery_s": "s",
    "service.jobs_per_flush": "count",
    "service.journal_ops": "count",
    "kernel.submit_many.q1_ms": "ms",
    "kernel.submit_many.q4_ms": "ms",
    "multiref.batched_share": "ratio",
    "pipeline.instances_per_s": "inst/s",
    "trace.overhead_s": "s",
    "host.cpus": "count",
    "host.calibration_s": "s",
}


def per_layer_units() -> "dict[str, str]":
    """Every per-layer metric name with its unit, in output order."""
    units: "dict[str, str]" = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.share"] = "ratio"
        if name in INCLUSIVE:
            units[f"{name}.total_s"] = "s"
    units.update(EXTRAS)
    return units


END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "ev/s",
    "peak_rss_mb": "MB",
}


def shapes(size: str) -> dict:
    """The workloads' fixed shapes; ``tiny`` is for the benchmark's tests."""
    from perfbench.gateway_load import GatewayShape
    from perfbench.pipeline_load import PipelineShape

    if size == "tiny":
        return {
            "gateway-fifo-storm": GatewayShape("fifo", 16, 4, 600, 40),
            "gateway-ref-long": GatewayShape("ref", 8, 2, 200, 40),
            "pipeline-ksweep": PipelineShape((3, 5), 1_000, 1),
        }
    return {
        "gateway-fifo-storm": GatewayShape("fifo", 64, 8, 30_000, 1_000),
        "gateway-ref-long": GatewayShape("ref", 16, 2, 4_400, 1_100),
        "pipeline-ksweep": PipelineShape(),
    }


# ----------------------------------------------------------------------
# the machine
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: a noisy host reads slow
    here too, a regression does not."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_stamp() -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": calibration_s(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# measured runs
# ----------------------------------------------------------------------
def repeat(one_pass, seconds: float, min_passes: int) -> "list[dict]":
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        passes.append(one_pass())
    return passes


def end_to_end(passes: "list[dict]") -> dict:
    print(
        json.dumps(
            {
                "passes": [
                    {k: p[k] for k in ("setup_s", "events_per_s")}
                    for p in passes
                ]
            }
        )
    )
    med = {
        key: statistics.median(p[key] for p in passes)
        for key in ("setup_s", "events_per_s")
    }
    med["peak_rss_mb"] = peak_rss_mb()
    return med


def spans_to_metrics(tracer, wall_s: float, into: dict) -> None:
    for name, row in tracer.summary().items():
        if name not in SPANS:
            continue
        into[f"{name}.calls"] = row["calls"]
        into[f"{name}.self_s"] = row["self_s"]
        into[f"{name}.share"] = row["self_s"] / wall_s
        if name in INCLUSIVE:
            into[f"{name}.total_s"] = row["total_s"]


def run_gateway(shape, seed: int, seconds: float, trace: bool, min_passes):
    from perfbench.gateway_load import GatewayRun
    from perfbench.trace import Tracer

    run = GatewayRun(shape, seed, tempfile.gettempdir())
    if not trace:
        # one recovery a run checks restore == live; the later passes
        # spend their time on the stream the throughput is measured on
        passes = [run.gateway_pass(recover=True)]
        passes += repeat(
            lambda: run.gateway_pass(recover=False),
            seconds - passes[0]["elapsed_s"],
            min_passes - 1,
        )
        return run.ops, end_to_end(passes), None
    base = run.gateway_pass(recover=True)
    front = Tracer()
    traced = run.gateway_pass(recover=True, tracer=front)
    inproc_base = run.inproc_pass()
    back = Tracer()
    inproc = run.inproc_pass(back)
    out: dict = {}
    spans_to_metrics(front, traced["pass_s"], out)
    spans_to_metrics(back, inproc["pass_s"], out)
    groups = inproc["groups"]
    quarter = max(1, groups // 4)
    out.update(
        {
            "gateway.tax_ratio": base["stream_s"] / inproc_base["stream_s"],
            "gateway.events_per_s_q4": base["events_per_s_q4"],
            "gateway.tick_p50_ms": base["tick_p50_ms"],
            "gateway.tick_p99_ms": base["tick_p99_ms"],
            "gateway.ticks": base["ticks"],
            "gateway.snapshot_s": base["snapshot_s"],
            "gateway.recovery_s": base["recovery_s"],
            "service.jobs_per_flush": inproc["jobs_per_flush"],
            "service.journal_ops": inproc["journal_ops"],
            "kernel.submit_many.q1_ms": back.mean_ms(
                "kernel.submit_many", range(0, quarter)
            ),
            "kernel.submit_many.q4_ms": back.mean_ms(
                "kernel.submit_many", range(groups - quarter, groups)
            ),
            "trace.overhead_s": traced["pass_s"]
            - base["pass_s"]
            + inproc["pass_s"]
            - inproc_base["pass_s"],
        }
    )
    return run.ops, out, {"gateway": front, "shards": back}


def run_pipeline_load(
    shape, seed: int, seconds: float, trace: bool, min_passes
):
    from perfbench.pipeline_load import PipelineRun
    from perfbench.trace import Tracer

    run = PipelineRun(shape, seed)
    if not trace:
        passes = repeat(run.pipeline_pass, seconds, min_passes)
        return run.ops, end_to_end(passes), None
    base = run.pipeline_pass()
    tracer = Tracer()
    traced = run.pipeline_pass(tracer)
    out: dict = {}
    spans_to_metrics(tracer, traced["pass_s"], out)
    out.update(
        {
            "multiref.batched_share": run.batched[0] / run.batched[1],
            "pipeline.instances_per_s": base["instances_per_s"],
            "trace.overhead_s": traced["pass_s"] - base["pass_s"],
        }
    )
    return run.ops, out, {"pipeline": tracer}


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a seconds-long smoke size for the benchmark's own tests",
    )
    return ap.parse_args(argv)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench.checks import CheckFailed

    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK)
    old_tmp = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    try:
        stamp = machine_stamp()
        print(json.dumps({"machine": stamp}), flush=True)
        shape = shapes(args.size)[args.workload]
        runner = (
            run_pipeline_load
            if args.workload == "pipeline-ksweep"
            else run_gateway
        )
        min_passes = MIN_PASSES if args.size == "full" else 1
        try:
            ops, values, tracers = runner(
                shape, args.seed, args.seconds, bool(args.trace), min_passes
            )
        except CheckFailed as exc:
            print(f"perfbench: CHECK FAILED: {exc}", file=sys.stderr)
            return 1
    finally:
        tempfile.tempdir = None
        if old_tmp is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = old_tmp
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        units = per_layer_units()
        values["host.cpus"] = stamp["cpus"]
        values["host.calibration_s"] = stamp["calibration_s"]
        for kind, tracer in tracers.items():
            tracer.dump(WORK / "spans" / f"{args.workload}.{kind}.jsonl")
    else:
        units = END_TO_END_UNITS
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"ops": ops.phases}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
