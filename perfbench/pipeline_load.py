"""pipeline-ksweep: the batch experiment pipeline over a k sweep.

One ``run_pipeline`` call computes every instance of a ``synthetic``
LPC-EGEE spec with ``org_counts=(3, 5, 7)`` on the ``paper`` portfolio.
k=5 and k=7 take the cross-instance ``MultiInstanceKernel`` sweep, k=3
the per-instance path, and RAND's oracle runs through
``FleetKernel.drive_fifo``.  Every job is known up front: there is no
gateway, service, journal or ingest.

Correctness: the run must compute every instance, the same results on
every pass, and, for one instance per k, exactly what the per-instance
path (``run_instance_spec``) computes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.algorithms.ref import RefScheduler
from repro.core.multikernel import MultiInstanceKernel
from repro.experiments import pipeline as pipeline_mod
from repro.experiments.pipeline import run_instance_spec, run_pipeline
from repro.experiments.spec import ScenarioSpec

from .checks import CheckFailed, Ops
from .gateway_load import wrap_shard_layers
from .trace import Tracer

#: One process: the wrappers of the traced run see every call, and the
#: wall does not depend on how the seed's instance costs fall into the
#: pipeline's four contiguous two-worker shards.
WORKERS = 1

#: Trace id of the fused multi-instance REF solve, which serves a whole
#: shard of instances at once.
TRACE_BATCH = -4


@dataclass(frozen=True)
class PipelineShape:
    """The fixed shape of the sweep; the seed picks the instances."""

    org_counts: "tuple[int, ...]" = (3, 5, 7)
    duration: int = 2_000
    repeats: int = 16

    def spec(self, seed: int) -> ScenarioSpec:
        return ScenarioSpec(
            family="synthetic",
            traces=("LPC-EGEE",),
            duration=self.duration,
            n_repeats=self.repeats,
            org_counts=self.org_counts,
            portfolio="paper",
            seed=seed,
        )


class PipelineRun:
    """One seeded sweep: its spec, reference results and passes."""

    def __init__(self, shape: PipelineShape, seed: int) -> None:
        self.shape = shape
        self.seed = seed
        self.ops = Ops()
        #: [instances the fused REF solve took, instances offered to it]
        self.batched = [0, 0]
        self._reference: "dict | None" = None
        self._first: "tuple | None" = None

    def reference(self, spec: ScenarioSpec) -> dict:
        """The per-instance path's result for the first instance of each k."""
        if self._reference is None:
            firsts = {}
            for inst in spec.instances():
                firsts.setdefault(inst.variant, inst)
            self._reference = {
                inst.key: run_instance_spec(spec, inst)
                for inst in firsts.values()
            }
        return self._reference

    def pipeline_pass(self, tracer: "Tracer | None" = None) -> dict:
        """One ``run_pipeline`` call.  Its set-up time is the spec's
        generation plus the time the pipeline spends building the
        instances' workloads, which it does for a whole shard before it
        simulates any of them."""
        t0 = time.perf_counter()
        spec = self.shape.spec(self.seed)
        n_inst = len(spec.instances())
        spec_s = time.perf_counter() - t0
        build_s = [0.0]
        original_get_family = pipeline_mod.get_family
        pipeline_mod.get_family = _timed_family(original_get_family, build_s)
        if tracer is not None:
            _wrap_pipeline(tracer, self)
        try:
            t0 = time.perf_counter()
            result = run_pipeline(
                spec, workers=WORKERS, keep_instances=True
            )
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.unwrap()
            pipeline_mod.get_family = original_get_family
        self.check(spec, result)
        n_jobs = sum(r.n_jobs for r in result.instances)
        return {
            "setup_s": spec_s + build_s[0],
            "pass_s": wall,
            "events_per_s": n_jobs / wall,
            "instances_per_s": n_inst / wall,
        }

    def check(self, spec: ScenarioSpec, result) -> None:
        got = {r.key: r for r in result.instances}
        missing = len(spec.instances()) - len(got)
        self.ops.note(
            "instance",
            len(spec.instances()),
            {"not_computed": missing} if missing else None,
        )
        if missing:
            raise CheckFailed("pipeline did not compute every instance")
        for key, expected in self.reference(spec).items():
            if got[key] != expected:
                raise CheckFailed(f"{key}: batched != per-instance result")
        if self._first is None:
            self._first = result.instances
        elif result.instances != self._first:
            raise CheckFailed("pipeline results differ between passes")


def _timed_family(get_family, total_s: "list[float]"):
    """``get_family`` whose builders add their run time to ``total_s[0]``."""

    def timed_get_family(name):
        build = get_family(name)

        def timed(spec, inst):
            t0 = time.perf_counter()
            try:
                return build(spec, inst)
            finally:
                total_s[0] += time.perf_counter() - t0

        return timed

    return timed_get_family


def _wrap_pipeline(tracer: Tracer, run: PipelineRun) -> None:
    """Wrap the pipeline's stages at the names ``run_shard`` looks up."""
    instance_of: "dict[int, int]" = {}
    original_get_family = pipeline_mod.get_family

    def by_workload(args, kwargs):
        return instance_of.get(id(args[0]))

    def get_family(name):
        build = original_get_family(name)

        def noted(spec, inst):
            out = build(spec, inst)
            instance_of[id(out[0])] = inst.index
            return out

        return tracer.traced(
            noted,
            "pipeline.build_instance",
            trace_of=lambda args, kwargs: args[1].index,
        )

    def count_batched(results) -> None:
        run.batched[0] += sum(r is not None for r in results)
        run.batched[1] += len(results)

    tracer.patch(pipeline_mod, "get_family", get_family)
    tracer.patch(
        pipeline_mod,
        "ref_results_batched",
        tracer.traced(
            pipeline_mod.ref_results_batched,
            "multiref.ref_results_batched",
            trace_of=lambda args, kwargs: TRACE_BATCH,
            on_result=count_batched,
        ),
    )
    tracer.patch(
        pipeline_mod,
        "evaluate_portfolio",
        tracer.traced(
            pipeline_mod.evaluate_portfolio,
            "sim.evaluate_portfolio",
            trace_of=by_workload,
        ),
    )
    tracer.wrap(MultiInstanceKernel, "sweep", "multikernel.sweep")
    tracer.wrap(
        RefScheduler,
        "run",
        "algorithms.ref_run",
        trace_of=lambda args, kwargs: instance_of.get(id(args[1])),
    )
    wrap_shard_layers(tracer)
