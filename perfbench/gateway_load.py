"""The two gateway workloads: a FIFO storm and long-history REF serving.

One client replays a seeded stream through a :class:`Gateway` as fast as
the gateway takes it: each release group's submits are pipelined up to
the gateway's in-flight window, then the group's ``advance`` is sent.  A
fleet-wide ``snapshot_all`` lands at the middle release; after ``drain``
the per-shard digests must equal the batch scheduler's, and after
``kill_worker(0)`` plus ``restore_worker(0)`` they must read back
unchanged.

The traced run also replays the identical admitted stream in process
through one :class:`ClusterService` per shard, because the shard-side
layers (service, algorithms, kernel, engine) run in the worker processes
where the benchmark's wrappers cannot see them.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from itertools import groupby

from repro.core.engine import ClusterEngine
from repro.core.kernel import FleetKernel
from repro.algorithms.base import PolicyScheduler
from repro.algorithms.ref import RefRun
from repro.gateway import Gateway, GatewayConfig, LoadSpec, generate_stream
from repro.gateway.admission import AdmissionController
from repro.gateway.gateway import ShardPool
from repro.gateway.loadgen import verify_against_batch
from repro.service import ClusterService
from repro.service.snapshot import schedule_digest

from .checks import CheckFailed, Ops
from .trace import Tracer


#: Worker processes of every fleet: one per CPU of a 2-CPU box.
WORKERS = 2

#: Job sizes are drawn from 1..MAX_SIZE.
MAX_SIZE = 5


def percentile(values: "list[float]", q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


@dataclass(frozen=True)
class GatewayShape:
    """The fixed shape of one gateway workload; the seed picks the stream."""

    policy: str
    tenants: int
    shards: int
    events: int
    releases: int

    def config(self, seed: int) -> GatewayConfig:
        return GatewayConfig.uniform(
            self.tenants,
            machines=1,
            n_workers=WORKERS,
            n_shards=self.shards,
            policy=self.policy,
            seed=seed,
        )

    def spec(self, seed: int) -> LoadSpec:
        return LoadSpec(
            n_events=self.events,
            n_releases=self.releases,
            max_size=MAX_SIZE,
            seed=seed,
        )


class GatewayRun:
    """One seeded gateway workload: stream, reference digests, passes."""

    def __init__(self, shape: GatewayShape, seed: int, workdir: str) -> None:
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        self.config = shape.config(seed)
        stream = generate_stream(self.config, shape.spec(seed))
        self.mid_release = stream[len(stream) // 2][0]
        self.ops = Ops()
        #: The admitted stream of the latest gateway pass, in order.
        self.accepted: "list[tuple]" = []
        self._expected: "dict[tuple, dict[int, str]]" = {}
        # nothing is refused at these shapes, so the reference for the
        # whole stream is the one every pass needs: compute it untimed
        self.expected_digests(stream)

    def expected_digests(self, accepted: "list[tuple]") -> "dict[int, str]":
        """Per-shard batch-scheduler digests for an admitted stream."""
        key = (len(accepted), hash(tuple(accepted)))
        if key not in self._expected:
            self._expected[key] = verify_against_batch(self.config, accepted)
        return self._expected[key]

    # -- one pass through the gateway ------------------------------------
    def gateway_pass(
        self, recover: bool, tracer: "Tracer | None" = None
    ) -> dict:
        """Set up a fresh fleet, replay the stream, verify and, with
        ``recover``, kill and restore worker 0.

        Returns the pass's timings; raises :class:`CheckFailed` when the
        fleet's digests differ from the batch scheduler's or the restored
        digests differ from the pre-kill ones.
        """
        t0 = time.perf_counter()
        stream = generate_stream(self.config, self.shape.spec(self.seed))
        snap_dir = tempfile.mkdtemp(prefix="gw-", dir=self.workdir)
        gw = Gateway(self.config, snapshot_dir=snap_dir).start()
        setup_s = time.perf_counter() - t0
        try:
            if tracer is not None:
                _wrap_gateway(tracer)
            try:
                out = self._replay(gw, stream, recover, tracer)
            finally:
                if tracer is not None:
                    tracer.unwrap()
        finally:
            gw.close()
        out["setup_s"] = setup_s
        out["elapsed_s"] = time.perf_counter() - t0
        return out

    def _replay(
        self, gw: Gateway, stream, recover: bool, tracer: "Tracer | None"
    ) -> dict:
        ops = self.ops
        accepted: "list[tuple]" = []
        refused: "dict[str, int]" = {}
        ticks_s: "list[float]" = []
        tick_events: "list[int]" = []
        tick_start: "list[float]" = []
        snapshot_s = None
        started = time.perf_counter()
        for group_idx, (release, group) in enumerate(
            groupby(stream, key=lambda e: e[0])
        ):
            if tracer is not None:
                tracer.trace_id = group_idx
            t0 = time.perf_counter()
            before = len(accepted)
            for _, tenant, size in group:
                resp = gw.submit(tenant, size, release)
                if resp.get("ok"):
                    accepted.append((release, tenant, size))
                else:
                    code = resp.get("code", "unknown")
                    refused[code] = refused.get(code, 0) + 1
            gw.advance(release)
            t1 = time.perf_counter()
            ticks_s.append(t1 - t0)
            tick_events.append(len(accepted) - before)
            tick_start.append(t0)
            if snapshot_s is None and release >= self.mid_release:
                if tracer is not None:
                    tracer.trace_id = -1
                gw.snapshot_all()
                snapshot_s = time.perf_counter() - t1
        if tracer is not None:
            tracer.trace_id = -2
        resp = gw.drain()
        stream_s = time.perf_counter() - started
        ops.note("submit", len(stream), refused)
        ops.note("advance", len(ticks_s))
        ops.note("snapshot")
        ops.note(
            "drain",
            failed=None if resp.get("ok") else {resp.get("code", "?"): 1},
        )
        forward: "dict[str, int]" = {}
        for err in gw.forward_errors:
            code = err.get("code", "forward_error")
            forward[code] = forward.get(code, 0) + 1
        ops.note("submit", 0, forward)
        if gw.forward_errors:
            raise CheckFailed(
                f"{len(gw.forward_errors)} admitted submits failed shard-side"
            )

        digests = gw.shard_digests()
        if digests != self.expected_digests(accepted):
            raise CheckFailed("fleet != per-shard batch digests")
        recovery_s = None
        if recover:
            if tracer is not None:
                tracer.trace_id = -3
            t0 = time.perf_counter()
            gw.kill_worker(0)
            gw.restore_worker(0)
            restored = gw.shard_digests()
            recovery_s = time.perf_counter() - t0
            ops.note("recovery")
            if restored != digests:
                raise CheckFailed("restored digests != pre-kill digests")
        self.accepted = accepted

        q4_from = len(ticks_s) - len(ticks_s) // 4
        q4_events = sum(tick_events[q4_from:])
        return {
            "stream_s": stream_s,
            "pass_s": time.perf_counter() - started,
            "events_per_s": len(accepted) / stream_s,
            "events_per_s_q4": q4_events
            / (started + stream_s - tick_start[q4_from]),
            "ticks": len(ticks_s),
            "tick_p50_ms": 1e3 * percentile(ticks_s, 0.50),
            "tick_p99_ms": 1e3 * percentile(ticks_s, 0.99),
            "snapshot_s": snapshot_s,
            "recovery_s": recovery_s,
        }

    # -- the same admitted stream, in process ----------------------------
    def inproc_pass(self, tracer: "Tracer | None" = None) -> dict:
        """Replay the admitted stream through in-process shard services:
        snapshot at the middle release, drain, then snapshot and restore
        every shard.  Digests must equal the batch scheduler's, and each
        restored shard's must equal its live one."""
        cfg = self.config
        accepted = self.accepted
        if tracer is not None:
            _wrap_shards(tracer)
        try:
            shards = {
                s: ClusterService(
                    cfg.shard_machine_counts(s),
                    cfg.policy,
                    seed=cfg.shard_seed(s),
                    horizon=cfg.horizon,
                    batch_max=cfg.batch_max,
                )
                for s in cfg.shard_ids()
            }
            routes = cfg.routes
            snapped = False
            started = time.perf_counter()
            for group_idx, (release, group) in enumerate(
                groupby(accepted, key=lambda e: e[0])
            ):
                if tracer is not None:
                    tracer.trace_id = group_idx
                for _, tenant, size in group:
                    shard, org = routes[tenant]
                    shards[shard].submit(org, size, release=release)
                for svc in shards.values():
                    svc.advance(release)
                if not snapped and release >= self.mid_release:
                    if tracer is not None:
                        tracer.trace_id = -1
                    for svc in shards.values():
                        svc.snapshot()
                    snapped = True
            if tracer is not None:
                tracer.trace_id = -2
            for svc in shards.values():
                svc.drain()
            stream_s = time.perf_counter() - started
            digests = {
                s: schedule_digest(svc.schedule()) for s, svc in shards.items()
            }
            if digests != self.expected_digests(accepted):
                raise CheckFailed("in-process shards != batch digests")
            if tracer is not None:
                tracer.trace_id = -3
            for s, svc in shards.items():
                again = ClusterService.restore(svc.snapshot())
                if schedule_digest(again.schedule()) != digests[s]:
                    raise CheckFailed(f"shard {s}: restored != live digest")
            pass_s = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.unwrap()
        flushes = sum(svc.n_flushes for svc in shards.values())
        return {
            "stream_s": stream_s,
            "pass_s": pass_s,
            "groups": group_idx + 1,
            "jobs_per_flush": (
                sum(svc.n_jobs_flushed for svc in shards.values()) / flushes
                if flushes
                else 0.0
            ),
            "journal_ops": sum(len(svc.journal) for svc in shards.values()),
        }


def _wrap_gateway(tracer: Tracer) -> None:
    tracer.wrap(Gateway, "submit", "gateway.submit")
    tracer.wrap(AdmissionController, "admit_submit", "gateway.admission")
    tracer.wrap(ShardPool, "shard_cmd", "gateway.shard_cmd")
    tracer.wrap(Gateway, "advance", "gateway.advance")
    tracer.wrap(Gateway, "drain", "gateway.drain")
    tracer.wrap(Gateway, "snapshot_all", "gateway.snapshot_all")
    tracer.wrap(Gateway, "restore_worker", "gateway.restore_worker")


def wrap_shard_layers(tracer: Tracer) -> None:
    """The algorithm, kernel and engine layers (shared with the pipeline)."""
    tracer.wrap(RefRun, "step", "algorithms.ref_step")
    tracer.wrap(PolicyScheduler, "schedule_event", "algorithms.schedule_event")
    tracer.wrap(FleetKernel, "submit_many", "kernel.submit_many")
    tracer.wrap(FleetKernel, "advance", "kernel.advance")
    tracer.wrap(FleetKernel, "fill_rows", "kernel.fill_rows")
    tracer.wrap(FleetKernel, "drive_fifo", "kernel.drive_fifo")
    tracer.wrap(ClusterEngine, "advance_to", "engine.advance_to")
    tracer.wrap(ClusterEngine, "submit", "engine.submit")
    tracer.wrap(ClusterEngine, "start_next", "engine.start_next")


def _wrap_shards(tracer: Tracer) -> None:
    tracer.wrap(ClusterService, "submit", "service.submit")
    tracer.wrap(ClusterService, "flush_ingest", "service.flush_ingest")
    tracer.wrap(ClusterService, "advance", "service.advance")
    tracer.wrap(ClusterService, "drain", "service.drain")
    tracer.wrap(ClusterService, "snapshot", "service.snapshot")
    tracer.wrap(ClusterService, "restore", "service.restore")
    wrap_shard_layers(tracer)
