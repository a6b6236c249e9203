"""FleetKernel: lockstep SoA simulation vs per-engine ground truth.

Five layers of protection for the batched kernel (DESIGN.md §8):

* **value-oracle properties** -- kernel fleets return exactly the
  per-engine values on random workloads, for both the lockstep advance and
  the batched greedy-FIFO drive, at past/present/future query times;
* **bit-identical schedules** -- every contribution-driven scheduler run
  with the kernel forced on reproduces its per-engine transcript job for
  job (the golden transcripts pin the per-engine side separately);
* **escape hatch** -- engine views answer the whole read API, and
  materialization mid-run reconstructs real engines whose state is
  indistinguishable from never having used the kernel at all;
* **overflow fallbacks** (ISSUE 5 satellite) -- queries past the int64
  guard fall back to exact big-int arithmetic on both backends, agreeing
  with the vectorized path right at the boundary, and workloads that fail
  the construction-time certification never engage the kernel;
* **online ingest** -- random interleavings of batched and one-at-a-time
  submits with lockstep advances, FIFO drives and keyed fills agree with
  a per-engine oracle after every step, and a submit never rewrites the
  (append-only) start log.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.base import fair_select, members_mask
from repro.algorithms.direct import DirectContributionScheduler
from repro.algorithms.greedy import fifo_select
from repro.algorithms.rand import RandScheduler
from repro.algorithms.ref import GeneralRefScheduler, RefScheduler
from repro.core import kernel as kernel_mod
from repro.core.coalition import iter_members, iter_subsets
from repro.core.engine import ClusterEngine
from repro.core.fleet import CoalitionFleet
from repro.core.job import Job
from repro.core.kernel import (
    KERNEL_MIN_ENGINES,
    FleetKernel,
    KernelEngineView,
    kernel_certified,
)
from repro.core.schedule import Schedule

from .conftest import make_workload, random_workload


def all_masks(k: int) -> list[int]:
    return [m for m in iter_subsets((1 << k) - 1) if m]


def transcript(result) -> list:
    return [
        (e.start, e.machine, e.job.org, e.job.index, e.job.size)
        for e in result.schedule
    ]


def reference_values(workload, masks, t, horizon, drive=True):
    out = {0: 0}
    for m in masks:
        eng = ClusterEngine(workload, list(iter_members(m)), horizon=horizon)
        if drive:
            eng.drive(fifo_select, until=t)
        else:
            while (
                nxt := eng.next_event_time()
            ) is not None and nxt <= t:
                eng.advance_to(nxt)
        if eng.t < t:
            eng.advance_to(t)
        out[m] = sum(eng.psis(t))
    return out


@pytest.fixture
def force_kernel(monkeypatch):
    monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1)


class TestKernelValueOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_fifo_drive_values_match_per_engine(self, seed):
        rng = np.random.default_rng(seed)
        k = 3 + seed % 2
        wl = random_workload(rng, n_orgs=k, n_jobs=25, max_release=15)
        masks = all_masks(k)
        horizon = 40
        fleet = CoalitionFleet(wl, masks, horizon=horizon, backend="kernel")
        assert fleet.kernel is not None
        for t in (0, 3, 8, 15, 27, 39):
            got = fleet.values_at(t, select=fifo_select)
            assert got == reference_values(wl, masks, t, horizon), t

    @pytest.mark.parametrize("seed", range(4))
    def test_lockstep_advance_values_match_per_engine(self, seed):
        rng = np.random.default_rng(100 + seed)
        wl = random_workload(rng, n_orgs=3, n_jobs=20, max_release=12)
        masks = all_masks(3)
        a = CoalitionFleet(wl, masks, backend="kernel")
        b = CoalitionFleet(wl, masks, backend="engines")
        for t in (0, 2, 6, 11, 19, 40):
            assert a.values_at(t) == b.values_at(t), t
            arr_a = a.values_array(t)
            arr_b = b.values_array(t)
            assert arr_a is not None and arr_b is not None
            assert arr_a.tolist() == arr_b.tolist()

    def test_retrospective_query_is_exact(self, rng):
        wl = random_workload(rng, n_orgs=2, n_jobs=10, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        fleet.values_at(20, select=fifo_select)  # kernel now at t=20
        early = fleet.values_at(7, select=fifo_select)
        assert early == reference_values(wl, all_masks(2), 7, None)

    def test_online_submission_matches_frozen_stream(self):
        early = [(0, 0, 2), (1, 1, 3), (4, 2, 1), (5, 0, 2)]
        late = [(11, 0, 3), (12, 1, 2), (15, 2, 4), (15, 1, 1)]
        wl_early = make_workload([1, 2, 1], early)
        wl_full = make_workload([1, 2, 1], early + late)
        late_jobs = [
            j for j in sorted(wl_full.jobs) if (j.release, j.org, j.size)
            in {(r, u, p) for r, u, p in late}
        ]
        masks = all_masks(3)
        frozen = CoalitionFleet(wl_full, masks, backend="kernel")
        fed = CoalitionFleet(wl_early, masks, backend="kernel")
        fed.values_at(5, select=fifo_select)
        for j in late_jobs:
            fed.submit(j)
        assert fed.kernel is not None  # absorbed without materializing
        for t in (10, 25, 60):
            assert fed.values_at(t, select=fifo_select) == frozen.values_at(
                t, select=fifo_select
            )

    def test_submit_many_matches_sequential_submits(self):
        """One grouped splice == N sequential splices -- including
        same-release jobs from different orgs, whose flat positions meet
        at an org-window boundary (lower org must land first)."""
        early = [(0, 0, 2), (1, 1, 3), (2, 2, 1)]
        late = [(6, 2, 2), (6, 0, 1), (6, 1, 4), (9, 0, 2), (9, 2, 5)]
        wl_early = make_workload([1, 2, 1], early)
        wl_full = make_workload([1, 2, 1], early + late)
        late_jobs = [j for j in sorted(wl_full.jobs) if j.release >= 6]
        masks = all_masks(3)
        one = CoalitionFleet(wl_early, masks, backend="kernel")
        many = CoalitionFleet(wl_early, masks, backend="kernel")
        one.values_at(4, select=fifo_select)
        many.values_at(4, select=fifo_select)
        for j in late_jobs:
            one.submit(j)
        many.submit_many(late_jobs)
        assert one.kernel is not None and many.kernel is not None
        assert many.kernel.rel_flat.tolist() == one.kernel.rel_flat.tolist()
        assert many.kernel.size_flat.tolist() == one.kernel.size_flat.tolist()
        for t in (6, 9, 15, 40):
            assert many.values_at(t, select=fifo_select) == one.values_at(
                t, select=fifo_select
            ), t


class TestKernelSchedulesBitIdentical:
    """Forced-kernel transcripts == forced-engines transcripts (the engines
    side is itself pinned by the seed golden transcripts)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_ref_and_rand(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        k = 3 + seed % 3
        wl = random_workload(
            rng, n_orgs=k, n_jobs=7 * k, max_release=15,
            sizes=(1, 2, 3, 5), machine_counts=[1 + i % 2 for i in range(k)],
        )
        runs = [
            lambda: RefScheduler().run(wl),
            lambda: RefScheduler(horizon=12).run(wl),
            lambda: RandScheduler(n_orderings=9, seed=seed).run(wl),
        ]
        if k <= 4:  # Fractions path: keep runtime sane
            runs.append(lambda: GeneralRefScheduler().run(wl))
        for run in runs:
            monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1 << 30)
            want = transcript(run())
            monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1)
            assert transcript(run()) == want

    def test_ref_contributions_identical(self, monkeypatch):
        rng = np.random.default_rng(17)
        wl = random_workload(rng, n_orgs=5, n_jobs=25, max_release=12)
        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1 << 30)
        want = RefScheduler(collect_contributions=True).run(wl).meta
        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1)
        got = RefScheduler(collect_contributions=True).run(wl).meta
        assert got["contributions"] == want["contributions"]

    def test_direct_contr_unaffected(self, force_kernel, rng):
        # single-engine fleets materialize through the PolicyScheduler loop
        wl = random_workload(rng, n_orgs=3, n_jobs=15, max_release=10)
        r = DirectContributionScheduler(seed=1).run(wl)
        assert len(r.schedule) == 15


class TestEngineViews:
    def _pair(self, rng, t):
        wl = random_workload(rng, n_orgs=3, n_jobs=16, max_release=10,
                             machine_counts=[2, 1, 1])
        masks = all_masks(3)
        kf = CoalitionFleet(wl, masks, backend="kernel")
        ef = CoalitionFleet(wl, masks, backend="engines")
        kf.values_at(t, select=fifo_select)
        ef.values_at(t, select=fifo_select)
        return kf, ef, masks

    def test_views_answer_the_read_api(self, rng):
        kf, ef, masks = self._pair(rng, 9)
        for m in masks:
            view, eng = kf.engine(m), ef.engine(m)
            assert isinstance(view, KernelEngineView)
            assert view.t == eng.t
            assert view.members == eng.members
            assert view.free_count == eng.free_count
            assert view.free_machines() == eng.free_machines()
            assert view.has_waiting() == eng.has_waiting()
            assert view.waiting_orgs() == eng.waiting_orgs()
            assert view.machine_owner == eng.machine_owner
            assert view.n_machines == eng.n_machines
            assert view.machine_counts() == eng.machine_counts()
            assert view.running_counts() == eng.running_counts()
            assert view.is_idle() == eng.is_idle()
            assert view.done() == eng.done()
            assert view.ledger() == eng.ledger()
            assert view.next_event_time() == eng.next_event_time()
            for t in (4, 9, 30):
                assert view.psis(t) == eng.psis(t), (m, t)
                assert view.value(t) == eng.value(t)
                assert view.psis_by_machine_owner(t) == (
                    eng.psis_by_machine_owner(t)
                )
                assert view.busy_units(t) == eng.busy_units(t)
                assert view.utilization(t) == eng.utilization(t)
                assert view.has_event_at_or_before(t) == (
                    eng.has_event_at_or_before(t)
                )
            for u in eng.members:
                assert view.waiting_count(u) == eng.waiting_count(u)
                assert view.running_count(u) == eng.running_count(u)
                assert view.consumed_cpu(u) == eng.consumed_cpu(u)
            assert view.schedule() == eng.schedule()
            assert [
                (e.start, e.machine, e.job) for e in view.completed_log
            ] == [(e.start, e.machine, e.job) for e in eng.completed_log]

    def test_view_running_on_matches(self, rng):
        kf, ef, masks = self._pair(rng, 6)
        grand = masks[-1] if masks[-1] == 0b111 else 0b111
        view, eng = kf.engine(grand), ef.engine(grand)
        for mid in eng.machine_owner:
            a, b = view.running_on(mid), eng.running_on(mid)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.job, a.start, a.machine) == (b.job, b.start, b.machine)


class TestMaterialization:
    def test_materialized_state_is_bit_identical(self, rng):
        wl = random_workload(rng, n_orgs=3, n_jobs=20, max_release=14)
        masks = all_masks(3)
        kf = CoalitionFleet(wl, masks, backend="kernel")
        ef = CoalitionFleet(wl, masks, backend="engines")
        kf.values_at(8, select=fifo_select)
        ef.values_at(8, select=fifo_select)
        kf._materialize()
        assert kf.kernel is None
        for m in masks:
            a, b = kf.engine(m), ef.engine(m)
            assert isinstance(a, ClusterEngine)
            assert a.t == b.t
            assert a._stream == b._stream
            assert a._stream_pos == b._stream_pos
            assert a._pending == b._pending
            assert a._free_set == b._free_set
            assert sorted(a._busy) == sorted(b._busy)
            assert a._done_units == b._done_units
            assert a._done_wstart == b._done_wstart
            assert a._done_units_mach == b._done_units_mach
            assert a._done_wstart_mach == b._done_wstart_mach
            assert (a._tot_units, a._tot_wstart) == (b._tot_units, b._tot_wstart)
            assert (a._run_start_sum, a._run_start_sq) == (
                b._run_start_sum, b._run_start_sq
            )
            assert a._log == b._log
            assert a._completed == b._completed
        # and the fleets keep agreeing after further driving
        for t in (12, 20, 50):
            assert kf.values_at(t, select=fifo_select) == ef.values_at(
                t, select=fifo_select
            )

    def test_held_view_survives_materialization(self, rng):
        wl = random_workload(rng, n_orgs=2, n_jobs=10, max_release=6)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        view = fleet.engine(0b11)
        fleet.values_at(4, select=fifo_select)
        psis_before = view.psis(4)
        fleet._materialize()
        assert view.psis(4) == psis_before
        assert view._real() is fleet.engine(0b11)

    def test_view_mutators_materialize_and_delegate(self, rng):
        wl = random_workload(rng, n_orgs=2, n_jobs=8, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        fleet.values_at(3, select=fifo_select)
        view = fleet.engine(0b11)
        clone = view.fork()  # escapes
        assert isinstance(clone, ClusterEngine)
        assert fleet.kernel is None
        assert clone.t == fleet.engine(0b11).t

    def test_unknown_drive_policy_materializes(self, rng):
        wl = random_workload(rng, n_orgs=2, n_jobs=8, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")

        def lifo(engine):  # no kernel_policy tag
            return max(engine.waiting_orgs())

        vals = fleet.values_at(9, select=lifo)
        assert fleet.kernel is None  # escaped, still correct
        out = {0: 0}
        for m in all_masks(2):
            eng = ClusterEngine(wl, list(iter_members(m)))
            eng.drive(lifo, until=9)
            if eng.t < 9:
                eng.advance_to(9)
            out[m] = sum(eng.psis(9))
        assert vals == out

    def test_add_mask_pristine_extends_remove_materializes(self, rng):
        wl = random_workload(rng, n_orgs=3, n_jobs=9, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(3)[:5], backend="kernel")
        fleet.add_mask(0b111)  # pristine: kernel absorbs the new mask
        assert fleet.kernel is not None and 0b111 in fleet
        fleet.values_at(4, select=fifo_select)
        eng = fleet.remove_mask(0b111)  # materializes, returns a real engine
        assert isinstance(eng, ClusterEngine)
        assert fleet.kernel is None and 0b111 not in fleet


class TestDispatchAndCertification:
    def test_auto_threshold(self, rng, monkeypatch):
        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 8)
        wl = random_workload(rng, n_orgs=3, n_jobs=9, max_release=5)
        small = CoalitionFleet(wl, all_masks(3))
        assert small.kernel is None  # 7 masks < threshold of 8
        assert KERNEL_MIN_ENGINES <= 63, "REF k>=6 should dispatch"

    def test_auto_engages_above_threshold(self, rng, monkeypatch):
        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 4)
        wl = random_workload(rng, n_orgs=3, n_jobs=9, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(3))
        assert fleet.kernel is not None

    def test_uncertified_workload_refuses_kernel(self):
        big = 1 << 32
        wl = make_workload(
            [1, 1], [(0, 0, big), (big, 0, big), (0, 1, 2 * big)]
        )
        assert not kernel_certified(wl, None)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        assert fleet.kernel is None  # falls back to exact engines
        t = 3 * big
        got = fleet.values_at(t, select=fifo_select)
        assert got == reference_values(wl, all_masks(2), t, None)

    def test_unsafe_submit_materializes_transparently(self, rng):
        wl = random_workload(rng, n_orgs=2, n_jobs=8, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        fleet.values_at(3, select=fifo_select)
        from repro.core.job import Job

        huge = Job(release=5, org=0, index=99, size=(1 << 33))
        fleet.submit(huge)  # certification would break: engines take over
        assert fleet.kernel is None
        assert any(
            j is huge or j == huge
            for j in fleet.engine(0b01)._stream
        )


class TestOverflowFallback:
    """ISSUE 5 satellite: force the ledger past the _vector_safe guard and
    pin values_exact == vectorized at the boundary, on both backends."""

    #: far past any guard: t*t + t alone exceeds 1 << 62
    T_UNSAFE = 1 << 31

    def _workload(self):
        return make_workload(
            [1, 1],
            [(0, 0, 3), (1, 0, 2), (0, 1, 4), (5, 1, 1)],
        )

    def _reference(self, wl, t):
        return reference_values(wl, all_masks(2), t, None)

    @staticmethod
    def _guard_boundary(fleet) -> int:
        """Largest t (by bisection) where the vectorized query still runs --
        the exact trip point depends on the historical ledger maxima."""
        lo, hi = 0, 1 << 32
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if fleet.values_array(mid) is not None:
                lo = mid
            else:
                hi = mid
        return lo

    @pytest.mark.parametrize("backend", ["engines", "kernel"])
    def test_boundary_agreement_and_fallback(self, backend):
        wl = self._workload()
        fleet = CoalitionFleet(wl, all_masks(2), backend=backend)
        if backend == "kernel":
            assert fleet.kernel is not None
        fleet.values_at(20, select=fifo_select)  # run to completion
        t_safe = self._guard_boundary(fleet)
        assert 20 < t_safe < self.T_UNSAFE
        # at the boundary: vectorized and exact agree bit for bit
        arr = fleet.values_array(t_safe)
        assert arr is not None
        exact = fleet.values_exact(t_safe)
        assert dict(zip(fleet.masks, arr.tolist())) == {
            m: exact[m] for m in fleet.masks
        }
        assert exact == self._reference(wl, t_safe)
        # one past the boundary: the vectorized query refuses, values_at
        # falls back to exact unbounded-int arithmetic
        assert fleet.values_array(t_safe + 1) is None
        got = fleet.values_at(t_safe + 1)
        assert got == self._reference(wl, t_safe + 1)
        assert fleet.values_array(self.T_UNSAFE) is None
        assert fleet.values_at(self.T_UNSAFE) == self._reference(
            wl, self.T_UNSAFE
        )

    def test_kernel_exact_values_after_guard_trip(self):
        """The kernel's int64 ledgers stay exact (certified), so its exact
        fallback agrees with per-engine big-int arithmetic at any t."""
        wl = self._workload()
        kf = CoalitionFleet(wl, all_masks(2), backend="kernel")
        ef = CoalitionFleet(wl, all_masks(2), backend="engines")
        for t in (7, 20):
            kf.values_at(t, select=fifo_select)
            ef.values_at(t, select=fifo_select)
        for t in (1 << 20, self.T_UNSAFE, (1 << 40) + 7):
            assert kf.values_at(t) == ef.values_at(t), t

    def test_ref_survives_far_future_contribution_query(self, force_kernel):
        """REF's kernel body falls back to the exact path when a horizon far
        beyond int64 range trips the per-query guard mid-run."""
        far = 4_000_000_000  # t^2 overflows int64, t itself does not
        wl = make_workload([1, 1, 1, 1, 1], [(far, u, 1) for u in range(5)])
        fleet = CoalitionFleet(wl, all_masks(5))
        assert fleet.kernel is None  # certification rejects the far release
        result = RefScheduler().run(wl)
        assert len(result.schedule) == 5


class TestReplayEquivalenceWithKernel:
    """ISSUE 5 acceptance: online replay == batch stays bit-identical for
    every step-capable fleet policy with the kernel active on the batch
    side (and on the service's genesis fleets where it engages)."""

    @pytest.mark.parametrize("policy", ["ref", "rand", "directcontr"])
    def test_replay_equals_batch(self, policy, force_kernel, rng):
        from repro.service import ReplayDriver

        wl = random_workload(
            rng, n_orgs=3, n_jobs=14, max_release=12,
            machine_counts=[2, 1, 1],
        )
        report = ReplayDriver(wl, policy, seed=0).run()
        assert report.equivalent

    @pytest.mark.parametrize("policy", ["ref", "rand"])
    def test_replay_with_kill_restore(self, policy, force_kernel, rng):
        from repro.service import ReplayDriver

        wl = random_workload(rng, n_orgs=3, n_jobs=12, max_release=10)
        report = ReplayDriver(wl, policy, seed=0, snapshot_every=3).run()
        assert report.n_snapshots > 0
        assert report.equivalent

    def test_midstream_unsafe_submit_materializes(self, force_kernel,
                                                  monkeypatch, rng):
        """An overflow-boundary submit mid-stream trips ``KernelUnsafe``
        inside the service's grouped ingest: the fleet materializes to
        per-engine state and finishes bit-identically to a run that never
        used the kernel at all."""
        from repro.service import ClusterService

        wl = random_workload(
            rng, n_orgs=3, n_jobs=10, max_release=8,
            machine_counts=[2, 1, 1],
        )

        def stream(svc):
            for job in sorted(wl.jobs):
                svc.submit_job(job)
                svc.advance(job.release)
            svc.submit(0, 1 << 33, release=svc.clock)  # breaks certification
            svc.drain()
            return svc

        with_kernel = ClusterService(wl.machine_counts(), "ref", seed=0)
        assert with_kernel._policy.fleet.kernel is not None
        stream(with_kernel)
        assert with_kernel._policy.fleet.kernel is None  # escaped mid-run

        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1 << 30)
        engines_only = stream(
            ClusterService(wl.machine_counts(), "ref", seed=0)
        )
        assert engines_only._policy.fleet.kernel is None
        assert with_kernel.schedule() == engines_only.schedule()
        assert with_kernel.n_events == engines_only.n_events


class TestKernelInternals:
    def test_materializes_equal_backends_after_horizon_cut(self, rng):
        wl = random_workload(rng, n_orgs=3, n_jobs=15, max_release=20)
        masks = all_masks(3)
        kf = CoalitionFleet(wl, masks, horizon=10, backend="kernel")
        ef = CoalitionFleet(wl, masks, horizon=10, backend="engines")
        for t in (4, 9, 15):
            assert kf.values_at(t, select=fifo_select) == ef.values_at(
                t, select=fifo_select
            ), t

    def test_start_next_via_fleet_kernel(self, rng):
        wl = make_workload([1, 1], [(0, 0, 2), (0, 1, 3)])
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        fleet.advance_all(0)
        entry = fleet.start_next(0b11, 1)
        assert (entry.start, entry.job.org) == (0, 1)
        with pytest.raises(ValueError):
            fleet.start_next(0b11, 1)  # no second waiting job for org 1
        entry2 = fleet.start_next(0b11, 0)
        assert entry2.machine != entry.machine
        with pytest.raises(ValueError):
            fleet.start_next(0b01, 0, machine=99)

    def test_kernel_certified_bound(self):
        wl = make_workload([1], [(0, 0, 1)])
        assert kernel_certified(wl, None)
        assert not kernel_certified(wl, 1 << 40)

    def test_fleet_kernel_direct_event_api(self):
        wl = make_workload([1, 1], [(0, 0, 2), (4, 1, 1)])
        kern = FleetKernel(wl, [0b01, 0b10, 0b11])
        assert kern.next_event_time() == 0
        assert kern.has_event_at_or_before(0)
        kern.drive_fifo(10)
        assert kern.t == 10
        assert kern.next_event_time() is None


def engine_state(eng: ClusterEngine) -> tuple:
    """Every field a materialized engine must reproduce.  The released
    stream prefix is compared as a sorted list: an engine keeps it in
    release-processing order, which only differs from canonical order for
    a job submitted at the current time after that time's releases, and
    no scheduling step reads the prefix."""
    pos = eng._stream_pos
    return (
        eng.t,
        eng.members,
        eng.machine_owner,
        sorted(eng._stream[:pos]),
        eng._stream[pos:],
        {u: list(q) for u, q in eng._pending.items()},
        eng._free_set,
        sorted(eng._busy),
        {m: (r.job, r.start, r.machine) for m, r in eng._running.items()},
        eng._done_units,
        eng._done_wstart,
        eng._done_units_mach,
        eng._done_wstart_mach,
        (eng._tot_units, eng._tot_wstart),
        (eng._run_start_sum, eng._run_start_sq),
        eng._log,
        eng._completed,
    )


def log_prefix(kern: FleetKernel) -> list:
    n = kern._log_len
    return [
        getattr(kern, name)[:n].copy()
        for name in ("_log_row", "_log_start", "_log_mach", "_log_job")
    ]


INGEST_K = 3
INGEST_MASKS = all_masks(INGEST_K)

_job = st.tuples(
    st.integers(0, INGEST_K - 1),  # org
    st.integers(0, 3),  # release offset: collisions across orgs are common
    st.sampled_from([1, 2, 3, 5]),  # size
)
_ops = st.one_of(
    st.tuples(
        st.just("submit"),
        st.lists(_job, min_size=1, max_size=7),
        st.lists(st.integers(1, 4), max_size=7),  # submit_many chunk sizes
    ),
    st.tuples(st.just("advance"), st.integers(0, 4)),
    st.tuples(st.just("drive"), st.integers(0, 6)),
    st.tuples(
        st.just("fill"),
        st.lists(st.booleans(), min_size=len(INGEST_MASKS),
                 max_size=len(INGEST_MASKS)),
        st.lists(st.integers(-4, 4), min_size=len(INGEST_MASKS) * INGEST_K,
                 max_size=len(INGEST_MASKS) * INGEST_K),
    ),
)


class IngestHarness:
    """Three simulations of one fleet fed the same online stream: a kernel
    ingesting random ``submit_many`` batches, a kernel ingesting one job at
    a time, and a forced-engines :class:`CoalitionFleet` oracle."""

    def __init__(self, wl) -> None:
        self.batched = FleetKernel(wl, INGEST_MASKS)
        self.single = FleetKernel(wl, INGEST_MASKS)
        self.oracle = CoalitionFleet(wl, INGEST_MASKS, backend="engines")
        self.next_index = [0] * INGEST_K
        self.last_rel = [0] * INGEST_K
        for j in wl.jobs:
            self.next_index[j.org] = max(self.next_index[j.org], j.index + 1)
            self.last_rel[j.org] = max(self.last_rel[j.org], j.release)

    @property
    def t(self) -> int:
        return self.batched.t

    def engines(self) -> "list[ClusterEngine]":
        return [self.oracle.engine(m) for m in INGEST_MASKS]

    def submit(self, triples, chunks) -> None:
        jobs = []
        for org, offset, size in triples:
            # FIFO-valid per org; equal releases across orgs meet at the
            # org-window boundaries of the flat stream
            rel = max(self.t + offset, self.last_rel[org])
            jobs.append(Job(rel, org, self.next_index[org], size))
            self.next_index[org] += 1
            self.last_rel[org] = rel
        before = [log_prefix(k) for k in (self.batched, self.single)]
        i = 0
        for n in list(chunks) + [len(jobs)]:
            if i < len(jobs):
                self.batched.submit_many(jobs[i : i + n])
                i += n
        for job in jobs:
            self.single.submit(job)
        self.oracle.submit_many(jobs)
        # ingest is append-only: not one logged start moved or changed
        for kern, old in zip((self.batched, self.single), before):
            for got, want in zip(log_prefix(kern), old):
                assert got.tobytes() == want.tobytes()

    def advance(self, dt: int) -> None:
        t = self.t + dt
        self.batched.advance(t)
        self.single.advance(t)
        for eng in self.engines():
            eng.advance_to(t)

    def drive(self, dt: int) -> None:
        until = self.t + dt
        self.batched.drive_fifo(until)
        self.single.drive_fifo(until)
        self.oracle.drive_all(fifo_select, until)

    def fill(self, row_mask, flat_keys) -> None:
        rows = np.flatnonzero(row_mask)
        keys = np.array(flat_keys, dtype=np.int64).reshape(-1, INGEST_K)
        self.batched.fill_rows(rows, keys[rows], self.t)
        self.single.fill_rows(rows, keys[rows], self.t)
        for r in rows:
            eng = self.oracle.engine(INGEST_MASKS[r])
            key = dict(enumerate(keys[r].tolist()))
            while eng.free_count > 0 and eng.has_waiting():
                eng.start_next(fair_select(eng.waiting_orgs(), key))

    def check(self) -> None:
        t = self.t
        past = sorted({0, t // 2, max(t - 1, 0)})
        engines = self.engines()
        for tp in past:
            want = [eng.value(tp) for eng in engines]
            assert self.batched.values_retro(tp).tolist() == want, tp
            assert self.single.values_retro(tp).tolist() == want, tp
        for r, eng in enumerate(engines):
            assert eng.t == t
            entries = self.batched.row_entries(r)
            assert entries == self.single.row_entries(r)
            assert Schedule(entries) == eng.schedule()
            for tq in past + [t, t + 3]:
                want = eng.psis(tq)
                assert self.batched.row_psis(r, tq) == want, (r, tq)
                assert self.single.row_psis(r, tq) == want, (r, tq)
            state = engine_state(eng)
            assert engine_state(self.batched.materialize_row(r)) == state
            assert engine_state(self.single.materialize_row(r)) == state


class TestOnlineIngest:
    """Batched ingest == one-at-a-time ingest == per-engine oracle, after
    every step of a random online interleaving."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**16), ops=st.lists(_ops, max_size=14))
    def test_random_interleavings_match_oracles(self, seed, ops):
        rng = np.random.default_rng(seed)
        wl = random_workload(
            rng, n_orgs=INGEST_K, n_jobs=8, max_release=6,
            machine_counts=[2, 1, 1],
        )
        h = IngestHarness(wl)
        h.check()
        for op, *args in ops:
            getattr(h, op)(*args)
            h.check()
        h.drive(60)  # run everything out
        h.check()

    def test_same_release_org_boundaries_in_one_batch(self):
        """A batch whose jobs of different orgs share a release lands each
        at its own org window, exactly like sequential submits."""
        wl = make_workload([2, 1, 1], [(0, 0, 2), (0, 1, 3), (1, 2, 1)])
        h = IngestHarness(wl)
        h.drive(1)
        h.submit([(2, 2, 2), (0, 2, 1), (1, 2, 3), (2, 2, 1), (0, 2, 5)], [5])
        h.check()
        h.drive(4)
        h.check()
        h.drive(40)
        h.check()


    def test_submit_at_current_time_after_its_releases(self):
        """A job submitted at ``t`` after the releases at ``t`` were
        processed stays unreleased; a materialized row must not put it in
        the released stream prefix (it would never start)."""
        wl = make_workload([2, 1, 1], [(0, 0, 3), (5, 0, 3), (5, 2, 1)])
        h = IngestHarness(wl)
        h.advance(5)
        h.submit([(0, 0, 1)], [])  # release 5 == t, org window of org 0
        h.check()
        h.drive(30)
        h.check()


class TestAppendOnlyStartLog:
    def test_submits_never_rewrite_the_log(self, rng):
        wl = random_workload(rng, n_orgs=3, n_jobs=18, max_release=6)
        kern = FleetKernel(wl, all_masks(3))
        kern.drive_fifo(5)
        assert kern._log_len > 0
        before = log_prefix(kern)
        early = [Job(5, u, 100 + i, 1 + i) for i, u in enumerate((2, 0, 1))]
        kern.submit_many(early)  # lands *before* unreleased stream jobs
        kern.submit(Job(5, 1, 200, 4))
        kern.submit_many([Job(7, 0, 300, 2), Job(6, 2, 300, 3)])
        assert kern._log_len == len(before[0])
        for got, want in zip(log_prefix(kern), before):
            assert got.tobytes() == want.tobytes()
        # and the unchanged log still names the right jobs
        kern.drive_fifo(60)
        for got, want in zip(log_prefix(kern), before):
            assert got[: len(want)].tobytes() == want.tobytes()
        started = [kern.jobs_by_id[i] for i in kern._log_job[: kern._log_len]]
        assert set(started) == set(kern.jobs_by_id)

    @pytest.mark.parametrize("method", ["submit", "submit_many"])
    def test_ingest_code_never_touches_the_log(self, method):
        source = inspect.getsource(getattr(FleetKernel, method))
        assert "_log" not in source

    def test_unsafe_batch_allocates_no_ids(self, rng):
        wl = random_workload(rng, n_orgs=2, n_jobs=6, max_release=4)
        kern = FleetKernel(wl, all_masks(2))
        kern.drive_fifo(4)
        n_ids = len(kern.jobs_by_id)
        huge = [Job(5, 0, 50, 1 << 33), Job(5, 1, 50, 1)]
        with pytest.raises(kernel_mod.KernelUnsafe):
            kern.submit_many(huge)
        with pytest.raises(kernel_mod.KernelUnsafe):
            kern.submit(huge[0])
        assert len(kern.jobs_by_id) == n_ids
        assert len(kern.id_flat) == len(kern.rel_flat) - 1 == n_ids
