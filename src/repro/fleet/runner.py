"""Sharded fleet execution over the grid's process pool and result cache.

A fleet run is embarrassingly parallel: each household session is a pure
function of ``(household label, derived seed)``.  The runner

* partitions households into fixed-size shards whose boundaries depend
  only on N (never on ``--jobs``), so the fold structure — fold within a
  shard, merge shards in index order — is identical however many workers
  execute it, and the aggregate report is byte-identical across job
  counts;
* executes shards on a :class:`~concurrent.futures.ProcessPoolExecutor`
  after :func:`~repro.experiments.grid.warm_assets` builds the shared
  per-country assets pre-fork;
* memoizes each household capture in the content-addressed
  :class:`~repro.experiments.grid.ResultCache` (keyed by household
  label, diary duration and derived seed), so a repeated or *grown*
  fleet only simulates new households;
* folds each household's audit into a
  :class:`~repro.fleet.aggregate.FleetAggregate` inside the worker and
  returns only the shard aggregate — captures never cross the process
  boundary and parent memory stays constant in N.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import time
from typing import Callable, List, Optional, Tuple

from ..analysis.pipeline import AuditPipeline, ColumnarAuditPipeline
from ..faults import (NULL_PLAN, FaultPlan, produce_with_retries,
                      salvage_pcap_bytes, tamper_pcap_bytes)
from ..findings import Finding
from ..experiments.grid import (CacheReadError, ResultCache,
                                record_from_result, warm_assets)
from ..net.addresses import Ipv4Address
from ..net.pcap import GLOBAL_HEADER, PcapError
from ..net.tiers import resolve_tier
from ..obs.metrics import get_registry, metrics_enabled, scoped
from ..testbed.runner import run_session
from ..testbed.validation import validate_session
from ..util import check_jobs
from .aggregate import FleetAggregate, merge_all, summarize_household
from .population import HouseholdSpec, PopulationSpec
from .shm import ColumnArena, shm_key

#: Households per shard.  Fixed (not derived from --jobs) so the shard
#: partition — and therefore the fold/merge structure — depends only on
#: the population, which is what makes reports job-count invariant.
SHARD_SIZE = 16

ProgressFn = Callable[[int, int, int, int], None]

#: Richer progress hook: (done shards, total shards, executed, cached,
#: aggregate folded so far) — what the dashboard renders from.
ObserverFn = Callable[[int, int, int, int, FleetAggregate], None]


class FleetRunError(RuntimeError):
    """A household session failed validation."""


def household_record(household: HouseholdSpec,
                     cache: Optional[ResultCache],
                     validate_results: bool = True):
    """Produce (or recall) one household's capture record.

    Returns ``(record, executed)``.  A cached capture that turns out to
    be unreadable is dropped and the household re-run, mirroring the
    grid's self-healing behaviour.  This is the single capture-
    production step shared by the batch shard workers below and the
    streaming service tier (:mod:`repro.service`), which chops the
    record's pcap into segments instead of auditing it in one piece.
    """
    diary = household.diary_obj
    record = cache.load_for(household.label, diary.duration_ns,
                            household.seed) if cache else None
    executed = False
    if record is not None:
        try:
            record.pcap_bytes
        except CacheReadError:
            record = None
    if record is None:
        with get_registry().span("fleet.simulate"):
            result = run_session(
                household.vendor, household.country, household.phase,
                diary.as_runner_segments(), seed=household.seed,
                label=household.label)
        if validate_results:
            report = validate_session(result, diary.scenarios)
            if not report.ok:
                raise FleetRunError(
                    f"household {household.label} (seed "
                    f"{household.seed}) failed validation: "
                    f"{report.failures}")
        record = record_from_result(result)
        record.label = household.label
        executed = True
        if cache:
            cache.store(record)
    return record, executed


def _audit_household(household: HouseholdSpec,
                     cache: Optional[ResultCache],
                     validate_results: bool,
                     tier: Optional[str] = None,
                     arena: Optional[ColumnArena] = None,
                     faults: FaultPlan = NULL_PLAN
                     ) -> Tuple[dict, bool, Optional[str]]:
    """Run (or recall) one household and reduce it to a summary.

    Returns ``(summary, executed, touched shm key or None)``.  With an
    arena, a household already published to shared memory is audited
    straight from the attached columns — no pcap read, no decode — and
    a freshly decoded one is published for the next process."""
    registry = get_registry()
    key = None
    if arena is not None:
        key = shm_key(household.label, household.diary_obj.duration_ns,
                      household.seed, cache.version if cache else None)
        if faults and faults.fires("shm.vanish", household.index):
            # The published segment disappears out from under us (a
            # purge, a reboot, another run's unlink); recovery is the
            # local decode below.
            registry.inc("faults.injected.shm.vanish")
            ColumnArena.unlink(key)
            registry.inc("faults.recovered.shm.fallback")
        attached = arena.attach(key)
        if attached is not None:
            capture, meta = attached
            pipeline = ColumnarAuditPipeline(
                capture, Ipv4Address.parse(meta["tv_ip"]))
            summary = summarize_household(household, pipeline,
                                          meta["packet_count"],
                                          meta["pcap_len"])
            registry.inc("fleet.households")
            del pipeline, capture
            return summary, False, key
    record, executed = household_record(household, cache,
                                        validate_results)
    pcap_bytes = record.pcap_bytes
    packet_count, pcap_len = record.packet_count, record.pcap_len
    if faults:
        pcap_bytes, __ = tamper_pcap_bytes(faults, pcap_bytes,
                                           household.index)
    quarantined: List[Finding] = []
    tv_ip = Ipv4Address.parse(record.tv_ip)
    with registry.span("fleet.decode"):
        try:
            pipeline = AuditPipeline.from_pcap_bytes(
                pcap_bytes, tv_ip, tier=tier)
        except (PcapError, ValueError) as exc:
            # Quarantine-and-continue: salvage what still decodes and
            # surface every dropped record as a counted finding instead
            # of aborting the shard.
            clean, drops = salvage_pcap_bytes(pcap_bytes)
            registry.inc("faults.degraded.captures")
            registry.inc("faults.degraded.records", len(drops))
            for record_index, reason in drops:
                quarantined.append(Finding.degradation(
                    household.label, household.index, None,
                    record_index, reason))
            pipeline = AuditPipeline.from_pcap_bytes(
                clean, tv_ip, tier=tier) if clean \
                else AuditPipeline.incremental(tv_ip)
            packet_count = len(pipeline.packets)
            pcap_len = max(len(clean), GLOBAL_HEADER.size)
    touched = None
    if (arena is not None and not quarantined
            and isinstance(pipeline, ColumnarAuditPipeline)):
        touched = arena.publish(
            key, pipeline.packets,
            {"tv_ip": record.tv_ip, "label": household.label,
             "packet_count": record.packet_count,
             "pcap_len": record.pcap_len})
    summary = summarize_household(household, pipeline,
                                  packet_count, pcap_len)
    if quarantined:
        summary["findings"] = quarantined
    registry.inc("fleet.households")
    # Drop the heavy objects before the next household: the aggregate
    # keeps only the summary's integers.
    del pipeline, record
    return summary, executed, touched


def _run_shard(payload) -> Tuple[FleetAggregate, int, int,
                                 Optional[dict], Tuple[str, ...]]:
    """Pool worker: audit one shard, return its merged aggregate.

    Takes only primitives (household tuples + cache coordinates + tier
    and shared-memory flags) and returns the shard's
    :class:`FleetAggregate` plus executed/cached counts, — when the
    parent had metrics enabled — the shard's own metrics snapshot,
    collected in a worker-local registry so the parent can absorb it
    without double counting, and the shm keys it touched (published or
    attached).  Never a capture.
    """
    (household_tuples, cache_root, cache_version, validate_results,
     collect_metrics, tier, shm_columns, plan_tuple) = payload
    cache = ResultCache(cache_root, version=cache_version) \
        if cache_root else None
    faults = FaultPlan.from_tuple(plan_tuple)
    arena = ColumnArena() \
        if shm_columns and resolve_tier(tier) == "columnar" else None
    aggregate = FleetAggregate()
    executed = cached = 0
    touched: List[str] = []
    with scoped(collect_metrics) as registry:
        with get_registry().span("fleet.shard"):
            for values in household_tuples:
                household = HouseholdSpec.from_tuple(values)
                # An injected audit-worker crash/hang kills this
                # household's attempt mid-shard; the bounded retry
                # makes the shard self-healing.
                (summary, ran, key), __ = produce_with_retries(
                    faults, (household.index,),
                    lambda: _audit_household(
                        household, cache, validate_results, tier,
                        arena, faults))
                aggregate.fold(summary)
                if key is not None:
                    touched.append(key)
                if ran:
                    executed += 1
                else:
                    cached += 1
        get_registry().inc("fleet.shards.completed")
        snapshot = registry.snapshot() if registry is not None else None
    return aggregate, executed, cached, snapshot, tuple(touched)


class FleetResult:
    """Outcome of one fleet run: the aggregate plus execution stats."""

    __slots__ = ("aggregate", "households", "shards", "executed",
                 "cached", "elapsed_s")

    def __init__(self, aggregate: FleetAggregate, households: int,
                 shards: int, executed: int, cached: int,
                 elapsed_s: float) -> None:
        self.aggregate = aggregate
        self.households = households
        self.shards = shards
        self.executed = executed
        self.cached = cached
        self.elapsed_s = elapsed_s

    def __repr__(self) -> str:
        return (f"FleetResult({self.households} households in "
                f"{self.shards} shards, {self.executed} executed, "
                f"{self.cached} cached, {self.elapsed_s:.1f}s)")


class FleetRunner:
    """Execute a population, sharded, through the result cache."""

    def __init__(self, cache: Optional[ResultCache] = None, jobs: int = 1,
                 shard_size: int = SHARD_SIZE,
                 validate_results: bool = True,
                 decode_tier: Optional[str] = None,
                 shm_columns: bool = False,
                 shm_keep: bool = False,
                 faults: FaultPlan = NULL_PLAN) -> None:
        if shard_size <= 0:
            raise ValueError("shard size must be positive")
        self.cache = cache
        self.jobs = check_jobs(jobs)
        self.shard_size = shard_size
        self.validate_results = validate_results
        #: Resolved once here so workers get an explicit tier rather
        #: than relying on inheriting the parent's process default.
        self.decode_tier = resolve_tier(decode_tier)
        self.shm_columns = shm_columns
        self.shm_keep = shm_keep
        self.faults = faults

    def _payloads(self, population: PopulationSpec) -> List[Tuple]:
        cache_root = self.cache.root if self.cache else None
        cache_version = self.cache.version if self.cache else None
        households = [household.as_tuple() for household in population]
        return [
            (tuple(households[start:start + self.shard_size]),
             cache_root, cache_version, self.validate_results,
             metrics_enabled(), self.decode_tier, self.shm_columns,
             self.faults.as_tuple())
            for start in range(0, len(households), self.shard_size)]

    def run(self, population: PopulationSpec,
            progress: Optional[ProgressFn] = None,
            observer: Optional[ObserverFn] = None) -> FleetResult:
        """Audit every household; constant parent memory in N.

        ``progress`` receives plain shard counts; ``observer``
        additionally receives the aggregate folded so far (shards merge
        in index order), which is what the live dashboard renders —
        both are observation only and never affect the result.
        """
        started = time.perf_counter()
        payloads = self._payloads(population)
        shard_outputs: List[Optional[Tuple]] = [None] * len(payloads)

        def collect(index: int, output: Tuple) -> None:
            shard_outputs[index] = output
            get_registry().absorb(output[3])
            registry = get_registry()
            if registry.enabled:
                elapsed = time.perf_counter() - started
                folded = sum(o[0].households for o in shard_outputs
                             if o is not None)
                if elapsed > 0:
                    registry.gauge_set("fleet.households_per_s",
                                       round(folded / elapsed, 3))
            self._report(progress, observer, shard_outputs)

        if self.jobs == 1 or len(payloads) == 1:
            for index, payload in enumerate(payloads):
                collect(index, _run_shard(payload))
        else:
            workers = min(self.jobs, len(payloads))
            if multiprocessing.get_start_method() == "fork":
                # Same pre-fork warm-up the grid runner does: workers
                # inherit the per-country reference libraries
                # copy-on-write instead of each rebuilding them.
                warm_assets(countries=population.countries())
            failed: List[int] = []
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                futures = {
                    pool.submit(_run_shard, payload): index
                    for index, payload in enumerate(payloads)}
                for future in concurrent.futures.as_completed(futures):
                    try:
                        collect(futures[future], future.result())
                    except concurrent.futures.process.BrokenProcessPool:
                        # A worker died for real (OOM-kill, segfault).
                        # The pool is unusable from here on; requeue
                        # every lost shard for the serial pass below.
                        failed.append(futures[future])
            for index in sorted(failed):
                get_registry().inc("retry.shard.requeued")
                collect(index, _run_shard(payloads[index]))

        aggregate = merge_all(output[0] for output in shard_outputs)
        executed = sum(output[1] for output in shard_outputs)
        cached = sum(output[2] for output in shard_outputs)
        if self.shm_columns and not self.shm_keep:
            # Shared-memory columns are a per-run decode cache by
            # default: every segment this run touched (published or
            # attached) is removed.  --shm-keep leaves them for the
            # next run/process to attach.
            for output in shard_outputs:
                for key in output[4]:
                    ColumnArena.unlink(key)
        return FleetResult(aggregate, population.households,
                           len(payloads), executed, cached,
                           time.perf_counter() - started)

    @staticmethod
    def _report(progress: Optional[ProgressFn],
                observer: Optional[ObserverFn],
                shard_outputs: List) -> None:
        if progress is None and observer is None:
            return
        done = [output for output in shard_outputs if output is not None]
        counts = (len(done), len(shard_outputs),
                  sum(output[1] for output in done),
                  sum(output[2] for output in done))
        if progress is not None:
            progress(*counts)
        if observer is not None:
            # Index order keeps the partial aggregate canonical (the
            # same discipline as the final merge).
            observer(*counts, merge_all(
                output[0] for output in shard_outputs
                if output is not None))
