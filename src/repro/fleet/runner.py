"""Sharded fleet execution over the shared task runner and result cache.

A fleet run is embarrassingly parallel: each household session is a pure
function of ``(household label, derived seed)``.  The runner

* partitions households into fixed-size shards whose boundaries depend
  only on N (never on ``--jobs``), so the fold structure — fold within a
  shard, merge shards in index order — is identical however many workers
  execute it, and the aggregate report is byte-identical across job
  counts;
* executes shards through :func:`repro.workers.run_tasks` (in-process,
  or on worker processes that inherit the warmed per-country assets);
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

import functools
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..analysis.pipeline import AuditPipeline
from ..faults import (NULL_PLAN, FaultPlan, produce_with_retries,
                      salvage_pcap_bytes, tamper_pcap_bytes)
from ..findings import Finding
from ..experiments.grid import (CacheReadError, ResultCache,
                                record_from_result)
from ..net.addresses import Ipv4Address
from ..net.pcap import GLOBAL_HEADER, PcapError
from ..obs.metrics import get_registry
from ..testbed.runner import run_session
from ..testbed.validation import validate_session
from ..util import check_jobs
from ..workers import run_tasks
from .aggregate import FleetAggregate, summarize_household
from .population import HouseholdSpec, PopulationSpec

#: Households per shard.  Fixed (not derived from --jobs) so the shard
#: partition — and therefore the fold/merge structure — depends only on
#: the population, which is what makes reports job-count invariant.
SHARD_SIZE = 16

#: Progress hook: (done shards, total shards, executed, cached,
#: aggregate folded so far) — what the dashboard renders from.
ProgressFn = Callable[[int, int, int, int, FleetAggregate], None]


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
                     faults: FaultPlan = NULL_PLAN) -> Tuple[dict, bool]:
    """Run (or recall) one household and reduce it to a summary.

    Returns ``(summary, executed)``."""
    registry = get_registry()
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
            pipeline = AuditPipeline.from_pcap_bytes(pcap_bytes, tv_ip)
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
            pipeline = AuditPipeline.from_pcap_bytes(clean, tv_ip) \
                if clean else AuditPipeline.incremental(tv_ip)
            packet_count = len(pipeline.packets)
            pcap_len = max(len(clean), GLOBAL_HEADER.size)
    summary = summarize_household(household, pipeline,
                                  packet_count, pcap_len)
    if quarantined:
        summary["findings"] = quarantined
    registry.inc("fleet.households")
    # Drop the heavy objects before the next household: the aggregate
    # keeps only the summary's integers.
    del pipeline, record
    return summary, executed


def _run_shard(cache: Optional[ResultCache], validate_results: bool,
               faults: FaultPlan, households: Sequence[HouseholdSpec]
               ) -> Tuple[FleetAggregate, int, int]:
    """Fleet task (see :func:`repro.workers.run_tasks`): audit one
    shard and return its aggregate plus executed/cached counts — never
    a capture."""
    aggregate = FleetAggregate()
    executed = cached = 0
    with get_registry().span("fleet.shard"):
        for household in households:
            # An injected audit-worker crash/hang kills this household's
            # attempt mid-shard; the bounded retry makes the shard
            # self-healing.
            (summary, ran), __ = produce_with_retries(
                faults, (household.index,),
                lambda: _audit_household(
                    household, cache, validate_results, faults))
            aggregate.fold(summary)
            if ran:
                executed += 1
            else:
                cached += 1
    get_registry().inc("fleet.shards.completed")
    return aggregate, executed, cached


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
                 faults: FaultPlan = NULL_PLAN) -> None:
        if shard_size <= 0:
            raise ValueError("shard size must be positive")
        self.cache = cache
        self.jobs = check_jobs(jobs)
        self.shard_size = shard_size
        self.validate_results = validate_results
        self.faults = faults

    def run(self, population: PopulationSpec,
            progress: Optional[ProgressFn] = None) -> FleetResult:
        """Audit every household; constant parent memory in N.

        Shard aggregates fold in index order as they arrive.
        ``progress`` receives the shard counts and the aggregate folded
        so far, which is what the live dashboard renders; it is
        observation only and never affects the result.
        """
        started = time.perf_counter()
        households = population.sample()
        shards = [households[start:start + self.shard_size]
                  for start in range(0, len(households), self.shard_size)]
        task = functools.partial(_run_shard, self.cache,
                                 self.validate_results, self.faults)
        registry = get_registry()
        aggregate = FleetAggregate()
        executed = cached = 0
        for index, (shard, ran, hit) in run_tasks(
                task, shards, self.jobs, population.countries()):
            aggregate = aggregate.merge(shard)
            executed += ran
            cached += hit
            if registry.enabled:
                elapsed = time.perf_counter() - started
                if elapsed > 0:
                    registry.gauge_set(
                        "fleet.households_per_s",
                        round(aggregate.households / elapsed, 3))
            if progress is not None:
                progress(index + 1, len(shards), executed, cached,
                         aggregate)
        return FleetResult(aggregate, population.households,
                           len(shards), executed, cached,
                           time.perf_counter() - started)
