"""The fault-injection layer's contracts, unit and end-to-end.

Three tiers of claim:

* **Plan** — the decision oracle is a pure function of ``(fault seed,
  site, coordinates)``: reproducible, order-free, bounded.
* **Salvage** — quarantining a damaged capture keeps every decodable
  record byte-for-byte, reports every dropped one with evidence, and
  is a strict no-op on healthy captures.
* **Recovery** — the keystone property: under ANY lossless fault plan
  (drops, dups, reorders, starvation, crashes, hangs, torn/corrupt
  checkpoints — including a kill/resume in the middle) the service
  report is byte-identical to the fault-free batch fleet.  Lossy plans
  (pcap damage) never abort: they complete with counted degradation
  records carrying evidence, identically at every job count.
"""

import hashlib
import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.grid import ResultCache
from repro.faults import (FAULT_ATTEMPT_CAP, FaultPlan, FaultSpecError,
                          NULL_PLAN, produce_with_retries,
                          salvage_pcap_bytes, tamper_pcap_bytes)
from repro.fleet import (FleetRunner, PopulationSpec,
                         render_population_report)
from repro.net import (CapturedPacket, Ipv4Address, MacAddress,
                       PcapError, TcpSegment, dump_bytes)
from repro.net.packet import build_tcp_frame
from repro.service import (ServiceConfig, ServiceStopped, serve_fleet,
                           split_pcap_bytes)

UK_QUICK = {"country": {"uk": 1.0}, "diary": {"second_screen": 1.0}}
POP = dict(households=4, seed=21, mixes=UK_QUICK)

#: The fault-free UK_QUICK fleet report, pinned by digest: a run
#: without --faults must stay byte-identical to the output this layer
#: shipped against.  If this moves, the fault machinery leaked into
#: the clean path.
CLEAN_REPORT_SHA = \
    "21f54f53a5a40cbd3233774c1fae8003bfcb0ed7cc934b69408e6851303a1e6b"

#: Sites whose recovery is lossless (byte-identical convergence);
#: the pcap.* sites are deliberately absent — they are lossy by design.
LOSSLESS_SITES = ("segment.drop", "segment.dup", "segment.reorder",
                  "segment.starve", "worker.crash", "worker.hang",
                  "checkpoint.torn", "checkpoint.corrupt")

MAC_TV = MacAddress.parse("02:00:00:00:00:01")
MAC_GW = MacAddress.parse("02:00:00:00:00:02")
TV = Ipv4Address.parse("192.168.1.2")
REMOTE = Ipv4Address.parse("203.0.113.7")


def sha(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


def _capture(records: int = 6) -> bytes:
    """A healthy multi-record capture (valid TCP frames)."""
    return dump_bytes([
        CapturedPacket((i + 1) * 1_000_000, build_tcp_frame(
            MAC_TV, MAC_GW, TV, REMOTE,
            TcpSegment(40000 + i, 443, i, 2, 0x18,
                       payload=bytes([i]) * (20 + i)),
            identification=i))
        for i in range(records)])


# -- the plan oracle ----------------------------------------------------------


class TestFaultPlanGrammar:
    def test_parse_rates_and_bare_sites(self):
        plan = FaultPlan.parse(
            " segment.drop:0.25 , worker.crash ", seed=3)
        assert plan.rate("segment.drop") == 0.25
        assert plan.rate("worker.crash") == 1.0
        assert plan.seed == 3
        assert plan

    def test_zero_rate_sites_are_dropped(self):
        assert not FaultPlan.parse("segment.drop:0")
        assert FaultPlan.parse("segment.drop:0") == FaultPlan()

    def test_unknown_site_is_refused(self):
        with pytest.raises(FaultSpecError, match="unknown fault site"):
            FaultPlan.parse("segment.dorp:0.5")

    def test_duplicate_site_is_refused(self):
        with pytest.raises(FaultSpecError, match="duplicate"):
            FaultPlan.parse("segment.drop:0.1,segment.drop:0.2")

    def test_bad_rate_is_refused(self):
        with pytest.raises(FaultSpecError, match="bad fault rate"):
            FaultPlan.parse("segment.drop:lots")
        with pytest.raises(FaultSpecError, match=r"in \[0, 1\]"):
            FaultPlan.parse("segment.drop:1.5")

    def test_pickle_round_trip(self):
        # Pickle is the process boundary: tasks carry the plan itself.
        plan = FaultPlan.parse("segment.drop:0.2,worker.hang:0.7",
                               seed=9)
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert pickle.loads(pickle.dumps(NULL_PLAN)) == NULL_PLAN


class TestFaultPlanOracle:
    def test_draws_are_deterministic_and_seed_dependent(self):
        one = FaultPlan({"segment.drop": 0.5}, seed=1)
        two = FaultPlan({"segment.drop": 0.5}, seed=2)
        assert one.draw("segment.drop", 3, 4) \
            == one.draw("segment.drop", 3, 4)
        assert one.draw("segment.drop", 3, 4) \
            != two.draw("segment.drop", 3, 4)
        assert 0.0 <= one.draw("segment.drop", 3, 4) < 1.0

    def test_rate_extremes(self):
        always = FaultPlan({"segment.drop": 1.0})
        assert all(always.fires("segment.drop", i) for i in range(20))
        assert not any(NULL_PLAN.fires("segment.drop", i)
                       for i in range(20))

    def test_bounded_sites_never_fire_past_the_cap(self):
        always = FaultPlan({"worker.crash": 1.0})
        for attempt in range(FAULT_ATTEMPT_CAP):
            assert always.fires_bounded("worker.crash", attempt, 7)
        assert not always.fires_bounded("worker.crash",
                                        FAULT_ATTEMPT_CAP, 7)

    @given(rate=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(0, 10_000),
           coords=st.lists(st.integers(0, 999), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_decisions_are_pure_functions_of_coordinates(
            self, rate, seed, coords):
        plan = FaultPlan({"segment.drop": rate}, seed=seed)
        twin = pickle.loads(pickle.dumps(plan))
        assert plan.fires("segment.drop", *coords) \
            == twin.fires("segment.drop", *coords)


class TestWorkerRetry:
    def test_bounded_crash_always_recovers(self):
        plan = FaultPlan({"worker.crash": 1.0}, seed=4)
        calls = []

        def produce():
            calls.append(1)
            return "done"

        result, injected = produce_with_retries(plan, (11,), produce)
        assert result == "done"
        assert len(calls) == 1
        assert injected == ["worker.crash"] * FAULT_ATTEMPT_CAP

    def test_null_plan_is_free(self):
        result, injected = produce_with_retries(NULL_PLAN, (0,),
                                                lambda: 42)
        assert (result, injected) == (42, [])


# -- tamper + salvage ---------------------------------------------------------


class TestTamper:
    def test_null_plan_and_header_only_are_no_ops(self):
        raw = _capture()
        assert tamper_pcap_bytes(NULL_PLAN, raw, 0, 0) == (raw, [])
        lossy = FaultPlan({"pcap.corrupt": 1.0})
        header_only = dump_bytes([])
        assert tamper_pcap_bytes(lossy, header_only, 0, 0) \
            == (header_only, [])

    def test_tamper_is_deterministic(self):
        plan = FaultPlan({"pcap.corrupt": 1.0, "pcap.truncate": 1.0},
                         seed=8)
        raw = _capture()
        first = tamper_pcap_bytes(plan, raw, 2, 5)
        assert first == tamper_pcap_bytes(plan, raw, 2, 5)
        assert first[0] != raw
        assert set(first[1]) == {"pcap.corrupt", "pcap.truncate"}

    def test_different_coordinates_different_damage(self):
        plan = FaultPlan({"pcap.truncate": 1.0}, seed=8)
        raw = _capture()
        cuts = {len(tamper_pcap_bytes(plan, raw, 0, seq)[0])
                for seq in range(8)}
        assert len(cuts) > 1


class TestSalvage:
    def test_healthy_capture_is_a_strict_no_op(self):
        raw = _capture()
        assert salvage_pcap_bytes(raw) == (raw, [])

    def test_unusable_global_header(self):
        clean, drops = salvage_pcap_bytes(b"not a pcap at all")
        assert clean == b""
        assert len(drops) == 1
        assert drops[0][0] == -1
        assert drops[0][1].startswith("unusable global header")

    def test_truncated_tail_keeps_the_prefix(self):
        raw = _capture(records=4)
        torn = raw[:-5]
        clean, drops = salvage_pcap_bytes(torn)
        assert drops == [(3, "truncated pcap record data")]
        # The surviving records are byte-identical slices.
        assert raw.startswith(clean)
        assert salvage_pcap_bytes(clean) == (clean, [])

    def test_corrupt_record_is_quarantined_alone(self):
        plan = FaultPlan({"pcap.corrupt": 1.0}, seed=8)
        raw = _capture(records=6)
        damaged, injected = tamper_pcap_bytes(plan, raw, 1, 2)
        assert injected == ["pcap.corrupt"]
        clean, drops = salvage_pcap_bytes(damaged)
        assert len(drops) == 1
        index, reason = drops[0]
        assert 0 <= index < 6
        assert "ValueError" in reason
        # Exactly one record was lost; the rest re-decode cleanly.
        assert salvage_pcap_bytes(clean) == (clean, [])
        assert len(clean) < len(raw)


class TestSegmenterEvidence:
    """Satellite: truncated-capture errors carry record + offset."""

    def test_truncated_record_data_names_index_and_offset(self):
        raw = _capture(records=2)
        with pytest.raises(PcapError,
                           match=r"record 1 at byte \d+ declares"):
            split_pcap_bytes(raw[:-3], 2)

    def test_truncated_record_header_names_index_and_offset(self):
        from repro.service.segments import PCAP_HEADER_LEN
        raw = _capture(records=2)
        with pytest.raises(PcapError,
                           match=r"record 0 at byte 24 needs"):
            split_pcap_bytes(raw[:PCAP_HEADER_LEN + 8], 2)


# -- end-to-end recovery ------------------------------------------------------


@pytest.fixture(scope="module")
def cache():
    root = os.path.join(os.environ["REPRO_CACHE_DIR"], "faults-suite")
    return ResultCache(root, version="faults-1")


@pytest.fixture(scope="module")
def population():
    return PopulationSpec(**POP)


@pytest.fixture(scope="module")
def batch_sha(cache, population):
    result = FleetRunner(cache=cache, jobs=1).run(population)
    return sha(render_population_report(result.aggregate, population))


def serve_faults_sha(population, cache, faults, **kwargs) -> str:
    config = ServiceConfig(
        window=kwargs.pop("window", 3),
        credits=kwargs.pop("credits", 2),
        segments=kwargs.pop("segments", 5),
        arrival_seed=kwargs.pop("arrival_seed", None),
        checkpoint_every=kwargs.pop("checkpoint_every", 1),
        faults=faults)
    result = serve_fleet(population, cache=cache, config=config,
                         **kwargs)
    return sha(render_population_report(result.state,
                                        result.population))


@pytest.mark.slow
class TestFaultFreeBaseline:
    def test_clean_fleet_report_is_pinned(self, batch_sha):
        assert batch_sha == CLEAN_REPORT_SHA

    def test_null_plan_serve_matches_the_pin(self, cache, population):
        assert serve_faults_sha(population, cache, NULL_PLAN) \
            == CLEAN_REPORT_SHA


@pytest.mark.slow
class TestLosslessPlansConverge:
    """The keystone property: any lossless plan, any kill point."""

    @given(rates=st.dictionaries(st.sampled_from(LOSSLESS_SITES),
                                 st.integers(min_value=1, max_value=6),
                                 min_size=1, max_size=4),
           fault_seed=st.integers(0, 999),
           stop_after=st.integers(min_value=1, max_value=80),
           arrival_seed=st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None)
    def test_kill_resume_under_random_plan_matches_batch(
            self, cache, population, batch_sha, rates, fault_seed,
            stop_after, arrival_seed):
        plan = FaultPlan({site: rate / 10.0
                          for site, rate in rates.items()},
                         seed=fault_seed)
        with tempfile.TemporaryDirectory() as ckdir:
            ticks = [0]

            def stop_check():
                ticks[0] += 1
                return ticks[0] > stop_after

            try:
                report_sha = serve_faults_sha(
                    population, cache, plan, arrival_seed=arrival_seed,
                    checkpoint_dir=ckdir, stop_check=stop_check)
            except ServiceStopped:
                # Resume under the SAME plan: the replayed schedule
                # re-derives the same injections and still converges.
                report_sha = serve_faults_sha(
                    population, cache, plan, arrival_seed=arrival_seed,
                    checkpoint_dir=ckdir, resume=True)
            assert report_sha == batch_sha

    def test_aggressive_everything_plan_converges(self, cache,
                                                  population,
                                                  batch_sha):
        plan = FaultPlan.parse(
            "segment.drop:0.4,segment.dup:0.4,segment.reorder:0.5,"
            "segment.starve:0.4,worker.crash:0.3,worker.hang:0.2,"
            "checkpoint.torn:0.6,checkpoint.corrupt:0.5", seed=11)
        with tempfile.TemporaryDirectory() as ckdir:
            assert serve_faults_sha(population, cache, plan,
                                    checkpoint_dir=ckdir) == batch_sha

    def test_pool_production_under_faults_matches_batch(
            self, cache, population, batch_sha):
        plan = FaultPlan.parse("worker.crash:0.5,segment.drop:0.3",
                               seed=6)
        assert serve_faults_sha(population, cache, plan, jobs=2) \
            == batch_sha


@pytest.mark.slow
class TestLossyPlansDegrade:
    """pcap damage never aborts: counted degradations with evidence,
    identical at every job count."""

    PLAN = dict(rates={"pcap.corrupt": 0.6, "pcap.truncate": 0.4,
                       "worker.crash": 0.5}, seed=5)

    def _fleet(self, cache, population, jobs):
        plan = FaultPlan(**self.PLAN)
        result = FleetRunner(cache=cache, jobs=jobs, faults=plan).run(
            population)
        return result, render_population_report(result.aggregate,
                                                population)

    def test_degradations_carry_evidence_and_render(self, cache,
                                                    population,
                                                    batch_sha):
        result, report = self._fleet(cache, population, jobs=1)
        assert result.aggregate.degradations
        for evidence in result.aggregate.degradations:
            assert evidence.startswith("household ")
            assert "record" in evidence or "global header" in evidence
        assert "## Degradations" in report
        assert sha(report) != batch_sha

    def test_lossy_fleet_is_jobs_invariant(self, cache, population):
        __, serial = self._fleet(cache, population, jobs=1)
        __, parallel = self._fleet(cache, population, jobs=2)
        assert serial == parallel

    def test_lossy_serve_completes_deterministically(self, cache,
                                                     population):
        plan = FaultPlan(**self.PLAN)
        first = serve_faults_sha(population, cache, plan)
        assert first == serve_faults_sha(population, cache, plan)
