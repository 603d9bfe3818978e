"""Streaming-vs-batch equivalence: the service tier's one invariant.

Property-tested claim: for ANY segment count, credit window, household
window, arrival interleaving, job count, and checkpoint/kill/resume
point, the streaming service renders a fleet report byte-identical
(sha256) to the batch ``fleet --jobs 1`` path over the same population.

The simulating tests share one module-scoped result cache, so only the
first run pays for capture simulation; every subsequent property
example replays cached captures through a different streaming schedule.
"""

import hashlib
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.grid import ResultCache
from repro.fleet import (FleetRunner, PopulationSpec,
                         render_population_report)
from repro.net import CapturedPacket, dump_bytes
from repro.service import (CheckpointError, LiveState, ServiceConfig,
                           ServiceStopped, load_checkpoint, serve_fleet,
                           split_pcap_bytes, write_checkpoint)
from repro.service.checkpoint import population_key
from repro.service.segments import PCAP_HEADER_LEN

# The cheap simulated fleet: one country (one asset build), the
# shortest diary.  Same shape the fleet runner tests use.
UK_QUICK = {"country": {"uk": 1.0}, "diary": {"second_screen": 1.0}}
POP = dict(households=4, seed=21, mixes=UK_QUICK)


def sha(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


def serve_sha(population, cache, **kwargs) -> str:
    config = ServiceConfig(
        window=kwargs.pop("window", 3),
        credits=kwargs.pop("credits", 2),
        segments=kwargs.pop("segments", 5),
        arrival_seed=kwargs.pop("arrival_seed", None),
        checkpoint_every=kwargs.pop("checkpoint_every", 1))
    result = serve_fleet(population, cache=cache, config=config,
                         **kwargs)
    return sha(render_population_report(result.state,
                                        result.population))


@pytest.fixture(scope="module")
def cache():
    # Lives under the suite's persistent cache root (conftest points
    # REPRO_CACHE_DIR at a tempdir), so repeated `make test` runs stay
    # warm; the explicit version isolates it from other suites.
    root = os.path.join(os.environ["REPRO_CACHE_DIR"], "service-eq")
    return ResultCache(root, version="service-eq-1")


@pytest.fixture(scope="module")
def population():
    return PopulationSpec(**POP)


@pytest.fixture(scope="module")
def batch_sha(cache, population):
    result = FleetRunner(cache=cache, jobs=1).run(population)
    return sha(render_population_report(result.aggregate, population))


class TestSplitIsBytePreserving:
    """Fast, simulation-free: the segmentation layer's exact contract."""

    @given(payloads=st.lists(st.binary(min_size=1, max_size=90),
                             max_size=12),
           parts=st.integers(min_value=1, max_value=15))
    @settings(max_examples=120, deadline=None)
    def test_reassembly_reproduces_the_capture(self, payloads, parts):
        raw = dump_bytes([CapturedPacket(i * 1_000, data)
                          for i, data in enumerate(payloads)])
        chunks = split_pcap_bytes(raw, parts)
        header = raw[:PCAP_HEADER_LEN]
        assert all(chunk[:PCAP_HEADER_LEN] == header for chunk in chunks)
        body = b"".join(chunk[PCAP_HEADER_LEN:] for chunk in chunks)
        assert header + body == raw
        # The pcap_len accounting the fleet report depends on.
        assert sum(len(chunk) - PCAP_HEADER_LEN for chunk in chunks) \
            + PCAP_HEADER_LEN == len(raw)

    def test_empty_capture_yields_header_only_chunk(self):
        raw = dump_bytes([])
        assert split_pcap_bytes(raw, 4) == [raw]

    def test_more_parts_than_records_degrades_to_one_each(self):
        raw = dump_bytes([CapturedPacket(1, b"ab"),
                          CapturedPacket(2, b"cd")])
        assert len(split_pcap_bytes(raw, 9)) == 2


@pytest.mark.slow
class TestStreamingEqualsBatch:
    @given(window=st.integers(min_value=1, max_value=4),
           credits=st.integers(min_value=1, max_value=3),
           segments=st.integers(min_value=1, max_value=9),
           arrival_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_any_schedule_matches_batch(self, cache, population,
                                        batch_sha, window, credits,
                                        segments, arrival_seed):
        assert serve_sha(population, cache, window=window,
                         credits=credits, segments=segments,
                         arrival_seed=arrival_seed) == batch_sha

    def test_parallel_production_matches_batch(self, cache, population,
                                               batch_sha):
        assert serve_sha(population, cache, jobs=2) == batch_sha

    def test_batch_jobs_invariance_still_holds(self, cache, population,
                                               batch_sha):
        parallel = FleetRunner(cache=cache, jobs=2).run(population)
        assert sha(render_population_report(parallel.aggregate,
                                            population)) == batch_sha

    def test_live_state_renders_like_its_aggregate(self, cache,
                                                   population,
                                                   batch_sha):
        result = serve_fleet(population, cache=cache,
                             config=ServiceConfig(segments=3))
        assert sha(render_population_report(
            result.state, population)) == batch_sha
        assert sha(render_population_report(
            result.state.aggregate, population)) == batch_sha


class TestLiveStateFindings:
    """The structured-findings surface over the live aggregate."""

    def _summary(self, index, opted_in, acr):
        return {
            "label": f"hh-{index:04d}", "index": index,
            "vendor": "roku", "country": "us",
            "phase": "LIn-OIn" if opted_in else "LIn-OOut",
            "diary": "binge", "opted_in": opted_in, "packets": 50,
            "pcap_len": 4000,
            "acr_domains": ["acr.roku.example"] if acr else [],
            "acr_bytes": 2048 if acr else 0,
            "acr_upload_bytes": 1024 if acr else 0,
            "acr_packets": 8 if acr else 0, "acr_bursts": 2 if acr else 0,
            "cadence_sum_ns": 0, "cadence_intervals": 0,
        }

    def test_optout_violations_surface_structured_findings(self):
        state = LiveState()
        state.fold(0, self._summary(0, opted_in=True, acr=True))
        state.fold(1, self._summary(1, opted_in=False, acr=True))
        state.fold(2, self._summary(2, opted_in=False, acr=False))
        assert state.optout_violations() == {
            "optout_households": 2, "violating_households": 1,
            "violation_rate": 0.5}
        violations = state.violation_findings()
        assert len(violations) == 1
        entry = violations[0].evidence[0]
        assert entry.household == 1 and entry.capture == "hh-0001"
        assert entry.flow == "acr.roku.example"
        # The ledger view and the per-code filter agree.
        assert state.findings.failed() == violations


@pytest.mark.slow
class TestKillResumeEqualsBatch:
    @given(stop_after=st.integers(min_value=1, max_value=60),
           segments=st.integers(min_value=2, max_value=7),
           resume_credits=st.integers(min_value=1, max_value=3),
           arrival_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_kill_anywhere_then_resume_matches_batch(
            self, cache, population, batch_sha, stop_after, segments,
            resume_credits, arrival_seed):
        # Stop after an arbitrary number of events; the resumed run may
        # even use a different credit window and segmentation — the
        # checkpoint only carries folded aggregates, so none of the
        # streaming knobs are load-bearing.
        with tempfile.TemporaryDirectory() as ckdir:
            ticks = [0]

            def stop_check():
                ticks[0] += 1
                return ticks[0] > stop_after

            config = ServiceConfig(segments=segments,
                                   arrival_seed=arrival_seed,
                                   checkpoint_every=1)
            try:
                result = serve_fleet(population, cache=cache,
                                     config=config,
                                     checkpoint_dir=ckdir,
                                     stop_check=stop_check)
                report = render_population_report(result.state,
                                                  population)
            except ServiceStopped:
                snapshot = load_checkpoint(ckdir)
                assert len(snapshot.completed) < population.households
                resumed = serve_fleet(
                    population, cache=cache,
                    config=ServiceConfig(credits=resume_credits,
                                         segments=segments + 1),
                    checkpoint_dir=ckdir, resume=True)
                assert resumed.resumed_households == \
                    len(snapshot.completed)
                report = render_population_report(resumed.state,
                                                  population)
            assert sha(report) == batch_sha

    def test_growing_the_fleet_in_place(self, cache):
        # Checkpoint a 2-household stream, then resume asking for 4:
        # the first two households come from the checkpoint, and the
        # report matches a batch run over the full 4.
        small = PopulationSpec(households=2, seed=21, mixes=UK_QUICK)
        full = PopulationSpec(**POP)
        with tempfile.TemporaryDirectory() as ckdir:
            first = serve_fleet(small, cache=cache,
                                config=ServiceConfig(segments=4),
                                checkpoint_dir=ckdir)
            assert first.state.households == 2
            grown = serve_fleet(full, cache=cache,
                                config=ServiceConfig(segments=4),
                                checkpoint_dir=ckdir, resume=True)
            assert grown.resumed_households == 2
            batch = FleetRunner(cache=cache, jobs=1).run(full)
            assert grown.aggregate == batch.aggregate

    def test_resume_of_a_finished_run_is_idempotent(self, cache,
                                                    population,
                                                    batch_sha):
        with tempfile.TemporaryDirectory() as ckdir:
            serve_fleet(population, cache=cache,
                        config=ServiceConfig(segments=4),
                        checkpoint_dir=ckdir)
            again = serve_fleet(population, cache=cache,
                                config=ServiceConfig(segments=4),
                                checkpoint_dir=ckdir, resume=True)
            assert again.resumed_households == population.households
            assert again.segments_delivered == 0
            assert sha(render_population_report(
                again.state, population)) == batch_sha


@pytest.mark.slow
class TestCheckpointDurability:
    """Corrupted snapshots on disk degrade to the newest valid one."""

    def _stop_partway(self, cache, population, ckdir, stop_after=18):
        ticks = [0]

        def stop_check():
            ticks[0] += 1
            return ticks[0] > stop_after

        config = ServiceConfig(segments=5, checkpoint_every=1)
        with pytest.raises(ServiceStopped):
            serve_fleet(population, cache=cache, config=config,
                        checkpoint_dir=ckdir, stop_check=stop_check)

    def test_resume_falls_back_past_corrupt_snapshots(
            self, cache, population, batch_sha):
        from repro.service.checkpoint import (checkpoint_path,
                                              rotated_path,
                                              rotated_sequences)
        with tempfile.TemporaryDirectory() as ckdir:
            self._stop_partway(cache, population, ckdir)
            sequences = rotated_sequences(ckdir)
            assert len(sequences) >= 2
            # Tear the canonical snapshot and flip one byte inside the
            # newest rotated one (its digest no longer matches): resume
            # must fall back to an older snapshot, then re-converge.
            with open(checkpoint_path(ckdir), "r+",
                      encoding="utf-8") as fileobj:
                text = fileobj.read()
                fileobj.seek(0)
                fileobj.truncate()
                fileobj.write(text[:len(text) // 2])
            newest = rotated_path(ckdir, sequences[-1])
            with open(newest, encoding="utf-8") as fileobj:
                text = fileobj.read()
            with open(newest, "w", encoding="utf-8") as fileobj:
                fileobj.write(text.replace('"households":', '"hauseholds":', 1))
            resumed = serve_fleet(
                population, cache=cache,
                config=ServiceConfig(segments=5, checkpoint_every=1),
                checkpoint_dir=ckdir, resume=True)
            assert sha(render_population_report(
                resumed.state, population)) == batch_sha

    @staticmethod
    def _rewrite(path, edit):
        import json
        with open(path, encoding="utf-8") as fileobj:
            document = json.load(fileobj)
        edit(document)
        with open(path, "w", encoding="utf-8") as fileobj:
            json.dump(document, fileobj)

    def test_snapshot_without_digest_falls_back(self, tmp_path):
        from repro.service.checkpoint import checkpoint_path, rotated_path
        ckdir = str(tmp_path)
        key = population_key(1, {"vendor": {"lg": 1.0}})
        write_checkpoint(ckdir, LiveState(), {}, key, 5)
        write_checkpoint(ckdir, LiveState(), {}, key, 6)

        def strip(document):
            del document["digest"]
            document["households"] = 999

        # An undigested snapshot is unverifiable, so it is skipped like
        # a corrupt one: load falls back to the older rotated snapshot.
        for path in (checkpoint_path(ckdir), rotated_path(ckdir, 1)):
            self._rewrite(path, strip)
        assert load_checkpoint(ckdir).households == 5
        self._rewrite(rotated_path(ckdir, 0), strip)
        with pytest.raises(CheckpointError, match="no digest"):
            load_checkpoint(ckdir)

    def test_verified_snapshot_missing_a_slot_is_refused(self, tmp_path):
        from repro.service.checkpoint import (_document_digest,
                                              checkpoint_path,
                                              rotated_path)
        ckdir = str(tmp_path)
        key = population_key(1, {"vendor": {"lg": 1.0}})
        write_checkpoint(ckdir, LiveState(), {}, key, 5)

        def drop_findings(document):
            del document["aggregate"]["findings"]
            document["digest"] = _document_digest(document)

        for path in (checkpoint_path(ckdir), rotated_path(ckdir, 0)):
            self._rewrite(path, drop_findings)
        with pytest.raises(CheckpointError,
                           match="malformed aggregate.*findings"):
            load_checkpoint(ckdir)

    def test_rotated_snapshots_stay_bounded(self, cache, population):
        from repro.service.checkpoint import (CHECKPOINT_KEEP,
                                              rotated_sequences)
        with tempfile.TemporaryDirectory() as ckdir:
            serve_fleet(population, cache=cache,
                        config=ServiceConfig(segments=4,
                                             checkpoint_every=1),
                        checkpoint_dir=ckdir)
            assert 1 <= len(rotated_sequences(ckdir)) \
                <= CHECKPOINT_KEEP


@pytest.mark.slow
class TestResumeGuardKeysOnTheAnswer:
    """A checkpoint resumes only under everything that fixed its
    answer: code version and lossy fault plan as well as seed + mixes.
    Lossless fault sites stay out of the guard."""

    def _interrupt(self, cache, population, ckdir):
        ticks = [0]

        def stop_check():
            ticks[0] += 1
            return ticks[0] > 6

        with pytest.raises(ServiceStopped):
            serve_fleet(population, cache=cache,
                        config=ServiceConfig(segments=4,
                                             checkpoint_every=1),
                        checkpoint_dir=ckdir, stop_check=stop_check)

    @staticmethod
    def _serve_resume(ckdir, *extra):
        from repro.cli import main
        return main(["serve", "--households", str(POP["households"]),
                     "--seed", str(POP["seed"]),
                     "--mix", "country=uk:1",
                     "--mix", "diary=second_screen:1",
                     "--checkpoint-dir", ckdir, "--resume", "--plain",
                     "--no-cache", *extra])

    def test_code_version_change_refuses_resume(
            self, cache, population, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CODE_VERSION", "resume-guard-a")
        self._interrupt(cache, population, str(tmp_path))
        monkeypatch.setenv("REPRO_CODE_VERSION", "resume-guard-b")
        with pytest.raises(CheckpointError, match="different fleet"):
            serve_fleet(population, cache=cache,
                        checkpoint_dir=str(tmp_path), resume=True)
        assert self._serve_resume(str(tmp_path)) == 2
        assert "different fleet" in capsys.readouterr().err

    def test_lossy_site_added_refuses_resume(self, cache, population,
                                             tmp_path, capsys):
        self._interrupt(cache, population, str(tmp_path))
        assert self._serve_resume(
            str(tmp_path), "--faults", "pcap.corrupt:0.5") == 2
        assert "different fleet" in capsys.readouterr().err

    def test_lossless_site_added_still_resumes(self, cache, population,
                                               batch_sha, tmp_path):
        from repro.faults import FaultPlan
        self._interrupt(cache, population, str(tmp_path))
        plan = FaultPlan({"segment.drop": 0.3, "worker.crash": 0.2},
                         seed=5)
        resumed = serve_fleet(
            population, cache=cache,
            config=ServiceConfig(segments=4, faults=plan),
            checkpoint_dir=str(tmp_path), resume=True)
        assert sha(render_population_report(
            resumed.state, population)) == batch_sha


class TestCheckpointGuards:
    """Simulation-free checkpoint validation behaviour."""

    def test_checkpoint_for_a_different_fleet_is_refused(self, tmp_path):
        key = population_key(1, {"vendor": {"lg": 1.0}})
        write_checkpoint(str(tmp_path), LiveState(), {}, key, 5)
        with pytest.raises(CheckpointError, match="different fleet"):
            load_checkpoint(str(tmp_path), expect_key=population_key(
                2, {"vendor": {"lg": 1.0}}))

    def test_population_key_ignores_size(self):
        mixes = {"vendor": {"lg": 2.0, "samsung": 1.0}}
        assert population_key(7, mixes) == population_key(7, dict(mixes))
        assert population_key(7, mixes) != population_key(8, mixes)

    def test_population_key_covers_code_version(self, monkeypatch):
        mixes = {"vendor": {"lg": 1.0}}
        monkeypatch.setenv("REPRO_CODE_VERSION", "key-a")
        before = population_key(7, mixes)
        monkeypatch.setenv("REPRO_CODE_VERSION", "key-b")
        assert population_key(7, mixes) != before

    def test_population_key_covers_lossy_sites_only(self):
        from repro.faults import FaultPlan
        mixes = {"vendor": {"lg": 1.0}}
        clean = population_key(7, mixes)
        lossless = FaultPlan({"segment.drop": 0.5,
                              "checkpoint.torn": 1.0}, seed=3)
        assert population_key(7, mixes, lossless) == clean
        lossy = FaultPlan({"pcap.corrupt": 0.5}, seed=3)
        assert population_key(7, mixes, lossy) != clean
        assert population_key(7, mixes, lossy) != population_key(
            7, mixes, FaultPlan({"pcap.corrupt": 0.4}, seed=3))
        assert population_key(7, mixes, lossy) != population_key(
            7, mixes, FaultPlan({"pcap.corrupt": 0.5}, seed=4))
        assert population_key(7, mixes, lossy) != population_key(
            7, mixes, FaultPlan({"pcap.truncate": 0.5}, seed=3))

    def test_missing_checkpoint_is_a_clean_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "nowhere"))

    def test_resume_without_checkpoint_dir_is_rejected(self):
        population = PopulationSpec(households=1, seed=3)
        with pytest.raises(ValueError, match="checkpoint dir"):
            serve_fleet(population, resume=True)
