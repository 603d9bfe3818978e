"""The shared task runner (``repro.workers.run_tasks``).

Grid cells, fleet shards and serve captures all run through it, so one
worker dying mid-run must cost each of them nothing but time: the lost
items are rerun in-process and the output matches a serial run byte for
byte.
"""

import functools
import importlib
import multiprocessing
import os

import pytest

from repro.experiments.grid import GridRunner, enumerate_cells
from repro.fleet import FleetRunner, PopulationSpec, render_population_report
from repro.obs.metrics import disable, enable
from repro.service import serve_fleet
from repro.sim.clock import minutes
from repro.workers import run_tasks

UK_QUICK = {"country": {"uk": 1.0}, "diary": {"second_screen": 1.0}}
POPULATION = PopulationSpec(households=3, seed=21, mixes=UK_QUICK)


def _grid(jobs):
    specs = enumerate_cells(["vendor=lg", "country=uk", "phase=LIn-OIn",
                             "scenario=idle,linear,fast"],
                            duration_ns=minutes(6))
    records = GridRunner(cache=None, jobs=jobs).run(specs)
    # elapsed_s is wall time, the one field that is not the capture's.
    return [({key: value for key, value in record.meta().items()
              if key != "elapsed_s"}, record.pcap_bytes)
            for record in records]


def _fleet(jobs):
    result = FleetRunner(cache=None, jobs=jobs, shard_size=1).run(
        POPULATION)
    return render_population_report(result.aggregate, POPULATION)


def _serve(jobs):
    result = serve_fleet(POPULATION, cache=None, jobs=jobs)
    return render_population_report(result.state, POPULATION)


def _dies_once_in_a_worker(original, marker, parent):
    """``original``, except that the first forked worker to call it
    exits on the spot (no exception, no cleanup: a killed process)."""
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if os.getpid() != parent:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return original(*args, **kwargs)
    return wrapper


@pytest.mark.slow
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the dying worker is patched in before a fork")
@pytest.mark.parametrize("produce, module, name", [
    (_grid, "repro.experiments.grid", "run_experiment"),
    (_fleet, "repro.fleet.runner", "run_session"),
    (_serve, "repro.fleet.runner", "run_session"),
], ids=["grid", "fleet", "serve"])
def test_worker_death_is_recovered(produce, module, name, tmp_path,
                                   monkeypatch):
    target = importlib.import_module(module)
    monkeypatch.setattr(target, name, _dies_once_in_a_worker(
        getattr(target, name), str(tmp_path / "died"), os.getpid()))
    serial = produce(1)
    registry = enable()
    try:
        parallel = produce(2)
    finally:
        disable()
    assert (tmp_path / "died").exists()
    assert parallel == serial
    assert registry.snapshot()["counters"]["retry.pool.requeued"] >= 1


@pytest.mark.parametrize("jobs, window", [(1, None), (2, None), (2, 1)])
def test_results_come_back_in_item_order(jobs, window):
    items = [-3, 1, -4, 1, -5]
    assert list(run_tasks(abs, items, jobs, (), window=window)) == \
        list(enumerate([3, 1, 4, 1, 5]))
