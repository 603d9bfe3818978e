"""The one task runner behind the grid, the fleet and the service tier.

:func:`run_tasks` maps a picklable, module-level ``task`` over a list of
items and yields ``(index, result)`` in item order.  It is the only place
in the package that owns a process pool, so every caller gets the same
behaviour:

* **in-process** when ``jobs == 1`` or there is a single item: no pool,
  no pickling, the task runs lazily as results are asked for;
* **assets warmed before the fork**: under the ``fork`` start method the
  per-country reference libraries are built once in the parent
  (:func:`~repro.experiments.grid.warm_assets`) and inherited
  copy-on-write by every worker;
* **worker-local metrics**: each task runs under a fresh
  :func:`~repro.obs.metrics.scoped` registry and the parent absorbs its
  snapshot as the result is yielded, so totals do not depend on where a
  task ran;
* **bounded lookahead**: with a ``window``, at most that many results
  are in flight (submitted, not yet yielded) at a time;
* **worker-death recovery**: a pool that breaks (a worker killed by the
  OOM killer, a segfault, ``os._exit``) loses its unfinished items; each
  lost item is rerun in-process and counted as ``retry.pool.requeued``,
  and every later item runs in-process too.

Injected ``worker.crash``/``worker.hang`` faults never reach this layer:
tasks retry them internally through
:func:`~repro.faults.produce_with_retries`.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
from typing import (Any, Callable, Dict, Iterable, Iterator, Optional,
                    Sequence, Tuple)

from .obs.metrics import get_registry, metrics_enabled, scoped


def _call(task: Callable[[Any], Any], collect: bool,
          item: Any) -> Tuple[Any, Optional[dict]]:
    """Run one task under its own metrics scope (in a worker or not)."""
    with scoped(collect) as registry:
        result = task(item)
        snapshot = registry.snapshot() if registry is not None else None
    return result, snapshot


def run_tasks(task: Callable[[Any], Any], items: Sequence[Any],
              jobs: int, countries: Iterable[str],
              window: Optional[int] = None
              ) -> Iterator[Tuple[int, Any]]:
    """Yield ``(index, task(item))`` for every item, in item order.

    ``countries`` names the assets worth warming before a fork;
    ``window`` bounds how many results are in flight (``None``: all).
    Close the generator early (``contextlib.closing``) to cancel the
    work not yet yielded.
    """
    collect = metrics_enabled()
    registry = get_registry()

    def finish(output: Tuple[Any, Optional[dict]]) -> Any:
        result, snapshot = output
        registry.absorb(snapshot)
        return result

    if jobs == 1 or len(items) <= 1:
        for index, item in enumerate(items):
            yield index, finish(_call(task, collect, item))
        return
    if multiprocessing.get_start_method() == "fork":
        # Workers inherit warm assets copy-on-write; under spawn they
        # re-import from scratch, so parent warming would be waste.
        # (Imported here because the grid module imports this one.)
        from .experiments.grid import warm_assets
        warm_assets(countries)
    ahead = len(items) if window is None else max(1, window)
    pool = concurrent.futures.ProcessPoolExecutor(min(jobs, len(items)))
    futures: Dict[int, concurrent.futures.Future] = {}
    submitted = 0
    broken = False

    # BrokenProcessPool is named through concurrent.futures.process,
    # which loads lazily with the first pool, so in-process runs never
    # import the pool machinery.
    def top_up(limit: int) -> None:
        nonlocal submitted, broken
        while not broken and submitted < min(limit, len(items)):
            try:
                futures[submitted] = pool.submit(
                    _call, task, collect, items[submitted])
            except concurrent.futures.process.BrokenProcessPool:
                broken = True
                return
            submitted += 1

    try:
        top_up(ahead)
        for index, item in enumerate(items):
            future = futures.pop(index, None)
            output = None
            if future is not None:
                try:
                    output = future.result()
                except concurrent.futures.process.BrokenProcessPool:
                    broken = True
                    registry.inc("retry.pool.requeued")
            if output is None:
                output = _call(task, collect, item)
            top_up(index + 1 + ahead)
            yield index, finish(output)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
