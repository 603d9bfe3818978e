"""One measured interpreter: set up, run timed passes, report as JSON.

Run by ``run.py``, never directly by a user.  Every invocation is a
fresh interpreter, so the program's process-wide memos (the asset
``lru_cache``s, the fingerprint memo) start empty.  Modes:

* ``cold``: set-up builds the per-country assets (``warm_assets``);
  a pass runs ``FleetRunner.run`` (``--jobs`` workers, 1 when
  measured) over the population into the empty result cache at
  ``--cache``, then renders the report.
* ``replay``: set-up opens the cache; a pass reruns
  ``FleetRunner.run`` over it, every household a cache hit.
* ``serve``: set-up opens the cache; a pass streams the population
  through ``serve_fleet`` with the default ``ServiceConfig`` and a
  fresh checkpoint directory.

With ``--seconds`` every pass runs in its own process forked from this
one right after set-up, so each pass starts from the state a fresh
interpreter has after set-up: nothing a pass memoizes in-process
reaches the next one, exactly as between two CLI runs.  Before each
cold pass the cache directory is emptied again.  With ``--passes``
the passes run in this interpreter (the traced pair, whose counts and
self times describe one process).

``--check`` adds one untimed pass of each other read mode over the
same cache (forked too), whose report digests the parent compares.
``--trace`` installs the outside-in tracer (and the program's own
counters).

The last stdout line is a JSON object; ``setup_mark`` is a
``time.monotonic()`` reading, comparable with the parent's clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

WALL_STARTED = time.perf_counter()


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("cold", "replay", "serve"),
                        required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--work", required=True,
                        help="scratch directory for checkpoints")
    parser.add_argument("--households", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="run forked passes until this much time is "
                             "measured (at least one pass)")
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes in this "
                             "interpreter")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes of a cold pass")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def _digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def _quarantined(findings) -> int:
    """Households with at least one capture record quarantined."""
    from repro.findings.model import DEGRADATION_CODE
    return len({evidence.household
                for finding, __ in findings
                if finding.code == DEGRADATION_CODE
                for evidence in finding.evidence})


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _forked(work) -> dict:
    """``work()`` in a child forked from this process; returns its dict.

    The child sends its result (plus its own peak RSS) through a pipe
    and leaves with ``os._exit``, so no exit handler of the parent runs
    twice; the parent waits for it before returning."""
    sys.stdout.flush()
    sys.stderr.flush()
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            result = work()
            result["peak_rss_mb"] = _peak_rss_mb()
            with os.fdopen(writer, "wb") as pipe:
                pipe.write(json.dumps(result).encode("utf-8"))
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    with os.fdopen(reader, "rb") as pipe:
        payload = pipe.read()
    __, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"forked pass ended with status {status}")
    return json.loads(payload.decode("utf-8"))


def main(argv=None) -> int:
    args = _parse_args(argv)
    from repro import fleet, service
    from repro.experiments import grid
    from repro.obs import metrics
    imported = time.perf_counter()

    tracer = None
    registry = None
    if args.trace:
        import layers
        tracer = layers.install()
        registry = metrics.enable()

    population = fleet.PopulationSpec(args.households, seed=args.seed)
    cache = grid.ResultCache(args.cache)
    if args.mode == "cold":
        grid.warm_assets(countries=population.countries())
    setup_mark = time.monotonic()

    def run_pass(mode: str) -> dict:
        """One pass over the population; returns its measurements.

        ``slices`` cuts the pass at the program's own progress
        callbacks, one per household, into pieces that do the same
        work in every pass over this population."""
        clock = time.perf_counter
        marks = [clock()]

        def progress(*counts):
            marks.append(clock())
        try:
            if mode == "serve":
                checkpoints = tempfile.mkdtemp(prefix="ck-", dir=args.work)
                result = service.serve_fleet(
                    population, cache=cache,
                    config=service.ServiceConfig(), jobs=1,
                    checkpoint_dir=checkpoints, progress=progress)
                findings = result.state.findings
                refusals = result.refusals
            else:
                jobs = args.jobs if mode == "cold" else 1
                result = fleet.FleetRunner(
                    cache=cache, jobs=jobs, shard_size=1).run(
                        population, progress=progress)
                findings = result.aggregate.findings
                refusals = 0
            report = fleet.render_population_report(
                result.state if mode == "serve" else result.aggregate,
                population)
        except Exception as exc:  # a failed pass is measured, not fatal
            return {"mode": mode, "households": population.households,
                    "seconds": clock() - marks[0],
                    "failed": population.households, "sha256": None,
                    "slices": [], "error": f"{type(exc).__name__}: {exc}"}
        marks.append(clock())
        return {"mode": mode, "households": population.households,
                "seconds": marks[-1] - marks[0],
                "slices": [b - a for a, b in zip(marks, marks[1:])],
                "failed": _quarantined(findings), "sha256": _digest(report),
                "refusals": refusals}

    def emptied() -> None:
        """Back to the empty cache a fresh cold interpreter opens."""
        shutil.rmtree(args.cache)
        os.makedirs(args.cache)

    passes = []
    measured = 0.0
    while True:
        if args.passes:
            passes.append(run_pass(args.mode))
        else:
            if args.mode == "cold" and passes:
                emptied()
            passes.append(_forked(lambda: run_pass(args.mode)))
        measured += passes[-1]["seconds"]
        if args.passes:
            if len(passes) >= args.passes:
                break
        elif measured >= args.seconds:
            break
    wall_s = time.perf_counter() - WALL_STARTED
    rss_mb = max([_peak_rss_mb()] + [p["peak_rss_mb"] for p in passes
                                     if "peak_rss_mb" in p])

    output = {"mode": args.mode, "setup_mark": setup_mark,
              "passes": passes, "wall_s": wall_s, "peak_rss_mb": rss_mb,
              "checks": []}
    if tracer is not None:
        counters = registry.snapshot()["counters"]
        counts = dict(tracer.counts)
        counts["acr.memo.hit"] = counters.get("acr.memo.hit", 0)
        counts["acr.memo.miss"] = counters.get("acr.memo.miss", 0)
        counts["service.bus.refusals"] = sum(
            p.get("refusals", 0) for p in passes)
        output["trace"] = {
            "wall_s": wall_s, "import_s": imported - WALL_STARTED,
            "rows": {name: {"calls": row[0], "total_s": row[1],
                            "self_s": row[2]}
                     for name, row in tracer.rows.items()},
            "counts": counts}
    if args.check:
        others = {"cold": ("replay", "serve"), "replay": ("serve",),
                  "serve": ("replay",)}[args.mode]
        output["checks"] = [_forked(lambda: run_pass(mode))
                            for mode in others]
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
