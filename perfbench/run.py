"""The repository benchmark: cold fleet, cached replay, streaming serve.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-cold --seed 7 --seconds 10
    python3 perfbench/run.py --workload serve-stream --trace 1
    python3 perfbench/run.py --workload all

Each workload audits one generated population (the default uk+us mix,
drawn from ``--seed``; its size is in ``WORKLOADS``) through the same
public entry points the CLI uses: ``FleetRunner.run``,
``serve_fleet`` and ``render_population_report``.  Every set-up runs
in a fresh interpreter (``child.py``), and every timed pass in a
process forked from one right after its set-up, against a result cache
and checkpoint directory inside this run's own scratch directory,
which is removed at the end.  See ``perfbench/README.md`` for the
workloads, the metrics and what each layer should move.

Output: a human-readable block, then, as the last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` adds one traced
interpreter and reports the per-layer table instead.  The run exits 1
when any report differs from another or from the pinned digest, and 2
when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")

#: workload -> (timed mode, households).  A cold pass simulates every
#: household, so ``fleet-cold`` keeps 32.  A read pass's cost per
#: household varies more with the population's make-up, so the read
#: workloads audit 192 households (whose first 32 are ``fleet-cold``'s)
#: to keep one seed's population from reading faster than another's.
#: The population never grows with ``--seconds``, only the passes do.
WORKLOADS = {"fleet-cold": ("cold", 32), "fleet-replay": ("replay", 192),
             "serve-stream": ("serve", 192)}
DEFAULT_SEED = 7
#: Worker processes of the unmeasured cold pass that fills the read
#: workloads' cache (never more than the machine's cores).
FILL_JOBS = min(2, os.cpu_count() or 1)
#: Fresh interpreters measured per run, each forking passes for its
#: share of ``--seconds``; ``setup_s`` is the median of their set-ups.
SETUPS = 3
#: Read passes of each traced replay/serve interpreter: a fixed amount
#: of work, so every count in the layer table repeats exactly.
TRACE_PASSES = 2
#: Every run must finish well inside three minutes.
DEADLINE_S = 170.0

#: Exact counts reported beside the layer rows by ``--trace 1``.
COUNTS = ("acr.library.entries", "acr.fingerprint.capture_state.calls",
          "acr.memo.hit", "acr.memo.miss", "analysis.packets",
          "service.bus.refusals", "service.checkpoint.bytes")


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


class Runner:
    """Spawns measured interpreters inside one scratch directory."""

    def __init__(self, work: str, seed: int, seconds: float,
                 households: int) -> None:
        self.work = work
        self.seed = seed
        self.households = households
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.serial = 0
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env.update({
            "PYTHONPATH": os.path.join(ROOT, "src"),
            # Anything that falls back to a default cache location
            # lands in this run's scratch directory, never ~/.cache.
            "REPRO_CACHE_DIR": os.path.join(work, "default-cache"),
            "XDG_CACHE_HOME": os.path.join(work, "xdg"),
            # One string-hash seed for every interpreter, so two runs'
            # dicts and sets lay out alike.
            "PYTHONHASHSEED": "0",
        })

    def cache_dir(self) -> str:
        self.serial += 1
        return os.path.join(self.work, f"cache-{self.serial}")

    def spawn(self, mode: str, cache: str, *options: str) -> dict:
        """Run one child; returns its JSON plus ``setup_s``."""
        command = [sys.executable, CHILD, "--mode", mode,
                   "--cache", cache, "--work", self.work,
                   "--households", str(self.households),
                   "--seed", str(self.seed), *options]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        spawned = time.monotonic()
        # Its own process group, so the passes it forks and the workers
        # of a fill pass go down with it on every way out.
        child = subprocess.Popen(command, cwd=ROOT, env=self.env,
                                 stdout=subprocess.PIPE,
                                 start_new_session=True)
        try:
            stdout, __ = child.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child ran out of time") from exc
        finally:
            stop(child)
        lines = stdout.decode("utf-8", "replace").splitlines()
        if child.returncode != 0 or not lines:
            raise BenchError(f"{mode} child exited with "
                             f"{child.returncode}")
        try:
            output = json.loads(lines[-1])
        except ValueError as exc:
            raise BenchError(f"{mode} child printed no result") from exc
        output["setup_s"] = output["setup_mark"] - spawned
        return output

    def measured(self, mode: str, trace: bool) -> list:
        """The run's interpreters; a read workload's first one fills
        the cache with an unmeasured cold pass.  Untraced: ``SETUPS``
        interpreters that fork passes, the first also checking the
        other modes.  Traced: an untraced reference, then a traced twin
        doing exactly the same work in one process."""
        children = []
        shared = None
        if mode != "cold":
            shared = self.cache_dir()
            children.append(self.spawn("cold", shared, "--passes", "1",
                                       "--jobs", str(FILL_JOBS)))
        if trace:
            passes = "1" if mode == "cold" else str(TRACE_PASSES)
            for extra in ("--check", "--trace"):
                children.append(self.spawn(mode, shared or self.cache_dir(),
                                           "--passes", passes, extra))
            return children
        measured = 0.0
        for index in range(SETUPS):
            # What is left of --seconds, shared among the interpreters
            # still to come (each makes at least one pass).
            share = max(self.seconds - measured, 0.0) / (SETUPS - index)
            children.append(self.spawn(
                mode, shared or self.cache_dir(), "--seconds",
                f"{share:.6f}", *(["--check"] if index == 0 else [])))
            measured += sum(p["seconds"] for p in children[-1]["passes"])
        return children


def stop(child: subprocess.Popen) -> None:
    """Kill whatever is left of ``child``'s process group and wait for
    ``child``; the group's other members (orphans by then) are polled
    until they are gone."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    for __ in range(100):
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def throughput(passes: list) -> float:
    """Households per second of the run's best pass.

    Every pass of a run audits the same population from the same
    post-set-up state (each is forked from a fresh interpreter's
    set-up), and each is cut at the program's progress callbacks into
    slices that do the same work in every pass.  The best pass takes
    each slice's fastest time.  Interference from the rest of a shared
    machine only ever adds time, in bursts shorter than a run, so this
    is the steadiest estimate of what the work itself costs.  Passes cut
    differently (which a deterministic program never does) fall back to
    the fastest whole pass."""
    cuts = [p["slices"] for p in passes if p["slices"]]
    if not cuts or len({len(cut) for cut in cuts}) != 1:
        return max(p["households"] / p["seconds"] for p in passes)
    return passes[0]["households"] / sum(map(min, zip(*cuts)))


def verdict(workload: str, seed: int, households: int,
            children: list) -> dict:
    """Cold == replay == stream, and the pinned digest at the default
    seed; a wrong report counts every household attempted as failed."""
    everything = [p for child in children
                  for p in child["passes"] + child["checks"]]
    digests = {p["sha256"] for p in everything}
    own = {p["sha256"] for child in children if child["mode"]
           == WORKLOADS[workload][0] for p in child["passes"]}
    with open(EXPECTED, "r", encoding="utf-8") as fileobj:
        expected = json.load(fileobj)
    pin = expected["reports"][workload]
    pinned = pin["sha256"] if (seed, households) == (
        expected["seed"], pin["households"]) else None
    modes = {p["mode"] for p in everything}
    agree = (len(digests) == 1 and None not in digests
             and modes == {"cold", "replay", "serve"})
    correct = agree and (pinned is None or own == {pinned})
    attempted = sum(p["households"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    return {"correct": correct, "agree": agree, "attempted": attempted,
            "failed": failed if correct else attempted,
            "digest": " ".join(sorted(d for d in digests if d)),
            "pinned": pinned,
            "errors": [p["error"] for p in everything if "error" in p]}


def end_to_end(mode: str, children: list) -> dict:
    measured = [child for child in children if child["mode"] == mode]
    return {
        "setup_s": (statistics.median(c["setup_s"] for c in measured),
                    "s"),
        "households_per_s": (throughput([p for c in measured
                                         for p in c["passes"]]), "1/s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"]
                                          for c in measured), "MB"),
    }


def per_layer(children: list) -> dict:
    """The traced child's layer table; rows + unaccounted = wall."""
    reference, traced = children[-2], children[-1]
    trace = traced["trace"]
    metrics = {"bench.import.self_s": (trace["import_s"], "s")}
    accounted = trace["import_s"]
    for row in layers.ROWS:
        entry = trace["rows"][row]
        metrics[f"{row}.self_s"] = (entry["self_s"], "s")
        metrics[f"{row}.calls"] = (entry["calls"], "count")
        accounted += entry["self_s"]
    for name in COUNTS:
        metrics[name] = (trace["counts"].get(name, 0), "count")
    metrics["unaccounted_s"] = (trace["wall_s"] - accounted, "s")
    metrics["traced_wall_s"] = (trace["wall_s"], "s")
    metrics["trace_overhead_fraction"] = (
        trace["wall_s"] / reference["wall_s"] - 1.0, "fraction")
    return metrics


def print_block(workload: str, args, metrics: dict, result: dict,
                children: list) -> None:
    mode, households = WORKLOADS[workload]
    print(f"# perfbench workload={workload} seed={args.seed} "
          f"households={households} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()}")
    passes = sum(len(c["passes"]) for c in children
                 if c["mode"] == mode)
    print(f"#   {len(children)} interpreters, {passes} timed passes")
    for child in children:
        rates = " ".join(f"{p['households'] / p['seconds']:.2f}"
                         for p in child["passes"])
        print(f"#   {child['mode']:6s} set-up {child['setup_s']:.3f} s, "
              f"households/s per pass: {rates}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6f}  {unit}")
    if args.trace:
        total = sum(value for name, (value, __) in metrics.items()
                    if name.endswith(".self_s") or name == "unaccounted_s")
        print(f"  {'sum of self_s + unaccounted_s':<{width}}  "
              f"{total:>14.6f}  s")
    fraction = result["failed"] / result["attempted"]
    print(f"  {'failed_fraction':<{width}}  {fraction:>14.6f}  fraction "
          f"({result['failed']} of {result['attempted']} households)")
    pin = ("not pinned at this seed" if result["pinned"] is None
           else "matches pin" if result["correct"] else "DIFFERS FROM PIN")
    same = "cold == replay == stream" if result["agree"] \
        else "REPORTS DIFFER"
    print(f"  report sha256 {result['digest']}: {same}; {pin}")
    for error in result["errors"]:
        print(f"  error: {error}")


def run_workload(workload: str, args, work: str):
    mode, households = WORKLOADS[workload]
    runner = Runner(work, args.seed, args.seconds, households)
    children = runner.measured(mode, bool(args.trace))
    result = verdict(workload, args.seed, households, children)
    metrics = per_layer(children) if args.trace \
        else end_to_end(mode, children)
    print_block(workload, args, metrics, result, children)
    return metrics, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (or all of them).")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination request unwinds like an error, so the running child
    # is killed and waited for and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    workloads = sorted(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    metrics, correct, attempted, failed = {}, True, 0, 0
    try:
        for workload in workloads:
            values, result = run_workload(workload, args, work)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: {"value": value, "unit": unit}
                            for name, (value, unit) in values.items()})
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
