#!/usr/bin/env python
"""Invariance smoke: the byte-identity claims, end to end, as a table.

Each row of :data:`ROWS` drives the real CLI through a list of runs,
then asserts that every artifact group it names is sha256-identical
and runs the row's extra checks.  A run's stdout lands in
``<run>.txt``; a run marked ``kill`` is a ``serve`` that is SIGTERMed
once a quarter of the households have folded (it must exit 3 and
leave a checkpoint) and then resumed with ``--resume``.

* ``resume``: fleet ``--jobs 8`` == fleet ``--jobs 1`` == serve ==
  SIGTERM + resumed serve, at 200 households;
* ``chaos``: serve under an aggressive lossless fault plan, also
  killed and resumed, == the fault-free fleet; a lossy plan renders a
  ``## Degradations`` section, jobs-invariantly, unlike the clean run
  (96 households);
* ``findings``: ``--findings-out`` reports and exports at ``--jobs 1``
  and ``--jobs 8`` are identical under a lossy plan, carry ``DEG`` and
  ``OPTOUT`` records, pass ``scripts/check_jsonl.py`` and ``findings
  diff`` to no changes (24 households);
* ``metrics``: a ``--metrics-out`` export passes the checker (16
  households, ``--jobs 2``).

Usage::

    PYTHONPATH=src python scripts/invariance_smoke.py [ROW ...]
        [--out-dir DIR]

Without ``--out-dir`` the artifacts go to a temporary directory that is
removed afterwards; capture caches always are.  Any failed assertion
exits non-zero with a ``FAIL:`` line.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Tuple

from check_jsonl import check_lines

FOLDED = re.compile(r"(\d+)/(\d+) households folded")

#: Every lossless site at an uncomfortable rate; recovery must still
#: be total (the bounded oracle guarantees convergence even at 1.0).
LOSSLESS = ("--fault-seed", "7", "--faults",
            "segment.drop:0.3,segment.dup:0.3,segment.reorder:0.4,"
            "segment.starve:0.3,worker.crash:0.2,worker.hang:0.1,"
            "checkpoint.torn:0.5,checkpoint.corrupt:0.4")

#: Lossy decode damage: quarantined records, counted, never an abort.
LOSSY = ("--fault-seed", "7", "--faults",
         "pcap.corrupt:0.3,pcap.truncate:0.2,worker.crash:0.2")

#: A population replayed from the row's own capture cache (the row's
#: first run fills it).
CACHED = ("--households", "{n}", "--seed", "7", "--cache-dir", "{cache}")

SERVE = ("serve", *CACHED, "--jobs", "8", "--plain")

#: Lossy pcap damage (DEG findings) with roku in the mix: its contract
#: downsamples rather than silences on opt-out, so opted-out roku
#: households yield OPTOUT findings.
FINDINGS = ("--households", "{n}", "--seed", "7", "--no-cache",
            "--mix", "vendor=roku:1,lg:1,samsung:1",
            "--faults", "pcap.truncate:0.2,pcap.corrupt:0.2")


class Fail(SystemExit):
    def __init__(self, message: str) -> None:
        super().__init__(f"FAIL: {message}")


@dataclass(frozen=True)
class Run:
    name: str
    argv: Tuple[str, ...]
    kill: bool = False


@dataclass(frozen=True)
class Row:
    name: str
    households: int
    runs: Tuple[Run, ...]
    equal: Tuple[Tuple[str, ...], ...] = ()
    checks: Tuple[Callable[[str], None], ...] = ()


def _read(out: str, artifact: str) -> str:
    with open(os.path.join(out, artifact), encoding="utf-8") as fileobj:
        return fileobj.read()


def contains(artifact: str, *needles: str):
    def check(out: str) -> None:
        text = _read(out, artifact)
        for needle in needles:
            if needle not in text:
                raise Fail(f"{artifact} lacks {needle!r}")
    return check


def differs(left: str, right: str):
    def check(out: str) -> None:
        if sha256(os.path.join(out, left)) \
                == sha256(os.path.join(out, right)):
            raise Fail(f"{left} is identical to {right}")
    return check


def valid_jsonl(artifact: str):
    def check(out: str) -> None:
        try:
            records = check_lines(_read(out, artifact).splitlines())
        except ValueError as exc:
            raise Fail(f"{artifact}: {exc}")
        print(f"  {artifact}: schema ok ({records} records)")
    return check


ROWS = (
    Row("resume", 200, runs=(
        Run("batch-jobsN", ("fleet", *CACHED, "--jobs", "8")),
        Run("batch-jobs1", ("fleet", *CACHED, "--jobs", "1")),
        Run("stream", (*SERVE, "--checkpoint-dir", "{out}/ck-full")),
        Run("resumed", (*SERVE, "--checkpoint-every", "5",
                        "--checkpoint-dir", "{out}/ck-killed"),
            kill=True),
    ), equal=(("batch-jobsN.txt", "batch-jobs1.txt", "stream.txt",
               "resumed.txt"),)),
    Row("chaos", 96, runs=(
        Run("clean", ("fleet", *CACHED, "--jobs", "8")),
        Run("chaos", (*SERVE, *LOSSLESS, "--checkpoint-every", "5",
                      "--checkpoint-dir", "{out}/ck-full")),
        Run("resumed", (*SERVE, *LOSSLESS, "--checkpoint-every", "5",
                        "--checkpoint-dir", "{out}/ck-killed"),
            kill=True),
        Run("lossy-jobs1", ("fleet", *CACHED, *LOSSY, "--jobs", "1")),
        Run("lossy-jobsN", ("fleet", *CACHED, *LOSSY, "--jobs", "8")),
    ), equal=(("clean.txt", "chaos.txt", "resumed.txt"),
              ("lossy-jobs1.txt", "lossy-jobsN.txt")),
        checks=(contains("lossy-jobs1.txt", "## Degradations"),
                differs("lossy-jobs1.txt", "clean.txt"))),
    Row("findings", 24, runs=(
        Run("report-jobs1", ("fleet", *FINDINGS, "--jobs", "1",
                             "--findings-out",
                             "{out}/findings-jobs1.jsonl")),
        Run("report-jobsN", ("fleet", *FINDINGS, "--jobs", "8",
                             "--findings-out",
                             "{out}/findings-jobsN.jsonl")),
        Run("diff", ("findings", "diff", "{out}/findings-jobs1.jsonl",
                     "{out}/findings-jobsN.jsonl")),
    ), equal=(("report-jobs1.txt", "report-jobsN.txt"),
              ("findings-jobs1.jsonl", "findings-jobsN.jsonl")),
        checks=(contains("findings-jobs1.jsonl", '"code": "DEG"',
                         '"code": "OPTOUT"'),
                valid_jsonl("findings-jobs1.jsonl"),
                contains("diff.txt", "no changes"))),
    Row("metrics", 16, runs=(
        Run("fleet", ("fleet", "--households", "{n}", "--jobs", "2",
                      "--no-cache", "--dashboard", "--plain",
                      "--metrics-out", "{out}/metrics.jsonl")),
    ), checks=(valid_jsonl("metrics.jsonl"),)),
)


def sha256(path: str) -> str:
    with open(path, "rb") as fileobj:
        return hashlib.sha256(fileobj.read()).hexdigest()


def run_cli(argv, out_path: str) -> None:
    print(f"  $ repro.cli {' '.join(argv)}")
    started = time.perf_counter()
    with open(out_path, "wb") as out:
        process = subprocess.run([sys.executable, "-m", "repro.cli"]
                                 + list(argv),
                                 stdout=out, stderr=subprocess.PIPE)
    if process.returncode != 0:
        sys.stderr.write(process.stderr.decode(errors="replace"))
        raise Fail(f"exit {process.returncode} for: {' '.join(argv)}")
    print(f"    done in {time.perf_counter() - started:.1f}s")


def interrupted_serve(argv, out_path: str, kill_after: int,
                      checkpoint: str) -> None:
    """SIGTERM a serve once ``kill_after`` households folded; it must
    exit 3 and leave ``checkpoint`` behind."""
    print(f"  $ repro.cli {' '.join(argv)}   # will SIGTERM")
    with open(out_path, "wb") as out:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli"] + list(argv),
            stdout=out, stderr=subprocess.PIPE, text=True)
        killed = False
        for line in process.stderr:
            match = FOLDED.search(line)
            if match and not killed \
                    and int(match.group(1)) >= kill_after:
                print(f"    SIGTERM at {match.group(0)}")
                process.send_signal(signal.SIGTERM)
                killed = True
        process.wait()
    if not killed:
        raise Fail(f"stream finished before {kill_after} households "
                   f"folded; nothing to kill")
    if process.returncode != 3:
        raise Fail(f"interrupted serve exited {process.returncode}, "
                   f"expected 3 (graceful stop with checkpoint)")
    if not os.path.exists(checkpoint):
        raise Fail(f"no checkpoint at {checkpoint}")


def run_row(row: Row, out: str, cache: str) -> None:
    print(f"[{row.name}] {row.households} households, artifacts in {out}")
    shutil.rmtree(out, ignore_errors=True)  # no stale checkpoints
    os.makedirs(out)
    for run in row.runs:
        argv = [arg.format(n=row.households, out=out, cache=cache)
                for arg in run.argv]
        stdout = os.path.join(out, f"{run.name}.txt")
        if run.kill:
            checkpoint_dir = argv[argv.index("--checkpoint-dir") + 1]
            interrupted_serve(
                argv, os.path.join(out, f"{run.name}-killed.txt"),
                max(1, row.households // 4),
                os.path.join(checkpoint_dir, "service-checkpoint.json"))
            argv.append("--resume")
        run_cli(argv, stdout)
    for group in row.equal:
        digests = {name: sha256(os.path.join(out, name))
                   for name in group}
        for name, digest in digests.items():
            print(f"  sha256 {digest}  {name}")
        if len(set(digests.values())) != 1:
            raise Fail(f"{row.name}: {', '.join(group)} differ")
    for check in row.checks:
        check(out)
    print(f"OK: {row.name}")


def main() -> int:
    names = [row.name for row in ROWS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="*", metavar="ROW",
                        help=f"rows to run (default: all of "
                             f"{', '.join(names)})")
    parser.add_argument("--out-dir", default=None,
                        help="keep every row's artifacts under this "
                             "directory (default: a temp dir, removed)")
    args = parser.parse_args()
    unknown = sorted(set(args.rows) - set(names))
    if unknown:
        parser.error(f"unknown rows {unknown} (choose from {names})")
    scratch = tempfile.mkdtemp(prefix="invariance-smoke-")
    out_root = args.out_dir or os.path.join(scratch, "out")
    try:
        for row in ROWS:
            if not args.rows or row.name in args.rows:
                run_row(row, os.path.join(out_root, row.name),
                        os.path.join(scratch, "cache", row.name))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
