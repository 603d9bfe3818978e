"""Self-test: the benchmark's exact counts repeat across two runs.

Usage (from the repository root; about two minutes)::

    python3 perfbench/selftest.py [--seed N]

Runs every workload's traced run twice at the same seed, each in its
own fresh interpreters and scratch directory, and requires every count
to be identical: the ``.calls`` of each layer (``acr.matcher.index``
among them), ``acr.memo.hit``/``acr.memo.miss``, ``analysis.packets``,
``service.bus.refusals`` and the rest.  A count that repeats exactly
can later be claimed as a count; one that does not must not be.
Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("fleet-cold", "fleet-replay", "serve-stream")


def counts(workload: str, seed: int) -> dict:
    finished = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", "1"], stdout=subprocess.PIPE, check=True)
    result = json.loads(finished.stdout.decode("utf-8").splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: reports were not correct")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] == "count"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    differences = 0
    for workload in WORKLOADS:
        first, second = counts(workload, args.seed), \
            counts(workload, args.seed)
        for name in sorted(first):
            same = first[name] == second[name]
            differences += not same
            print(f"{workload:13s} {name:45s} {first[name]:>10} "
                  f"{second[name]:>10}  {'ok' if same else 'DIFFERS'}")
    print(f"{differences} count(s) differ between two runs")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
