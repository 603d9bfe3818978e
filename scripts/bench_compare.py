"""Compare two perfbench runs end to end, against the benchmark's bounds.

Usage::

    python scripts/bench_compare.py OLD NEW

OLD and NEW are files holding the output of ``perfbench/run.py``; the
last line of each is its JSON result.  For every end-to-end metric
``BENCHMARK.json`` declares (``setup_s`` of a one-workload run, or
``fleet-cold.setup_s`` and its siblings of ``--workload all``) that both
runs report, it prints NEW/OLD and a verdict.  A metric is worse beyond
its bound when it moved the wrong way (``better``: ``lower`` or
``higher``) by more than ``bound`` times its OLD value.

Exit status: 0 when nothing worsened beyond its bound, 1 when a metric
did or NEW's reports were wrong (``"correct": false``), 2 when a file
cannot be read or the runs share no end-to-end metric.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def last_result(path: str) -> dict:
    """The JSON object on the last non-empty line of ``path``."""
    with open(path, "r", encoding="utf-8") as fileobj:
        lines = [line for line in fileobj.read().splitlines()
                 if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"{path}: last line is not a perfbench result")
    return result


def compare(old: dict, new: dict, declared: list) -> list:
    """``(name, old, new, ratio, verdict, beyond)`` per shared metric."""
    rules = {metric["name"]: metric for metric in declared}
    rows = []
    for name in sorted(set(old["metrics"]) & set(new["metrics"])):
        rule = rules.get(name.rsplit(".", 1)[-1])
        if rule is None:
            continue
        before = old["metrics"][name]["value"]
        after = new["metrics"][name]["value"]
        worse_by = (after - before if rule["better"] == "lower"
                    else before - after) / before
        beyond = worse_by > rule["bound"]
        verdict = (f"WORSE beyond {rule['bound']:g}" if beyond
                   else "worse, within bound" if worse_by > 0
                   else "better" if worse_by < 0 else "same")
        rows.append((name, before, after, after / before, verdict,
                     beyond))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python scripts/bench_compare.py OLD NEW",
              file=sys.stderr)
        return 2
    try:
        old, new = (last_result(path) for path in args)
        with open(BENCHMARK, "r", encoding="utf-8") as fileobj:
            declared = json.load(fileobj)["end_to_end"]
    except (OSError, ValueError) as exc:
        print(f"bench-compare: {exc}", file=sys.stderr)
        return 2
    rows = compare(old, new, declared)
    if not rows:
        print("bench-compare: the runs share no end-to-end metric",
              file=sys.stderr)
        return 2
    width = max(len(row[0]) for row in rows)
    print(f"{'metric':<{width}}  {'old':>12}  {'new':>12}  "
          f"{'new/old':>8}  verdict")
    for name, before, after, ratio, verdict, __ in rows:
        print(f"{name:<{width}}  {before:>12.4f}  {after:>12.4f}  "
              f"{ratio:>8.3f}  {verdict}")
    if not new.get("correct", False):
        print("NEW is not correct: its reports differ from the pins")
    return 1 if any(row[-1] for row in rows) \
        or not new.get("correct", False) else 0


if __name__ == "__main__":
    sys.exit(main())
