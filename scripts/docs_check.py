"""Check that docs/cli.md and the ``repro.cli`` parsers agree.

Run via ``make docs-check``.  Three checks, each failing until the
reference is updated:

* every subcommand has its own ``### `name` `` heading;
* every long option a subcommand's parser accepts (``--help`` aside)
  appears somewhere in the reference;
* every backticked ``--option`` in the reference is accepted by some
  parser, so docs for a removed flag cannot linger.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import build_parser  # noqa: E402

#: An inline code span (fenced blocks are stripped first) and a long
#: option inside it.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_LONG_OPTION = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def cli_subcommands() -> list:
    commands = _subparsers(build_parser())
    if not commands:
        raise SystemExit("repro.cli has no subparsers?")
    return sorted(commands)


def cli_long_options() -> dict:
    """``--option`` -> the subcommands (nested ones space-joined)
    whose parser accepts it."""
    accepted: dict = {}
    pending = [(name, sub) for name, sub
               in _subparsers(build_parser()).items()]
    while pending:
        name, parser = pending.pop()
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for option in action.option_strings:
                if option.startswith("--"):
                    accepted.setdefault(option, set()).add(name)
        pending += [(f"{name} {child}", sub) for child, sub
                    in _subparsers(parser).items()]
    return accepted


def documented_long_options(text: str) -> set:
    """Every ``--option`` inside an inline code span of ``text``."""
    return {option
            for span in _CODE_SPAN.findall(_FENCE.sub("", text))
            for option in _LONG_OPTION.findall(span)}


def main() -> int:
    docs_path = os.path.join(REPO_ROOT, "docs", "cli.md")
    try:
        with open(docs_path, "r", encoding="utf-8") as fileobj:
            text = fileobj.read()
    except OSError as exc:
        print(f"docs-check: cannot read {docs_path}: {exc}")
        return 1
    commands = cli_subcommands()
    missing = [command for command in commands
               if f"### `{command}`" not in text]
    if missing:
        print(f"docs-check: docs/cli.md is missing a '### `<name>`' "
              f"section for: {', '.join(missing)}")
        return 1
    accepted = cli_long_options()
    mentioned = set(_LONG_OPTION.findall(text))
    undocumented = sorted(set(accepted) - mentioned)
    if undocumented:
        print("docs-check: docs/cli.md never mentions: "
              + ", ".join(f"{option} ({', '.join(sorted(accepted[option]))})"
                          for option in undocumented))
        return 1
    stale = sorted(documented_long_options(text) - set(accepted))
    if stale:
        print("docs-check: docs/cli.md documents options no parser "
              f"accepts: {', '.join(stale)}")
        return 1
    print(f"docs-check: all {len(commands)} subcommands and "
          f"{len(accepted)} long options documented "
          f"({', '.join(commands)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
