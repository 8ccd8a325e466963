"""The ``repro-em`` flag surface is pinned by ``tests/golden/cli_surface.json``.

For each sub-command the golden records every option's strings, nargs,
type name, choices, ``required`` and default.  A ``store_true`` /
``store_false`` switch is recorded only as a switch: which way it stores
is internal.  Help text is not pinned.

Regenerate the golden (only for a deliberate change of the surface) with::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import _build_parser

GOLDEN = Path(__file__).parent / "golden" / "cli_surface.json"


def _describe(action: argparse.Action) -> dict:
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        return {"switch": True}
    return {
        "nargs": action.nargs,
        "type": getattr(action.type, "__name__", None),
        "choices": list(action.choices) if action.choices is not None else None,
        "required": action.required,
        "default": action.default,
    }


def cli_surface(parser: argparse.ArgumentParser) -> dict:
    """``{command: {option: description}}`` for every sub-command."""
    commands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = {}
    for name, sub in commands.choices.items():
        options = {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            key = " ".join(action.option_strings) or action.dest
            options[key] = _describe(action)
        surface[name] = options
    return surface


def _render(surface: dict) -> str:
    return json.dumps(surface, indent=2, sort_keys=True) + "\n"


def test_parser_matches_golden_surface():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    live = cli_surface(_build_parser())
    moved = []
    for command in sorted(set(golden) | set(live)):
        was, now = golden.get(command, {}), live.get(command, {})
        moved += [
            f"{command} {option}: {was.get(option)} -> {now.get(option)}"
            for option in sorted(set(was) | set(now))
            if was.get(option) != now.get(option)
        ]
    assert not moved, "CLI surface moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_render(cli_surface(_build_parser())), encoding="utf-8")
    print(f"wrote {GOLDEN}")
