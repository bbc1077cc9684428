"""The `arud` command's options, pinned.

``data/cli_surface.json`` lists each subcommand with its help line and,
for the top level (under ``""``) and for each subcommand, every option
in the order ``--help`` shows it: its flags, whether it takes a value,
the metavar it shows, its help text and whether it is required, one
option a line.  The lists are read from `build_parser`'s actions, not
from ``--help`` text, whose layout differs between Python versions.  A
change meant to keep the command's interface as it is must keep this
test green.

Regenerate the file only from a commit whose interface is trusted:

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
import sys
from pathlib import Path

from arud.cli import build_parser

SURFACE = Path(__file__).parent / "data" / "cli_surface.json"


def _options(parser):
    rows = []
    for action in parser._actions:
        if not action.option_strings:
            continue
        takes_value = action.nargs != 0
        # argparse shows an option's value as its dest in capitals
        # unless a metavar is given.
        metavar = (action.metavar or action.dest.upper()) if takes_value \
            else None
        rows.append([action.option_strings, takes_value, metavar,
                     action.help, action.required])
    return rows


def surface():
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {"": _options(parser)}
    for name, subparser in sub.choices.items():
        options[name] = _options(subparser)
    return {"commands": {choice.dest: choice.help
                         for choice in sub._choices_actions},
            "options": options}


def render(found):
    """`found` as JSON, one subcommand or option a line."""
    commands = ",\n".join(f"  {json.dumps(name)}: {json.dumps(text)}"
                          for name, text in found["commands"].items())
    options = ",\n".join(
        f"  {json.dumps(name)}: [\n"
        + ",\n".join(f"   {json.dumps(row)}" for row in rows) + "\n  ]"
        for name, rows in found["options"].items())
    return (f'{{\n "commands": {{\n{commands}\n }},\n'
            f' "options": {{\n{options}\n }}\n}}\n')


def test_surface_is_pinned():
    # Compared as text, so the order of subcommands and options counts.
    assert render(surface()) == SURFACE.read_text(encoding="utf-8")


if __name__ == "__main__":
    SURFACE.write_text(render(surface()), encoding="utf-8")
    sys.exit(0)
