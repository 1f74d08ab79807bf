"""Pin the CLI's option tables against a committed snapshot.

Tier-1 drives only some flags of some commands, so a dropped flag or a
changed default elsewhere would pass it.  This test walks every (sub)parser
and compares one line per action — flags, dest, default, type, choices,
nargs, required, action and metavar — with ``cli_parser_snapshot.txt``.
Help texts are deliberately not pinned.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SNAPSHOT = Path(__file__).with_name("cli_parser_snapshot.txt")


@pytest.fixture
def parser(monkeypatch):
    # the only environment-dependent defaults: campaign --db and --url
    monkeypatch.setenv("REPRO_CAMPAIGN_DB", "/campaigns.sqlite")
    monkeypatch.setenv("REPRO_SERVICE_URL", "http://service.invalid:1")
    return build_parser()


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def _walk(parser: argparse.ArgumentParser, path: str):
    """Yield (path, parser) for *parser* and every nested subcommand."""
    yield path, parser
    group = _subparsers(parser)
    if group is not None:
        for name, child in group.choices.items():
            yield from _walk(child, f"{path} {name}")


def _describe(action: argparse.Action) -> str:
    choices = action.choices
    if isinstance(choices, dict):
        choices = sorted(choices)
    type_ = getattr(action.type, "__name__", action.type)
    return " | ".join(
        [
            ",".join(action.option_strings) or "<positional>",
            f"dest={action.dest!r}",
            f"default={action.default!r}",
            f"type={type_}",
            f"choices={choices!r}",
            f"nargs={action.nargs!r}",
            f"required={action.required!r}",
            f"action={type(action).__name__}",
            f"metavar={action.metavar!r}",
        ]
    )


def option_table(parser: argparse.ArgumentParser) -> list[str]:
    return [
        f"{path}: {_describe(action)}"
        for path, sub in _walk(parser, "repro-patterns")
        for action in sub._actions
    ]


def _leaf_commands(parser: argparse.ArgumentParser) -> list[list[str]]:
    return [
        path.split()[1:]
        for path, sub in _walk(parser, "repro-patterns")
        if _subparsers(sub) is None
    ]


def test_option_tables_match_snapshot(parser):
    assert option_table(parser) == SNAPSHOT.read_text().splitlines()


def test_twenty_leaf_commands(parser):
    assert len(_leaf_commands(parser)) == 20


def test_help_exits_zero_for_every_leaf(parser, capsys):
    for command in _leaf_commands(parser):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--help"])
        assert exc.value.code == 0, command
        assert "usage: repro-patterns " + " ".join(command) in capsys.readouterr().out
