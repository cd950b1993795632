"""The docs must point at real things.

Every ``make <target>`` quoted as code in the user-facing docs must be a
Makefile target, every ``python -m repro <cmd>`` must be a subcommand
of the CLI parser, every ``--flag`` in such a command must be an option
of that subcommand (or of the top-level parser), and every
``from repro.X import a, b`` must import: each name is an attribute or a
submodule of ``repro.X``. ROADMAP.md and CHANGES.md are history, and
``bench/`` documents itself, so neither is checked.
"""

import argparse
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

DOCS = [
    path for path in (
        [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
         ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
        + sorted((ROOT / "docs").glob("*.md"))
    )
    if path.exists()
]

_FENCED = re.compile(r"^```.*?^```", re.S | re.M)
_INLINE = re.compile(r"`([^`\n]+)`")
# `make` as a command word inside code, not the English verb in prose.
_MAKE = re.compile(r"(?:^|[\s;&|(])make\s+([A-Za-z][\w.-]*)", re.M)
_REPRO = re.compile(r"python3?\s+-m\s+repro\s+([A-Za-z][\w-]*)")
# The rest of a repro command: to the end of the line or code span,
# following ``\``-continued lines. A lookahead, so a second command on
# the same line is still found on its own.
_REPRO_ARGS = re.compile(
    r"python3?\s+-m\s+repro\s+([A-Za-z][\w-]*)"
    r"(?=((?:[^\n`]*\\\n)*[^\n`]*))")
# Where a command's own arguments stop: the next command, a pipe or list
# operator, or a shell comment.
_COMMAND_END = re.compile(r"python3?\s+-m\s+repro\b|[|;&]|(?:^|\s)#")
_FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
_TARGET = re.compile(r"^([A-Za-z][\w.-]*)\s*:(?!=)", re.M)
_IMPORT = re.compile(r"\bfrom\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n`]+)")


def _code(text: str) -> list:
    """Fenced blocks plus inline code spans outside them."""
    return _FENCED.findall(text) + _INLINE.findall(_FENCED.sub("", text))


def _make_targets() -> set:
    return set(_TARGET.findall((ROOT / "Makefile").read_text()))


def _option_strings() -> dict:
    """Each subcommand's option strings, top-level options included."""
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    top = set(parser._option_string_actions)
    return {name: top | set(sub._option_string_actions)
            for name, sub in action.choices.items()}


def _subcommands() -> set:
    return set(_option_strings())


def _repro_flags(text: str) -> list:
    """``(subcommand, --flag)`` for every flag a ``python -m repro`` command
    passes; ``[--flag]`` (optional, in usage lines) counts too."""
    pairs = []
    for command, rest in _REPRO_ARGS.findall(text):
        rest = _COMMAND_END.split(rest.replace("[", " ").replace("]", " "))[0]
        pairs += [(command, flag) for flag in _FLAG.findall(rest)]
    return pairs


def _imports(text: str) -> list:
    """``(module, name)`` for every name a ``from repro… import`` line pulls."""
    pairs = []
    for module, names in _IMPORT.findall(text):
        names = re.sub(r"#[^\n]*", "", names).strip("()")
        for name in names.split(","):
            name = name.split(" as ")[0].strip()
            if name:
                pairs.append((module, name))
    return pairs


def _resolves(module: str, name: str) -> bool:
    try:
        parent = importlib.import_module(module)
    except ImportError:
        return False
    return (hasattr(parent, name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)


def _ids(paths):
    return [str(path.relative_to(ROOT)) for path in paths]


@pytest.mark.parametrize("doc", DOCS, ids=_ids(DOCS))
def test_make_targets_exist(doc):
    targets = _make_targets()
    quoted = {name for span in _code(doc.read_text())
              for name in _MAKE.findall(span)}
    assert quoted - targets == set()


@pytest.mark.parametrize("doc", DOCS, ids=_ids(DOCS))
def test_repro_subcommands_exist(doc):
    quoted = set(_REPRO.findall(doc.read_text()))
    assert quoted - _subcommands() == set()


@pytest.mark.parametrize("doc", DOCS, ids=_ids(DOCS))
def test_repro_flags_exist(doc):
    options = _option_strings()
    unknown = [f"repro {command} {flag}"
               for command, flag in _repro_flags(doc.read_text())
               if flag not in options.get(command, ())]
    assert unknown == []


@pytest.mark.parametrize("doc", DOCS, ids=_ids(DOCS))
def test_repro_imports_resolve(doc):
    missing = [f"from {module} import {name}"
               for module, name in _imports(doc.read_text())
               if not _resolves(module, name)]
    assert missing == []


def test_scanner_sees_the_known_references():
    # Guard against the regexes silently matching nothing.
    assert {"test", "bench-smoke", "soak-smoke"} <= _make_targets()
    assert {"phy", "soak", "status", "report"} <= _subcommands()
    assert _repro_flags(
        "python -m repro soak --epochs 8 \\\n    [--telemetry]  # --not-a-flag\n"
        "`python3 -m repro status d --follow` | python -m repro report x --top 3"
    ) == [("soak", "--epochs"), ("soak", "--telemetry"),
          ("status", "--follow"), ("report", "--top")]
    assert {"--log-level", "--checkpoint", "--slo"} <= _option_strings()["soak"]
    assert _code("we make those faster") == []
    assert [name for span in _code("run `make soak-smoke` first")
            for name in _MAKE.findall(span)] == ["soak-smoke"]
    assert _imports("from repro.mac import (\n    PROTOCOLS,  # all five\n"
                    "    WlanSimulator as Sim,\n)") == [
        ("repro.mac", "PROTOCOLS"), ("repro.mac", "WlanSimulator")]
    assert _imports("`from repro.runtime import run_trials`") == [
        ("repro.runtime", "run_trials")]
    assert _resolves("repro.mac", "engine")  # a submodule, not an attribute
    assert not _resolves("repro.mac", "no_such_name")
    assert not _resolves("repro.no_such_module", "x")
