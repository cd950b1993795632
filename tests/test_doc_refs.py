"""The docs must point at real things.

Every ``make <target>`` quoted as code in the user-facing docs must be a
Makefile target, and every ``python -m repro <cmd>`` must be a subcommand
of the CLI parser. ROADMAP.md and CHANGES.md are history, and ``bench/``
documents itself, so neither is checked.
"""

import argparse
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
_TARGET = re.compile(r"^([A-Za-z][\w.-]*)\s*:(?!=)", re.M)


def _code(text: str) -> list:
    """Fenced blocks plus inline code spans outside them."""
    return _FENCED.findall(text) + _INLINE.findall(_FENCED.sub("", text))


def _make_targets() -> set:
    return set(_TARGET.findall((ROOT / "Makefile").read_text()))


def _subcommands() -> set:
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return set(action.choices)


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


def test_scanner_sees_the_known_references():
    # Guard against the regexes silently matching nothing.
    assert {"test", "bench-smoke", "soak-smoke"} <= _make_targets()
    assert {"phy", "soak", "status", "report"} <= _subcommands()
    assert _code("we make those faster") == []
    assert [name for span in _code("run `make soak-smoke` first")
            for name in _MAKE.findall(span)] == ["soak-smoke"]
