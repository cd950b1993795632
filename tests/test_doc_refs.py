"""The docs must point at real things.

Every ``make <target>`` quoted as code in the user-facing docs must be a
Makefile target, every ``python -m repro <cmd>`` must be a subcommand
of the CLI parser, and every ``from repro.X import a, b`` must import:
each name is an attribute or a submodule of ``repro.X``. ROADMAP.md and CHANGES.md are history, and ``bench/``
documents itself, so neither is checked.
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
_TARGET = re.compile(r"^([A-Za-z][\w.-]*)\s*:(?!=)", re.M)
_IMPORT = re.compile(r"\bfrom\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n`]+)")


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
def test_repro_imports_resolve(doc):
    missing = [f"from {module} import {name}"
               for module, name in _imports(doc.read_text())
               if not _resolves(module, name)]
    assert missing == []


def test_scanner_sees_the_known_references():
    # Guard against the regexes silently matching nothing.
    assert {"test", "bench-smoke", "soak-smoke"} <= _make_targets()
    assert {"phy", "soak", "status", "report"} <= _subcommands()
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
