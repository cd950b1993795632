"""``src/`` holds only code that runs; test oracles live under ``tests/``.

Every ``.py`` file under ``src/``, ``bench/``, ``benchmarks/`` and
``examples/`` is parsed with :mod:`ast`, and every ``repro`` module it
imports is collected. A module that only its own package's
``__init__.py`` imports does not count as imported. A ``src/repro``
module that no file imports is dead code or a test-only oracle, unless
it is reached some other way: those are listed in ``REACHED_OTHERWISE``
with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCANNED = ("src", "bench", "benchmarks", "examples")

REACHED_OTHERWISE = {
    "repro.__main__": "the `python -m repro` entry point",
    "repro.mac.protocols.ampdu": "reached through the PROTOCOLS registry",
    "repro.mac.protocols.mu_aggregation": "reached through the PROTOCOLS registry",
    "repro.mac.protocols.wifox": "reached through the PROTOCOLS registry",
    "repro.analysis.calibration":
        "no non-test caller; kept as the comparison point for checking the "
        "MAC error model against the PHY",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _src_modules() -> set:
    return {_module_name(path) for path in (SRC / "repro").rglob("*.py")}


def _imports(path: Path, importer: str, is_package: bool) -> set:
    """Dotted names of every module (and name) ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package = importer if is_package else importer.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = ".".join(p for p in (package, node.module) if p)
            else:
                base = node.module
            names.add(base)
            # ``from pkg import sub`` imports the submodule ``pkg.sub``.
            names.update(f"{base}.{alias.name}" for alias in node.names)
    # Importing ``a.b.c`` imports ``a`` and ``a.b`` too.
    expanded = set()
    for name in names:
        parts = name.split(".")
        expanded.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return expanded


def unimported_src_modules() -> set:
    modules = _src_modules()
    imported = set()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            is_package = path.name == "__init__.py"
            importer = _module_name(path) if top == "src" else ""
            for name in _imports(path, importer, is_package):
                if name not in modules or name == importer:
                    continue
                # A package's __init__ re-exporting its own submodule does
                # not make the submodule reached.
                if is_package and name.rpartition(".")[0] == importer:
                    continue
                imported.add(name)
    return modules - imported


def test_every_src_module_is_imported_or_listed():
    assert unimported_src_modules() == set(REACHED_OTHERWISE)

