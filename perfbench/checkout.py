"""Locate the checkout and import ``symlab`` from its ``src`` tree only.

The benchmark must measure the code in the checkout it runs from, never an
installed copy, and must fail loudly when the checkout holds no program.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for generated data files and CLI outputs, removed after a run
TMP = ROOT / ".bench_tmp"


class MissingProgram(RuntimeError):
    """The checkout has no importable ``symlab`` under ``src``."""


def load_symlab():
    """Import ``symlab`` from ``<checkout>/src``; raise :class:`MissingProgram` otherwise."""
    package = SRC / "symlab" / "__init__.py"
    if not package.is_file():
        raise MissingProgram(f"no symlab package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import symlab

    if Path(symlab.__file__).resolve() != package.resolve():
        raise MissingProgram(f"symlab imported from {symlab.__file__}, not from {SRC}")
    return symlab
