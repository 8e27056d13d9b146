#!/usr/bin/env python
"""The whole reproduction on the per-access oracle path.

Every hammer loop normally hands its resident rounds to the memory
controller's chain engine (``MemoryController.submit_chain``); the
differential suites pin that engine to the per-access loop on fixed
patterns.  This script pins it on the reproduction itself: it patches
``MemoryController.supports_chain`` to False, so every round of every
attack runs one access at a time through ``submit``, then re-renders
EXPERIMENTS.md through the same function ``python -m repro report``
uses (``repro.analysis.report.render_document``) and requires the
result to be byte-identical to the committed file.  Together with CI's
``experiments-golden`` job, which re-renders the same file on the
chain, that makes chain == oracle for all runs.

It leaves EXPERIMENTS.md untouched, prints a unified diff and exits 1
if any byte differs.  Usage (from the repository root; about two
minutes on 2 vCPUs)::

    PYTHONPATH=src python scripts/oracle_leg.py
"""

from __future__ import annotations

import difflib
import sys
import time
from pathlib import Path

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def main() -> int:
    from repro.analysis.report import render_document
    from repro.mc.controller import MemoryController

    committed = EXPERIMENTS_MD.read_text(encoding="utf-8")
    started = time.perf_counter()
    saved = MemoryController.supports_chain
    MemoryController.supports_chain = property(lambda self: False)
    try:
        rendered, _ = render_document(
            committed, progress=lambda key: print(f"running {key}...", flush=True)
        )
    finally:
        MemoryController.supports_chain = saved
    elapsed = time.perf_counter() - started
    if rendered != committed:
        sys.stdout.writelines(difflib.unified_diff(
            committed.splitlines(keepends=True),
            rendered.splitlines(keepends=True),
            "EXPERIMENTS.md", "per-access oracle",
        ))
        print(f"oracle leg: EXPERIMENTS.md differs on the per-access path "
              f"({elapsed:.0f} s)", file=sys.stderr)
        return 1
    print(f"oracle leg: EXPERIMENTS.md is byte-identical on the per-access "
          f"path ({elapsed:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
