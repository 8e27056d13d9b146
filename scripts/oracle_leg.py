#!/usr/bin/env python
"""The whole reproduction on the per-access oracle path.

Every hammer loop normally hands its resident rounds to the memory
controller's chain engine (``MemoryController.submit_chain``); the
differential suites pin that engine to the per-access loop on fixed
patterns.  This script pins it on the reproduction itself: it patches
``MemoryController.supports_chain`` to False, so every round of every
attack runs one access at a time through ``submit``, then runs every
E, A and V id at its defaults and checks that each non-blank line of
the rendered outcome appears in that id's block of EXPERIMENTS.md.
Together with CI's ``experiments-golden`` job, which regenerates
EXPERIMENTS.md on the chain, that makes chain == oracle for all runs.

It prints every missing line and exits 1 if there is one.  Usage
(from the repository root; about two minutes on 2 vCPUs)::

    PYTHONPATH=src python scripts/oracle_leg.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
FENCE = "```"


def committed_blocks(text: str) -> Dict[str, List[str]]:
    """The lines of each id's fenced artefact in EXPERIMENTS.md, keyed
    by the id its first line (``### <id>: <title>``) names."""
    blocks: Dict[str, List[str]] = {}
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        if lines[index] != FENCE:
            index += 1
            continue
        end = lines.index(FENCE, index + 1)
        body = lines[index + 1:end]
        if body and body[0].startswith("### ") and ":" in body[0]:
            key = body[0][4:body[0].index(":")]
            blocks.setdefault(key, []).extend(body)
        index = end + 1
    return blocks


def missing_lines(ids: Iterable[str]) -> List[str]:
    """Run ``ids`` with the chain switched off; return every rendered
    line its EXPERIMENTS.md block lacks, prefixed with the id."""
    from repro.analysis import ABLATIONS, EXPERIMENTS, VALIDATIONS
    from repro.mc.controller import MemoryController

    registry = {**EXPERIMENTS, **ABLATIONS, **VALIDATIONS}
    blocks = committed_blocks(EXPERIMENTS_MD.read_text(encoding="utf-8"))
    saved = MemoryController.supports_chain
    MemoryController.supports_chain = property(lambda self: False)
    missing: List[str] = []
    try:
        for key in ids:
            started = time.perf_counter()
            rendered = registry[key]().render()
            committed = set(blocks.get(key, ()))
            lost = [
                line for line in rendered.splitlines()
                if line.strip() and line not in committed
            ]
            missing.extend(f"{key}: {line}" for line in lost)
            print(f"{key}: {len(lost)} missing line(s), "
                  f"{time.perf_counter() - started:.1f} s", flush=True)
    finally:
        MemoryController.supports_chain = saved
    return missing


def main() -> int:
    from repro.analysis import ABLATIONS, EXPERIMENTS, VALIDATIONS

    missing = missing_lines([*EXPERIMENTS, *ABLATIONS, *VALIDATIONS])
    for line in missing:
        print(f"missing from EXPERIMENTS.md: {line}")
    if missing:
        print(f"oracle leg: {len(missing)} rendered line(s) differ",
              file=sys.stderr)
        return 1
    print("oracle leg: every rendered line is in EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
