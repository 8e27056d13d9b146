"""EXPERIMENTS.md, re-rendered in place (the CLI's ``report``
subcommand, and the one producer of that file).

The committed document is its own template.  Every fenced block whose
first line is ``### <id>: <title>`` holds the rendered outcome of that
experiment, ablation or validation; :func:`render_document` runs each
such id once, at its defaults and in document order, and puts the fresh
render in its block.  Every other byte, the prose included, is kept as
it is, so on an unchanged tree the result is the committed file byte
for byte.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.ablations import ABLATIONS
from repro.analysis.experiments import EXPERIMENTS, ExperimentOutcome
from repro.analysis.validation import VALIDATIONS

FENCE = "```"


class DocumentError(ValueError):
    """The document cannot be re-rendered: a block names an unknown id,
    a registered id has no block, or a fence is never closed."""


def registry() -> Dict[str, Callable[[], ExperimentOutcome]]:
    """Every E, A and V id with its runner, in that order."""
    return {**EXPERIMENTS, **ABLATIONS, **VALIDATIONS}


def artefact_blocks(lines: List[str]) -> List[Tuple[str, int, int]]:
    """``(id, start, end)`` of every fenced block whose first line is
    ``### <id>:``; ``lines[start:end]`` is the block's body."""
    found = []
    index = 0
    while index < len(lines):
        if lines[index] != FENCE:
            index += 1
            continue
        try:
            end = lines.index(FENCE, index + 1)
        except ValueError:
            raise DocumentError(
                f"the fence on line {index + 1} is never closed"
            ) from None
        head = lines[index + 1]
        if head.startswith("### ") and ":" in head:
            found.append((head[4:head.index(":")], index + 1, end))
        index = end + 1
    return found


def render_document(
    text: str, progress: Optional[Callable[[str], None]] = None
) -> Tuple[str, Dict[str, ExperimentOutcome]]:
    """``text`` with every artefact block re-rendered, and the outcome
    of each id.  Raises :class:`DocumentError` before running anything
    if the blocks and the registry disagree.  ``progress`` is called
    with each id before it runs."""
    lines = text.split("\n")
    blocks = artefact_blocks(lines)
    runners = registry()
    ids = list(dict.fromkeys(key for key, _, _ in blocks))
    unknown = [key for key in ids if key not in runners]
    if unknown:
        raise DocumentError(
            f"a block names unknown id {', '.join(unknown)}; "
            f"known: {', '.join(runners)}"
        )
    missing = [key for key in runners if key not in ids]
    if missing:
        raise DocumentError(f"no block for {', '.join(missing)}")
    outcomes: Dict[str, ExperimentOutcome] = {}
    for key in ids:
        if progress is not None:
            progress(key)
        outcomes[key] = runners[key]()
    for key, start, end in reversed(blocks):
        lines[start:end] = outcomes[key].render().rstrip().split("\n")
    return "\n".join(lines), outcomes
