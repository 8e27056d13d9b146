"""Markdown report generation: run the experiment suite and emit one
self-contained document (the CLI's ``report`` subcommand and the
EXPERIMENTS.md refresh path)."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.analysis.experiments import EXPERIMENTS, ExperimentOutcome

_HEADER = """# Experiment report

Generated by `python -m repro report`.  One section per experiment; see
DESIGN.md §3 for what each experiment reproduces and EXPERIMENTS.md for
the curated paper-claim discussion.

| ID | Title | Verdict |
|---|---|---|
"""


def outcome_to_markdown(outcome: ExperimentOutcome) -> str:
    """One experiment section: claim, artefacts in a code fence, verdict."""
    parts = [
        f"## {outcome.experiment_id}: {outcome.title}",
        "",
        f"**Claim.** {outcome.claim}",
        "",
        "```",
    ]
    for table in outcome.tables:
        parts.append(table.render())
        parts.append("")
    for figure in outcome.figures:
        parts.append(figure)
        parts.append("")
    parts.append("```")
    status = "reproduced" if outcome.verdict else "NOT reproduced"
    parts.append("")
    parts.append(f"**Verdict:** {status} — {outcome.verdict_detail}")
    return "\n".join(parts)


def generate_report(
    experiment_ids: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
    progress=None,
    include_ablations: bool = False,
) -> str:
    """Run the selected experiments (all by default, plus the A-series
    when ``include_ablations``) and return the combined markdown report.
    ``scale`` overrides every experiment's own default scale when given.
    ``progress`` is an optional callable invoked with each experiment id
    before it runs."""
    from repro.analysis.ablations import ABLATIONS

    registry = dict(EXPERIMENTS)
    if include_ablations or any(
        (eid or "").startswith("A") for eid in (experiment_ids or ())
    ):
        registry.update(ABLATIONS)
    if experiment_ids is None:
        selected = list(EXPERIMENTS)
        if include_ablations:
            selected.extend(ABLATIONS)
    else:
        selected = list(experiment_ids)
    unknown = [eid for eid in selected if eid not in registry]
    if unknown:
        known = ", ".join(registry)
        raise KeyError(f"unknown experiment(s) {unknown}; known: {known}")
    kwargs = {} if scale is None else {"scale": scale}
    outcomes: List[ExperimentOutcome] = []
    for experiment_id in selected:
        if progress is not None:
            progress(experiment_id)
        outcomes.append(registry[experiment_id](**kwargs))
    summary_rows = "".join(
        f"| {o.experiment_id} | {o.title} | "
        f"{'reproduced' if o.verdict else 'NOT reproduced'} |\n"
        for o in outcomes
    )
    body = "\n\n---\n\n".join(outcome_to_markdown(o) for o in outcomes)
    return _HEADER + summary_rows + "\n---\n\n" + body + "\n"
