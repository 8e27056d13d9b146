"""Command-line interface: run experiments, mount attacks, emit reports.

Examples::

    python -m repro list
    python -m repro run E3 E6
    python -m repro attack --platform legacy --pattern double-sided
    python -m repro attack --platform proposed --defense subarray-isolation
    python -m repro report
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.ablations import ABLATIONS
from repro.analysis.validation import VALIDATIONS
from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.report import DocumentError, registry, render_document
from repro.analysis.scenarios import build_scenario, run_attack
from repro.analysis.stats import merge_replications
from repro.attacks.patterns import PATTERN_NAMES
from repro.defenses.registry import DEFENSE_BY_NAME, build_overrides
from repro.sim import PLATFORMS, platform_config


def _first_doc_line(runner) -> str:
    lines = (runner.__doc__ or "").strip().splitlines()
    return lines[0] if lines else ""


def _cmd_list(args) -> int:
    print("experiments:")
    for experiment_id, runner in EXPERIMENTS.items():
        print(f"  {experiment_id:4s} {_first_doc_line(runner)}")
    print()
    print("ablations:")
    for ablation_id, runner in ABLATIONS.items():
        print(f"  {ablation_id:4s} {_first_doc_line(runner)}")
    print()
    print("validations:")
    for validation_id, runner in VALIDATIONS.items():
        print(f"  {validation_id:4s} {_first_doc_line(runner)}")
    print()
    print("defenses:", ", ".join(sorted(DEFENSE_BY_NAME)))
    print("attack patterns:", ", ".join(PATTERN_NAMES))
    return 0


def _cmd_run(args) -> int:
    runners = registry()
    failed = []
    for experiment_id in args.experiments:
        key = experiment_id.upper()
        if key not in runners:
            print(f"unknown experiment {experiment_id!r}; "
                  f"known: {', '.join(runners)}", file=sys.stderr)
            return 2
        if key.startswith("V") or args.scale is None:
            # validations pick their own scales; without --scale every
            # experiment runs at its own default (E13's is 8, not 64)
            outcome = runners[key]()
        else:
            outcome = runners[key](scale=args.scale)
        print(outcome.render())
        print()
        if not outcome.verdict:
            failed.append(key)
    if failed:
        print(f"NOT reproduced: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_attack(args) -> int:
    cls = DEFENSE_BY_NAME[args.defense] if args.defense else None
    config = platform_config(
        args.platform, scale=args.scale, **build_overrides(cls)
    )
    defenses = [cls()] if cls else []
    try:
        scenario = build_scenario(
            config,
            defenses=defenses,
            interleaved_allocation=not args.contiguous,
        )
    except Exception as error:  # surface capability errors readably
        print(f"cannot build this combination: {error}", file=sys.stderr)
        return 2
    result = run_attack(
        scenario, args.pattern, sides=args.sides,
        windows=args.windows, use_dma=args.dma,
    )
    print(f"pattern:            {result.plan.pattern} "
          f"({result.plan.sides} aggressor lines)")
    print(f"plan viable:        {result.plan.viable}")
    print(f"hammer iterations:  {result.hammer_iterations}")
    print(f"cross-domain flips: {result.cross_domain_flips}")
    print(f"intra-domain flips: {result.intra_domain_flips}")
    for defense in scenario.defenses:
        if defense.counters:
            print(f"{defense.name} counters: {defense.counters}")
    return 0 if (args.expect_flips is None
                 or (result.cross_domain_flips > 0) == args.expect_flips) else 1


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """The result-cache pair shared by cache-consulting subcommands."""
    parser.add_argument(
        "--no-cache", action="store_true",
        help="never consult or fill the result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )


def _resolve_cache(args):
    """The :class:`~repro.analysis.cache.ResultCache` the flags select,
    or ``None`` with ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    from repro.analysis.cache import ResultCache

    return ResultCache(args.cache_dir)


def _cmd_cache(args) -> int:
    import time as _time

    from repro.analysis.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "ls":
        entries = cache.entries()
        if not entries:
            print(f"(empty cache at {cache.root})")
            return 0
        now = _time.time()
        print(f"{'key':32s}  {'spec':24s}  {'seed':>6s}  "
              f"{'age':>8s}  {'bytes':>7s}")
        for entry in entries:
            age_s = max(0.0, now - entry.created_at)
            if age_s < 3600:
                age = f"{age_s / 60:.0f}m"
            elif age_s < 86_400:
                age = f"{age_s / 3600:.1f}h"
            else:
                age = f"{age_s / 86_400:.1f}d"
            print(f"{entry.key:32s}  {entry.spec_type:24.24s}  "
                  f"{entry.seed:6d}  {age:>8s}  {entry.bytes:7d}")
        return 0
    if args.action == "stats":
        for key, value in cache.stats().items():
            print(f"{key}: {value}")
        return 0
    if args.action == "prune":
        older_s = (
            args.older_than * 86_400.0 if args.older_than is not None
            else None
        )
        removed = cache.prune(
            older_than_s=older_s, max_entries=args.max_entries
        )
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    removed = cache.clear()
    print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


#: exit status for an interrupted command (128 + SIGINT, shell style)
EXIT_INTERRUPTED = 130


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}{'s' if count != 1 else ''}"


def _seed_list(seeds: Sequence[int], limit: int = 8) -> str:
    """The first ``limit`` seeds, comma-separated, ``...`` after more."""
    shown = ", ".join(str(s) for s in seeds[:limit])
    return shown + ("..." if len(seeds) > limit else "")


def _print_aggregates(seeds: Sequence[int], completed) -> None:
    """A campaign's aggregate lines, complete or partial, in seed
    order: what ``replicate`` prints and ``status`` re-prints."""
    runs = [completed[s] for s in seeds if s in completed]
    if not runs:
        print("  (no seeds completed)")
        return
    if len(runs) != len(seeds):
        print(f"  (partial: {len(runs)}/{len(seeds)} seeds)")
    for aggregate in merge_replications(runs).values():
        print(f"  {aggregate.describe()}")


def _print_campaign(experiment: str, result, workers: int) -> None:
    """Render a campaign outcome (complete or partial)."""
    print(f"{experiment} x {len(result.seeds)} seeds "
          f"({_plural(workers, 'worker')}):")
    if result.resumed:
        print(f"  [resumed: {_plural(result.resumed, 'seed')} from journal]")
    if result.cache_hits:
        print(f"  [cached: {_plural(result.cache_hits, 'seed')} "
              f"from result cache]")
    if result.retries or result.respawns or result.degraded:
        notes = []
        if result.retries:
            notes.append(f"{result.retries} retries")
        if result.respawns:
            notes.append(f"{result.respawns} pool respawns")
        if result.degraded:
            notes.append("degraded to serial")
        print(f"  [recovered: {', '.join(notes)}]")
    _print_aggregates(result.seeds, result.completed)


def _cmd_replicate(args) -> int:
    import dataclasses

    from repro.analysis.parallel import (
        REPLICATION_SPECS,
        effective_workers,
        resolve_jobs,
    )
    from repro.runtime import (
        CampaignInterrupted,
        JournalError,
        SupervisorPolicy,
        peek_header,
        rebuild_spec,
        run_campaign,
    )

    try:
        policy = SupervisorPolicy(
            timeout_s=args.timeout, max_retries=args.max_retries
        )
        jobs = resolve_jobs(args.jobs)
    except ValueError as error:
        print(f"repro replicate: error: {error}", file=sys.stderr)
        return 2

    if args.resume:
        try:
            header = peek_header(args.resume)
            spec = rebuild_spec(header)
        except JournalError as error:
            print(f"repro replicate: error: {error}", file=sys.stderr)
            return 2
        seeds = list(header.seeds)
        experiment = header.experiment  # part of the fingerprint
        journal_path, resume = args.resume, True
    else:
        if args.experiment is None:
            print("repro replicate: error: an experiment is required "
                  "unless --resume is given", file=sys.stderr)
            return 2
        spec = REPLICATION_SPECS[args.experiment.upper()]
        if args.scale is not None:
            spec = dataclasses.replace(spec, scale=args.scale)
        seeds = [args.seed_base + i for i in range(args.seeds)]
        experiment = args.experiment.upper()
        journal_path, resume = args.journal, False

    workers = effective_workers(jobs, len(seeds))
    label = experiment or type(spec).__name__
    try:
        result = run_campaign(
            spec, seeds, jobs=jobs, policy=policy,
            journal_path=journal_path, resume=resume,
            experiment=experiment, cache=_resolve_cache(args),
        )
    except JournalError as error:
        print(f"repro replicate: error: {error}", file=sys.stderr)
        return 2
    except CampaignInterrupted as interrupt:
        partial = interrupt.partial
        print()
        _print_campaign(label, partial, workers)
        missing = partial.incomplete_seeds
        print(f"interrupted with {_plural(len(missing), 'seed')} "
              f"incomplete: {_seed_list(missing)}", file=sys.stderr)
        if interrupt.journal_path is not None:
            print(f"resume with: python -m repro replicate "
                  f"--resume {interrupt.journal_path}", file=sys.stderr)
        else:
            print("re-run with --journal PATH to make campaigns "
                  "resumable", file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        print("\nrepro replicate: interrupted before any seed completed",
              file=sys.stderr)
        return EXIT_INTERRUPTED

    _print_campaign(label, result, workers)
    if not result.complete:
        for failure in result.failures.values():
            print(f"seed {failure.seed} failed after {failure.attempts} "
                  f"attempts: {failure.reason}", file=sys.stderr)
        if journal_path is not None:
            print(f"retry the failed seeds with: python -m repro "
                  f"replicate --resume {journal_path}", file=sys.stderr)
        return 1
    return 0


def _status_directory(args) -> int:
    """Deterministic multi-campaign table for a directory of journals."""
    from repro.runtime import JournalError, load_journal

    directory = Path(args.journal)
    journals = sorted(directory.glob("*.journal"))
    if not journals:
        print(f"repro status: no *.journal files in {directory}",
              file=sys.stderr)
        return 2
    print(f"{'campaign':24s}  {'fingerprint':16s}  {'state':8s}  "
          f"{'seeds':>9s}  {'cached':>6s}  {'eta_s':>7s}")
    rows = 0
    for journal in journals:
        try:
            snapshot = load_journal(journal)
        except JournalError as error:
            print(f"{journal.name:24.24s}  {'-':16s}  {'error':8s}  "
                  f"{'-':>9s}  {'-':>6s}  {'-':>7s}  ({error})")
            continue
        header = snapshot.header
        done = len(snapshot.completed)
        total = len(header.seeds)
        if done == total:
            state = "done"
        elif snapshot.failures:
            state = "failed"
        else:
            state = "running"
        eta = snapshot.eta_s
        eta_cell = "-" if eta is None else f"{eta:.1f}"
        name = header.experiment or journal.stem
        print(f"{name:24.24s}  {header.fingerprint:16.16s}  {state:8s}  "
              f"{done:4d}/{total:<4d}  {len(snapshot.cached):6d}  "
              f"{eta_cell:>7s}")
        rows += 1
    return 0 if rows else 2


def _cmd_status(args) -> int:
    import os

    from repro.runtime import JournalError, load_journal, merge_metric_snapshots

    if os.path.isdir(args.journal):
        return _status_directory(args)
    try:
        snapshot = load_journal(args.journal)
    except JournalError as error:
        print(f"repro status: error: {error}", file=sys.stderr)
        return 2
    header = snapshot.header
    seeds = header.seeds
    pending = snapshot.pending()
    retries = snapshot.retries
    title = header.experiment or "campaign"
    print(f"{title} campaign ({header.fingerprint}): "
          f"{len(snapshot.completed)}/{len(seeds)} seeds done")
    print(f"  pending:   {len(pending)}"
          + (f" ({_seed_list(pending)})" if pending else ""))
    print(f"  retried:   {_plural(len(retries), 'seed')} "
          f"({sum(retries.values())} retries)")
    print(f"  failed:    {len(snapshot.failures)}")
    for seed in seeds:
        failure = snapshot.failures.get(seed)
        if failure is not None:
            print(f"    seed {seed} after "
                  f"{_plural(failure.attempts, 'attempt')}: {failure.reason}")
    print(f"  cached:    {len(snapshot.cached)}")
    elapsed = snapshot.elapsed_s
    if elapsed is not None:
        print(f"  elapsed:   {elapsed:.1f} s")
    if snapshot.eta_s is not None:
        print(f"  ETA:       {snapshot.eta_s:.1f} s")
    merged = merge_metric_snapshots(
        [snapshot.worker_metrics[s] for s in seeds
         if s in snapshot.worker_metrics]
    )
    requests = merged.get("mc.reads", 0) + merged.get("mc.writes", 0)
    if requests and elapsed:
        print(f"  req/s:     {requests / elapsed:,.0f} "
              f"(simulated requests over campaign wall clock)")
    _print_aggregates(seeds, snapshot.completed)
    if merged:
        print(f"  merged metrics "
              f"({_plural(len(snapshot.worker_metrics), 'seed snapshot')}):")
        for key in sorted(merged):
            value = merged[key]
            shown = f"{value:.4g}" if isinstance(value, float) else value
            print(f"    {key} = {shown}")
    else:
        print("  (no worker metrics journaled yet)")
    return 0


def _cmd_trace(args) -> int:
    import dataclasses

    from repro.analysis.parallel import (
        REPLICATION_SPECS,
        AttackReplicationSpec,
    )
    from repro.dram.presets import by_name
    from repro.obs import JsonlSink, SamplingSink, observe

    spec = REPLICATION_SPECS[args.experiment.upper()]
    if args.scale is not None:
        spec = dataclasses.replace(spec, scale=args.scale)
    if isinstance(spec, AttackReplicationSpec) and not args.no_arm:
        # Platforms ship with ACT counters effectively off (threshold
        # 1<<20); a trace whose interrupt timeline is empty by
        # construction is useless, so arm the §4.2 reporting primitive
        # at an eighth of the (scaled) MAC with precise line capture.
        config = platform_config(spec.platform, scale=spec.scale)
        mac = by_name(config.generation).scaled(config.scale).profile.mac
        spec = dataclasses.replace(
            spec,
            act_threshold=max(2, mac // 8),
            precise_interrupts=True,
        )
    path = Path(args.output)
    path.parent.mkdir(parents=True, exist_ok=True)
    sink_holder: List[JsonlSink] = []

    def make_sink():
        sink = JsonlSink(path)
        sink_holder.append(sink)
        if args.sample_every_n:
            # Deterministic ACT thinning: keep every Nth activate (the
            # phase seeded per run), ground-truth kinds always pass.
            return SamplingSink(sink, args.sample_every_n, seed=args.seed)
        return sink

    with observe(sink_factory=make_sink):
        observables = spec(args.seed)
    written = sum(sink.events_written for sink in sink_holder)
    print(f"{args.experiment.upper()} seed={args.seed}: "
          f"{written} events -> {path}")
    for key in sorted(observables):
        print(f"  {key} = {observables[key]}")
    if written == 0:
        print("warning: trace is empty", file=sys.stderr)
    return 0


def _cmd_inspect(args) -> int:
    from repro.obs import iter_jsonl, render_summary, summarize_events

    # Stream: one event in memory at a time, so a multi-gigabyte trace
    # inspects in bounded memory.
    try:
        summary = summarize_events(iter_jsonl(args.trace))
    except (OSError, ValueError) as error:
        print(f"repro inspect: error: {error}", file=sys.stderr)
        return 2
    print(render_summary(
        summary, top=args.top, timeline_limit=args.timeline,
    ))
    return 0


def _cmd_faults(args) -> int:
    from repro.faults.diff import (
        DiffSpec,
        render_report,
        report_to_json,
        run_matrix,
    )

    spec = DiffSpec(
        platform=args.platform,
        defense=args.defense,
        pattern=args.pattern,
        sides=args.sides,
        scale=args.scale,
        windows=args.windows,
        seed=args.seed,
        invariant_level=args.invariant_level,
    )
    # The whole matrix report is a pure function of the (JSON-native)
    # DiffSpec, so it caches as one entry keyed by the spec and its seed.
    cache = _resolve_cache(args)
    report = cache.get(spec, spec.seed) if cache is not None else None
    if report is None:
        try:
            report = run_matrix(spec)
        except KeyboardInterrupt:
            print("\nrepro faults: interrupted; the fault matrix has no "
                  "journal, re-run to completion (lower --scale for a "
                  "faster matrix)", file=sys.stderr)
            return EXIT_INTERRUPTED
        except Exception as error:  # surface capability errors readably
            print(f"cannot run this combination: {error}", file=sys.stderr)
            return 2
        if cache is not None:
            cache.put(spec, spec.seed, report)
    else:
        print("[matrix report served from result cache]", file=sys.stderr)
    print(render_report(report))
    if args.smoke:
        # CI determinism gate: the same spec must serialize to the same
        # bytes on a second run, or the matrix cannot be asserted on.
        try:
            rerun = report_to_json(run_matrix(spec))
        except KeyboardInterrupt:
            print("\nrepro faults: interrupted during the determinism "
                  "re-run; first matrix above is complete",
                  file=sys.stderr)
            return EXIT_INTERRUPTED
        if rerun != report_to_json(report):
            print("repro faults: report is not deterministic for this "
                  "spec", file=sys.stderr)
            return 1
    if args.output:
        with open(args.output, "w") as stream:
            stream.write(report_to_json(report))
        print(f"wrote {args.output}", file=sys.stderr)
    baseline = report["baseline"]
    undefended = report["undefended"]
    if not baseline["guarantee_holds"] or baseline["invariant_violations"]:
        print("repro faults: baseline guarantee failed without any "
              "injected fault", file=sys.stderr)
        return 1
    if undefended["cross_domain_flips"] == 0:
        print("repro faults: attack is not viable undefended at this "
              "scale, so the matrix proves nothing; raise --scale",
              file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    path = Path(args.output)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        print(f"repro report: error: {path}: {error.strerror}", file=sys.stderr)
        return 2
    try:
        rendered, outcomes = render_document(
            text,
            progress=lambda key: print(f"running {key}...", file=sys.stderr),
        )
    except DocumentError as error:
        print(f"repro report: error: {path}: {error}", file=sys.stderr)
        return 2
    path.write_text(rendered, encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    failed = [key for key, outcome in outcomes.items() if not outcome.verdict]
    if failed:
        print(f"NOT reproduced: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rowhammer mitigation-primitives simulator "
                    "(HotOS '21 'Stop! Hammer Time' reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, defenses, patterns")

    run_parser = sub.add_parser("run", help="run experiments by id")
    run_parser.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    run_parser.add_argument(
        "--scale", type=int, default=None,
        help="scale factor for every experiment (default: each "
             "experiment's own)",
    )

    attack_parser = sub.add_parser("attack", help="mount one attack")
    attack_parser.add_argument(
        "--platform", default="legacy",
        choices=PLATFORMS,
    )
    attack_parser.add_argument(
        "--defense", default=None, choices=sorted(DEFENSE_BY_NAME),
    )
    attack_parser.add_argument(
        "--pattern", default="double-sided", choices=PATTERN_NAMES,
    )
    attack_parser.add_argument("--sides", type=int, default=8)
    attack_parser.add_argument("--windows", type=float, default=1.0)
    attack_parser.add_argument("--dma", action="store_true")
    attack_parser.add_argument(
        "--contiguous", action="store_true",
        help="allocate tenants contiguously instead of interleaved slabs",
    )
    attack_parser.add_argument("--scale", type=int, default=64)
    attack_parser.add_argument(
        "--expect-flips", type=lambda v: v.lower() in ("1", "true", "yes"),
        default=None,
        help="exit non-zero unless the flip outcome matches (for scripts)",
    )

    report_parser = sub.add_parser(
        "report",
        help="re-render every experiment block of EXPERIMENTS.md in place",
    )
    report_parser.add_argument(
        "-o", "--output", default="EXPERIMENTS.md", metavar="PATH",
        help="document to re-render (default: EXPERIMENTS.md)",
    )

    replicate_parser = sub.add_parser(
        "replicate",
        help="run seeded replications of an experiment scenario, "
             "optionally across processes, with checkpoint/resume",
    )
    replicate_parser.add_argument(
        "experiment", nargs="?", default=None,
        choices=("E4", "E10", "E13", "e4", "e10", "e13"),
        help="representative scenario to replicate "
             "(omit when resuming: the journal knows)",
    )
    replicate_parser.add_argument(
        "--seeds", type=int, default=8, help="number of replications",
    )
    replicate_parser.add_argument(
        "--seed-base", type=int, default=101,
        help="first seed (replication i uses seed-base + i)",
    )
    replicate_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS env or CPU count)",
    )
    replicate_parser.add_argument(
        "--scale", type=int, default=None,
        help="scale factor (default: the experiment's own)",
    )
    replicate_parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal per-seed results here (crash-safe; enables "
             "--resume after an interruption)",
    )
    replicate_parser.add_argument(
        "--resume", default=None, metavar="JOURNAL",
        help="resume the campaign recorded in this journal, skipping "
             "completed seeds; aggregates are bit-identical to an "
             "uninterrupted run",
    )
    replicate_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-seed wall-clock budget; overdue workers are "
             "recycled and the seed retried (default: none)",
    )
    replicate_parser.add_argument(
        "--max-retries", type=int, default=2,
        help="retries per seed after its first attempt (default: 2)",
    )
    _add_cache_arguments(replicate_parser)

    trace_parser = sub.add_parser(
        "trace",
        help="record one replication run as a JSONL event trace",
    )
    trace_parser.add_argument(
        "experiment", choices=("E4", "E10", "E13", "e4", "e10", "e13"),
        help="representative scenario to trace",
    )
    trace_parser.add_argument(
        "-o", "--output", default="trace.jsonl",
        help="JSONL file to write (default: trace.jsonl)",
    )
    trace_parser.add_argument("--seed", type=int, default=101)
    trace_parser.add_argument(
        "--scale", type=int, default=None,
        help="scale factor (default: the experiment's own)",
    )
    trace_parser.add_argument(
        "--no-arm", action="store_true",
        help="keep the platform's default ACT-counter threshold instead "
             "of arming interrupts at MAC/8 (attack traces only)",
    )
    trace_parser.add_argument(
        "--sample-every-n", type=int, default=None, metavar="N",
        help="record every Nth activate (deterministic, seeded phase); "
             "interrupts and bit flips always pass through",
    )

    faults_parser = sub.add_parser(
        "faults",
        help="run the differential fault matrix against one defense",
    )
    faults_parser.add_argument(
        "--platform", default="legacy+primitives",
        choices=PLATFORMS,
    )
    faults_parser.add_argument(
        "--defense", default="targeted-refresh",
        choices=sorted(DEFENSE_BY_NAME),
    )
    faults_parser.add_argument(
        "--pattern", default="double-sided", choices=PATTERN_NAMES,
    )
    faults_parser.add_argument("--sides", type=int, default=8)
    faults_parser.add_argument("--windows", type=float, default=1.0)
    faults_parser.add_argument(
        "--scale", type=int, default=128,
        help="density scale (default 128: small enough for CI, large "
             "enough that the undefended attack actually flips bits)",
    )
    faults_parser.add_argument("--seed", type=int, default=1234)
    faults_parser.add_argument(
        "--invariant-level", default="deep", choices=("cheap", "deep"),
        help="invariant suite depth for every cell (default: deep)",
    )
    faults_parser.add_argument(
        "-o", "--output", default=None,
        help="also write the machine-readable JSON report here",
    )
    faults_parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: additionally re-run the matrix and fail unless "
             "the two reports are byte-identical (the re-run always "
             "bypasses the result cache)",
    )
    _add_cache_arguments(faults_parser)

    cache_parser = sub.add_parser(
        "cache",
        help="inspect or prune the content-addressed result cache",
    )
    cache_parser.add_argument(
        "action", choices=("ls", "stats", "prune", "clear"),
    )
    cache_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    cache_parser.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="prune: also drop entries older than this many days",
    )
    cache_parser.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="prune: also keep at most the newest N entries",
    )

    status_parser = sub.add_parser(
        "status",
        help="inspect a campaign journal (read-only: safe while the "
             "campaign is still running); point it at a directory for "
             "a multi-campaign table",
    )
    status_parser.add_argument(
        "journal",
        help="campaign journal written with replicate --journal, or a "
             "directory of *.journal files",
    )

    inspect_parser = sub.add_parser(
        "inspect",
        help="summarize a JSONL event trace (aggressors, interrupts, flips)",
    )
    inspect_parser.add_argument("trace", help="trace.jsonl to read")
    inspect_parser.add_argument(
        "--top", type=int, default=10,
        help="aggressor rows to show (default: 10)",
    )
    inspect_parser.add_argument(
        "--timeline", type=int, default=20,
        help="interrupt/flip timeline entries to show (default: 20)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "attack": _cmd_attack,
        "report": _cmd_report,
        "replicate": _cmd_replicate,
        "trace": _cmd_trace,
        "status": _cmd_status,
        "inspect": _cmd_inspect,
        "faults": _cmd_faults,
        "cache": _cmd_cache,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
