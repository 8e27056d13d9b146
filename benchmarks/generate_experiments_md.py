#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the artefacts in benchmarks/out/.

Run the benchmark suite first so the artefacts are fresh::

    pytest benchmarks/ --benchmark-only
    python benchmarks/generate_experiments_md.py

The per-experiment discussion prose lives here (curated by hand); the
tables are pulled verbatim from the persisted benchmark output.
"""

import pathlib
import sys

OUT = pathlib.Path(__file__).parent / "out"
TARGET = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"

PREAMBLE = """# EXPERIMENTS — paper claims vs. measured results

The paper (HotOS '21) is a position paper with no measured evaluation:
its only artefacts are Table 1 (the primitive/defense summary) and two
illustrative figures, and §4 defers quantitative evaluation to future
work.  This file records, for each experiment in the harness, the claim
the paper makes in prose, what we measured in the behavioural simulator,
and whether the claim's *shape* reproduced.  Absolute numbers are not
comparable to hardware (and the paper gives none); what must hold is who
wins, by roughly what factor, and where crossovers fall.

Every table below is generated by its benchmark
(`pytest benchmarks/ --benchmark-only`); the raw artefacts land in
`benchmarks/out/`, which is **not committed** (it is gitignored — every
file there is regenerated output).  To refresh this file, produce the
artefacts and then run the single producer::

    pytest benchmarks/ --benchmark-only
    python benchmarks/generate_experiments_md.py

All experiments run at the scale factors described in DESIGN.md §3
("Scaling note"); the per-experiment notes call out where scaling
matters.

Replication runs can be parallelised across processes: set `REPRO_JOBS`
(or pass `--jobs` to `python -m repro replicate`) to fan seeded
replications over a worker pool — aggregates are bit-identical to the
serial path, so worker count never changes a table.  The speed of the
reproduction itself is measured separately by `perfbench/`
(`python3 perfbench/run.py --workload W`): wall time, set-up time, peak
memory and simulated ACTs/s on three workloads drawn from E13, E5 and
E10, with every cell checked against this file at `--seed 0`.

Summary: **15 of 15 experiments, 8 of 8 ablations, and both methodology
validations reproduce their claims.**

| ID | Paper claim (section) | Verdict |
|---|---|---|
| E1 | Table 1: each MC primitive enables its defense class | reproduced |
| E2 | Fig. 1 / §2.1: row-buffer hit < miss < conflict | reproduced |
| E3 | Fig. 2 / §4.1: subarray-isolated interleaving keeps performance, isolates domains | reproduced |
| E4 | §2.2/§4: taxonomy coverage, incl. the intra-domain caveat and the DMA gap | reproduced |
| E5 | §3: density scaling breaks fixed hardware defenses; exact-tracker SRAM explodes | reproduced |
| E6 | §3: TRR with n trackers bypassed by >n aggressors | reproduced |
| E7 | §1/§4.2: ANVIL misses DMA attacks; MC interrupts do not | reproduced |
| E8 | §4.2: remap and lock defenses stop >MAC activation | reproduced |
| E9 | §4.3: refresh instruction reliable; flush+load unconfirmable; REF_NEIGHBORS ideal | reproduced |
| E10 | §4.2: randomized counter resets defeat threshold evasion | reproduced |
| E11 | §2.1/§4.1: templating infers remaps/boundaries; audit restores isolation | reproduced |
| E12 | §4.4: enclave regimes — DoS with integrity checks, defenses for the rest | reproduced |
| E13 | §4: proposed defenses cost little on benign work vs. the alternatives | reproduced |
| E14 | §5: DRAM cooperation makes the same defenses cheaper | reproduced |
| E15 | related work [12]: ECC corrects/crashes/misses by flip count | reproduced |
| A1–A8 | design-choice ablations (see `repro.analysis.ablations`) | reproduced |
| V1–V2 | methodology validations: scale and seed invariance | reproduced |
"""

DISCUSSION = {
"e1": """**Claim (Table 1 + §4).**  Each proposed MC primitive enables exactly
the software defense class the paper pairs with it — and without the
primitive, the software defense is not merely weaker but *impossible*.

**Measured.**  Every Table-1 row checks out as an executable fact: the
double-sided attack corrupts a co-tenant on the legacy platform; the
corresponding defense raises `MissingPrimitiveError` when attached to
legacy hardware; with the primitive present it reduces cross-domain
flips to zero.  The matrix is registry-driven — any defense declaring a
`table1_row` is swept automatically — which now also covers the two
self-contained next-generation mitigations (PRAC in-DRAM counters,
BreakHammer suspect throttling): they need no new primitive, attach
even on legacy hardware, and still zero out the attack, a useful
post-2021 contrast with the paper's thesis that *software* defenses
need MC support.""",
"e2": """**Claim (§2.1, Fig. 1).**  An ACT connects a row to its bank's row
buffer; RDs/WRs that hit in the buffer are faster than those that
necessitate an ACT.

**Measured.**  Latencies follow tCL < tRCD+tCL < tRP+tRCD+tCL exactly
(18/32/46 ns + burst in the DDR4-like preset), with the correct
hit/miss/conflict classification.""",
"e3": """**Claim (§4.1, Fig. 2).**  There is a middle ground where interleaving
(and its bank-level parallelism) stays fully enabled while domains are
isolated; disabling interleaving for isolation costs substantial
performance (the paper cites >18% for some applications).

**Measured.**  On an irregular pointer-chase mix, subarray-isolated
interleaving runs at ~100% of conventional interleaving's throughput
with zero cross-domain flips, while the no-interleave isolation
baselines (bank partitioning, guard rows) pay 2.0–3.3× — comfortably
past the paper's >18% citation, because the workload is chosen from the
irregular class where bank-level parallelism matters most (Tang et al.,
cited as [49] in the paper).""",
"e4": """**Claim (§2.2, §4).**  Each mitigation class eliminates exactly one
attack condition.  Two asymmetries must fall out: isolation-centric
defenses do **not** stop intra-domain disturbance (§2.2), and
counter-based software defenses without MC support do not see DMA
attacks (§1).

**Measured.**  14/14 predictions hold, including both asymmetries:
subarray isolation leaves intra-domain flips while stopping all
cross-domain patterns, and ANVIL stops core-driven attacks but passes
every DMA attack through.  The rows come from the defense registry
(a core subset by default, `full=True` for all 17), so the matrix now
also audits PRAC and BreakHammer — both stop every pattern including
DMA, since one lives in the DRAM die and the other scores
un-attributed ACT streams too.  The `peak_rows_tracked` column
surfaces BlockHammer's high-water tracker occupancy straight from its
counters.""",
"e5": """**Claim (§3).**  As DRAM densifies (MAC falls orders of magnitude,
blast radius grows), fixed-capacity hardware defenses either stop
protecting or need rapidly growing resources, while software defenses
can adapt their parameters.

**Measured.**  Vendor TRR with a radius-1 refresh starts leaking exactly
when the blast radius reaches 2 (ddr4-old) and worsens on `future`;
fixed-radius PARA degrades monotonically (0 → ~540 flips across the
sweep); the Misra-Gries tracker sized for a safety guarantee needs
44 → 12,204 entries per bank from ddr3-old to the extrapolated future
node (~280× growth).  The software targeted-refresh defense, whose
radius and threshold are parameters, stays at zero flips on every
generation.  The next-generation arms tell the same story from the
other side: PRAC (exact per-row counters) and BreakHammer-on-PRAC also
hold zero flips on every node because their thresholds and radii
derive from the generation's disturbance profile — but PRAC's
density bill is explicit in the new columns: its recovery work grows
26 → 6,096 rows per attack window as MAC falls, and its storage is one
counter *per row*, i.e. linear in chip capacity (§3's liability,
concretized).  Each generation runs at `scale_for(preset)` so
scaled-MAC artefacts stay below the flip threshold (DESIGN.md §3).""",
"e6": """**Claim (§3, citing TRRespass).**  In-DRAM TRR tracks a small number n
of aggressor rows and can be bypassed with more than n aggressors.

**Measured.**  A textbook cliff at n=4 trackers: 0 flips at ≤4 sides,
7–17 flips at 6–16 sides, growing with the side count.  The model's
tracker is Misra-Gries-style (what counter-based TRR approximates):
with >n aggressors in round-robin, table churn keeps every estimate
below the action trigger, so no targeted refresh ever fires.  The
sampler-flavoured `SamplingTrr` shows the same bypass via sampling
dilution (unit-tested; not in this table).""",
"e7": """**Claim (§1, §4.2).**  ANVIL relies on performance counters that do not
account for DMAs, leaving the system vulnerable to DMA-based Rowhammer;
an MC-level ACT counter sees all traffic.

**Measured.**  ANVIL: 0 flips against the core-driven attack, all flips
pass against the identical attack driven through a DMA engine (its
counters never fire).  Both MC-interrupt defenses stop both variants.""",
"e8": """**Claim (§4.2).**  With the precise ACT interrupt, software can stop
frequent activation either by remapping+moving hot pages (with the
uncore move) or by locking hot lines in the LLC.

**Measured.**  Both reach zero cross-domain flips with their distinct
cost signatures: wear-leveling performs ~134 page moves per window;
locking pins 2 lines, blocks ~75k attacker flushes, and starves DRAM of
the attack entirely (35 total ACTs vs. 13k undefended — a 375×
reduction in hammer traffic).  Engineering details the paper leaves
implicit turned out to be *necessary* and are ablated in A1/A3:
vacated-frame parking, destination rotation, and a rotation-escalation
rule for locking.""",
"e9": """**Claim (§4.3).**  Software can only refresh a row via a convoluted
flush+load sequence whose effect depends on row-buffer state the
software cannot see; a `refresh` instruction is direct and reliable, and
a `REF_NEIGHBORS` command is the ideal.

**Measured.**  Refreshing 24 victim rows under interfering traffic:
flush+load issues 3 commands per row and only 21/24 of its refreshes are
hardware-confirmed ACTs (the other 3 were absorbed by open row buffers —
and software has no way to know which); the refresh instruction is
24/24 confirmed at 2 commands per row; REF_NEIGHBORS covers each whole
neighbourhood in a single command.""",
"e10": """**Claim (§4.2).**  Including randomness in counter reset values
prevents attackers from avoiding detection.

**Measured.**  A phase-tracking evader that mirrors the ACT counter in
software and absorbs each predicted overflow with decoy rows defeats the
fixed-reset configuration (3 flips with the defense running); 25% reset
jitter makes the overflow land unpredictably inside the aggressor burst
and the same attacker gets zero flips.  A2 sweeps the jitter knob.""",
"e11": """**Claim (§2.1, §4.1).**  Internal row adjacency, subarray boundaries,
and remaps can be inferred from software via the success/failure of
Rowhammer itself; inferred maps let the host OS keep subarray isolation
sound even when DRAM remaps rows across subarray boundaries.

**Measured.**  The prober's sub-critical double-sided scan (0.75×MAC per
aggressor, so only doubly-pressured middles flip) reaches remap recall
1.0 (precision 0.86) and boundary recall 1.0 on separate probes.  With
two crafted cross-subarray remaps, blind hammering through the remap
corrupts the victim despite subarray-aware allocation; feeding the
inferred map into the audit — which evacuates **every** frame in an
escaping row and permanently retires those frames — restores zero flips.""",
"e12": """**Claim (§4.4).**  If enclave memory is integrity-checked on access,
Rowhammer can only cause a system-wide denial of service (lockup on
failed check); without integrity checking, flips corrupt silently —
unless the enclave is protected by subarray isolation, or by the
frequency/refresh adaptations the paper sketches (ACT interrupts
forwarded to the enclave, a grant to issue `refresh` on its own
address space).

**Measured.**  Exactly the four regimes: integrity-checked enclave →
system lockup on first access to a poisoned row (no silent corruption);
unchecked enclave → silent corruptions; unchecked enclave on the
subarray-isolated platform → clean; unchecked enclave with the
enclave-guard defense (forwarded warnings + granted self-refresh) →
clean.""",
"e14": """**Claim (§5).**  In the long term, optimal implementations of the
proposed defenses would include collaboration with DRAM vendors; the
CPU-only version works, cooperation makes it cheaper.

**Measured.**  Against the same 8-sided attack with identical
interrupts and identical protection (0 flips), the REF_NEIGHBORS
command cuts the defense's DRAM command traffic ~10x (one command per
aggressor neighbourhood vs PRE+ACT+PRE per victim row), and vendor
disclosure of subarray maps replaces ~18k hammer accesses of
templating per bank with zero.""",
"e15": """**Claim (related work [12], §1 threat model).**  Server SEC-DED
ECC was long assumed to neutralize Rowhammer; Cojocar et al. showed it
corrects single-bit flips, crashes on doubles, and can be bypassed
silently with crafted multi-bit flips.  The paper's argument that
comprehensive defenses are still missing builds on this.

**Measured** (real (72,64) Hamming+parity implementation): every
single-bit flip corrected, every double detected (machine check = DoS),
and 3 clustered flips in one code word alias into *silent corruption*
76.6% of the time (even clustered counts trip the overall parity and
crash instead).  Uniform placement across a line's eight words leaks
1–15% silent corruption as flips per event grow from 3 to 6.""",
"e13": """**Claim (§4, §5).**  The proposed defenses offer practical protection,
unlike isolation-by-disabling-interleaving (performance) or hardware
trackers (SRAM that grows with density).

**Measured** (fixed benign work, 2 tenants, scale 8 so defense reaction
rates are proportionate — see note in the table; the sweep is
registry-driven, every registered defense at constructor defaults):
subarray isolation is free (≤1.01× slowdown, 0 SRAM); targeted refresh
costs ~4–6%; line locking is free on benign work (nothing gets hot
enough to lock); bank partitioning costs ~2×, guard rows ~3.6×;
BlockHammer/Graphene sit near 1.0× on benign work but carry 147–262
kbit trackers *at this small geometry* (and E5 shows the growth
trend).  The next-generation rows are benign-transparent too: PRAC at
1.0× with its 76 kbit of per-row counters, BreakHammer adding a fixed
2 kbit score table on top and throttling nothing (no benign domain
accumulates blame).  Honest negative: aggressor remapping is the most
expensive proposed option (~8–9× on an adversarially random workload
that constantly trips the channel-wide counter) — consistent with
§4.2's own framing that locking should be the first line of defense
with data movement "only used as a fallback".""",
}

VALIDATION_DISCUSSION = {
"v1": """The first bit flip lands at the same fraction of the refresh
window (~0.016) whether the simulation runs at scale 16, 32, 64 or 128
— the race that MAC/window co-scaling promises to preserve, preserved.
The defended configuration holds at every scale.""",
"v2": """Across 8 seeds: the undefended double-sided attack always flips
(min 3), the targeted-refresh defense never does (max 0).  The
stochastic machinery (counter jitter, layout) moves numbers, not
conclusions.""",
}

ABLATION_DISCUSSION = {
"a1": """Switching off either wear-leveling rotation mechanism brings the
attack back: without frame parking, first-fit reallocation ping-pongs
the hammer between two frames; without destination rotation,
consecutive move targets share one DRAM row.  Both on → 0 flips.""",
"a2": """The jitter knob behind E10: 0 jitter loses to the phase-tracking
evader; ≥25% of the threshold wins.""",
"a3": """A column-rotating hammer defeats pure line-granular locking (each
lock silences one of 128 lines while the row stays hot); the
rotation-escalation rule — after a few locks land in one row, move the
page — keeps every way budget at 0 flips.""",
"a4": """The open-page policy is itself a partial one-location defense: a
lone hammered row resolves to row-buffer hits and only re-activates
when REF bursts close it, giving >10× fewer ACTs than closed-page.
Closed-page pays the inverse price on sequential locality.""",
"a5": """The interrupt threshold is a pure software knob: every fraction up
to 0.25×MAC protects, with refresh overhead scaling inversely; the
paper's adaptability argument (§4.2) in one table.""",
"a7": """FCFS vs FR-FCFS on a shared multi-tenant MC queue: row-hit-first
scheduling lifts the hit rate from 0 to ~0.29 and cuts elapsed time ~28%
when three sequential tenants interleave — the machinery behind the
performance stakes of §4.1's interleaving discussion.""",
"a8": """All-bank vs per-bank refresh bursts at an elevated refresh
rate: per-bank (DDR4 REFpb) recovers most of the throughput the rate
increase burned, while the protection picture is unchanged — burst
granularity is a performance knob, not a security one.""",
"a6": """The industry countermeasure — refresh every row m times per
retention window — only stops the attack once REF commands saturate
the memory bus (~100% duty at this scale's tREFI floor), i.e.
protection by denial of service.  This is §3's implicit argument for
why mitigations must scale smarter than refresh.  (The absolute duty
percentages are inflated by the scaled tREFI floor; the real-scale
baseline is ~4.5%, but the trend — protection arriving only at
bus-saturating rates for low-MAC nodes — is the point.)""",
}


def main() -> int:
    artefacts = {p.stem: p.read_text().rstrip() for p in OUT.glob("*.txt")}
    missing = [k for k in (list(DISCUSSION) + list(ABLATION_DISCUSSION)
                           + list(VALIDATION_DISCUSSION))
               if k not in artefacts]
    if missing:
        print(f"missing artefacts: {missing}; run the benchmarks first",
              file=sys.stderr)
        return 1
    parts = [PREAMBLE]
    for key in [f"e{i}" for i in range(1, 16)]:
        parts.append("\n---\n")
        parts.append(DISCUSSION[key])
        parts.append(f"\nMeasured artefact (benchmarks/out/{key}.txt):\n")
        parts.append("```")
        parts.append(artefacts[key])
        parts.append("```")
    parts.append("\n---\n")
    parts.append("## Methodology validations (V-series)\n")
    parts.append("Why the scaled numbers can be trusted; see "
                 "`repro.analysis.validation` and docs/MODEL.md section 5.")
    for key in ("v1", "v2"):
        parts.append(f"\n### {key.upper()}\n")
        parts.append(VALIDATION_DISCUSSION[key])
        parts.append(f"\nMeasured artefact (benchmarks/out/{key}.txt):\n")
        parts.append("```")
        parts.append(artefacts[key])
        parts.append("```")
    parts.append("\n---\n")
    parts.append("## Ablations (A-series)\n")
    parts.append("Design-choice ablations; see `repro.analysis.ablations` "
                 "and DESIGN.md §6 for why each mechanism exists.")
    for key in [f"a{i}" for i in range(1, 9)]:
        parts.append(f"\n### {key.upper()}\n")
        parts.append(ABLATION_DISCUSSION[key])
        parts.append(f"\nMeasured artefact (benchmarks/out/{key}.txt):\n")
        parts.append("```")
        parts.append(artefacts[key])
        parts.append("```")
    TARGET.write_text("\n".join(parts) + "\n")
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
