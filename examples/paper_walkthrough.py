#!/usr/bin/env python3
"""The paper, section by section, as running code.

A narrated tour: each step demonstrates the claim of one paper section
with a small live simulation, printing what the text asserts and what
the model measures.  Slower than the other examples (~2 minutes) but
self-contained — a good first read of the library.

Run:  python examples/paper_walkthrough.py
"""

from repro.analysis.scenarios import build_scenario, run_attack
from repro.core.primitives import PrimitiveSet
from repro.core.taxonomy import TABLE_1, MitigationClass
from repro.defenses import (
    AnvilDefense,
    SubarrayIsolationDefense,
    TargetedRefreshDefense,
    VendorTrr,
)
from repro.mc.controller import MemoryRequest
from repro.sim import build_system, legacy_platform, proposed_platform
from repro.workloads import WorkloadRunner

SCALE = 64


def banner(section, title):
    print()
    print(f"==== {section}  {title} " + "=" * max(1, 60 - len(title)))


def s2_1_dram_crash_course():
    banner("§2.1", "DRAM + Rowhammer: a crash course")
    system = build_system(legacy_platform(scale=SCALE))
    first = system.controller.submit(MemoryRequest(0, physical_line=0))
    hit = system.controller.submit(
        MemoryRequest(first.ready_at_ns,
                      physical_line=system.geometry.banks_total)
    )
    conflict = system.controller.submit(
        MemoryRequest(
            hit.ready_at_ns,
            physical_line=(
                system.geometry.banks_total
                * system.geometry.columns_per_row
            ),
        )
    )
    print(f"ACT connects a row to the row buffer: first touch "
          f"{first.latency_ns} ns ({first.buffer_outcome}), same row "
          f"{hit.latency_ns} ns ({hit.buffer_outcome}), other row "
          f"{conflict.latency_ns} ns ({conflict.buffer_outcome}).")
    print(f"Each row must be refreshed within tREFW="
          f"{system.timings.tREFW} ns; MAC={system.profile.mac} "
          f"(scaled), blast radius b={system.profile.blast_radius}.")


def s1_the_attack():
    banner("§1", "frequent ACTs flip bits in neighbouring rows")
    scenario = build_scenario(legacy_platform(scale=SCALE),
                              interleaved_allocation=True)
    result = run_attack(scenario, "double-sided")
    print(f"Double-sided hammering for one refresh window: "
          f"{result.hammer_iterations} rotations, "
          f"{result.cross_domain_flips} cross-tenant bit flips, "
          f"{result.intra_domain_flips} in the attacker's own memory.")
    print("One tenant corrupted another without ever touching its data.")


def s3_trr_is_not_enough():
    banner("§3", "blackbox in-DRAM TRR is bypassed with > n aggressors")
    for sides in (4, 12):
        scenario = build_scenario(
            legacy_platform(scale=SCALE),
            defenses=[VendorTrr(n_trackers=4, refresh_radius=2)],
            interleaved_allocation=True,
            victim_pages=320, attacker_pages=320,
        )
        result = run_attack(scenario, "many-sided", sides=sides)
        print(f"  {result.plan.sides:2d}-sided vs TRR(n=4): "
              f"{result.cross_domain_flips} flips")
    print("Tracking capacity is finite; aggressor counts are not.")


def s2_2_taxonomy():
    banner("§2.2", "the taxonomy: one defense class per attack condition")
    for mitigation_class, primitive, defenses, dram in TABLE_1:
        print(f"  {mitigation_class.value:18s} <- {primitive} "
              f"-> {', '.join(defenses)}")


def s4_1_isolation():
    banner("§4.1", "subarray-isolated interleaving")
    isolated = build_scenario(
        proposed_platform(scale=SCALE),
        defenses=[SubarrayIsolationDefense()],
    )
    attack = run_attack(isolated, "double-sided")
    print(f"Same attack on the proposed platform: plan viable = "
          f"{attack.plan.viable} (no victim-adjacent row exists).")
    system = isolated.system
    banks = {
        system.geometry.bank_index(
            system.mapper.line_to_ddr(isolated.victim.physical_line(line))
        )
        for line in range(isolated.victim.lines_per_page)
    }
    print(f"And interleaving is still on: one victim page spans "
          f"{len(banks)} banks.")


def s4_2_frequency():
    banner("§4.2", "precise ACT interrupts -> software frequency defenses")
    config = legacy_platform(scale=SCALE).with_primitives(
        PrimitiveSet.proposed()
    )
    defended = build_scenario(
        config, defenses=[TargetedRefreshDefense()],
        interleaved_allocation=True,
    )
    result = run_attack(defended, "double-sided", use_dma=True)
    defense = defended.defenses[0]
    print(f"DMA-driven attack vs MC-interrupt defense: "
          f"{result.cross_domain_flips} flips after "
          f"{defense.counters.get('interrupts', 0)} precise interrupts.")

    blind = build_scenario(
        legacy_platform(scale=SCALE), defenses=[AnvilDefense()],
        interleaved_allocation=True,
    )
    blind_result = run_attack(blind, "double-sided", use_dma=True)
    print(f"The same attack vs core-counter ANVIL: "
          f"{blind_result.cross_domain_flips} flips "
          f"(its counters never fired — the §1 blind spot).")


def s4_3_refresh():
    banner("§4.3", "a refresh instruction beats the flush+load contortion")
    config = legacy_platform(scale=SCALE).with_primitives(
        PrimitiveSet.proposed()
    )
    system = build_system(config)
    tenant = system.create_domain("t", pages=16)
    row = sorted(tenant.rows())[0]
    system.device.tracker._pressure[row] = float(system.profile.mac - 1)
    line = system.some_line_in_row(row)
    done = system.isa.refresh_physical(system.host_context, line, now=0)
    print(f"refresh(va) repaired a row one ACT from flipping in "
          f"{done} ns; pressure now "
          f"{system.device.tracker.pressure_of(row):.0f}.  No cache "
          f"games, architecturally guaranteed.")


def s4_4_enclaves():
    banner("§4.4", "enclave memory: integrity checks degrade attacks to DoS")
    from repro.hostos.enclave import SystemLockupError

    scenario = build_scenario(
        legacy_platform(scale=SCALE), victim_enclave=True,
        enclave_integrity=True, interleaved_allocation=True,
    )
    run_attack(scenario, "double-sided")
    runtime = scenario.system.enclaves[scenario.victim.asid]
    try:
        for row in sorted(scenario.victim.rows()):
            runtime.access_row(row)
        print("No flips reached the enclave.")
    except SystemLockupError as error:
        print(f"Enclave access after the attack: {error}")
        print("Silent corruption is impossible; availability is the "
              "only casualty.")


def s5_outlook():
    banner("§5", "outlook: the same defenses, cheaper with DRAM cooperation")
    for label, prims in (
        ("CPU-only (proposed)", PrimitiveSet.proposed()),
        ("with REF_NEIGHBORS (ideal)", PrimitiveSet.ideal()),
    ):
        config = legacy_platform(scale=SCALE).with_primitives(prims)
        scenario = build_scenario(
            config, defenses=[TargetedRefreshDefense()],
            interleaved_allocation=True,
        )
        run_attack(scenario, "many-sided", sides=8)
        stats = scenario.system.controller.stats
        commands = stats.targeted_refreshes * 3 + stats.neighbor_refresh_commands
        print(f"  {label:28s} {commands:5d} defense DRAM commands, 0 flips")


def main():
    print("Stop! Hammer Time (HotOS '21) — the paper as running code.")
    s2_1_dram_crash_course()
    s1_the_attack()
    s3_trr_is_not_enough()
    s2_2_taxonomy()
    s4_1_isolation()
    s4_2_frequency()
    s4_3_refresh()
    s4_4_enclaves()
    s5_outlook()
    print()
    print("Full evaluation: python -m repro report (E1–E15, ablations "
          "and validations, re-rendered into EXPERIMENTS.md).")


if __name__ == "__main__":
    main()
