"""A threshold-evading attacker (the adversary of §4.2's jitter).

Against a *fixed* ACT-counter reset, an attacker who can count its own
ACTs knows exactly when the next overflow will fire.  It hammers the
real aggressors for ``threshold - margin`` ACTs, then burns the
remaining budget on decoy rows so the overflow interrupt reports a
harmless decoy address — and the defense remaps/refreshes the wrong
thing forever.

§4.2's countermeasure is to randomize the post-overflow reset: the
attacker can no longer predict where in its burst the overflow lands,
so with probability ≈ jitter/threshold each burst the reported address
is a true aggressor.  Experiment E10 runs this attacker against both
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.attacks._steady import SteadyChain
from repro.attacks.patterns import AttackPlan
from repro.cpu.mmu import TranslationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import DomainHandle, System

#: Accesses :meth:`EvasiveAttacker.run` schedules ahead and submits as
#: one chain.
STRETCH = 512


@dataclass
class EvasionResult:
    """What the evading attacker achieved."""

    aggressor_acts: int
    decoy_acts: int
    cross_domain_flips: int
    finished_ns: int


class EvasiveAttacker:
    """Paces aggressor ACTs below the believed threshold, masking each
    overflow with decoy ACTs.

    ``believed_threshold`` is what the attacker thinks the counter is
    programmed to (learnable on fixed-reset hardware by timing interrupt
    side effects).  ``margin`` is its safety slack.
    """

    def __init__(
        self,
        system: "System",
        handle: "DomainHandle",
        plan: AttackPlan,
        decoy_lines: Sequence[int],
        believed_threshold: int,
        margin: int = 2,
    ) -> None:
        if len(decoy_lines) < 2:
            raise ValueError(
                "need at least two decoy lines (in one bank) to force "
                "alternating decoy ACTs"
            )
        if believed_threshold <= margin:
            raise ValueError("believed_threshold must exceed margin")
        self.system = system
        self.handle = handle
        self.plan = plan
        self.decoy_lines = list(decoy_lines)
        self.believed_threshold = believed_threshold
        self.margin = margin

    def run(self, duration_ns: int, start_ns: int = 0) -> EvasionResult:
        """Interleave aggressor and decoy ACTs by *counter phase*.

        The attacker mirrors the MC counter in software: every one of
        its own ACTs increments the shadow count.  While the shadow is
        safely below the threshold it hammers aggressors; within
        ``margin`` of the predicted overflow it switches to decoys so
        the overflow's reported address is harmless, then wraps the
        shadow and resumes.  Exact on fixed-reset hardware; thrown off
        by jittered resets, whose early overflows land mid-aggressor-
        burst (§4.2).

        The next access is a pure function of the shadow and the two
        rotation indices (:meth:`_pace`), so the schedule is generated
        :data:`STRETCH` accesses ahead and, cut before its first access
        that is not resident (see :mod:`repro.attacks._steady`), runs
        as one dependent chain on the controller's bulk engine; the
        targeted-refresh handler E10 raises every ~20 ACTs runs inside
        it.  The deadline is checked before every access, as here.  An
        access that is not resident (the warm-up, a page a handler just
        moved) and every access under
        :attr:`~repro.mc.controller.MemoryController.supports_chain`
        false go through ``hammer_access`` one at a time.  Results are
        identical to running every access that way.
        """
        system = self.system
        controller = system.controller
        asid = self.handle.asid
        now = start_ns
        deadline = start_ns + duration_ns
        aggressor_acts = 0
        decoy_acts = 0
        shadow = 0  # the attacker's estimate of the channel ACT counter
        aggressor_index = 0
        decoy_index = 0
        chain = SteadyChain(system, asid)
        touched = {*self.plan.aggressor_lines, *self.decoy_lines}
        system.drain_flips()
        while now < deadline and self.plan.viable:
            if controller.supports_chain:
                resident = {line: chain.resolve(line) is not None
                            for line in touched}
                state = (shadow, aggressor_index, decoy_index)
                lines: List[int] = []
                paced = self._pace(state, STRETCH, resident, lines)
                if lines:
                    serviced, now = chain.run(lines, 1, now, deadline, 1)
                    if serviced < len(lines):
                        paced = self._pace(state, serviced)
                    shadow, next_aggressor, next_decoy = paced
                    aggressor_acts += next_aggressor - aggressor_index
                    decoy_acts += next_decoy - decoy_index
                    aggressor_index = next_aggressor
                    decoy_index = next_decoy
                    continue
            if shadow < self.believed_threshold - self.margin:
                line = self.plan.aggressor_lines[
                    aggressor_index % len(self.plan.aggressor_lines)
                ]
                aggressor_index += 1
                try:
                    now = system.core.hammer_access(asid, line, now).done_at_ns
                    aggressor_acts += 1
                    shadow += 1
                except TranslationError:
                    continue
            else:
                line = self.decoy_lines[decoy_index % len(self.decoy_lines)]
                decoy_index += 1
                now = system.core.hammer_access(asid, line, now).done_at_ns
                decoy_acts += 1
                shadow += 1
                if shadow >= self.believed_threshold + self.margin:
                    shadow -= self.believed_threshold
        flips = system.drain_flips()
        return EvasionResult(
            aggressor_acts=aggressor_acts,
            decoy_acts=decoy_acts,
            cross_domain_flips=sum(1 for f in flips if f.cross_domain),
            finished_ns=now,
        )

    def _pace(
        self,
        state: Tuple[int, int, int],
        count: int,
        resident: Optional[Dict[int, bool]] = None,
        lines: Optional[List[int]] = None,
    ) -> Tuple[int, int, int]:
        """Advance the schedule ``(shadow, aggressor_index,
        decoy_index)`` by ``count`` accesses, all assumed to succeed.

        With ``lines``, append each access's virtual line to it and stop
        before the first line ``resident`` maps to False."""
        shadow, aggressor_index, decoy_index = state
        aggressors = self.plan.aggressor_lines
        decoys = self.decoy_lines
        low = self.believed_threshold - self.margin
        high = self.believed_threshold + self.margin
        for _ in range(count):
            aggressor = shadow < low
            if aggressor:
                line = aggressors[aggressor_index % len(aggressors)]
            else:
                line = decoys[decoy_index % len(decoys)]
            if lines is not None:
                if not resident[line]:
                    break
                lines.append(line)
            shadow += 1
            if aggressor:
                aggressor_index += 1
            else:
                decoy_index += 1
                if shadow >= high:
                    shadow -= self.believed_threshold
        return shadow, aggressor_index, decoy_index
