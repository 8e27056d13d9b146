"""Enclave memory semantics (§4.4).

In enclave contexts (SGX/TDX/SEV-class), the host OS is *untrusted*; only
the enclave and the hardware are.  The paper distinguishes two regimes:

* **Integrity-checked** enclave memory: a Rowhammer flip cannot silently
  corrupt data — the next access fails its integrity check and the
  machine locks up, requiring reset (SGX-Bomb).  Rowhammer degrades to a
  denial-of-service, which enclave threat models typically already
  concede to the host.

* **Non-integrity-checked** enclave memory: flips corrupt silently, so
  the enclave needs the paper's defenses: verified subarray placement,
  ACT interrupts delivered to the enclave, and (in isolated subarrays) a
  grant to issue ``refresh`` on its own address space.

``EnclaveRuntime`` models both regimes.  The simulation harness feeds it
every bit flip; the runtime decides the architectural consequence on the
enclave's next touched access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set, Tuple

from repro.dram.disturbance import BitFlip
from repro.hostos.domains import TrustDomain

RowKey = Tuple[int, int, int, int]


class SystemLockupError(Exception):
    """An integrity check failed: the platform locks up until reset
    (the SGX-Bomb outcome [27])."""


@dataclass
class EnclaveRuntime:
    """State machine for one enclave's memory-integrity behaviour."""

    domain: TrustDomain
    integrity_checked: bool = True

    #: rows with latent (not yet accessed) corruption
    _poisoned_rows: Set[RowKey] = field(default_factory=set)
    #: silent corruptions observed (non-checked regime only)
    silent_corruptions: int = 0
    #: the machine locked up (checked regime); terminal
    locked_up: bool = False
    #: ACT interrupts forwarded to the enclave (§4.4 frequency defense)
    act_warnings: int = 0

    def __post_init__(self) -> None:
        if not self.domain.enclave:
            raise ValueError("EnclaveRuntime requires an enclave trust domain")

    # ------------------------------------------------------------------
    # Fed by the harness
    # ------------------------------------------------------------------

    def observe_flip(self, flip: BitFlip) -> None:
        """Record a flip if it landed in this enclave's memory."""
        if self.domain.asid in flip.victim_domains:
            self._poisoned_rows.add(flip.victim)

    def on_act_interrupt_forwarded(self) -> None:
        """§4.4: the CPU reports ACT interrupts directly to the enclave
        so it can infer it is under attack and remap or exit."""
        self.act_warnings += 1

    # ------------------------------------------------------------------
    # Enclave-side access path
    # ------------------------------------------------------------------

    def access_row(self, row_key: RowKey) -> bool:
        """The enclave touches data in ``row_key``.

        Returns True when the access succeeded cleanly.  In the
        integrity-checked regime, touching a poisoned row raises
        :class:`SystemLockupError`; in the unchecked regime it counts a
        silent corruption and returns False.
        """
        if self.locked_up:
            raise SystemLockupError("machine is locked up; reset required")
        if row_key not in self._poisoned_rows:
            return True
        if self.integrity_checked:
            self.locked_up = True
            raise SystemLockupError(
                f"integrity check failed on row {row_key}: locking up (§4.4)"
            )
        self.silent_corruptions += 1
        self._poisoned_rows.discard(row_key)  # corrupted data now "read in"
        return False

    @property
    def pending_poisoned_rows(self) -> int:
        return len(self._poisoned_rows)

    def should_evacuate(self, warning_threshold: int) -> bool:
        """Frequency-defense policy from §4.4: after enough forwarded ACT
        warnings the enclave should request a remap or peacefully exit."""
        return self.act_warnings >= warning_threshold
