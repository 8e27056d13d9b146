"""Trust domains: the units of isolation the host OS enforces.

A domain is a tenant — a VM in the cloud scenario the paper motivates, or
a process on a single host.  Domains are identified by ASID, the same tag
§4.1 proposes for coordinating subarray groups between the host OS and
the memory controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator


@dataclass(frozen=True)
class TrustDomain:
    """One tenant.  ``enclave`` marks §4.4's special case; enclave memory
    may additionally be integrity-checked (see :mod:`repro.hostos.enclave`)."""

    asid: int
    name: str
    enclave: bool = False

    def __post_init__(self) -> None:
        if self.asid < 0:
            raise ValueError("asid must be >= 0")
        if not self.name:
            raise ValueError("name must be non-empty")


class DomainRegistry:
    """The host OS's view of all tenants."""

    def __init__(self) -> None:
        self._domains: Dict[int, TrustDomain] = {}
        self._next_asid = 1  # ASID 0 is reserved for the host itself

    def create(self, name: str, enclave: bool = False) -> TrustDomain:
        domain = TrustDomain(asid=self._next_asid, name=name, enclave=enclave)
        self._domains[domain.asid] = domain
        self._next_asid += 1
        return domain

    def get(self, asid: int) -> TrustDomain:
        try:
            return self._domains[asid]
        except KeyError:
            raise KeyError(f"no trust domain with ASID {asid}") from None

    def destroy(self, asid: int) -> None:
        if asid not in self._domains:
            raise KeyError(f"no trust domain with ASID {asid}")
        del self._domains[asid]

    def __contains__(self, asid: int) -> bool:
        return asid in self._domains

    def __iter__(self) -> Iterator[TrustDomain]:
        return iter(self._domains.values())

    def __len__(self) -> int:
        return len(self._domains)
