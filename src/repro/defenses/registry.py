"""Registry-derived plumbing: one place to learn how to host a defense.

``ALL_DEFENSES`` is the single source of truth for what defenses
exist.  Everything a downstream harness needs to *sweep* them — CLI
names, zero-argument construction, the allocator-policy build
overrides some of them demand, and the cheapest platform that can host
them — is derived here, so registering a new defense in
``repro.defenses`` is the whole integration story: the CLI, the faults
matrix, the experiment sweeps, and the CI smokes pick it up without
editing a hand-maintained list that silently goes stale (the bug this
module replaces in ``repro.faults.diff``).
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.core.primitives import Primitive
from repro.defenses import ALL_DEFENSES, Defense
from repro.hostos.allocator import AllocationPolicy

#: registry name -> class, derived — never hand-maintained
DEFENSE_BY_NAME: Dict[str, Type[Defense]] = {
    cls.name: cls for cls in ALL_DEFENSES
}

#: allocator policies that demand non-interleaved (linear-mapped)
#: placement when the system is built (§4.1)
_LINEAR_POLICIES = (
    AllocationPolicy.BANK_PARTITION,
    AllocationPolicy.GUARD_ROWS,
)


def make_defense(name: str) -> Defense:
    """Construct the named defense with its default parameters."""
    try:
        cls = DEFENSE_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(DEFENSE_BY_NAME))
        raise ValueError(f"unknown defense {name!r}; known: {known}") from None
    return cls()


def required_policy(cls: Optional[Type[Defense]]) -> Optional[AllocationPolicy]:
    """The allocator policy a defense refuses to attach without, if any
    (the ``_PolicyDefense`` subclasses declare it as ``policy``)."""
    policy = getattr(cls, "policy", None)
    return policy if isinstance(policy, AllocationPolicy) else None


def build_overrides(cls: Optional[Type[Defense]]) -> Dict[str, object]:
    """Platform-factory keyword overrides the defense's placement
    policy demands (empty for most defenses, and for ``None``, no
    defense).

    Only the linear-mapped policies (bank partitioning, guard rows)
    need overriding: subarray-aware placement is already the proposed
    platform's default, which :func:`platform_for` selects.
    """
    policy = required_policy(cls)
    if policy not in _LINEAR_POLICIES:
        return {}
    return {"allocation_policy": policy, "mapping": "linear"}


def platform_for(cls: Type[Defense]) -> str:
    """Cheapest platform preset that can host this defense: ``legacy``
    when it needs no primitives, ``legacy+primitives`` when it needs
    MC primitives, ``proposed`` when it additionally needs the
    subarray-isolated DRAM mapping."""
    if Primitive.SUBARRAY_ISOLATED_INTERLEAVING in cls.requires:
        return "proposed"
    if cls.requires:
        return "legacy+primitives"
    return "legacy"
