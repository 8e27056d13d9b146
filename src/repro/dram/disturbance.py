"""The Rowhammer fault model: activation-induced disturbance of victim rows.

§2.1–2.2 of the paper define the physics we model behaviourally:

* each row withstands a per-module *maximum activation count* (MAC) of
  neighbour ACTs within a refresh interval before its cells may flip;
* victims lie up to ``b`` rows from an aggressor (``b`` = blast radius);
* refreshing a victim — by the periodic REF sweep, by an ACT of the victim
  itself, or by a targeted refresh — repairs it and restarts the race.

We track the accumulated, distance-weighted neighbour-ACT "pressure" on
each victim row since its last refresh.  When the pressure crosses the MAC
the victim flips bits (deterministically by default, optionally with a
probabilistic tail), and the event records which domain hammered which —
the attribution every experiment in the harness keys on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.dram.geometry import DdrAddress, DramGeometry

RowKey = Tuple[int, int, int, int]


@dataclass(frozen=True, slots=True)
class BitFlip:
    """One disturbance event: a victim row crossed its MAC.

    ``aggressor_domain`` is the domain whose ACT tipped the victim over.
    ``victim_domains`` is the set of domains with data in the victim row
    at that moment — a *set* because conventional interleaving packs
    lines from many pages (hence many trust domains) into one DRAM row,
    which is exactly the isolation problem §4.1 describes.  Empty for
    unallocated rows.

    Cross-domain flips are the attacks the paper's defenses must stop;
    intra-domain flips are the residual that isolation-centric
    mitigations tolerate (§2.2).
    """

    time_ns: int
    victim: RowKey
    aggressor: RowKey
    aggressor_domain: Optional[int]
    victim_domains: FrozenSet[int]
    flipped_bits: int

    @property
    def cross_domain(self) -> bool:
        """The flip corrupted data belonging to some *other* domain."""
        return self.aggressor_domain is not None and any(
            domain != self.aggressor_domain for domain in self.victim_domains
        )

    @property
    def intra_domain(self) -> bool:
        """The flip corrupted the aggressor's own data."""
        return (
            self.aggressor_domain is not None
            and self.aggressor_domain in self.victim_domains
        )


@dataclass(frozen=True)
class DisturbanceProfile:
    """Susceptibility parameters of one DRAM technology node.

    ``mac``            — neighbour ACTs a victim tolerates per refresh window
                         (HC_first in Kim et al. ISCA'20 terms).
    ``blast_radius``   — how many rows away an aggressor disturbs (§2.1).
    ``decay_per_row``  — multiplicative weight per row of distance: an ACT at
                         distance d contributes ``decay_per_row ** (d - 1)``
                         to the victim's pressure.  Distance-1 neighbours
                         always contribute 1.
    ``flip_probability`` — probability that crossing the MAC actually flips
                         bits (1.0 = deterministic threshold model).
    ``max_bits_per_flip`` — upper bound on bits corrupted per event.
    """

    mac: int = 50_000
    blast_radius: int = 1
    decay_per_row: float = 0.5
    flip_probability: float = 1.0
    max_bits_per_flip: int = 4
    # weight-by-distance lookup (index d = distance; [0] unused), derived
    # in __post_init__ so the per-ACT hot loop never exponentiates
    _weights: Tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if self.mac < 1:
            raise ValueError("mac must be >= 1")
        if self.blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        if not 0.0 < self.decay_per_row <= 1.0:
            raise ValueError("decay_per_row must be in (0, 1]")
        if not 0.0 < self.flip_probability <= 1.0:
            raise ValueError("flip_probability must be in (0, 1]")
        if self.max_bits_per_flip < 1:
            raise ValueError("max_bits_per_flip must be >= 1")
        object.__setattr__(
            self,
            "_weights",
            (0.0,) + tuple(
                self.decay_per_row ** (distance - 1)
                for distance in range(1, self.blast_radius + 1)
            ),
        )

    def weight(self, distance: int) -> float:
        """Disturbance contribution of one ACT at ``distance`` rows."""
        if distance < 1 or distance > self.blast_radius:
            return 0.0
        return self._weights[distance]

    def scaled(self, factor: int) -> "DisturbanceProfile":
        """MAC divided by ``factor`` for fast simulation (pair with
        ``DramTimings.scaled`` so the ACTs-vs-window race is preserved)."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        from dataclasses import replace

        return replace(self, mac=max(1, self.mac // factor))


# Maps a (channel, rank, bank, internal_row) key to the set of trust
# domains whose data currently lives in that row.
DomainLookup = Callable[[RowKey], FrozenSet[int]]


class DisturbanceTracker:
    """Per-victim accumulated disturbance since that victim's last refresh.

    The tracker is the ground-truth oracle of the simulation: defenses may
    not read it (real hardware exposes nothing comparable — that opacity is
    the paper's complaint); only the harness does, to count flips.
    """

    def __init__(
        self,
        geometry: DramGeometry,
        profile: DisturbanceProfile,
        rng: Optional[random.Random] = None,
        domain_lookup: Optional[DomainLookup] = None,
    ) -> None:
        self.geometry = geometry
        self.profile = profile
        self._rng = rng or random.Random(0)
        self._domain_lookup = domain_lookup or (lambda row: frozenset())
        # pressure[victim_row_key] -> accumulated weighted ACT count
        self._pressure: Dict[RowKey, float] = {}
        # rows that already flipped this window (flip once until refreshed)
        self._tripped: Dict[RowKey, bool] = {}
        self.flips: List[BitFlip] = []
        self.total_acts: int = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def set_domain_lookup(self, lookup: DomainLookup) -> None:
        """Install the allocator's row→domain map for flip attribution."""
        self._domain_lookup = lookup

    # ------------------------------------------------------------------
    # Event ingestion (called by the DRAM device)
    # ------------------------------------------------------------------

    def on_activate(
        self,
        address: DdrAddress,
        time_ns: int,
        domain: Optional[int] = None,
    ) -> List[BitFlip]:
        """Record an ACT of ``address``'s row; return any flips it caused.

        The activated row itself is refreshed as a side effect (§2.1), so
        its own pressure resets.  Every neighbour within the blast radius
        (clipped at the subarray boundary) accumulates weighted pressure.
        """
        self.total_acts += 1
        channel, rank, bank, row = (
            address.channel, address.rank, address.bank, address.row,
        )
        aggressor_key = (channel, rank, bank, row)
        pressure_map = self._pressure
        tripped = self._tripped
        pressure_map.pop(aggressor_key, None)
        tripped.pop(aggressor_key, None)

        # Inlined subarray-clipped neighbourhood (geometry.neighbors_within
        # semantics) with the precomputed distance-weight table: this loop
        # runs once per ACT and dominates attack-shape profiles.
        profile = self.profile
        rows_per_subarray = self.geometry.rows_per_subarray
        subarray_start = (row // rows_per_subarray) * rows_per_subarray
        weights = profile._weights
        mac = profile.mac
        flips: List[BitFlip] = []
        if profile.blast_radius == 1:
            # Common case (DDR3/4-era profiles): exactly the two adjacent
            # rows, both at weight 1 — no range object, no distance math.
            for victim_row in (row - 1, row + 1):
                if (victim_row < subarray_start
                        or victim_row >= subarray_start + rows_per_subarray):
                    continue
                victim_key = (channel, rank, bank, victim_row)
                pressure = pressure_map.get(victim_key, 0.0) + 1.0
                pressure_map[victim_key] = pressure
                if pressure >= mac and not tripped.get(victim_key):
                    flip = self._maybe_flip(
                        victim_key, aggressor_key, time_ns, domain
                    )
                    if flip is not None:
                        flips.append(flip)
            return flips
        low = max(subarray_start, row - profile.blast_radius)
        high = min(subarray_start + rows_per_subarray - 1,
                   row + profile.blast_radius)
        for victim_row in range(low, high + 1):
            if victim_row == row:
                continue
            victim_key = (channel, rank, bank, victim_row)
            pressure = pressure_map.get(victim_key, 0.0) + weights[
                victim_row - row if victim_row > row else row - victim_row
            ]
            pressure_map[victim_key] = pressure
            if pressure >= mac and not tripped.get(victim_key):
                flip = self._maybe_flip(victim_key, aggressor_key, time_ns, domain)
                if flip is not None:
                    flips.append(flip)
        return flips

    def on_activate_bulk(
        self,
        addresses: Sequence[DdrAddress],
        times: Sequence[int],
        domains: Optional[Sequence[Optional[int]]] = None,
        rows: Optional[Sequence[int]] = None,
        out_positions: Optional[List[int]] = None,
    ) -> List[BitFlip]:
        """Record a whole vector of ACTs; return the flips in event order.

        Exactly equivalent to calling :meth:`on_activate` once per
        element — same pressures, same tripped state, same flips in the
        same order, same RNG stream (the property suite pins this
        bit-for-bit) — with the per-call overhead fused out: one loop,
        maps and profile constants hoisted once.  ``rows``, when given,
        overrides each address's row (the chain engine passes remapped
        internal rows this way without materializing fresh
        ``DdrAddress`` objects).

        ``out_positions``, when given, receives one batch position (the
        index of the causing ACT within ``addresses``) per *returned*
        flip, in lockstep with the returned list — the chain engine
        (:meth:`~repro.mc.controller.MemoryController.submit_chain`)
        uses it to count the flips that ACTs of earlier rounds caused
        (its ``settled`` count).
        """
        count = len(addresses)
        pressure_map = self._pressure
        tripped = self._tripped
        profile = self.profile
        mac = profile.mac
        radius1 = profile.blast_radius == 1
        blast_radius = profile.blast_radius
        weights = profile._weights
        rows_per_subarray = self.geometry.rows_per_subarray
        maybe_flip = self._maybe_flip
        flips: List[BitFlip] = []
        self.total_acts += count
        for index in range(count):
            address = addresses[index]
            channel = address.channel
            rank = address.rank
            bank = address.bank
            row = rows[index] if rows is not None else address.row
            aggressor_key = (channel, rank, bank, row)
            pressure_map.pop(aggressor_key, None)
            tripped.pop(aggressor_key, None)
            subarray_start = (row // rows_per_subarray) * rows_per_subarray
            if radius1:
                for victim_row in (row - 1, row + 1):
                    if (victim_row < subarray_start or victim_row
                            >= subarray_start + rows_per_subarray):
                        continue
                    victim_key = (channel, rank, bank, victim_row)
                    pressure = pressure_map.get(victim_key, 0.0) + 1.0
                    pressure_map[victim_key] = pressure
                    if pressure >= mac and not tripped.get(victim_key):
                        flip = maybe_flip(
                            victim_key, aggressor_key, times[index],
                            None if domains is None else domains[index],
                        )
                        if flip is not None:
                            flips.append(flip)
                            if out_positions is not None:
                                out_positions.append(index)
                continue
            low = row - blast_radius
            if low < subarray_start:
                low = subarray_start
            high = row + blast_radius
            limit = subarray_start + rows_per_subarray - 1
            if high > limit:
                high = limit
            for victim_row in range(low, high + 1):
                if victim_row == row:
                    continue
                victim_key = (channel, rank, bank, victim_row)
                pressure = pressure_map.get(victim_key, 0.0) + weights[
                    victim_row - row if victim_row > row else row - victim_row
                ]
                pressure_map[victim_key] = pressure
                if pressure >= mac and not tripped.get(victim_key):
                    flip = maybe_flip(
                        victim_key, aggressor_key, times[index],
                        None if domains is None else domains[index],
                    )
                    if flip is not None:
                        flips.append(flip)
                        if out_positions is not None:
                            out_positions.append(index)
        return flips

    def on_refresh(self, row_key: RowKey) -> None:
        """A row was refreshed (REF sweep, targeted refresh, or neighbour
        refresh): its accumulated pressure and tripped state clear."""
        self._reset(row_key)

    # ------------------------------------------------------------------
    # Inspection (harness / oracle use only)
    # ------------------------------------------------------------------

    def pressure_of(self, row_key: RowKey) -> float:
        return self._pressure.get(row_key, 0.0)

    def iter_pressure(self) -> List[Tuple[RowKey, float]]:
        """Snapshot of every victim row carrying pressure (the invariant
        suite polls this; a list, not a view, so checks can run while
        the simulation keeps mutating the map)."""
        return list(self._pressure.items())

    def is_tripped(self, row_key: RowKey) -> bool:
        """Whether the row crossed its MAC (flip logged or suppressed by
        the probabilistic tail) since its last refresh."""
        return bool(self._tripped.get(row_key))

    def headroom_of(self, row_key: RowKey) -> float:
        """Remaining pressure before the row flips."""
        return self.profile.mac - self.pressure_of(row_key)

    def cross_domain_flips(self) -> List[BitFlip]:
        return [flip for flip in self.flips if flip.cross_domain]

    def intra_domain_flips(self) -> List[BitFlip]:
        return [flip for flip in self.flips if flip.intra_domain]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reset(self, row_key: RowKey) -> None:
        self._pressure.pop(row_key, None)
        self._tripped.pop(row_key, None)

    def _maybe_flip(
        self,
        victim_key: RowKey,
        aggressor_key: RowKey,
        time_ns: int,
        aggressor_domain: Optional[int],
    ) -> Optional[BitFlip]:
        self._tripped[victim_key] = True
        if self.profile.flip_probability < 1.0:
            if self._rng.random() >= self.profile.flip_probability:
                return None
        flip = BitFlip(
            time_ns=time_ns,
            victim=victim_key,
            aggressor=aggressor_key,
            aggressor_domain=aggressor_domain,
            victim_domains=frozenset(self._domain_lookup(victim_key)),
            flipped_bits=self._rng.randint(1, self.profile.max_bits_per_flip),
        )
        self.flips.append(flip)
        return flip
