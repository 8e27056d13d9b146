"""Counter/gauge registry: one read surface for every run statistic.

Before this module, defense counters and MC statistics were hand-copied
into :class:`~repro.sim.metrics.RunMetrics` field by field — a new
counter silently vanished from every table until someone noticed.  The
registry inverts that: producers *register* once (a live dict of
counters, or a gauge function computing values on demand) and consumers
call :meth:`MetricsRegistry.snapshot`, which cannot drop a key because
it never names one.

Registration styles:

* ``register_group(prefix, mapping)`` — a live ``Dict[str, int]`` the
  producer keeps mutating (defense ``counters``); the registry holds the
  reference, so there is no write-path overhead at all;
* ``register_gauges(prefix, fn)``     — ``fn() -> Mapping[str, number]``
  evaluated at snapshot time (``ControllerStats.snapshot``, cache rates);
* ``counter(name)``                   — a registry-owned
  :class:`Counter` for code without its own statistics object.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple, Union

Number = Union[int, float]


class Counter:
    """A registry-owned monotonically adjustable counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class MetricsRegistry:
    """All counters and gauges of one simulated platform."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._groups: List[Tuple[str, Mapping[str, Number]]] = []
        self._gauges: List[Tuple[str, Callable[[], Mapping[str, Number]]]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Create (or fetch) a registry-owned counter."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def register_group(self, prefix: str, mapping: Mapping[str, Number]) -> None:
        """Register a *live* dict of counters; snapshots read it fresh."""
        self._check_prefix(prefix)
        self._groups.append((prefix, mapping))

    def register_gauges(
        self, prefix: str, fn: Callable[[], Mapping[str, Number]]
    ) -> None:
        """Register a gauge function evaluated at snapshot time."""
        self._check_prefix(prefix)
        self._gauges.append((prefix, fn))

    def _check_prefix(self, prefix: str) -> None:
        if not prefix:
            raise ValueError("prefix must be non-empty")
        taken = {p for p, _ in self._groups} | {p for p, _ in self._gauges}
        if prefix in taken:
            raise ValueError(f"prefix {prefix!r} is already registered")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Number]:
        """Every registered value as a flat ``prefix.key`` dict."""
        snap: Dict[str, Number] = {
            name: counter.value for name, counter in self._counters.items()
        }
        for prefix, mapping in self._groups:
            for key, value in mapping.items():
                snap[f"{prefix}.{key}"] = value
        for prefix, fn in self._gauges:
            for key, value in fn().items():
                snap[f"{prefix}.{key}"] = value
        return snap

    def value(self, name: str) -> Number:
        """One value by full name; raises ``KeyError`` if absent."""
        return self.snapshot()[name]

    def assert_covers(self, keys: Mapping[str, Number] | List[str], prefix: str) -> None:
        """Fail loudly if any of ``keys`` is missing under ``prefix`` —
        the guard that makes dropping a statistic a hard error instead of
        a silently shorter table."""
        snap = self.snapshot()
        missing = sorted(
            key for key in keys if f"{prefix}.{key}" not in snap
        )
        if missing:
            raise RuntimeError(
                f"metrics registry is missing {prefix}.* keys: {missing}; "
                "a statistics field was added without registering it"
            )
