"""Per-node forwarding state: PIT, FIB with price windows, neighbor
liveness, and the content store.

All times are integer microseconds.  The tables never look at a wall
clock; callers pass `now` in.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum

from .scenario import Defaults
from .wire import Name, NodeAddr


class PitResult(Enum):
    NEW = "new"
    AGGREGATED = "aggregated"
    DUPLICATE_NONCE = "duplicate-nonce"


def _live(entry: dict[tuple[NodeAddr, bytes], int], now: int) -> list[tuple[NodeAddr, bytes]]:
    return [key for key, expires_us in entry.items() if expires_us > now]


class Pit:
    """Pending Interest table.

    One entry per exact name: an insertion-ordered dict from each
    downstream's (neighbour, nonce) to its expiry.  Expired downstreams
    are filtered on consume, so a consumer of this table never sees one.
    """

    def __init__(self) -> None:
        self._entries: dict[Name, dict[tuple[NodeAddr, bytes], int]] = {}

    def __contains__(self, name: Name) -> bool:
        return name in self._entries

    def insert(
        self,
        name: Name,
        downstream: NodeAddr,
        nonce: bytes,
        now: int,
        lifetime_us: int,
    ) -> PitResult:
        entry = self._entries.get(name)
        if entry is not None and any(expires_us <= now for expires_us in entry.values()):
            # Lazy expiry must stay invisible: an entry whose downstreams
            # have all timed out is no entry at all.
            entry = self._entries[name] = {k: t for k, t in entry.items() if t > now}
        key = (downstream, nonce)
        if not entry:
            self._entries[name] = {key: now + lifetime_us}
            return PitResult.NEW
        old = entry.get(key)
        if old is not None:
            # Same copy again; refresh the deadline but tell the caller
            # to suppress.
            entry[key] = max(old, now + lifetime_us)
            return PitResult.DUPLICATE_NONCE
        entry[key] = now + lifetime_us
        return PitResult.AGGREGATED

    def consume(self, name: Name, now: int) -> list[tuple[NodeAddr, bytes]]:
        """Remove the entry and return its unexpired downstreams in
        insertion order."""
        return _live(self._entries.pop(name, {}), now)

    def peek(self, name: Name, now: int) -> list[tuple[NodeAddr, bytes]]:
        """Like consume but leaves the entry in place."""
        return _live(self._entries.get(name, {}), now)

    def release(self, name: Name, downstream: NodeAddr, nonce: bytes) -> None:
        """Forget one refused downstream; the entry goes with its last."""
        entry = self._entries.get(name)
        if entry is not None:
            entry.pop((downstream, nonce), None)
            if not entry:
                del self._entries[name]

    def sweep(self, now: int) -> None:
        """Drop fully expired entries (housekeeping only)."""
        for name in [n for n, e in self._entries.items() if all(t <= now for t in e.values())]:
            del self._entries[name]

    def dump(self, now: int) -> list[str]:
        lines = []
        for name in sorted(self._entries, key=str):
            for (addr, nonce), expires_us in self._entries[name].items():
                if expires_us > now:
                    lines.append(
                        f"pit name={name} downstream={addr} "
                        f"nonce={nonce.hex()} expires_us={expires_us}"
                    )
        return lines


@dataclass
class FibNextHop:
    prices: deque[int]  # the last window_capacity observed prices
    enabled: bool = True


class Fib:
    """Forwarding information base: content prefix (names with any packet
    index stripped) -> next hop -> its price window and enable bit."""

    def __init__(self, window_capacity: int = Defaults.window_capacity) -> None:
        if window_capacity < 1:
            raise ValueError("window capacity must be positive")
        self.window_capacity = window_capacity
        self._entries: dict[tuple[bytes, ...], dict[NodeAddr, FibNextHop]] = {}

    def update(self, prefix: Name, next_hop: NodeAddr, price: int) -> None:
        """Record a price observation for prefix via next_hop and mark the
        hop enabled (discovery Data is proof of life)."""
        if price < 0:
            raise ValueError("price cannot be negative")
        hops = self._entries.setdefault(prefix.components, {})
        hop = hops.get(next_hop)
        if hop is None:
            hop = hops[next_hop] = FibNextHop(deque(maxlen=self.window_capacity))
        hop.prices.append(price)
        hop.enabled = True

    def lookup_min_cost(
        self, name: Name, exclude: tuple[NodeAddr, ...] = ()
    ) -> tuple[NodeAddr, int] | None:
        """Cheapest enabled next hop of the entry for name minus its
        packet index.

        An entry routes exactly its prefix, as a serve owns exactly its
        prefix: no lookup falls back to a shorter entry, which names
        another object.  Ties break toward the lowest address in byte
        order.
        """
        best: tuple[int, NodeAddr] | None = None
        for addr, hop in self._entries.get(name.components, {}).items():
            if hop.enabled and addr not in exclude:
                low = (min(hop.prices), addr)
                if best is None or low < best:
                    best = low
        return None if best is None else (best[1], best[0])

    def set_neighbor_enabled(self, neighbor: NodeAddr, enabled: bool) -> None:
        """Flip every next-hop record through neighbor."""
        for hops in self._entries.values():
            hop = hops.get(neighbor)
            if hop is not None:
                hop.enabled = enabled

    def dump(self) -> list[str]:
        lines = []
        for prefix in sorted(map(Name, self._entries), key=str):
            hops = self._entries[prefix.components]
            for addr in sorted(hops):
                hop = hops[addr]
                lines.append(
                    f"fib prefix={prefix} hop={addr} "
                    f"enabled={'true' if hop.enabled else 'false'} "
                    f"window_min={min(hop.prices)} samples={len(hop.prices)}"
                )
        return lines


class NeighborLiveness:
    """Keep-alive bookkeeping.  A neighbor is alive while now - last_seen
    stays under the timeout; a neighbor never heard from is treated as
    alive (there is nothing to expire yet)."""

    def __init__(self, timeout_us: int = Defaults.keepalive_timeout_ms * 1_000) -> None:
        self.timeout_us = timeout_us
        self._last_seen: dict[NodeAddr, int] = {}
        self._marked_dead: set[NodeAddr] = set()

    def heard(self, neighbor: NodeAddr, now: int) -> bool:
        """Record a keep-alive; returns True when this revived a neighbor
        previously marked dead."""
        self._last_seen[neighbor] = now
        if neighbor in self._marked_dead:
            self._marked_dead.discard(neighbor)
            return True
        return False

    def is_alive(self, neighbor: NodeAddr, now: int) -> bool:
        last = self._last_seen.get(neighbor)
        if last is None:
            return True
        return now - last < self.timeout_us

    def last_seen(self, neighbor: NodeAddr) -> int | None:
        return self._last_seen.get(neighbor)

    def sweep(self, now: int) -> list[NodeAddr]:
        """Neighbors that crossed the timeout since the last sweep, in
        address order."""
        newly_dead = []
        for neighbor in sorted(self._last_seen):
            if neighbor in self._marked_dead:
                continue
            if now - self._last_seen[neighbor] >= self.timeout_us:
                self._marked_dead.add(neighbor)
                newly_dead.append(neighbor)
        return newly_dead

    def dump(self, now: int) -> list[str]:
        return [
            f"liveness neighbor={n} last_seen_us={self._last_seen[n]} "
            f"alive={'true' if self.is_alive(n, now) else 'false'}"
            for n in sorted(self._last_seen)
        ]


class ContentStore:
    """Byte-capacity LRU cache of content packets."""

    def __init__(self, capacity_bytes: int = Defaults.cs_capacity_bytes) -> None:
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[Name, bytes] = OrderedDict()
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def insert(self, name: Name, payload: bytes) -> bool:
        """Cache payload under name; inserting something larger than the
        whole store is a no-op.  Returns True when stored."""
        if len(payload) > self.capacity_bytes:
            return False
        old = self._entries.pop(name, None)
        if old is not None:
            self._used -= len(old)
        while self._used + len(payload) > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._used -= len(evicted)
        self._entries[name] = payload
        self._used += len(payload)
        return True

    def lookup(self, name: Name) -> bytes | None:
        payload = self._entries.get(name)
        if payload is not None:
            self._entries.move_to_end(name)
        return payload

    def dump(self) -> list[str]:
        return [
            f"cs name={name} bytes={len(self._entries[name])}"
            for name in sorted(self._entries, key=str)
        ]


class NodeTables:
    """The full table set for one node, with the keep-alive operations
    that couple liveness to FIB enable bits."""

    def __init__(self, defaults: Defaults = Defaults()) -> None:
        self.pit = Pit()
        self.fib = Fib(defaults.window_capacity)
        self.cs = ContentStore(defaults.cs_capacity_bytes)
        self.liveness = NeighborLiveness(defaults.keepalive_timeout_ms * 1_000)

    def keepalive_heard(self, neighbor: NodeAddr, now: int) -> bool:
        """Refresh a neighbor; a revival re-enables its FIB next hops.
        Returns True when the neighbor came back from the dead."""
        revived = self.liveness.heard(neighbor, now)
        # Only the sweep that marks a neighbor dead disables its hops, so only a revival finds any.
        if revived:
            self.fib.set_neighbor_enabled(neighbor, True)
        return revived

    def keepalive_sweep(self, now: int) -> list[NodeAddr]:
        """Disable FIB hops of every neighbor whose keep-alives timed out;
        returns the newly dead neighbors."""
        newly_dead = self.liveness.sweep(now)
        for neighbor in newly_dead:
            self.fib.set_neighbor_enabled(neighbor, False)
        return newly_dead

    def dump(self, now: int) -> list[str]:
        return (
            self.pit.dump(now) + self.fib.dump() + self.cs.dump() + self.liveness.dump(now)
        )
