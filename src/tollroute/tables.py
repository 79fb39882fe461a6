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


@dataclass
class PitDownstream:
    addr: NodeAddr
    nonce: bytes
    expires_us: int


def _live(entry: list[PitDownstream] | None, now: int) -> list[tuple[NodeAddr, bytes]]:
    if entry is None:
        return []
    return [(ds.addr, ds.nonce) for ds in entry if ds.expires_us > now]


class Pit:
    """Pending Interest table.

    One entry per exact name; downstreams keep insertion order.  Expired
    downstreams are filtered on consume, so a consumer of this table never
    sees one.
    """

    def __init__(self) -> None:
        self._entries: dict[Name, list[PitDownstream]] = {}

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
        if entry is not None:
            # Lazy expiry must stay invisible: an entry whose downstreams
            # have all timed out is no entry at all.
            entry[:] = [ds for ds in entry if ds.expires_us > now]
            if not entry:
                entry = None
                del self._entries[name]
        if entry is None:
            self._entries[name] = [PitDownstream(downstream, nonce, now + lifetime_us)]
            return PitResult.NEW
        for ds in entry:
            if ds.addr == downstream and ds.nonce == nonce:
                # Same copy again; refresh the deadline but tell the caller
                # to suppress.
                ds.expires_us = max(ds.expires_us, now + lifetime_us)
                return PitResult.DUPLICATE_NONCE
        entry.append(PitDownstream(downstream, nonce, now + lifetime_us))
        return PitResult.AGGREGATED

    def consume(self, name: Name, now: int) -> list[tuple[NodeAddr, bytes]]:
        """Remove the entry and return its unexpired downstreams in
        insertion order."""
        return _live(self._entries.pop(name, None), now)

    def peek(self, name: Name, now: int) -> list[tuple[NodeAddr, bytes]]:
        """Like consume but leaves the entry in place, for answers that
        must not end the Interest's life (a cache's discovery reply)."""
        return _live(self._entries.get(name), now)

    def release(self, name: Name, downstream: NodeAddr, nonce: bytes) -> None:
        """Forget one refused downstream; the entry goes with its last."""
        entry = self._entries.get(name)
        if entry is not None:
            entry[:] = [ds for ds in entry if ds.addr != downstream or ds.nonce != nonce]
            if not entry:
                del self._entries[name]

    def sweep(self, now: int) -> None:
        """Drop fully expired entries (housekeeping only)."""
        for name in [n for n, e in self._entries.items() if all(d.expires_us <= now for d in e)]:
            del self._entries[name]

    def dump(self, now: int) -> list[str]:
        lines = []
        for name in sorted(self._entries, key=str):
            for ds in self._entries[name]:
                if ds.expires_us > now:
                    lines.append(
                        f"pit name={name} downstream={ds.addr} "
                        f"nonce={ds.nonce.hex()} expires_us={ds.expires_us}"
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
        """Cheapest enabled next hop of the longest prefix entry that
        matches name minus its packet index.

        The longest entry that exists decides; it is not skipped in favor
        of a shorter one when all its hops are disabled.  Ties break
        toward the lowest address in byte order.
        """
        comps = name.components
        for end in range(len(comps), 0, -1):
            hops = self._entries.get(comps[:end])
            if hops is None:
                continue
            best: tuple[int, NodeAddr] | None = None
            for addr, hop in hops.items():
                if hop.enabled and addr not in exclude:
                    low = (min(hop.prices), addr)
                    if best is None or low < best:
                        best = low
            return None if best is None else (best[1], best[0])
        return None

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
