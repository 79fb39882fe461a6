"""Scenario files: the human-editable description of one simulation run.

A scenario is a YAML document (conventionally ``*.scn``) carrying a
version marker, the topology, tunable defaults, and a schedule of link
changes and consumer fetches.  Loading validates everything up front and
reports *all* problems at once; a scenario that loads is guaranteed to
start.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, fields

import yaml

from .wire import Name, NodeAddr

SCHEMA_VERSION = 1

# libyaml scans and parses in C where PyYAML was built with it; both
# loaders construct with the same SafeConstructor and Resolver, so they
# give the same document.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

RELAY_MODES = ("cutthrough", "storeforward")
PAYMENT_MODES = ("hopbyhop", "payall")
_MODES = {"relay_mode": RELAY_MODES, "payment_mode": PAYMENT_MODES}


def content_bytes(prefix: Name, index: int, size: int) -> bytes:
    """Deterministic payload for one content packet, reproducible on any
    platform from the name alone."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        block = hashlib.sha256(f"{prefix}|{index}|{counter}".encode()).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:size])


class ScenarioError(Exception):
    """One or more validation problems; str() lists them all."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class Defaults:
    """Every run-wide tunable with its default: the only place one is
    stated.  Tables, engine and payments read theirs from here."""

    keepalive_period_ms: int = 100
    keepalive_timeout_ms: int = 300
    interest_lifetime_ms: int = 4_000
    discovery_wait_ms: int = 250
    send_interval_ms: int = 1
    retries: int = 3
    link_latency_ms: int = 5
    relay_mode: str = "cutthrough"
    payment_mode: str = "hopbyhop"
    account_balance: int = 1_000
    channel_deposit: int = 500
    cs_capacity_bytes: int = 65_536
    window_capacity: int = 8
    candidate_paths: int = 4


@dataclass(frozen=True)
class ServeSpec:
    """Content one producer serves: `chunks` full chunks of
    `packets_per_chunk` packets, every packet exactly `packet_size`
    bytes.  The only place that says which packets form a chunk."""

    prefix: Name
    packet_size: int
    packets_per_chunk: int
    chunks: int

    @property
    def total_packets(self) -> int:
        return self.packets_per_chunk * self.chunks

    def owns(self, name: Name) -> bool:
        """A serve owns exactly its prefix, so /a and /a/b are separate
        objects."""
        return name.components == self.prefix.components

    def covers(self, name: Name) -> bool:
        return (
            self.owns(name)
            and name.chunk_index is not None
            and 0 <= name.chunk_index < self.total_packets
        )

    def chunk(self, index: int) -> range:
        """The packets of the chunk that holds packet `index`; its proof
        rides the last of them."""
        first = index - index % self.packets_per_chunk
        return range(first, first + self.packets_per_chunk)

    def payload(self, index: int) -> bytes:
        return content_bytes(self.prefix, index, self.packet_size)


@dataclass(frozen=True)
class NodeSpec:
    addr: NodeAddr
    cost: int = 0
    relay_mode: str | None = None  # None: use scenario default
    serves: tuple[ServeSpec, ...] = ()


@dataclass(frozen=True)
class LinkSpec:
    a: NodeAddr
    b: NodeAddr
    latency_ms: int
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0

    @property
    def key(self) -> tuple[NodeAddr, NodeAddr]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


@dataclass(frozen=True)
class FetchAction:
    at_ms: int
    node: NodeAddr
    name: Name
    packets: int


@dataclass(frozen=True)
class LinkAction:
    at_ms: int
    a: NodeAddr
    b: NodeAddr
    up: bool


@dataclass(frozen=True)
class Scenario:
    source: str
    seed: int
    duration_ms: int
    defaults: Defaults
    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]
    schedule: tuple[FetchAction | LinkAction, ...]

    def __post_init__(self) -> None:
        """The seed is never negative, so a `--seed` override meets the
        loader's rule.  Under hop-by-hop payment every node opens a channel
        on each of its links, funding one deposit apiece from its starting
        balance."""
        problems = [f"seed must be >= 0, got {self.seed}"] if self.seed < 0 else []
        if self.defaults.payment_mode == "hopbyhop":
            balance, deposit = self.defaults.account_balance, self.defaults.channel_deposit
            degree = Counter(addr for link in self.links for addr in (link.a, link.b))
            problems += [
                f"node {spec.addr} must fund {degree[spec.addr] * deposit} in channel "
                f"deposits but holds {balance}"
                for spec in self.nodes
                if degree[spec.addr] * deposit > balance
            ]
        if problems:
            raise ScenarioError(problems)


class _Check:
    """Accumulates problems instead of failing fast."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def fail(self, msg: str) -> None:
        self.problems.append(msg)

    def expect_int(self, value, what: str, minimum: int = 0) -> int | None:
        if not isinstance(value, int) or isinstance(value, bool):
            self.fail(f"{what} must be an integer, got {value!r}")
            return None
        if value < minimum:
            self.fail(f"{what} must be >= {minimum}, got {value}")
            return None
        return value

    def expect_keys(self, mapping: dict, allowed: set[str], where: str) -> None:
        for key in mapping:
            if key not in allowed:
                self.fail(f"{where}: unknown key {key!r}")


def _keys(section) -> set[str]:
    """The keys a section may carry: its dataclass's fields."""
    return {f.name for f in fields(section)}


def _parse_text(check: _Check, kind: type[NodeAddr] | type[Name], text, what: str):
    """A NodeAddr or Name parsed from its text form; None after a problem."""
    if not isinstance(text, str):
        noun = "address" if kind is NodeAddr else "name"
        check.fail(f"{what} must be a string {noun}, got {text!r}")
        return None
    try:
        return kind.parse(text)
    except ValueError as exc:
        check.fail(f"{what}: {exc}")
        return None


def _parse_defaults(check: _Check, raw) -> Defaults:
    if raw is None:
        return Defaults()
    if not isinstance(raw, dict):
        check.fail("defaults must be a mapping")
        return Defaults()
    check.expect_keys(raw, _keys(Defaults), "defaults")
    kwargs = {}
    # Field order, so problems come out in the same order on every run.
    for key in (f.name for f in fields(Defaults) if f.name in raw):
        value = raw[key]
        modes = _MODES.get(key)
        if modes is None:
            value = check.expect_int(value, f"defaults.{key}", minimum=1)
        elif value not in modes:
            check.fail(f"defaults.{key} must be one of {modes}")
            value = None
        if value is not None:
            kwargs[key] = value
    defaults = Defaults(**kwargs)
    if defaults.keepalive_timeout_ms < defaults.keepalive_period_ms:
        check.fail("defaults: keepalive_timeout_ms must be >= keepalive_period_ms")
    return defaults


def _parse_serve(check: _Check, raw, where: str) -> ServeSpec | None:
    if not isinstance(raw, dict):
        check.fail(f"{where} must be a mapping")
        return None
    check.expect_keys(raw, _keys(ServeSpec), where)
    prefix = _parse_text(check, Name, raw.get("prefix"), f"{where}.prefix")
    size = check.expect_int(raw.get("packet_size"), f"{where}.packet_size", minimum=1)
    per_chunk = check.expect_int(raw.get("packets_per_chunk"), f"{where}.packets_per_chunk", 1)
    chunks = check.expect_int(raw.get("chunks"), f"{where}.chunks", minimum=1)
    if None in (prefix, size, per_chunk, chunks):
        return None
    if prefix.chunk_index is not None:
        check.fail(f"{where}.prefix must not carry a seg= index")
        return None
    if size > 60_000:
        check.fail(f"{where}.packet_size {size} exceeds the wire payload bound")
        return None
    return ServeSpec(prefix, size, per_chunk, chunks)


def _parse_nodes(check: _Check, raw) -> list[NodeSpec]:
    if not isinstance(raw, list) or not raw:
        check.fail("nodes must be a non-empty list")
        return []
    nodes: list[NodeSpec] = []
    seen: set[NodeAddr] = set()
    served: dict[tuple[bytes, ...], tuple[NodeAddr, ServeSpec]] = {}
    for i, entry in enumerate(raw):
        where = f"nodes[{i}]"
        if not isinstance(entry, dict):
            check.fail(f"{where} must be a mapping")
            continue
        check.expect_keys(entry, _keys(NodeSpec), where)
        addr = _parse_text(check, NodeAddr, entry.get("addr"), f"{where}.addr")
        if addr is None:
            continue
        if addr.is_broadcast:
            check.fail(f"{where}.addr must not be the broadcast address")
            continue
        if addr in seen:
            check.fail(f"{where}: duplicate node {addr}")
            continue
        seen.add(addr)
        cost = check.expect_int(entry.get("cost", 0), f"{where}.cost", minimum=0)
        relay_mode = entry.get("relay_mode")
        if relay_mode is not None and relay_mode not in RELAY_MODES:
            check.fail(f"{where}.relay_mode must be one of {RELAY_MODES}")
            relay_mode = None
        serves = []
        raw_serves = entry.get("serves", [])
        if not isinstance(raw_serves, list):
            check.fail(f"{where}.serves must be a list")
            raw_serves = []
        for j, s in enumerate(raw_serves):
            spec = _parse_serve(check, s, f"{where}.serves[{j}]")
            if spec is None:
                continue
            first_addr, first = served.setdefault(spec.prefix.components, (addr, spec))
            if spec != first:
                check.fail(
                    f"{where}.serves[{j}]: {first_addr} and {addr} serve {spec.prefix} differently"
                )
            serves.append(spec)
        nodes.append(NodeSpec(addr, cost or 0, relay_mode, tuple(serves)))
    return nodes


def _parse_rate(check: _Check, value, what: str) -> float | None:
    """A per-frame probability in [0, 1); None after a problem."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 <= value < 1:
        check.fail(f"{what} must be in [0, 1)")
        return None
    return float(value)


def _parse_links(check: _Check, raw, known: set[NodeAddr], defaults: Defaults) -> list[LinkSpec]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        check.fail("links must be a list")
        return []
    links: list[LinkSpec] = []
    seen_pairs: set[tuple[NodeAddr, NodeAddr]] = set()
    for i, entry in enumerate(raw):
        where = f"links[{i}]"
        if not isinstance(entry, list) or not 2 <= len(entry) <= 5:
            check.fail(f"{where} must be [a, b], [a, b, latency_ms], [a, b, latency_ms, drop]"
                       " or [a, b, latency_ms, drop, corrupt]")
            continue
        a = _parse_text(check, NodeAddr, entry[0], f"{where}[0]")
        b = _parse_text(check, NodeAddr, entry[1], f"{where}[1]")
        if a is None or b is None:
            continue
        if a == b:
            check.fail(f"{where}: self-link at {a}")
            continue
        for addr in (a, b):
            if addr not in known:
                check.fail(f"{where}: unknown node {addr}")
        if a not in known or b not in known:
            continue
        latency = defaults.link_latency_ms
        if len(entry) >= 3:
            latency = check.expect_int(entry[2], f"{where} latency_ms", minimum=1)
            if latency is None:
                continue
        rates = [
            _parse_rate(check, rate, f"{where} {what} rate")
            for rate, what in zip(entry[3:], ("drop", "corrupt"))
        ]
        if None in rates:
            continue
        link = LinkSpec(a, b, latency, *rates)
        if link.key in seen_pairs:
            check.fail(f"{where}: duplicate link {a} <-> {b}")
            continue
        seen_pairs.add(link.key)
        links.append(link)
    return links


def _parse_schedule(
    check: _Check,
    raw,
    known: set[NodeAddr],
    link_keys: set[tuple[NodeAddr, NodeAddr]],
    duration_ms: int | None,
    serves: dict[tuple[bytes, ...], ServeSpec],
) -> list[FetchAction | LinkAction]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        check.fail("schedule must be a list")
        return []
    actions: list[FetchAction | LinkAction] = []
    fetch_keys: set[tuple[NodeAddr, tuple[bytes, ...]]] = set()
    for i, entry in enumerate(raw):
        where = f"schedule[{i}]"
        if not isinstance(entry, dict):
            check.fail(f"{where} must be a mapping")
            continue
        at_ms = check.expect_int(entry.get("at_ms"), f"{where}.at_ms", minimum=0)
        if at_ms is None:
            continue
        if duration_ms is not None and at_ms > duration_ms:
            check.fail(f"{where}.at_ms {at_ms} is past duration_ms {duration_ms}")
            continue
        action = entry.get("action")
        if action == "fetch":
            check.expect_keys(entry, _keys(FetchAction) | {"action"}, where)
            node = _parse_text(check, NodeAddr, entry.get("node"), f"{where}.node")
            name = _parse_text(check, Name, entry.get("name"), f"{where}.name")
            packets = check.expect_int(entry.get("packets"), f"{where}.packets", minimum=1)
            if node is None or name is None or packets is None:
                continue
            if node not in known:
                check.fail(f"{where}: unknown node {node}")
                continue
            if name.chunk_index is not None:
                check.fail(f"{where}.name must be a prefix, not a single packet")
                continue
            serve = serves.get(name.components)
            if serve is None:
                check.fail(f"{where}: nobody serves {name}")
                continue
            if packets > serve.total_packets:
                check.fail(
                    f"{where}: asks {packets} packets but {name} holds {serve.total_packets}"
                )
                continue
            if (node, name.components) in fetch_keys:
                check.fail(f"{where}: duplicate fetch of {name} at {node}")
                continue
            fetch_keys.add((node, name.components))
            actions.append(FetchAction(at_ms, node, name, packets))
        elif action == "link":
            check.expect_keys(entry, _keys(LinkAction) | {"action"}, where)
            a = _parse_text(check, NodeAddr, entry.get("a"), f"{where}.a")
            b = _parse_text(check, NodeAddr, entry.get("b"), f"{where}.b")
            up = entry.get("up")
            if a is None or b is None:
                continue
            if not isinstance(up, bool):
                check.fail(f"{where}.up must be true or false")
                continue
            key = (a, b) if a < b else (b, a)
            if key not in link_keys:
                check.fail(f"{where}: no declared link {a} <-> {b}")
                continue
            actions.append(LinkAction(at_ms, a, b, up))
        else:
            check.fail(f"{where}.action must be 'fetch' or 'link', got {action!r}")
    return actions


def parse_scenario(doc, source: str = "<inline>") -> Scenario:
    """Validate a parsed YAML document into a Scenario.

    Raises ScenarioError carrying every problem found.
    """
    check = _Check()
    if not isinstance(doc, dict):
        raise ScenarioError(["scenario must be a mapping"])
    check.expect_keys(
        doc, {"version", "seed", "duration_ms", "defaults", "nodes", "links", "schedule"}, "top"
    )
    if doc.get("version") != SCHEMA_VERSION:
        check.fail(f"version must be {SCHEMA_VERSION}, got {doc.get('version')!r}")
    seed = check.expect_int(doc.get("seed", 0), "seed", minimum=0) or 0
    duration_ms = check.expect_int(doc.get("duration_ms"), "duration_ms", minimum=1)
    defaults = _parse_defaults(check, doc.get("defaults"))
    nodes = _parse_nodes(check, doc.get("nodes"))
    known = {n.addr for n in nodes}
    links = _parse_links(check, doc.get("links"), known, defaults)
    serves = {s.prefix.components: s for n in nodes for s in n.serves}
    schedule = _parse_schedule(
        check, doc.get("schedule"), known, {l.key for l in links}, duration_ms, serves
    )
    if check.problems:
        raise ScenarioError(check.problems)
    ordered = tuple(sorted(schedule, key=lambda a: a.at_ms))
    return Scenario(
        source=source,
        seed=seed,
        duration_ms=duration_ms,
        defaults=defaults,
        nodes=tuple(nodes),
        links=tuple(links),
        schedule=ordered,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, _LOADER)
    except OSError as exc:
        raise ScenarioError([f"cannot read {path}: {exc.strerror or exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"cannot read {path}: not UTF-8: {exc.reason}"]) from exc
    except yaml.YAMLError as exc:
        raise ScenarioError([f"{path}: not valid YAML: {exc}"]) from exc
    return parse_scenario(doc, source=path)
