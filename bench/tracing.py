"""Per-layer spans and counts, installed from outside the program.

`install` wraps each layer's public functions at the name its callers
look up (a module global such as `simnet.encode_packet`, or a method on
its class) and returns a function that puts the originals back.  A
wrapped call is a span: its self time is its duration minus the spans
nested inside it, so the self times of all spans add up to the time of
the outermost ones.  Counters count calls without timing them.

Wrapping costs time on every call, so timed end-to-end runs never
install it; the difference between a traced and an untraced repetition
is reported as the tracing overhead.
"""

from __future__ import annotations

import types
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.errors: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    def span(self, key: str, fn, hit_key: str | None = None):
        calls, errors, self_s, stack = self.calls, self.errors, self.self_s, self._stack

        def traced(*args, **kwargs):
            calls[key] += 1
            nested = [0.0]
            stack.append(nested)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[key] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[key] += elapsed - nested[0]
                if stack:
                    stack[-1][0] += elapsed
            if hit_key is not None and result is not None:
                calls[hit_key] += 1
            return result

        return traced

    def counter(self, key: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted


def _targets(tr: "Tracer"):
    """(owner, attribute, wrapper factory) for every traced name."""
    from tollroute import audit, forwarding, keys, payment, proof, scenario, simnet, tables, wire

    def span(key, hit_key=None):
        return lambda fn: tr.span(key, fn, hit_key)

    def count(key):
        return lambda fn: tr.counter(key, fn)

    def classmethod_span(key):
        return lambda cm: classmethod(tr.span(key, cm.__func__))

    book = payment.ChannelBook
    return [
        (scenario, "load_scenario", span("scenario.load")),
        (keys.KeyPair, "from_seed", classmethod_span("keys.derive")),
        (keys.KeyPair, "sign", span("keys.sign")),
        (payment, "verify", span("keys.verify")),
        (proof, "verify", span("keys.verify_in_proof")),
        (simnet, "encode_packet", span("wire.encode")),
        (simnet, "decode_packet", span("wire.decode")),
        (wire.NodeAddr, "__str__", count("wire.addr_str")),
        (tables.Pit, "insert", span("tables.pit")),
        (tables.Pit, "consume", span("tables.pit")),
        (tables.Pit, "peek", span("tables.pit")),
        (tables.Fib, "update", span("tables.fib")),
        (tables.Fib, "lookup_min_cost", span("tables.fib")),
        (tables.Fib, "set_neighbor_enabled", span("tables.fib")),
        (tables.ContentStore, "lookup", span("tables.cs_lookup", hit_key="tables.cs_hit")),
        (tables.ContentStore, "insert", span("tables.cs_insert")),
        (tables.NodeTables, "keepalive_heard", span("tables.liveness")),
        (tables.NodeTables, "keepalive_sweep", span("tables.liveness")),
        (tables.NeighborLiveness, "is_alive", span("tables.liveness")),
        (forwarding.ForwardingEngine, "on_packet", span("forwarding.packet")),
        (forwarding.ForwardingEngine, "on_keepalive", span("forwarding.beacon")),
        (forwarding.ForwardingEngine, "originate_discovery", span("forwarding.origin")),
        (forwarding.ForwardingEngine, "originate_interest", span("forwarding.origin")),
        (forwarding.ForwardingEngine, "keepalive_tick", span("forwarding.keepalive")),
        (forwarding, "make_chunk", span("proof.make_chunk")),
        (forwarding, "sign_chunk", span("proof.sign_chunk")),
        (simnet, "verify_chain", span("proof.verify_chain")),
        (book, "make_offer", span("payment.offer")),
        (book, "commit_offer", span("payment.commit")),
        (forwarding, "relay_process_payment", span("payment.relay")),
        (simnet, "consumer_pay_all", span("payment.pay_all")),
        (book, "purge_expired", span("payment.purge")),
        (book, "cancel_tag", span("payment.cancel")),
        (book, "settle_all", span("payment.settle")),
        (simnet.Simulator, "run", span("simnet.run")),
        (simnet.Simulator, "_arrive", count("simnet.frames")),
        (simnet.Flow, "missing", span("simnet.flow_check")),
        (simnet.Flow, "is_complete", span("simnet.flow_check")),
        (simnet.RunResult, "report_bytes", span("simnet.serialize")),
        (simnet.RunResult, "trace_bytes", span("simnet.serialize")),
        (simnet.RunResult, "ledger_bytes", span("simnet.serialize")),
        (audit, "audit_run", span("audit.run")),
        (audit, "audit_ledger", span("audit.ledger")),
        # The event loop pops every event from the heap through this name.
        (simnet, "heapq", lambda mod: types.SimpleNamespace(
            heappush=mod.heappush, heappop=tr.counter("simnet.events", mod.heappop))),
    ]


def install(tracer: Tracer):
    """Wrap every traced name that exists; returns the undo function.
    A name a later version of the program no longer has is skipped, and
    its counts stay 0."""
    undo = []
    for owner, name, wrap in _targets(tracer):
        if name not in vars(owner):
            continue
        original = vars(owner)[name]
        setattr(owner, name, wrap(original))
        undo.append((owner, name, original))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def layer_metrics(
    tr: Tracer, sim_s: float, trace_records: int, ledger_records: int
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced repetition: name -> (value,
    unit).  `sim_s` is the traced repetition's `Simulator.run` time."""
    c, s = tr.calls, tr.self_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    links = c["proof.make_chunk"] + c["proof.sign_chunk"] - tr.errors["proof.sign_chunk"]
    return {
        "scenario.load_s": (s["scenario.load"], "s"),
        "keys.derive_s": (s["keys.derive"], "s"),
        "keys.sign_calls": (c["keys.sign"], "count"),
        "keys.sign_s": (s["keys.sign"], "s"),
        "keys.verify_calls": (c["keys.verify"] + c["keys.verify_in_proof"], "count"),
        "keys.verify_s": (s["keys.verify"] + s["keys.verify_in_proof"], "s"),
        "wire.encode_calls": (c["wire.encode"], "count"),
        "wire.encode_s": (s["wire.encode"], "s"),
        "wire.decode_calls": (c["wire.decode"], "count"),
        "wire.decode_s": (s["wire.decode"], "s"),
        "wire.addr_str_calls": (c["wire.addr_str"], "count"),
        "wire.decodes_per_encode": (ratio(c["wire.decode"], c["wire.encode"]), "ratio"),
        "tables.pit_calls": (c["tables.pit"], "count"),
        "tables.pit_s": (s["tables.pit"], "s"),
        "tables.fib_calls": (c["tables.fib"], "count"),
        "tables.fib_s": (s["tables.fib"], "s"),
        "tables.cs_lookups": (c["tables.cs_lookup"], "count"),
        "tables.cs_hit_ratio": (ratio(c["tables.cs_hit"], c["tables.cs_lookup"]), "ratio"),
        "tables.cs_s": (s["tables.cs_lookup"] + s["tables.cs_insert"], "s"),
        "tables.liveness_s": (s["tables.liveness"], "s"),
        "forwarding.packets_in": (c["forwarding.packet"], "count"),
        "forwarding.self_s": (
            s["forwarding.packet"] + s["forwarding.beacon"] + s["forwarding.origin"], "s"),
        "forwarding.keepalive_calls": (c["forwarding.keepalive"], "count"),
        "forwarding.keepalive_s": (s["forwarding.keepalive"], "s"),
        "proof.make_chunk_calls": (c["proof.make_chunk"], "count"),
        "proof.sign_chunk_calls": (c["proof.sign_chunk"], "count"),
        "proof.sign_chunk_s": (s["proof.sign_chunk"], "s"),
        "proof.verify_chain_calls": (c["proof.verify_chain"], "count"),
        "proof.verify_chain_s": (s["proof.verify_chain"], "s"),
        "proof.verifies_per_link": (ratio(c["keys.verify_in_proof"], links), "ratio"),
        "payment.offer_calls": (c["payment.offer"], "count"),
        "payment.offer_s": (s["payment.offer"], "s"),
        "payment.commit_calls": (c["payment.commit"], "count"),
        "payment.commit_s": (s["payment.commit"], "s"),
        "payment.relay_s": (s["payment.relay"], "s"),
        "payment.pay_all_s": (s["payment.pay_all"], "s"),
        "payment.purge_calls": (c["payment.purge"], "count"),
        "payment.purge_s": (s["payment.purge"], "s"),
        "payment.cancel_calls": (c["payment.cancel"], "count"),
        "payment.settle_s": (s["payment.settle"], "s"),
        "simnet.events": (c["simnet.events"], "count"),
        "simnet.frames": (c["simnet.frames"], "count"),
        "simnet.sim_s": (sim_s, "s"),
        "simnet.self_s": (s["simnet.run"], "s"),
        "simnet.flow_check_calls": (c["simnet.flow_check"], "count"),
        "simnet.flow_check_s": (s["simnet.flow_check"], "s"),
        "simnet.serialize_s": (s["simnet.serialize"], "s"),
        "simnet.trace_records": (trace_records, "count"),
        "audit.run_s": (s["audit.run"], "s"),
        "audit.ledger_s": (s["audit.ledger"], "s"),
        "audit.ledger_records": (ledger_records, "count"),
    }
