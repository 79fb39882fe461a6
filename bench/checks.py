"""Correctness checks for one benchmark repetition.

Every expected value here is computed from the generated workload
(`workloads.Workload`) with formulas of the benchmark's own; nothing is
copied from an earlier run or read back from the loaded scenario.  A
fetch fails when it does not end `done` or when any of its checks
fails; a failed run-wide check fails every fetch of the repetition.
"""

from __future__ import annotations

import hashlib

from workloads import Workload


def expected_payload(prefix: str, index: int, size: int) -> bytes:
    """Packet `index` of a served object: SHA-256 blocks over
    "<prefix>|<index>|<counter>" for counter 0, 1, ..., cut to size."""
    blocks = []
    for counter in range((size + 31) // 32):
        blocks.append(hashlib.sha256(f"{prefix}|{index}|{counter}".encode()).digest())
    return b"".join(blocks)[:size]


def required_spans(packets: int, packets_per_chunk: int, total: int) -> int:
    """Chunks lying wholly inside the first `packets` packets."""
    spans = 0
    for first in range(0, packets, packets_per_chunk):
        if first + min(packets_per_chunk, total - first) <= packets:
            spans += 1
    return spans


def _flow_problems(w: Workload, fetch, flow: dict | None, payloads: dict | None) -> list[str]:
    served = w.served[fetch.name]
    if flow is None:
        return ["no flow in the report"]
    problems = []
    if flow["status"] != "done":
        problems.append(f"status {flow['status']} ({flow['fail_reason']})")
    if flow["received"] != fetch.packets:
        problems.append(f"received {flow['received']} of {fetch.packets}")
    spans = required_spans(fetch.packets, served.packets_per_chunk, served.total_packets)
    if (flow["verified_spans"], flow["required_spans"]) != (spans, spans):
        problems.append(
            f"verified {flow['verified_spans']} / required {flow['required_spans']} spans, "
            f"expected {spans}"
        )
    route = flow["route"] or []
    if len(route) < 2 or route[0] != fetch.node or route[-1] != served.producer:
        problems.append(f"route {route} does not run from consumer to producer")
    if len(set(route)) != len(route):
        problems.append(f"route {route} is not simple")
    for a, b in zip(route, route[1:]):
        if frozenset((a, b)) not in w.links:
            problems.append(f"route hop {a}->{b} is not a declared link")
    price = sum(w.costs[h] for h in route[1:])
    if flow["price"] != price:
        problems.append(f"price {flow['price']} != summed costs {price}")
    if flow["signatures_verified"] != spans * (len(route) - 1):
        problems.append(
            f"verified {flow['signatures_verified']} signatures, expected "
            f"{spans} spans x {len(route) - 1} hops"
        )
    if payloads is None or len(payloads) != fetch.packets:
        problems.append("payloads missing")
    else:
        for i in range(fetch.packets):
            if payloads.get(i) != expected_payload(fetch.name, i, served.packet_size):
                problems.append(f"payload {i} does not match the content formula")
                break
    return problems


def _expected_incomes(w: Workload, report: dict) -> dict[str, int]:
    """Each node earns its cost per packet on every flow routed through
    it; each consumer pays the route price per packet."""
    incomes = {a: 0 for a in w.costs}
    for flow in report["flows"]:
        route, packets = flow["route"] or [], flow["requested"]
        if len(route) < 2:
            continue
        for hop in route[1:]:
            incomes[hop] += w.costs[hop] * packets
        incomes[route[0]] -= sum(w.costs[h] for h in route[1:]) * packets
    return incomes


def check_repetition(
    w: Workload,
    report: dict,
    payloads: dict[tuple[str, str], dict[int, bytes]],
    violations: list[str],
) -> tuple[int, list[str]]:
    """Returns (failed fetches, problems) for one repetition."""
    flows = {(f["node"], f["name"]): f for f in report["flows"]}
    problems = []
    failed = 0
    for fetch in w.fetches:
        key = (fetch.node, fetch.name)
        mine = _flow_problems(w, fetch, flows.get(key), payloads.get(key))
        if mine:
            failed += 1
            problems += [f"{fetch.node} {fetch.name}: {p}" for p in mine]
    run_wide = [f"audit: {v}" for v in violations]
    if len(flows) != len(w.fetches):
        run_wide.append(f"{len(flows)} flows reported for {len(w.fetches)} fetches")
    incomes = report["ledger"]["incomes"]
    for node, income in sorted(_expected_incomes(w, report).items()):
        if incomes.get(node) != income:
            run_wide.append(f"income of {node} is {incomes.get(node)}, expected {income}")
    if w.sequential:
        ordered = sorted(report["flows"], key=lambda f: f["start_ms"])
        for a, b in zip(ordered, ordered[1:]):
            if a["done_ms"] is None or a["done_ms"] >= b["start_ms"]:
                run_wide.append(f"flow of {a['node']} overlaps the flow of {b['node']}")
    if run_wide:
        failed = len(w.fetches)
    return failed, problems + run_wide
