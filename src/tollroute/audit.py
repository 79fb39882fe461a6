"""Post-run invariant checks over a simulation's trace and ledger.

The simulator promises a handful of properties that no run may violate
regardless of topology or schedule: content moves unicast, discovery
prices add up hop by hop, recorded routes stay simple, dead neighbors
are noticed within the keep-alive bound, the strategy ladder never
mislabels a decision, and the token ledger replays clean.  The checks
here run on the emitted artifacts only; they never peek at live state.
"""

from __future__ import annotations

from .payment import audit_ledger
from .scenario import Scenario
from .wire import BROADCAST


def check_unicast_data(trace: list[dict]) -> list[str]:
    """Data packets answer a PIT entry and therefore always have a
    single addressee; a broadcast Data frame is a forwarding bug."""
    bad = []
    for rec in trace:
        if rec.get("event") == "tx" and rec.get("kind") == "data":
            if rec.get("to") == str(BROADCAST):
                bad.append(
                    f"t={rec['t']} node={rec['node']}: data {rec['name']} sent to broadcast"
                )
    return bad


def check_price_additivity(scenario: Scenario, trace: list[dict]) -> list[str]:
    """Every discovery reply's price must equal the summed costs of the
    nodes on its recorded route (excluding the addressee at the top)."""
    cost = {str(addr): c for addr, c in scenario.cost_of().items()}
    bad = []
    for rec in trace:
        if (
            rec.get("event") == "tx"
            and rec.get("kind") == "data"
            and rec.get("discovery")
        ):
            route = rec.get("route", [])
            expected = sum(cost[hop] for hop in route[1:])
            if rec.get("price") != expected:
                bad.append(
                    f"t={rec['t']} node={rec['node']}: discovery {rec['name']} "
                    f"price {rec.get('price')} != {expected} for route {route}"
                )
    return bad


def check_simple_routes(trace: list[dict]) -> list[str]:
    """No transmitted route may visit a node twice."""
    bad = []
    for rec in trace:
        if rec.get("event") == "tx" and "route" in rec:
            route = rec["route"]
            if len(set(route)) != len(route):
                bad.append(
                    f"t={rec['t']} node={rec['node']}: looping route {route} "
                    f"on {rec.get('kind')} {rec.get('name')}"
                )
    return bad


def check_keepalive_bound(scenario: Scenario, trace: list[dict]) -> list[str]:
    """A silent neighbor must be declared dead within timeout + one
    beacon period of its last sign of life."""
    bound_us = (
        scenario.defaults.keepalive_timeout_ms + scenario.defaults.keepalive_period_ms
    ) * 1_000
    bad = []
    for rec in trace:
        if rec.get("event") == "neighbor_dead":
            delta = rec["detected_us"] - rec["last_seen_us"]
            if delta > bound_us:
                bad.append(
                    f"t={rec['t']} node={rec['node']}: neighbor {rec['neighbor']} "
                    f"declared dead after {delta}us (bound {bound_us}us)"
                )
    return bad


def check_mode_labels(trace: list[dict]) -> list[str]:
    """Source-routed decisions require the named hop alive; min-cost
    decisions require it dead or absent."""
    bad = []
    for rec in trace:
        if rec.get("event") != "decision":
            continue
        mode, alive = rec.get("mode"), rec.get("named_hop_alive")
        if mode == "source-routed" and alive is not True:
            bad.append(
                f"t={rec['t']} node={rec['node']}: source-routed decision for "
                f"{rec['name']} with named hop not alive"
            )
        if mode == "min-cost" and alive:
            bad.append(
                f"t={rec['t']} node={rec['node']}: min-cost decision for "
                f"{rec['name']} while named hop {rec.get('named_hop')} is alive"
            )
    return bad


def audit_run(scenario: Scenario, trace: list[dict], ledger: list[dict]) -> list[str]:
    """All invariant checks over one run's artifacts.  Empty = clean."""
    violations: list[str] = []
    violations += check_unicast_data(trace)
    violations += check_price_additivity(scenario, trace)
    violations += check_simple_routes(trace)
    violations += check_keepalive_bound(scenario, trace)
    violations += check_mode_labels(trace)
    violations += audit_ledger(ledger).violations
    return violations
