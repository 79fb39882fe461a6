"""Post-run invariant checks over a simulation's trace and ledger.

The simulator promises a handful of properties that no run may violate
regardless of topology or schedule: content moves unicast, discovery
prices add up hop by hop, recorded routes stay simple, dead neighbors
are noticed within the keep-alive bound, the strategy ladder never
mislabels a decision, and the token ledger replays clean.  The checks
here run on the emitted artifacts only; they never peek at live state.
"""

from __future__ import annotations

from collections.abc import Iterable

from .payment import audit_ledger
from .scenario import Scenario
from .wire import BROADCAST


def audit_run(scenario: Scenario, trace: Iterable[dict], ledger: list[dict]) -> list[str]:
    """All invariant checks over one run's artifacts.  Empty = clean.

    Reads each trace record once, so `trace` may be a one-shot iterator.
    Violations come in trace order, then the ledger's.  A discovery
    reply's route must name only the scenario's nodes, and its price must
    equal the summed costs of the nodes on that route, excluding the
    addressee at the top; a silent neighbor must be declared dead within
    timeout + one beacon period of its last sign of life; a source-routed
    decision requires the named hop alive and a min-cost decision requires
    it dead or absent.
    """
    broadcast = str(BROADCAST)
    cost = {str(spec.addr): spec.cost for spec in scenario.nodes}
    defaults = scenario.defaults
    bound_us = (defaults.keepalive_timeout_ms + defaults.keepalive_period_ms) * 1_000
    bad: list[str] = []

    def flag(rec: dict, what: str) -> None:
        bad.append(f"t={rec['t']} node={rec['node']}: {what}")

    for rec in trace:
        event = rec.get("event")
        if event == "tx":
            if rec.get("kind") == "data":
                if rec.get("to") == broadcast:
                    flag(rec, f"data {rec['name']} sent to broadcast")
                if rec.get("discovery"):
                    route = rec.get("route", [])
                    unknown = [hop for hop in route if hop not in cost]
                    if unknown:
                        flag(rec, f"discovery {rec['name']} route names unknown nodes {unknown}")
                    else:
                        expected = sum(cost[hop] for hop in route[1:])
                        if rec.get("price") != expected:
                            flag(rec, f"discovery {rec['name']} price {rec.get('price')} "
                                      f"!= {expected} for route {route}")
            if "route" in rec and len(set(rec["route"])) != len(rec["route"]):
                flag(rec, f"looping route {rec['route']} on {rec.get('kind')} {rec.get('name')}")
        elif event == "neighbor_dead":
            delta = rec["detected_us"] - rec["last_seen_us"]
            if delta > bound_us:
                flag(rec, f"neighbor {rec['neighbor']} declared dead after {delta}us "
                          f"(bound {bound_us}us)")
        elif event == "decision":
            mode, alive = rec.get("mode"), rec.get("named_hop_alive")
            if mode == "source-routed" and alive is not True:
                flag(rec, f"source-routed decision for {rec['name']} with named hop not alive")
            if mode == "min-cost" and alive:
                flag(rec, f"min-cost decision for {rec['name']} "
                          f"while named hop {rec.get('named_hop')} is alive")
    return bad + audit_ledger(ledger).violations
