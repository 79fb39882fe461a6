"""Operator command line: run and validate scenarios, inspect state,
audit ledgers, and size the proof-of-forwarding win.

Verbs:
  run              execute a scenario, print its summary, optionally write artifacts
  validate         check a scenario file and report every problem found
  dump-state       execute a scenario and print the final node tables
  audit-ledger     replay a ledger log and verify token conservation
  bench-pof        count signing work per hop with and without chunk proofs
  compare-payment  execute a scenario under both payment modes, compare ledgers

Exit codes: 0 success, 1 bad input (scenario or file), 2 invariant
violation detected in a run or ledger.  Errors go to stderr, one per
line, prefixed "error[<category>]:" so scripts can grep them.

Scenario arguments resolve in order: a literal path, then
$TOLLROUTE_SCENARIO_DIR/<name>, then the scenarios bundled with the
package (fig1.scn, fig6.scn, diamond.scn, churn.scn, mesh10.scn).
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .audit import audit_run
from .payment import audit_ledger, ledger_record_problem
from .proof import signature_budget
from .scenario import PAYMENT_MODES, Scenario, ScenarioError, load_scenario
from .simnet import Simulator, format_report, run_scenario

SCENARIO_DIR_ENV = "TOLLROUTE_SCENARIO_DIR"


def _err(category: str, message: str) -> None:
    print(f"error[{category}]: {message}", file=sys.stderr)


def _resolve_scenario(name: str) -> Scenario:
    """Load a scenario by path, by name under $TOLLROUTE_SCENARIO_DIR,
    or from the bundled set.  Raises ScenarioError."""
    path = Path(name)
    if path.is_file():
        return load_scenario(str(path))
    env_dir = os.environ.get(SCENARIO_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / name
        if candidate.is_file():
            return load_scenario(str(candidate))
    bundled = importlib.resources.files("tollroute") / "scenarios" / name
    if bundled.is_file():
        return load_scenario(str(bundled))
    raise ScenarioError([f"no scenario named {name!r} (cwd, ${SCENARIO_DIR_ENV}, bundled)"])


def _load(args: argparse.Namespace) -> Scenario:
    """The scenario the command line names, with its overrides applied.
    Raises ScenarioError, which `main` reports."""
    scenario = _resolve_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    if getattr(args, "payment", None):
        scenario = replace(
            scenario, defaults=replace(scenario.defaults, payment_mode=args.payment)
        )
    return scenario


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args)
    result = run_scenario(scenario)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_bytes(result.report_bytes())
        (out / "trace.jsonl").write_bytes(result.trace_bytes())
        (out / "ledger.jsonl").write_bytes(result.ledger_bytes())
    print(format_report(result.report))
    violations = audit_run(scenario, result.trace, result.ledger_records)
    if violations:
        for v in violations:
            _err("audit", v)
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    print(
        f"ok {scenario.source.rsplit('/', 1)[-1]} nodes={len(scenario.nodes)} "
        f"links={len(scenario.links)} schedule={len(scenario.schedule)}"
    )
    return 0


def _cmd_dump_state(args: argparse.Namespace) -> int:
    sim = Simulator(_load(args))
    sim.run()
    for line in sim.dump_state():
        print(line)
    return 0


def _cmd_audit_ledger(args: argparse.Namespace) -> int:
    path = Path(args.ledger)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        _err("io", f"cannot read {path}: {exc.strerror or exc}")
        return 1
    records = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            _err("io", f"{path}:{i + 1}: not valid JSON: {exc.msg}")
            return 1
        problem = ledger_record_problem(record)
        if problem is not None:
            _err("io", f"{path}:{i + 1}: {problem}")
            return 1
        records.append(record)
    result = audit_ledger(records)
    if not result.ok:
        for v in result.violations:
            _err("audit", v)
        return 2
    print(f"ok records={result.records} minted={result.minted}")
    return 0


def _cmd_bench_pof(args: argparse.Namespace) -> int:
    if args.packet_bytes <= 0 or args.chunk_bytes <= 0 or args.hops <= 0:
        _err("usage", "packet-bytes, chunk-bytes and hops must be positive")
        return 1
    packets = signature_budget(args.chunk_bytes, args.packet_bytes, 1)
    groups = args.group if args.group else [1, packets]
    for group in groups:
        if group <= 0:
            _err("usage", f"group size {group} must be positive")
            return 1
    print(
        f"bench-pof packet_bytes={args.packet_bytes} "
        f"chunk_bytes={args.chunk_bytes} hops={args.hops} packets={packets}"
    )
    baseline = packets * args.hops
    for group in groups:
        ops_per_hop = signature_budget(args.chunk_bytes, args.packet_bytes, group)
        total = ops_per_hop * args.hops
        factor = baseline / total
        factor_text = str(int(factor)) if factor == int(factor) else f"{factor:.2f}"
        print(
            f"group={group} ops_per_hop={ops_per_hop} total={total} factor={factor_text}"
        )
    return 0


def _cmd_compare_payment(args: argparse.Namespace) -> int:
    scenario = _load(args)
    # Both variants are built, and so checked, before either runs.
    variants = [
        (mode, replace(scenario, defaults=replace(scenario.defaults, payment_mode=mode)))
        for mode in PAYMENT_MODES
    ]
    rows = []
    for mode, variant in variants:
        result = run_scenario(variant)
        violations = audit_run(variant, result.trace, result.ledger_records)
        if violations:
            for v in violations:
                _err("audit", f"{mode}: {v}")
            return 2
        pay = result.report["payments"]
        flows_done = sum(1 for f in result.report["flows"] if f["status"] == "done")
        rows.append(
            (mode, pay["channels_opened"], pay["updates"], pay["settlements"], flows_done)
        )
    print(f"compare-payment {scenario.source.rsplit('/', 1)[-1]} seed={scenario.seed}")
    print("mode      channels  updates  settlements  flows_done")
    for mode, channels, updates, settlements, done in rows:
        print(f"{mode:<9} {channels:>8} {updates:>8} {settlements:>12} {done:>11}")
    hop_channels, pay_channels = rows[0][1], rows[1][1]
    if hop_channels < pay_channels:
        print(f"hop-by-hop opens {pay_channels - hop_channels} fewer channels")
    else:
        print("hop-by-hop does not reduce channel count on this topology")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tollroute",
        description="price-aware forwarding simulator and toolbox",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run a scenario and print its summary")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", help="directory for report.json/trace.jsonl/ledger.jsonl")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--payment", choices=PAYMENT_MODES)
    run_p.set_defaults(fn=_cmd_run)

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("scenario")
    val_p.set_defaults(fn=_cmd_validate)

    dump_p = sub.add_parser("dump-state", help="run a scenario and dump node tables")
    dump_p.add_argument("scenario")
    dump_p.add_argument("--seed", type=int)
    dump_p.add_argument("--payment", choices=PAYMENT_MODES)
    dump_p.set_defaults(fn=_cmd_dump_state)

    led_p = sub.add_parser("audit-ledger", help="replay a ledger log")
    led_p.add_argument("ledger", help="path to a ledger.jsonl file")
    led_p.set_defaults(fn=_cmd_audit_ledger)

    bench_p = sub.add_parser("bench-pof", help="count proof signing work")
    bench_p.add_argument("--packet-bytes", type=int, default=1500)
    bench_p.add_argument("--chunk-bytes", type=int, default=2 * 1024 * 1024)
    bench_p.add_argument("--hops", type=int, default=3)
    bench_p.add_argument(
        "--group", type=int, action="append",
        help="packets per signed group (repeatable; default: 1 and whole chunk)",
    )
    bench_p.set_defaults(fn=_cmd_bench_pof)

    cmp_p = sub.add_parser("compare-payment", help="contrast the two payment modes")
    cmp_p.add_argument("--scenario", required=True)
    cmp_p.add_argument("--seed", type=int)
    cmp_p.set_defaults(fn=_cmd_compare_payment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        # Only building a scenario raises it, and each verb builds its
        # scenarios before it prints anything.
        for problem in exc.problems:
            _err("scenario", problem)
        return 1


if __name__ == "__main__":
    sys.exit(main())
