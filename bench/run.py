"""End-to-end and per-layer benchmark for tollroute.

    python3 bench/run.py --workload {line-bulk,grid-relay,star-swarm}
                         --seed N --seconds S --trace {0,1} [--smoke]

Generates the workload's `.scn` file from the seed, then repeats what
`tollroute run --out` does (load the scenario, simulate, audit, and
serialise report, trace and ledger) for S seconds after a warm-up, and
checks every repetition's outputs (see checks.py).  Each repetition is
timed as two parts:

  setup_s   `load_scenario` plus `Simulator(...)`, done several times per
            repetition; the median over all of them is reported
  run_s     `Simulator.run()`, `audit_run` and the three serialisations

In the untraced run both are scaled to the reference host's speed,
which a calibration kernel timed around and during each repetition
measures (see calibrate.py).

The untraced run (--trace 0) prints the medians of setup_s, run_s,
pkts_per_s (content packets delivered per second of run_s) and the
process's peak_rss_mb.  The traced run (--trace 1) alternates untraced
and traced repetitions and prints the per-layer counts and self times
of the traced ones (see tracing.py) plus the tracing overhead.  --smoke
runs tiny sizes, one repetition, with every check.

The last line of standard output is one JSON object with the keys
correct, attempted (fetches), failed (fetches) and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

SETUPS_PER_REP = 5
MIN_REPS = 3


def _import_program():
    if not (SRC_DIR / "tollroute" / "__init__.py").is_file():
        sys.exit(f"error: no tollroute sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import tollroute.audit
    import tollroute.scenario
    import tollroute.simnet

    return tollroute


class Bench:
    """One workload's repetitions and the tallies of their checks."""

    def __init__(self, program, workload: workloads.Workload, path: Path) -> None:
        self.program = program
        self.workload = workload
        self.path = str(path)
        self.digests: tuple[bytes, ...] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.repeatable = True

    def repetition(self, setups: int = SETUPS_PER_REP, calibrated: bool = False) -> dict:
        """One repetition.  A calibrated one also measures the host's
        slowness (calibrate.py): right before the setups for them, and
        throughout the run for it; its `run_s` leaves out the kernel's
        time.  Traced repetitions are not calibrated, so no kernel time
        falls inside a span."""
        # Attribute lookups go through the modules at call time, so the
        # tracer's wrappers apply whenever they are installed.
        scenario_mod = self.program.scenario
        simnet, audit = self.program.simnet, self.program.audit
        gc.collect()
        setup_slowness = calibrate.slowness() if calibrated else 1.0
        setup_s = []
        for _ in range(setups):
            t0 = perf_counter()
            scenario = scenario_mod.load_scenario(self.path)
            sim = simnet.Simulator(scenario)
            setup_s.append(perf_counter() - t0)
        host = calibrate.Sampled() if calibrated else contextlib.nullcontext()
        with host:
            t0 = perf_counter()
            result = sim.run()
            t1 = perf_counter()
            violations = audit.audit_run(scenario, result.trace, result.ledger_records)
            artifacts = (result.report_bytes(), result.trace_bytes(), result.ledger_bytes())
            t2 = perf_counter()
        self._check(sim, result.report, violations, artifacts)
        return {
            "setup_s": setup_s,
            "setup_slowness": setup_slowness,
            "run_s": host.program_s if calibrated else t2 - t0,
            "run_slowness": host.slowness if calibrated else 1.0,
            "sim_s": t1 - t0,
            "delivered": sum(f["received"] for f in result.report["flows"]),
            "trace_records": len(result.trace),
            "ledger_records": len(result.ledger_records),
        }

    def _check(self, sim, report: dict, violations: list[str], artifacts) -> None:
        payloads = {
            (str(flow.node), str(flow.name)): dict(flow.received) for flow in sim.flows.values()
        }
        failed, problems = checks.check_repetition(self.workload, report, payloads, violations)
        digests = tuple(hashlib.sha256(a).digest() for a in artifacts)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            failed = len(self.workload.fetches)
            problems.append("report, trace or ledger bytes differ from the first repetition")
        self.attempted += len(self.workload.fetches)
        self.failed += failed
        self.problems += problems


def _write_scenario(workload: workloads.Workload, path: Path) -> Path:
    import yaml

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(workload.doc, sort_keys=False), encoding="utf-8")
    return path


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _more(done: int, min_reps: int, deadline: float, last_s: float) -> bool:
    """Another repetition while under the minimum, or while it would end
    closer to the deadline than stopping now."""
    return done < min_reps or perf_counter() + last_s / 2 < deadline


def _untraced(main: Bench, deadline: float, min_reps: int) -> dict[str, tuple[float, str]]:
    reps, last_s = [], 0.0
    while _more(len(reps), min_reps, deadline, last_s):
        t0 = perf_counter()
        reps.append(main.repetition(calibrated=True))
        last_s = perf_counter() - t0
    setups = [s / r["setup_slowness"] for r in reps for s in r["setup_s"]]
    run_s = [r["run_s"] / r["run_slowness"] for r in reps]
    rates = [r["delivered"] / t for r, t in zip(reps, run_s)]
    for i, r in enumerate(reps):
        print(f"repetition {i}: raw run {r['run_s']:.4f} s, host slowness {r['run_slowness']:.3f}, "
              f"run {run_s[i]:.4f} s")
    for name, values, unit in (("setup_s", setups, "s"), ("run_s", run_s, "s"),
                               ("pkts_per_s", rates, "1/s")):
        q1, q2, q3 = _quartiles(values)
        print(f"{name:<12} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{'peak_rss_mb':<12} {peak_mb:.6g} MB")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "pkts_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _traced(main: Bench, deadline: float, min_reps: int) -> dict[str, tuple[float, str]]:
    plain, layered, last_s = [], [], 0.0
    while _more(len(layered), min_reps, deadline, last_s):
        t0 = perf_counter()
        plain.append(main.repetition(setups=1))
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            rep = main.repetition(setups=1)
        finally:
            uninstall()
        layered.append((rep, tracing.layer_metrics(
            tracer, rep["sim_s"], rep["trace_records"], rep["ledger_records"])))
        last_s = perf_counter() - t0
    metrics = {}
    for name, (_value, unit) in layered[0][1].items():
        values = [m[name][0] for _rep, m in layered]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            # Counts and ratios are deterministic: every traced
            # repetition must give the same ones.
            if len(set(values)) != 1:
                main.problems.append(f"{name} differs between traced repetitions: {values}")
                main.repeatable = False
            metrics[name] = (values[0], unit)
    overhead = (statistics.median(r["run_s"] for r, _m in layered)
                - statistics.median(r["run_s"] for r in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:.6g} {unit}")
    print(f"traced repetitions {len(layered)}, untraced {len(plain)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repetition")
    args = parser.parse_args(argv)

    program = _import_program()
    generate = workloads.GENERATORS[args.workload]
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    tag = "smoke" if args.smoke else "full"
    workload = generate(args.seed, sizes)
    main_bench = Bench(program, workload, _write_scenario(
        workload, OUT_DIR / f"{args.workload}-{tag}-seed{args.seed}.scn"))
    print(f"workload {args.workload} seed {args.seed} fetches {len(workload.fetches)} "
          f"per repetition, {tag} sizes")

    # Warm-up: a smoke-sized run of the same workload takes every code
    # path once, so no timed repetition pays first-call costs.
    warm = generate(args.seed, workloads.SMOKE)
    warm_bench = Bench(program, warm, _write_scenario(
        warm, OUT_DIR / f"{args.workload}-warmup-seed{args.seed}.scn"))
    warm_bench.repetition(setups=1)
    calibrate.unit()

    min_reps = 1 if args.smoke else MIN_REPS
    deadline = perf_counter() + args.seconds
    if args.trace:
        metrics = _traced(main_bench, deadline, min_reps)
    else:
        metrics = _untraced(main_bench, deadline, min_reps)

    attempted = warm_bench.attempted + main_bench.attempted
    failed = warm_bench.failed + main_bench.failed
    for problem in (warm_bench.problems + main_bench.problems)[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and main_bench.repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
