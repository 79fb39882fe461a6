"""Command line contract: verb behavior, exit codes, stderr error
prefixes, and the pinned (golden) stdout of the bundled scenarios."""

import json
import shutil
from pathlib import Path

import pytest

from tollroute.cli import main

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "tollroute" / "scenarios"

FIG1_GOLDEN = """\
run fig1.scn seed=1 duration_ms=1000 payment=hopbyhop
flow /video/clip @ 02-00-00-00-00-0a: done 1/1 price=15 latency_ms=270 route=02-00-00-00-00-0a->02-00-00-00-00-0b->02-00-00-00-00-0c
modes source_routed=1 min_cost=0 rediscovery=0
signatures produced=2 verified=2
payments channels=2 updates=2 settlements=2 conserved=true
income 02-00-00-00-00-0a=-15 02-00-00-00-00-0b=+3 02-00-00-00-00-0c=+12
"""

FIG6_GOLDEN = """\
run fig6.scn seed=6 duration_ms=1000 payment=hopbyhop
flow /sensor/feed @ 02-00-00-00-00-1a: done 1/1 price=10 latency_ms=280 route=02-00-00-00-00-1a->02-00-00-00-00-1b->02-00-00-00-00-1c->02-00-00-00-00-1d
modes source_routed=2 min_cost=0 rediscovery=0
signatures produced=3 verified=3
payments channels=3 updates=3 settlements=3 conserved=true
income 02-00-00-00-00-1a=-10 02-00-00-00-00-1b=+5 02-00-00-00-00-1c=+2 02-00-00-00-00-1d=+3
"""

BENCH_GOLDEN = """\
bench-pof packet_bytes=1500 chunk_bytes=2097152 hops=3 packets=1399
group=1 ops_per_hop=1399 total=4197 factor=1
group=1399 ops_per_hop=1 total=3 factor=1399
"""


class TestRun:
    def test_fig1_golden_stdout(self, capsys):
        assert main(["run", "fig1.scn"]) == 0
        assert capsys.readouterr().out == FIG1_GOLDEN

    def test_fig6_golden_stdout(self, capsys):
        assert main(["run", "fig6.scn"]) == 0
        assert capsys.readouterr().out == FIG6_GOLDEN

    def test_out_dir_gets_all_three_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["run", "fig1.scn", "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "fig1.scn"
        trace_lines = (out / "trace.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in trace_lines)
        ledger_lines = (out / "ledger.jsonl").read_text().splitlines()
        assert json.loads(ledger_lines[0])["op"] == "mint"

    def test_seed_override_lands_in_report(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "fig1.scn", "--seed", "99", "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "report.json").read_text())["seed"] == 99

    def test_unknown_scenario_exits_one_with_prefixed_error(self, capsys):
        assert main(["run", "does-not-exist.scn"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[scenario]:")

    def test_every_bundled_scenario_runs_clean(self, capsys):
        for scn in sorted(p.name for p in BUNDLED.glob("*.scn")):
            assert main(["run", scn]) == 0, scn
        capsys.readouterr()


class TestValidate:
    def test_bundled_scenario_validates(self, capsys):
        assert main(["validate", "diamond.scn"]) == 0
        assert capsys.readouterr().out.startswith("ok diamond.scn")

    def test_invalid_scenario_lists_every_problem(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            "version: 9\n"
            "seed: 1\n"
            "duration_ms: 100\n"
            "nodes:\n"
            "  - addr: 02-00-00-00-00-01\n"
            "    cost: 0\n"
            "links:\n"
            "  - [02-00-00-00-00-01, 02-00-00-00-00-01]\n"
            "schedule: []\n"
        )
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.count("error[scenario]:") >= 2

    def test_scenario_dir_env_resolution(self, tmp_path, capsys, monkeypatch):
        shutil.copy(BUNDLED / "fig1.scn", tmp_path / "renamed.scn")
        monkeypatch.setenv("TOLLROUTE_SCENARIO_DIR", str(tmp_path))
        assert main(["validate", "renamed.scn"]) == 0
        assert capsys.readouterr().out.startswith("ok renamed.scn")


def unfundable(tmp_path, payment_mode):
    """A 3-node line whose nodes cannot fund a 500-token deposit per link
    under hop-by-hop payment."""
    path = tmp_path / f"poor-{payment_mode}.scn"
    path.write_text(
        "version: 1\n"
        "duration_ms: 100\n"
        f"defaults: {{payment_mode: {payment_mode}, account_balance: 10, channel_deposit: 500}}\n"
        "nodes:\n"
        "  - {addr: 02-00-00-00-00-01}\n"
        "  - {addr: 02-00-00-00-00-02}\n"
        "  - {addr: 02-00-00-00-00-03}\n"
        "links:\n"
        "  - [02-00-00-00-00-01, 02-00-00-00-00-02]\n"
        "  - [02-00-00-00-00-02, 02-00-00-00-00-03]\n"
        "schedule: []\n"
    )
    return str(path)


UNFUNDABLE_ERRORS = (
    "error[scenario]: node 02-00-00-00-00-01 must fund 500 in channel deposits but holds 10\n"
    "error[scenario]: node 02-00-00-00-00-02 must fund 1000 in channel deposits but holds 10\n"
    "error[scenario]: node 02-00-00-00-00-03 must fund 500 in channel deposits but holds 10\n"
)


class TestUnfundableScenario:
    """A scenario that cannot fund its hop-by-hop channels fails to load,
    so every verb reports it the same way instead of crashing in a run."""

    @pytest.mark.parametrize(
        "verb, mode, extra",
        [
            ("validate", "hopbyhop", []),
            ("run", "hopbyhop", []),
            ("dump-state", "hopbyhop", []),
            ("compare-payment", "hopbyhop", []),
            ("run", "payall", ["--payment", "hopbyhop"]),
            ("dump-state", "payall", ["--payment", "hopbyhop"]),
            ("compare-payment", "payall", []),
        ],
    )
    def test_every_verb_reports_the_funding_rule(self, tmp_path, capsys, verb, mode, extra):
        scn = unfundable(tmp_path, mode)
        args = [verb, "--scenario", scn] if verb == "compare-payment" else [verb, scn]
        assert main(args + extra) == 1
        out = capsys.readouterr()
        assert out.err == UNFUNDABLE_ERRORS
        assert out.out == ""

    def test_pay_all_file_needs_no_channel_deposits(self, tmp_path, capsys):
        assert main(["validate", unfundable(tmp_path, "payall")]) == 0
        assert capsys.readouterr().out.startswith("ok poor-payall.scn")


class TestSeedOverride:
    """A --seed override meets the loader's seed rule before anything runs."""

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "fig1.scn"],
            ["dump-state", "fig1.scn"],
            ["compare-payment", "--scenario", "fig1.scn"],
        ],
    )
    def test_negative_seed_is_refused(self, capsys, args):
        assert main(args + ["--seed", "-7"]) == 1
        out = capsys.readouterr()
        assert out.err == "error[scenario]: seed must be >= 0, got -7\n"
        assert out.out == ""


class TestDumpState:
    def test_fig6_final_tables(self, capsys):
        assert main(["dump-state", "fig6.scn"]) == 0
        out = capsys.readouterr().out
        assert "node 02-00-00-00-00-1a" in out
        assert (
            "fib prefix=/sensor/feed hop=02-00-00-00-00-1b enabled=true "
            "window_min=10 samples=1" in out
        )


class TestAuditLedger:
    def write_ledger(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "fig6.scn", "--out", str(out)]) == 0
        capsys.readouterr()
        return out / "ledger.jsonl"

    def test_clean_ledger_passes(self, tmp_path, capsys):
        ledger = self.write_ledger(tmp_path, capsys)
        assert main(["audit-ledger", str(ledger)]) == 0
        assert capsys.readouterr().out.startswith("ok records=")

    def test_tampered_ledger_exits_two(self, tmp_path, capsys):
        ledger = self.write_ledger(tmp_path, capsys)
        records = [json.loads(l) for l in ledger.read_text().splitlines()]
        for rec in records:
            if rec["op"] == "update":
                rec["balance_a"] += 7
                break
        ledger.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["audit-ledger", str(ledger)]) == 2
        assert "error[audit]:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, problem",
        [
            ('{"op":"mint","account":"a"}', "mint record needs int field 'amount'"),
            ('{"op":"settle","channel":"c","sequence":1,"balance_a":"9","balance_b":1}',
             "settle record needs int field 'balance_a'"),
            ("[1,2]", "not a JSON object"),
        ],
    )
    def test_malformed_record_exits_one_naming_its_line(self, tmp_path, capsys, line, problem):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text('{"op":"mint","account":"a","amount":5}\n' + line + "\n")
        assert main(["audit-ledger", str(ledger)]) == 1
        assert capsys.readouterr().err == f"error[io]: {ledger}:2: {problem}\n"

    def test_missing_file_exits_one(self, capsys):
        assert main(["audit-ledger", "/nonexistent/ledger.jsonl"]) == 1
        assert capsys.readouterr().err.startswith("error[io]:")

    def test_negative_balance_exits_two(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(
            '{"op":"mint","account":"a","amount":5}\n'
            '{"op":"mint","account":"b","amount":5}\n'
            '{"op":"open","channel":"ch:a:b","party_a":"a","party_b":"b",'
            '"deposit_a":5,"deposit_b":5}\n'
            '{"op":"update","channel":"ch:a:b","sequence":1,"balance_a":-90,"balance_b":100}\n'
            '{"op":"settle","channel":"ch:a:b","sequence":1,"balance_a":-90,"balance_b":100}\n'
        )
        assert main(["audit-ledger", str(ledger)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error[audit]: record 3: update balance goes negative on ch:a:b\n"
            "error[audit]: record 4: settle balance goes negative on ch:a:b\n"
        )


class TestBenchPof:
    def test_default_sizes_golden(self, capsys):
        assert main(["bench-pof"]) == 0
        assert capsys.readouterr().out == BENCH_GOLDEN

    def test_bad_group_prints_nothing_but_the_error(self, capsys):
        assert main(["bench-pof", "--group", "4", "--group", "0"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error[usage]: group size 0 must be positive\n"

    def test_exact_factor_reduction(self, capsys):
        args = ["bench-pof", "--chunk-bytes", "96000"]
        for n in (1, 4, 16, 64):
            args += ["--group", str(n)]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        factors = {}
        for line in lines[1:]:
            fields = dict(part.split("=") for part in line.split())
            factors[int(fields["group"])] = fields["factor"]
        assert factors == {1: "1", 4: "4", 16: "16", 64: "64"}


class TestComparePayment:
    def test_mesh10_hop_by_hop_strictly_fewer_channels(self, capsys):
        assert main(["compare-payment", "--scenario", "mesh10.scn"]) == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in ("hopbyhop", "payall"):
                rows[parts[0]] = [int(x) for x in parts[1:]]
        assert rows["hopbyhop"][0] < rows["payall"][0]
        assert rows["hopbyhop"][3] == rows["payall"][3] == 10
        assert "fewer channels" in out
