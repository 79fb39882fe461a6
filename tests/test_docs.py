"""The scenario, run-artifact and state-dump docs must match the code:
every key the loader accepts, every key a report carries and every key a
table dump prints is documented, with the defaults the code uses."""

from dataclasses import fields
from pathlib import Path

import pytest

from tollroute.cli import _resolve_scenario
from tollroute.scenario import Defaults, LinkSpec, NodeSpec, ServeSpec
from tollroute.simnet import run_scenario
from tollroute.tables import NodeTables
from tollroute.wire import Name, NodeAddr

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _doc_table(doc: str, marker: str) -> list[list[str]]:
    """Body rows of the first table after the line `marker`."""
    lines = (DOCS / doc).read_text(encoding="utf-8").splitlines()
    i = lines.index(marker) + 1
    while not lines[i].startswith("|"):
        i += 1
    rows = []
    while i < len(lines) and lines[i].startswith("|"):
        rows.append([cell.strip() for cell in lines[i].strip().strip("|").split("|")])
        i += 1
    return rows[2:]


def _names(section) -> list[str]:
    return [f.name for f in fields(section)]


class TestScenarioDoc:
    def test_defaults_table_lists_every_default_in_order(self):
        doc = [(key, default) for key, default, _ in _doc_table("scenario-format.md", "## defaults")]
        assert doc == [(f.name, str(f.default)) for f in fields(Defaults)]

    def test_node_keys(self):
        doc = [row[0] for row in _doc_table("scenario-format.md", "## nodes")]
        assert doc == _names(NodeSpec)

    def test_serve_keys(self):
        doc = [row[0] for row in _doc_table("scenario-format.md", "Each `serves` entry:")]
        assert doc == _names(ServeSpec)

    def test_link_forms_add_one_field_each(self):
        lines = (DOCS / "scenario-format.md").read_text(encoding="utf-8").splitlines()
        section = lines[lines.index("## links") + 1:]
        section = section[:next(i for i, line in enumerate(section) if line.startswith("## "))]
        forms = [line.strip() for line in section if line.startswith("    [")]
        names = _names(LinkSpec)
        assert forms == [f"[{', '.join(names[:n])}]" for n in range(2, len(names) + 1)]


class TestRunArtifactsDoc:
    @classmethod
    def setup_class(cls):
        cls.report = run_scenario(_resolve_scenario("fig1.scn")).report

    def test_top_level_report_keys(self):
        doc = [row[0] for row in _doc_table("run-artifacts.md", "## report.json")]
        assert sorted(doc) == sorted(self.report)

    def test_flow_entry_keys(self):
        doc = [row[0] for row in _doc_table("run-artifacts.md", "Each flow entry:")]
        assert self.report["flows"]
        for flow in self.report["flows"]:
            assert sorted(doc) == sorted(flow)


class TestStateDumpDoc:
    @pytest.mark.parametrize("table", ["pit", "fib", "cs", "liveness"])
    def test_table_keys_in_dump_order(self, table):
        tables = NodeTables()
        hop = NodeAddr.parse("02-00-00-00-00-0b")
        name = Name((b"video", b"clip"), chunk_index=0)
        tables.pit.insert(name, hop, b"\x01" * 8, 0, 4_000_000)
        tables.fib.update(name, hop, 12)
        tables.cs.insert(name, b"payload")
        tables.keepalive_heard(hop, 0)
        (line,) = [line for line in tables.dump(0) if line.startswith(f"{table} ")]
        printed = [field.split("=", 1)[0] for field in line.split()[1:]]
        doc = [row[0] for row in _doc_table("state-dump.md", f"## {table}")]
        assert doc == printed
