"""List the lines of `src/tollroute/` that the test suite leaves unrun.

    python3 tools/linecov.py [pytest arguments]

Runs pytest in this process (by default `-q -p no:cacheprovider` over the
configured test paths) under a `sys.settrace` line collector that
watches only files under `src/tollroute/`, then prints, per file, the
executable lines that never ran and a total.  A line is executable when
the compiled module maps some instruction to it.  Uses the standard
library only, so it needs no coverage package.  It exits with pytest's
status when that is not 0, and with 1 when any line is unrun, so every
`src/` line must run under the tests.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tollroute"


def executable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(numbers: list[int]) -> str:
    """[1, 2, 3, 7] -> '1-3, 7'."""
    runs: list[list[int]] = []
    for n in numbers:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # A frame starts at its call event, at the code object's first
        # line (line 0 for a module), which gets no line event.
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_unrun = total_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - ran.get(str(path), set()))
        total_lines += len(lines)
        total_unrun += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {len(unrun)} unrun: {spans(unrun)}")
    print(f"total: {total_unrun} unrun of {total_lines} executable lines")
    return int(status) or int(total_unrun > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
