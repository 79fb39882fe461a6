"""The benchmark's tracer finds every name it wraps.

bench/tracing.py wraps each layer's functions at the names callers look
up and silently skips a name the program no longer has, which would read
as a per-layer count of 0.  This loads that file by path, without
importing or writing anything under bench/, and checks every target.
"""

from __future__ import annotations

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_every_traced_name_exists() -> None:
    tracing = _load_tracing()
    targets = tracing._targets(tracing.Tracer())
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _ in targets
        if name not in vars(owner)
    ]
    assert missing == []
