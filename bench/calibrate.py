"""A fixed calibration kernel that measures how fast the host is right now.

The reference host's speed drifts by up to 2x in stretches of 10 to 30
seconds, and CPU time drifts with wall time (see README.md, "Host
drift").  Timing this kernel while a repetition runs measures the
speed the repetition ran at; dividing by it turns a raw time into
seconds at the reference speed.

The kernel never calls the program, so a change to the program moves
the program's time and not the yardstick's.  Its work is shaped like
the program's: a heap of timed events held in frozen dataclasses, dict
tables, TLV frames packed and parsed with `struct`, formatted trace
records written as JSON lines and hashed, and Ed25519 signatures made
and verified, which take about half of the program's time.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import signal
import statistics
import struct
from dataclasses import dataclass
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# Median time of one kernel unit on the reference host in its faster
# stretches (2 vCPUs, Python 3.11.7, cryptography 48.0.0).  Scaling by
# it keeps normalised figures in seconds close to raw ones there.
REFERENCE_UNIT_S = 0.016
UNITS = 5
# Seconds of wall time between two kernel units inside a timed section.
INTERVAL_S = 0.2

_EVENTS = 1000
_SIGNATURES = 50
_KEY = Ed25519PrivateKey.from_private_bytes(hashlib.sha256(b"bench-calibrate").digest())
_PUB = _KEY.public_key()


@dataclass(frozen=True)
class _Event:
    node: int
    seq: int
    payload: bytes

    def __post_init__(self) -> None:
        if self.node < 0 or self.seq < 0:
            raise ValueError("negative field")


def _frame(event: _Event) -> bytes:
    body = struct.pack(">HQ", event.node, event.seq) + event.payload
    return struct.pack(">BH", 7, len(body)) + body


def _parse(frame: bytes) -> _Event:
    _tag, length = struct.unpack_from(">BH", frame)
    node, seq = struct.unpack_from(">HQ", frame, 3)
    return _Event(node, seq, frame[13:3 + length])


def _python_work() -> str:
    heap = [((i * 7919) % 10007, i, _Event(i % 64, i, bytes(24))) for i in range(_EVENTS)]
    heapq.heapify(heap)
    table: dict[int, int] = {}
    records = []
    while heap:
        at, _i, event = heapq.heappop(heap)
        got = _parse(_frame(event))
        table[got.node] = table.get(got.node, 0) + len(got.payload)
        records.append({"at_ms": at, "node": f"02-00-00-00-{got.node:02x}-{got.seq & 0xff:02x}",
                        "seq": got.seq, "bytes": table[got.node]})
    lines = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    return hashlib.sha256(lines.encode()).hexdigest()


def _crypto_work() -> None:
    for i in range(_SIGNATURES):
        message = struct.pack(">Q", i) * 12
        _PUB.verify(_KEY.sign(message), message)


def unit() -> float:
    """Seconds for one kernel unit."""
    start = perf_counter()
    _python_work()
    _crypto_work()
    return perf_counter() - start


def slowness() -> float:
    """The host's current slowness relative to the reference: the median
    of several kernel units over `REFERENCE_UNIT_S`.  A raw time divided
    by it is in seconds at the reference speed."""
    return statistics.median(unit() for _ in range(UNITS)) / REFERENCE_UNIT_S


class Sampled:
    """Times one kernel unit every `INTERVAL_S` seconds while the `with`
    block runs, from a SIGALRM handler, so the samples follow the host's
    speed through a section that lasts seconds.  `program_s` is the
    block's wall time without the kernel's; `slowness` is the harmonic
    mean of the units over `REFERENCE_UNIT_S`.  The samples are evenly
    spaced in wall time and the program's work per second is inverse to
    the unit's time, so the harmonic mean weighs each stretch by the
    work done in it; it gave a fifth less spread than the arithmetic
    mean over the same repetitions.  The program under test is pure
    computation, so the handler delays it by the kernel's time only."""

    def __init__(self) -> None:
        self.units: list[float] = []
        self.program_s = 0.0
        self.slowness = 0.0

    def _tick(self, _signum, _frame) -> None:
        self.units.append(unit())

    def __enter__(self) -> "Sampled":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.program_s = elapsed - sum(self.units)
        if not self.units:
            # Shorter than one interval: sample right after it.
            self.units.append(unit())
        self.slowness = statistics.harmonic_mean(self.units) / REFERENCE_UNIT_S
