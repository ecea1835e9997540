"""Speed-scaled timing and in-memory spans.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds.  A fixed pure-Python probe, independent of the program, is
run between operations; every raw time is multiplied by the nominal probe
time over the probe times measured beside it, which reads as the time the
work would take on the reference machine.  Times are process CPU times
(all threads, so the ground prover's worker thread counts): a stretch of
time the scheduler hands to other processes is not charged to the
operation that happened to be running.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

#: CPU seconds of one ``_probe_body()`` call on the reference machine (2
#: vCPUs of a shared x86-64 host, CPython 3.11.7) in an ordinary period; a
#: raw time t reads as t * NOMINAL_PROBE_S / (probe time measured beside it)
NOMINAL_PROBE_S = 330e-6
#: the probe runs before an operation once this much raw time has passed
#: since the last probe
PROBE_EVERY_S = 0.02
#: probes on each side of an operation whose median scales it
PROBE_WINDOW = 8

clock = time.process_time


def _probe_body() -> int:
    """Interpreter work of the kind the provers do: small tuples and dicts,
    attribute and method calls, string building, sorting."""
    table: dict[tuple, int] = {}
    acc = 0
    for i in range(300):
        key = ("k", i % 29, i & 7)
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) + (i % 3 == 0)
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return acc + len(",".join(f"{k[1]}:{v}" for k, v in ordered))


def probe() -> float:
    """Median CPU time of three probe calls.  The cyclic garbage collector is
    paused meanwhile: the probe leaves no cycles, and a collection would
    charge it for the heap the program built."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = clock()
            _probe_body()
            times.append(clock() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


class Meter:
    """Times operations and interleaves probes; scales every time afterwards.

    ``timed(fn)`` runs fn, returns its result and records its raw time under
    the index of the probe that preceded it.  ``factor(k)`` is the scaling
    factor for the k-th recorded time.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.raw: list[float] = []
        self.at: list[int] = []
        self._since = PROBE_EVERY_S

    def timed(self, fn, *args):
        if self._since >= PROBE_EVERY_S:
            self.probes.append(probe())
            self._since = 0.0
        t0 = clock()
        out = fn(*args)
        dt = clock() - t0
        self._since += dt
        self.raw.append(dt)
        self.at.append(len(self.probes) - 1)
        return out

    def close(self) -> None:
        """Probe once more, so the last operation has a probe after it."""
        self.probes.append(probe())
        self._factors = self._window_factors()

    def _window_factors(self) -> list[float]:
        n = len(self.probes)
        out = []
        for j in range(n):
            window = self.probes[max(0, j - PROBE_WINDOW + 1) : min(n, j + PROBE_WINDOW + 1)]
            out.append(NOMINAL_PROBE_S / statistics.median(window))
        return out

    def factor(self, k: int) -> float:
        return self._factors[self.at[k]]

    def scaled(self, k: int) -> float:
        return self.raw[k] * self._factors[self.at[k]]

    def speed(self) -> float:
        """Median speed factor over the whole run (1.0 = reference machine)."""
        return statistics.median(self._factors)


class Tracer:
    """Spans around the benchmark's calls into the package, kept in memory.

    A span is (operation index, layer, start, end) in raw clock seconds; the
    operation index ties it to the timed operation that made the call and to
    that operation's scaling factor.  Untraced runs use ``call`` from
    ``NoTracer``, which adds nothing but a function call.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float]] = []
        self.op = -1

    def call(self, layer: str, fn, *args):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.op, layer, t0, clock()))

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


class NoTracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1

    @staticmethod
    def call(layer: str, fn, *args):
        return fn(*args)

