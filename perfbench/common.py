"""Helpers shared by the benchmark's parent process and its unit processes.

Nothing here imports cube_faultlab at module level: the parent decides
when the library is loaded, so interpreter start and import time land
in the measured set-up phase and nowhere else.
"""

from __future__ import annotations

import importlib
import resource
import signal
import statistics
import sys
import time
import zlib
from array import array
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_library():
    """Import cube_faultlab from this checkout's src/ and nowhere else.

    A copy installed elsewhere would measure the wrong code, so it is
    refused instead of used.
    """
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("cube_faultlab")
    where = Path(lib.__file__).resolve().parent.parent
    if where != SRC:
        raise ImportError(f"cube_faultlab was imported from {where}, not from {SRC}")
    return lib


def case_seed(*parts: object) -> int:
    """A per-case seed that does not depend on PYTHONHASHSEED."""
    return zlib.crc32(":".join(str(p) for p in parts).encode())


def peak_rss_mb() -> float:
    """This process's own peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The speed probe: every REF_PERIOD_S of wall time a SIGALRM handler times
# one run of reference_kernel.  REF_NOMINAL_S is roughly that kernel's time
# on the machine the benchmark was written on (2 vCPUs, Python 3.11.7); it
# only sets the scale of the normalised times.
REF_PERIOD_S = 0.02
REF_NOMINAL_S = 400e-6
REF_MIN_SAMPLES = 8


def reference_kernel() -> int:
    """Fixed pure-Python work with the library's mix: loops, calls, int bit
    operations on a 1024-bit integer, small sets and dicts."""
    acc, mask, seen, table = 0, (1 << 1024) - 1, set(), {}
    for i in range(1000):
        x = (i * 2654435761) & 0xFFFF
        acc = ((acc << 7) | x) & mask
        seen.add(x & 511)
        table[x & 63] = table.get(x & 63, 0) + 1
    return acc.bit_count() + len(seen) + len(table)


class SpeedProbe:
    """Samples how fast this process's CPU runs while library code runs.

    A shared host changes the speed of its virtual CPUs from second to
    second (a busy sibling hyperthread, contention for caches and memory),
    which moves wall times by tens of percent between runs of the same
    code.  Inside `with SpeedProbe() as probe:` a SIGALRM interrupts the
    main thread every REF_PERIOD_S and the handler times reference_kernel.
    The samples are uniform in wall time, so the mean of REF_NOMINAL_S /
    sample is the share of nominal speed the machine gave over the
    interval, and normalise(wall) rescales a wall time to nominal speed.
    `spent` is the handler's own time, which callers subtract from their
    wall times.  Child processes do not inherit the timer.
    """

    def __init__(self) -> None:
        self.samples = array("d")
        self.spent = 0.0

    def sample(self, count: int) -> "SpeedProbe":
        """Take count samples back to back, without the timer."""
        for _ in range(count):
            self._tick()
        return self

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # A short interval still gets a few samples, taken right after it.
        self.sample(REF_MIN_SAMPLES - len(self.samples))

    def speed(self) -> float:
        """Mean speed over the interval as a share of nominal speed."""
        return sum(REF_NOMINAL_S / s for s in self.samples) / len(self.samples)

    def normalise(self, wall_s: float) -> float:
        """wall_s rescaled to the nominal machine speed."""
        return wall_s * self.speed()


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100)[q - 1])


class Tracer:
    """In-memory spans recorded around calls into the library.

    A span is a dict with name, start, end (perf_counter seconds), the
    index of the enclosing span, and free-form attributes.  The spans
    stay in memory until the benchmark writes them out at the end.
    """

    def __init__(self, spans: list[dict] | None = None) -> None:
        self.spans: list[dict] = [] if spans is None else spans
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
            "start": time.perf_counter(),
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, annotate=None):
        """fn with a span around every call; annotate(result) adds attributes."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if annotate is not None:
                    rec["attrs"].update(annotate(out))
                return out

        return traced

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_s(self, name: str) -> float:
        """Time in spans called name, minus the time of their direct children."""
        own = {i for i, s in enumerate(self.spans) if s["name"] == name}
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in own
        )
        return self.total_s(name) - children

    def per_call_us(self, name: str) -> list[float]:
        """Per-call microseconds of each span called name.

        A span around a batch of repeated calls carries attrs["repeat"].
        """
        return [
            (s["end"] - s["start"]) * 1e6 / s["attrs"].get("repeat", 1)
            for s in self.named(name)
        ]
