"""Host speed, sampled through the run, to scale the benchmark's times.

The benchmark's host is a few vCPUs of a shared machine whose speed swings
by up to 1.9x, over stretches of seconds to minutes, as other tenants load
it (CPU time equals wall time, so the process is not descheduled: it runs
slower).  A run of the program's code on a slow stretch reads slow however
the run is arranged, so its times would spread across runs by more than a
regression the benchmark must catch.

:class:`SpeedProbe` measures the host instead of guessing it: a timer
signal interrupts the process every ``INTERVAL`` seconds and runs a fixed
piece of interpreter work (:func:`probe_work`: a random walk over lists
of about 4 MB with float sums and dict lookups, none of it the program's
code, and allocating nothing the garbage collector tracks but the one
tuple a probe records, so the program's collections fall where they
would without it).  Its duration is the host's current speed.
:meth:`SpeedProbe.now` is a clock that leaves the probes' own time out,
and :meth:`SpeedProbe.scaled` turns an interval of it into seconds at
reference speed: the interval times ``REFERENCE_S`` over the median probe
duration around it, so a stretch at half speed counts its time half.
The probe is not the program, so a change to the program moves the
scaled times as it moves the wall-clock ones.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

#: seconds between probes; each takes about 2.5 ms, so they cost about 1%
INTERVAL = 0.25
#: probe duration at reference speed: about the median probe on a 2-vCPU
#: Xeon (Sapphire Rapids) KVM guest, so scaled times there read close to
#: wall-clock times
REFERENCE_S = 2.5e-3
#: probes on either side of an interval that set its speed
MARGIN_S = 1.0

_SIZE = 1 << 16


def _cycle(size: int) -> list[int]:
    """``next[i]``: one random cycle through all of ``range(size)``."""
    order = list(range(size))
    rng = random.Random(0)
    for i in range(size - 1, 0, -1):  # Sattolo: a single cycle
        j = rng.randrange(i)
        order[i], order[j] = order[j], order[i]
    return order


_NEXT = _cycle(_SIZE)
_WEIGHT = [i * 0.5 for i in range(_SIZE)]
_KEYS = [f"k{i}" for i in range(0, _SIZE, 97)]
_INDEX = {key: int(key[1:]) for key in _KEYS}
STEPS = 800


def probe_work(steps: int = STEPS) -> float:
    """A fixed amount of interpreter work that chases pointers and looks up
    keys the way the program's graph walks do."""
    total = 0.0
    at = 0
    keys = len(_KEYS)
    for i in range(steps):
        for _ in range(4):
            at = _NEXT[at]
            total += _WEIGHT[at]
        total += _WEIGHT[_INDEX[_KEYS[i % keys]]]
    return total


class SpeedProbe:
    """Probe the host's speed through a ``with`` block (main thread only)."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.spent = 0.0
        #: (probe start on :meth:`now`'s clock, probe seconds), in order
        self.probes: list[tuple[float, float]] = []
        self._previous = None

    def now(self) -> float:
        """Seconds on a clock that stops while a probe runs."""
        return time.perf_counter() - self.spent

    def _probe(self, signum, frame) -> None:
        at = self.now()
        began = time.perf_counter()
        probe_work()
        took = time.perf_counter() - began
        self.probes.append((at, took))
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._probe(signal.SIGALRM, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_seconds(self, start: float, end: float) -> float:
        """Median probe duration from ``MARGIN_S`` before ``start`` to
        ``MARGIN_S`` after ``end``, or over the five probes nearest to the
        interval when fewer fall in that window."""
        low = bisect.bisect_left(self.probes, (start - MARGIN_S,))
        high = bisect.bisect_right(self.probes, (end + MARGIN_S,))
        if high - low < 5:
            middle = bisect.bisect_left(self.probes, ((start + end) / 2,))
            low = max(0, min(middle - 2, len(self.probes) - 5))
            high = low + 5
        return statistics.median(took for _, took in self.probes[low:high])

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed of the interval ``start``..``end`` of
        :meth:`now`'s clock.  The interval is cut at every probe inside it
        and each piece scaled by the speed around that piece, so the speed
        may change during a long interval (a build)."""
        inside = self.probes[
            bisect.bisect_right(self.probes, (start,)) :
            bisect.bisect_left(self.probes, (end,))
        ]
        edges = [start, *(at for at, _ in inside), end]
        return sum(
            (high - low) * REFERENCE_S / self.probe_seconds(low, high)
            for low, high in zip(edges, edges[1:])
        )

    def host_speed(self) -> float:
        """The run's median speed as a share of reference speed."""
        return REFERENCE_S / statistics.median(took for _, took in self.probes)
