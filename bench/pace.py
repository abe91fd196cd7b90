"""Machine-speed probes interleaved with the sweep's cells.

The speed of a shared virtual machine drifts: a fixed 0.5 s sweep repeated
for 200 s ran between 0.6x and 1.3x its median, in stretches of seconds to
tens of seconds, and process CPU time drifted with it, so the time lost is
not time the process waited for a CPU.  So the benchmark times a
fixed calibration loop, which does not touch qverify, next to the work it
measures, and reports every time rescaled to a machine that runs that loop
in ``REF_S`` seconds: a time t measured while the loop took p seconds is
reported as t * REF_S / p.

During a sweep the probe runs in each process that runs cells, before an
attempt of a cell once ``WINDOW_S`` has passed since the last probe (an
integral cell at q = 0.95 makes 40 attempts in 5-15 s).  The time between
two probes is rescaled by the mean of the two.  The probes' own time is
taken out of the sweep's wall time.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import numpy as np

# seconds one probe takes on a machine of reference speed; the median
# probe of a 2-vCPU 2.1 GHz Xeon virtual machine, Python 3.11, numpy 2.4
REF_S = 0.0027
# seconds from the end of one probe to the next
WINDOW_S = 0.25
# the loop runs this many times per probe, and the probe is the fastest
PROBE_REPS = 3

PACE_KEY = "_pace"

_THETAS = np.linspace(0.0, 3.0, 513)


def reference() -> complex:
    """Fixed work shaped like the sweep's: a scalar complex product loop and
    short complex numpy vectors."""
    x = 0.3 + 0.4j
    q = 0.8 + 0.1j
    acc = 1.0 + 0j
    for _ in range(5000):
        acc *= 1.0 - x
        acc /= 1.0 + 0.5 * x
        x *= q
    e = np.exp(1j * _THETAS)
    p = np.ones(_THETAS.shape, dtype=complex)
    for k in range(100):
        p *= 1.0 - (0.5 * 0.9 ** k) * e
    return acc + complex(np.sum(p))


def probe() -> float:
    """Seconds one run of the reference loop takes now (fastest of a few)."""
    best = float("inf")
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best


def rescale(seconds: float, probe_s: float) -> float:
    """Seconds measured while a probe took probe_s, at reference speed."""
    return seconds * REF_S / probe_s


class Pacer:
    """Probes between the attempts of the cells one process runs.

    ``install`` wraps ``cli.check``, which runs one attempt of a cell, so
    that a probe runs before an attempt once ``WINDOW_S`` has passed since
    the last probe ended; and ``cli.run_sweep_cell``, so that each cell's
    result carries the probes made during it home from a pool worker.
    """

    def __init__(self):
        self._last = None  # end of the last probe; None before the first
        self._records = []  # [start, end, probe seconds] since the last cell ended

    def install(self, cli):
        check, cell = cli.check, cli.run_sweep_cell

        @functools.wraps(check)
        def paced_check(*args, **kwargs):
            now = time.perf_counter()
            if self._last is None or now - self._last >= WINDOW_S:
                probe_s = probe()
                self._last = time.perf_counter()
                self._records.append([now, self._last, probe_s])
            return check(*args, **kwargs)

        @functools.wraps(cell)
        def paced_cell(*args, **kwargs):
            out = cell(*args, **kwargs)
            out[PACE_KEY] = [os.getpid(), self._records, time.perf_counter()]
            self._records = []
            return out

        cli.check, cli.run_sweep_cell = paced_check, paced_cell


def probes_s(record) -> float:
    """Seconds the probes of one cell's pace record took."""
    return sum(end - start for start, end, _ in record[1])


def speed_factor(records, final_probe=None) -> tuple[float, float]:
    """(REF_S over the probe, weighted by time; probe seconds per worker).

    ``records`` are the cells' pace records in the order of the sweep's
    reports; each worker's cells keep their order of execution there.  The
    time between two probes is weighed at the mean of the two; the time
    after a worker's last probe at that probe, or at the mean of it and
    ``final_probe``, a probe taken after a serial sweep.
    """
    workers = {}
    for pid, probes, cell_end in records:
        w = workers.setdefault(pid, {"probes": [], "end": cell_end})
        w["probes"] += probes
        w["end"] = cell_end
    weighted = total = cost = 0.0
    for w in workers.values():
        probes = w["probes"]
        if not probes:
            continue
        last = probes[-1][2] if final_probe is None else statistics.fmean((probes[-1][2], final_probe))
        spans = [(a[1], b[0], statistics.fmean((a[2], b[2]))) for a, b in zip(probes, probes[1:])]
        spans.append((probes[-1][1], w["end"], last))
        for start, end, probe_s in spans:
            weighted += (end - start) * REF_S / probe_s
            total += end - start
        cost += sum(end - start for start, end, _ in probes)
    factor = weighted / total if total else 1.0
    return factor, cost / len(workers)
