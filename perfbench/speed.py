"""Host speed, sampled inside the measured process while it runs.

On a shared host the same work can take twice as long from one second
to the next, because other tenants contend for the CPU (on the 2-vCPU
host this was built on, a fixed loop ran 15-29 ms within one minute).
A timing taken across such swings says more about the neighbours than
about the program. So each measured process runs a fixed loop of
``SAMPLE_ITERATIONS`` on a ``SAMPLE_PERIOD_S`` interval timer
(``SIGALRM``) and records how long it took: that loop meets the same
contention as the program at the same moments, on the same CPU.

:func:`corrected` rescales a raw time to a host on which that loop
takes ``REFERENCE_SAMPLE_S``. The loop costs about 1% of the process's
CPU. Raw times are printed next to the corrected ones.
"""

from __future__ import annotations

import json
import pathlib
import signal
import statistics
import time

SAMPLE_PERIOD_S = 0.02
SAMPLE_ITERATIONS = 2000
#: The loop's duration on the reference host: the uncontended speed of
#: the 2-vCPU Xeon container the baselines were taken on.
REFERENCE_SAMPLE_S = 200e-6


class SpeedSampler:
    """Times the fixed loop on every ``SIGALRM`` of an interval timer.

    Timers are not inherited across ``fork``, so forked workers do not
    sample (the handler they inherit never fires).
    """

    def __init__(self) -> None:
        #: (time.monotonic() at the sample, loop seconds)
        self.samples: list[tuple[float, float]] = []

    def _probe(self, signum, frame) -> None:
        started = time.perf_counter()
        value = 0
        for index in range(SAMPLE_ITERATIONS):
            value = (value * 31 + index) & 0xFFFFFFF
        self.samples.append((time.monotonic(), time.perf_counter() - started))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def write(self, path: pathlib.Path) -> None:
        path.write_text(json.dumps(self.samples))


def load(path: pathlib.Path) -> list[tuple[float, float]]:
    return [tuple(sample) for sample in json.loads(path.read_text())]


def mean_between(samples: list[tuple[float, float]], start: float,
                 end: float) -> float:
    """Mean loop time of the samples taken in [start, end]."""
    inside = [took for at, took in samples if start <= at <= end]
    if not inside:
        raise RuntimeError("no speed samples in the measured interval")
    return statistics.fmean(inside)


def corrected(raw: float, mean_sample_s: float) -> float:
    """``raw`` rescaled to the reference host's speed."""
    return raw * REFERENCE_SAMPLE_S / mean_sample_s
