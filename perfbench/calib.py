"""Host-speed calibration and calibrated timing.

Host speed on a shared machine drifts by tens of percent within seconds, so
raw wall time says as much about the neighbours as about the code. Every
host-time metric is therefore reported at a fixed reference speed:

    normalized = raw * REFERENCE_CALIB_S / calib

``calib`` is the mean time of one calibration unit, measured right before
the block, right after it and, for blocks longer than ``SAMPLE_INTERVAL_S``,
also during it: a timer signal runs one unit in the main thread at that
interval, and the time spent in those units is taken out of the block's raw
time. Calibration only at the ends of a long block tracks the host worse
than no calibration at all (see README.md), because the host's speed
changes within the block.

A calibration unit is a pure-Python loop plus small numpy argsorts and
cumsums; it calls no ``tinydes`` code, so a change to the program cannot
change the yardstick.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Mean time of one calibration unit on the reference host (shared 2-core x86-64
# virtual machine, Python 3.11, numpy 2.4); normalized times read as seconds there.
REFERENCE_CALIB_S = 0.0009

CALIB_SPAN = "calib.sample"  # span name of a calibration unit run inside a traced block
WINDOW_UNITS = 5  # units measured before and after every block
SAMPLE_INTERVAL_S = 0.1  # one unit per interval while a block runs

# The mix follows the code it calibrates: numpy call overhead on tiny arrays
# (the engine, load_tiny), one larger sort (split search) and interpreter work.
_LOOP = 2000
_SMALL = [np.random.default_rng(i).random(16) for i in range(40)]
_LARGE = np.random.default_rng(99).random(4096)

# process_time may exceed thread_time by clock granularity, never by real work.
_CPU_SLACK_S = 0.002
_CPU_SLACK_SHARE = 0.05


class CalibrationError(RuntimeError):
    """Calibration ran while another thread of the process did work."""


def calibration_work() -> float:
    acc = 0
    for i in range(_LOOP):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    total = float(acc)
    for a in _SMALL + [_LARGE]:
        total += float(np.cumsum(a[np.argsort(a, kind="stable")])[-1])
    return total


def check_single_thread(process_s: float, thread_s: float, what: str) -> None:
    """Raise unless the process used no more CPU than the calling thread."""
    if process_s > thread_s * (1.0 + _CPU_SLACK_SHARE) + _CPU_SLACK_S:
        raise CalibrationError(
            f"{what}: process CPU {process_s:.4f} s exceeds thread CPU {thread_s:.4f} s; "
            "another thread worked during calibration, so normalized times would be flattered")


def measure_window(units: int = WINDOW_UNITS) -> list:
    """Times of ``units`` back-to-back calibration units, in seconds."""
    p0, t0 = time.process_time(), time.thread_time()
    times = []
    for _ in range(units):
        start = time.perf_counter()
        calibration_work()
        times.append(time.perf_counter() - start)
    check_single_thread(time.process_time() - p0, time.thread_time() - t0, "calibration")
    return times


def speed_factor(samples, reference: float = REFERENCE_CALIB_S) -> float:
    """Multiplier taking a raw time to the reference host's speed."""
    return reference / statistics.fmean(samples)


class Sampler:
    """Runs one calibration unit per interval of wall time, from a timer
    signal, while a block of work runs in the main thread."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S, tracer=None):
        self.interval = interval
        self.tracer = tracer
        self.samples: list = []
        self.busy = 0.0  # wall seconds spent in the signal handler
        self.process_s = 0.0
        self.thread_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        enter = time.perf_counter()
        p0, t0 = time.process_time(), time.thread_time()
        if self.tracer is None:
            calibration_work()
        else:  # recorded as a span, so the interrupted span's time excludes it
            self.tracer.span(CALIB_SPAN, calibration_work)
        done = time.perf_counter()
        self.process_s += time.process_time() - p0
        self.thread_s += time.thread_time() - t0
        self.samples.append(done - enter)
        self.busy += time.perf_counter() - enter

    def __enter__(self):
        if self.interval > 0:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval > 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        check_single_thread(self.process_s, self.thread_s, "in-block calibration")
        return False


class Clock:
    """Times blocks of work with calibration before, during and after each."""

    def __init__(self, reference: float = REFERENCE_CALIB_S):
        self.reference = reference
        self._last = measure_window()
        self.samples = list(self._last)

    def block(self, fn, *args, sample: bool = True, tracer=None):
        """Run ``fn(*args)``; return (result, raw seconds, speed factor). Raw
        seconds exclude the calibration units run during the block. Blocks
        that time each item inside pass ``sample=False`` and stay short;
        ``tracer`` records in-block calibration as spans."""
        before = self._last
        sampler = Sampler(SAMPLE_INTERVAL_S if sample else 0.0, tracer)
        start = time.perf_counter()
        with sampler:
            result = fn(*args)
        elapsed = time.perf_counter() - start
        self._last = measure_window()
        self.samples += sampler.samples + self._last
        raw = elapsed - sampler.busy
        return result, raw, speed_factor(before + sampler.samples + self._last, self.reference)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)
