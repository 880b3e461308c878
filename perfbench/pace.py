"""The host's speed, sampled while the benchmark runs, and times rescaled
by it.

The shared host this benchmark was tuned on runs the same Python code at two
speeds about 1.7x apart.  It switches between them within milliseconds, can
stay slow for ten seconds or more, and the share of slow time drifts over
minutes.  CPU time grows with wall time, so it is the CPU that slows, not the
scheduler.  A plain wall or CPU time measured there says as much about the
neighbours as about the program: ten runs of one commit spread by 15-30% of
their median, even taking each op's best of several rounds.

So while a run measures, a fixed calibration pass (pure Python, nothing of
cactiq) runs from a SIGALRM handler every PERIOD_S, and its main-thread CPU
time is recorded; CPU time, so that a wait for the GIL held by one of the
program's own threads does not count.  An interval's time, less the time
spent in the handler during it, is multiplied by REFERENCE_PASS_S over the
mean pass time sampled during the interval (for an interval too short to
hold a pass, the passes just before and after it).  The result is in
reference seconds: the interval's time on a core that runs the pass in
REFERENCE_PASS_S, about this host's uncontended speed.
"""

import bisect
import signal
import time

PERIOD_S = 0.005
PASS_ITERATIONS = 1000
REFERENCE_PASS_S = 0.17e-3  # one pass in the handler, host not contended


def _calibration_pass() -> int:
    table, acc = {}, 0
    for i in range(PASS_ITERATIONS):
        table[i & 31] = table.get(i & 31, 0) + i
        acc += (i * i) % 7
    return acc


class Pace:
    """Samples the calibration pass on a timer, and rescales intervals of
    the main thread by it."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each pass start
        self.passes: list[float] = []  # each pass's main-thread CPU time
        self.spent_wall = 0.0  # wall time spent in the handler so far
        self.spent_cpu = 0.0  # main-thread CPU time spent in the handler so far
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a pass is dropped
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.thread_time()
        _calibration_pass()
        w1, c1 = time.perf_counter(), time.thread_time()
        self.starts.append(w0)
        self.passes.append(c1 - c0)
        self.spent_wall += w1 - w0
        self.spent_cpu += c1 - c0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_PASS_S over the mean pass time sampled in [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        window = self.passes[i:j] or self.passes[max(i - 1, 0):i + 1]
        if not window:
            raise RuntimeError("no calibration pass was sampled")
        return REFERENCE_PASS_S * len(window) / sum(window)
