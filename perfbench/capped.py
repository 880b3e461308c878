"""One family-scale canonical coding op, run in its own capped process.

Usage: python3 capped.py ORDER SEED

Builds the predicted unconstrained maximizer at ORDER, relabels it by a
permutation drawn from SEED, and asks cactiq whether the two are isomorphic.
After import, the process caps its own CPU time (CPU_CAP_S, by a profiling
timer, with RLIMIT_CPU as a backstop) and its address space (current size plus
MEM_CAP_MB).  On success it prints {"isomorphic", "wall", "cpu"} as JSON; a
capped op exits with code 3 and prints nothing.
"""

import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cactiq  # noqa: E402

CAPPED = 3
# Order 11 finishes in about 0.45 s of CPU (12 likewise); from 13 on the
# frontier search needs seconds (13) to hours, so the cap sits about 3x above
# the last success and far below the first failure.
CPU_CAP_S = 1.5
MEM_CAP_MB = 512


class CapExceeded(Exception):
    pass


def _on_cpu_cap(signum, frame):
    raise CapExceeded


def _set_caps():
    page = resource.getpagesize()
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * page
    limit = size + MEM_CAP_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    used = resource.getrusage(resource.RUSAGE_SELF)
    backstop = int(used.ru_utime + used.ru_stime + CPU_CAP_S) + 2
    resource.setrlimit(resource.RLIMIT_CPU, (backstop, backstop))
    signal.signal(signal.SIGPROF, _on_cpu_cap)
    signal.setitimer(signal.ITIMER_PROF, CPU_CAP_S)


def main(argv) -> int:
    order, seed = int(argv[0]), int(argv[1])
    perm = list(range(order))
    random.Random(f"{seed}:{order}").shuffle(perm)
    _set_caps()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        g = cactiq.extremal_answer(order).maximizer
        h = cactiq.from_edges(order, [(perm[u], perm[v]) for u, v in g.edges])
        same = cactiq.are_isomorphic(g, h)
    except (CapExceeded, MemoryError):
        return CAPPED
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    signal.setitimer(signal.ITIMER_PROF, 0)
    print(json.dumps({"isomorphic": same, "wall": wall, "cpu": cpu}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
