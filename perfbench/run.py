"""cactiq benchmark: one run of one workload.

    python3 perfbench/run.py --workload {census,claims,exact} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; cactiq is imported from ./src.  The run sets
up its workload, then repeats whole blocks of BLOCK_ROUNDS rounds of the
workload's ops (the workload's block ops join the first round of each block)
until S seconds have passed, checks the outputs off the clock, and prints
one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s, cpu_s,
peak_rss_mb), times in reference seconds (pace.py): wall_s and cpu_s sum each
op's median over the rounds.  With --trace 1 the run does one block, traces
its second round, and reports the per-layer metrics in raw seconds.  See
perfbench/README.md.
"""

import time

T0 = time.perf_counter()

from pace import Pace  # noqa: E402

PACE = Pace()
PACE.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # the run's own set-up plus two fresh interpreters
# Every run does whole blocks, so the failed share is the same in every run,
# and at least two rounds, so that peak memory (round 1's outputs are kept
# for the checks while round 2 runs) does not depend on the host's speed.
BLOCK_ROUNDS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("census", "claims", "exact"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced sizes, for the benchmark's own tests")
    p.add_argument("--report", default=None,
                   help="also write per-op times and workload facts as JSON here")
    p.add_argument("--cactiq-threads", type=int, default=None,
                   help="set CACTIQ_THREADS (reference figures only; by default "
                        "it is removed so the default radius path is measured)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def one_round(ops):
    """Run ops in order, timing each in reference seconds (see pace.py); a
    failed op counts as attempted and has no time."""
    r = {"attempted": 0, "failed": 0, "results": {}, "wall": {}, "cpu": {},
         "raw_wall": {}}
    for label, fn in ops:
        r["attempted"] += 1
        spent = PACE.spent_wall, PACE.spent_cpu
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value = fn()
        except workloads.OpFailed:
            r["failed"] += 1
            continue
        t1, c1 = time.perf_counter(), time.process_time()
        wall = t1 - t0 - (PACE.spent_wall - spent[0])
        cpu = c1 - c0 - (PACE.spent_cpu - spent[1])
        if isinstance(value, workloads.Timed):
            wall, cpu, value = value.wall, value.cpu, value.value
        scale = PACE.scale(t0, t1)
        r["results"][label] = value
        r["raw_wall"][label] = wall
        r["wall"][label] = wall * scale
        r["cpu"][label] = cpu * scale
    return r


def op_medians(rounds, key) -> dict:
    """Each op's median time over the rounds it ran in."""
    labels = {label for r in rounds for label in r[key]}
    return {label: statistics.median(r[key][label] for r in rounds if label in r[key])
            for label in labels}


def setup_probe(workload, args, env) -> float:
    """Reference seconds from a fresh interpreter's first statement to the
    end of the workload's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--small"] if args.small else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=170, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cactiq" / "__init__.py").is_file():
        print(f"error: no cactiq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("CACTIQ_THREADS", None)
    if args.cactiq_threads is not None:
        os.environ["CACTIQ_THREADS"] = str(args.cactiq_threads)
    sys.path.insert(0, str(ROOT / "src"))
    import cactiq  # noqa: F401
    import cactiq.cli  # noqa: F401

    workload = (workloads.SMALL if args.small else workloads.FULL)[args.workload]
    state = workload.setup(args.seed)
    t1 = time.perf_counter()
    own_setup = (t1 - T0 - PACE.spent_wall) * PACE.scale(T0, t1)
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    env = dict(os.environ)

    rounds, tracer, overhead, problems = [], None, None, []

    def next_round():
        """One round; its outputs are compared with round 1's and dropped,
        so peak memory does not grow with the number of rounds."""
        workload.before_round()
        ops = workload.ops(state, env)
        if len(rounds) % BLOCK_ROUNDS == 0:
            ops += workload.block_ops(state, env)
        r = one_round(ops)
        if rounds:
            first, out = rounds[0]["results"], r.pop("results")
            differ = sorted(k for k in out if k not in first or first[k] != out[k])
            if differ:
                problems.append(f"round {len(rounds) + 1} outputs differ from "
                                f"round 1: {differ[:5]}")
        return r

    if args.trace:
        # one block, so the ops and the failed share are those of an untraced
        # run; its second round is traced, and the overhead is that round
        # less the median of the others over the same ops
        PACE.stop()  # the trace reports raw times
        tracer = Tracer()
        for i in range(BLOCK_ROUNDS):
            if i == 1:
                tracer.install()
            rounds.append(next_round())
            if i == 1:
                tracer.uninstall()
        traced = rounds[1]["raw_wall"]
        overhead = sum(traced.values()) - statistics.median(
            sum(r["raw_wall"][label] for label in traced)
            for i, r in enumerate(rounds) if i != 1)
    else:
        start = time.perf_counter()
        while (len(rounds) % BLOCK_ROUNDS
               or time.perf_counter() - start < args.seconds):
            rounds.append(next_round())
        PACE.stop()

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += workload.check(workload.collect(state, rounds[0]["results"]))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.jsonl.gz")
    else:
        setups = [own_setup] + [setup_probe(workload, args, env)
                                for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(op_medians(rounds, "wall").values()), "unit": "s"},
            "cpu_s": {"value": sum(op_medians(rounds, "cpu").values()), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }

    if args.report:
        labels = list(rounds[0]["wall"])
        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "cactiq_threads": args.cactiq_threads, "rounds": len(rounds),
            "metrics": metrics, "facts": workload.facts(state, rounds[0]["results"]),
            "op_s": {k: v for k, v in op_medians(rounds, "wall").items() if k in labels},
            "raw_op_s": {k: v for k, v in op_medians(rounds, "raw_wall").items()
                         if k in labels},
        }
        with open(args.report, "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PACE.stop()  # a timer left running would kill the interpreter at exit
    sys.exit(code)
