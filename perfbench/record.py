"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --seeds 10 --out perfbench/results/BENCH_<label>.json

Each run is a fresh `perfbench/run.py` process with the run length from
BENCHMARK.json and seeds 0..N-1 (0 is run.py's default).  For every workload
and end-to-end metric the file holds the N values, their median and the
spread (q3 - q1) / median with quartiles from `statistics.quantiles(values,
n=4)`, and the same for the raw-second sum of per-op medians
(`raw_wall_s`, not a metric: it shows what the rescaling removes).  It also
holds one traced run per workload (the per-layer metrics),
per-op medians (the ROADMAP baseline rows), the exact workload's near-tie
counts, and claims with CACTIQ_THREADS=1: one serial run after each default
run on the same seed, so the two sides see the same host load, with the share
of pairs that the serial side wins.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace=0, threads=None):
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        report = Path(tmp) / "report.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--report", str(report)]
        if threads is not None:
            cmd += ["--cactiq-threads", str(threads)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"{cmd} failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["report"] = json.loads(report.read_text())
        result["run_s"] = elapsed
    return result


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                     "spread": (q3 - q1) / median, "values": values}
    return out


def machine():
    import networkx
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "networkx": networkx.__version__,
            "platform": platform.platform()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        runs, serial = [], []
        for seed in range(args.seeds):
            runs.append(run(w, seed, seconds))
            if w == "claims":
                serial.append(run(w, seed, seconds, threads=1))
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({f"{r['failed']}/{r['attempted']}" for r in runs}),
            "rounds": [r["report"]["rounds"] for r in runs],
            "run_s": [round(r["run_s"], 2) for r in runs],
            "end_to_end": summarize(runs),
            # the same sum of per-op medians in raw seconds, beside wall_s
            "raw_wall_s": summarize([{"metrics": {"raw_wall_s": {
                "unit": "s", "value": sum(r["report"]["raw_op_s"].values())}}}
                for r in runs])["raw_wall_s"],
        }
        for name, m in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or m["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"{w:7s} {name:12s} median {m['median']:10.4f} {m['unit']:3s} "
                  f"spread {m['spread']:.4f} bound {bounds[name]}{flag}", flush=True)
        raw = entry["raw_wall_s"]
        print(f"{w:7s} raw wall     median {raw['median']:10.4f} s   spread "
              f"{raw['spread']:.4f}", flush=True)
        print(f"{w:7s} correct {entry['correct']} failed {entry['failed_share']} "
              f"run_s max {max(entry['run_s'])}", flush=True)
        ops = [r["report"]["op_s"] for r in runs]
        entry["op_s_median"] = {k: statistics.median(o[k] for o in ops) for k in ops[0]}
        entry["facts"] = runs[0]["report"]["facts"]
        if serial:
            entry["cactiq_threads_1"] = {
                "end_to_end": summarize(serial),
                "serial_wins": {
                    name: sum(s["metrics"][name]["value"] < d["metrics"][name]["value"]
                              for s, d in zip(serial, runs)) / len(runs)
                    for name in ("wall_s", "cpu_s")},
            }
            print(f"{w:7s} CACTIQ_THREADS=1 wins {entry['cactiq_threads_1']['serial_wins']}",
                  flush=True)
        traced = run(w, 0, seconds, trace=1)
        entry["traced"] = {"correct": traced["correct"],
                           "per_layer": {k: v["value"]
                                         for k, v in traced["metrics"].items()}}
        doc["workloads"][w] = entry

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
