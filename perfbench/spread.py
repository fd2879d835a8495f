"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10

Runs ``perfbench/run.py`` with ``--trace 0`` and BENCHMARK.json's
``run_seconds`` once per (workload, seed), every workload, one process at a
time.  It prints for every end-to-end metric the median, the quartiles and
the spread: the distance between the first and third quartile
(``statistics.quantiles`` with n=4) as a share of the median.  The per-run
results and the summary are written to ``perfbench/out/spread.json``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "min": min(values), "max": max(values), "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    # SystemExit inside subprocess.run kills and reaps the running benchmark
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs, summary, ok = [], {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "wall_s": time.perf_counter() - t0, "result": last})
            if last is None or not last["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode} {proc.stderr.strip()[-300:]}")
                continue
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {name: summarise(v) for name, v in values.items() if len(v) >= 2}
        print(f"== {workload}  ({len(args.seeds)} seeds, {seconds} s)")
        print(f"{'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{name:<30}{s['median']:>12.6g}{s['q1']:>12.6g}{s['q3']:>12.6g}"
                  f"{spread:>9}{'' if bound is None else bound:>7}")
        sys.stdout.flush()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "seconds": seconds, "summary": summary, "runs": runs},
                  fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
