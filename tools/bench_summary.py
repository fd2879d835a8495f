"""Summarise paired benchmark runs into a committed BENCH file.

    python3 tools/bench_summary.py --label pr6 \\
        --parent PARENT/perfbench/out --change CHANGE/perfbench/out \\
        [--parent-sha SHA --change-sha SHA]

``--parent`` and ``--change`` are the ``perfbench/out/`` directories of two
checkouts that ran ``perfbench/run.py --trace 0`` on the same workloads and
seeds.  A result file of one side pairs with the file of the same name on
the other.  The summary is written to ``BENCH_<label>.json`` at the root of
the repository (or ``--out``).  Per workload and per end-to-end metric of
BENCHMARK.json it holds each side's median and quartiles
(``statistics.quantiles`` with n=4) over the paired runs, the change's
median over the parent's, and in how many pairs the change read better.
The environment fingerprint and the git SHA of each side come from the
result files.  A checkout exported without its git history records the SHA
as None, written as JSON null; ``--parent-sha``/``--change-sha`` fill it
in, and a result file that records a different SHA is refused.  The file records measurements and
applies no bound.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")
# fingerprint fields that describe the host and must agree between the sides
ENVIRONMENT = ("python", "numpy", "scipy", "blas", "thread_env", "nproc",
               "cpus_available", "machine")


def load_side(directory):
    """{(workload, seed): result} for every untraced result file."""
    out = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        match = RESULT.match(os.path.basename(path))
        if match:
            with open(path, encoding="utf-8") as fh:
                out[(match["workload"], int(match["seed"]))] = json.load(fh)
    return out


def fill_sha(side, sha, name):
    """Record ``sha`` as the git SHA of every result of ``side`` that has
    none; a result that records another SHA ends the run."""
    for (workload, seed), result in sorted(side.items()):
        recorded = result["fingerprint"].get("git_sha")
        if recorded is None:
            result["fingerprint"]["git_sha"] = sha
        elif recorded != sha:
            raise SystemExit(f"{name} result {workload}-seed{seed} records git_sha {recorded}, not {sha}")
    return side


def quartiles(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def one_value(results, key):
    values = {json.dumps(r["fingerprint"].get(key), sort_keys=True) for r in results}
    if len(values) != 1:
        raise SystemExit(f"fingerprint field {key!r} differs between runs: {sorted(values)}")
    return json.loads(values.pop())


def summarise(parent, change, metrics):
    keys = sorted(set(parent) & set(change))
    if not keys:
        raise SystemExit("no result file of the same workload and seed on both sides")
    both = [parent[k] for k in keys] + [change[k] for k in keys]
    summary = {
        "environment": {key: one_value(both, key) for key in ENVIRONMENT},
        "git_sha": {name: sorted({side[k]["fingerprint"]["git_sha"] for k in keys}, key=str)
                    for name, side in (("parent", parent), ("change", change))},
        "seconds": one_value(both, "seconds"),
        "workloads": {},
    }
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        rows = {}
        for m in metrics:
            sides = [[r["end_to_end"][m["name"]]["value"] for r in side] for side in zip(*pairs)]
            sign = 1 if m["better"] == "lower" else -1
            rows[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m.get("bound"),
                "parent": quartiles(sides[0]), "change": quartiles(sides[1]),
                "change_over_parent": (statistics.median(sides[1]) / statistics.median(sides[0])
                                       if statistics.median(sides[0]) else None),
                "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(*sides)),
            }
        summary["workloads"][workload] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "failed": {"parent": sum(p["end_to_end"]["failed_frac"]["value"] > 0 for p, _ in pairs),
                       "change": sum(c["end_to_end"]["failed_frac"]["value"] > 0 for _, c in pairs)},
            "metrics": rows,
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True, help="perfbench/out of the parent checkout")
    parser.add_argument("--change", required=True, help="perfbench/out of the changed checkout")
    parser.add_argument("--parent-sha", help="git SHA the parent's results ran from")
    parser.add_argument("--change-sha", help="git SHA the change's results ran from")
    parser.add_argument("--out", help="output path (default: BENCH_<label>.json at the root)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load_side(args.parent), load_side(args.change)
    if args.parent_sha:
        fill_sha(parent, args.parent_sha, "parent")
    if args.change_sha:
        fill_sha(change, args.change_sha, "change")
    summary = {"label": args.label, **summarise(parent, change, spec["end_to_end"])}
    path = args.out or os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for workload, w in summary["workloads"].items():
        for name, row in w["metrics"].items():
            print(f"{workload:<14}{name:<14}{row['parent']['median']:>12.5g}{row['change']['median']:>12.5g}"
                  f"{row['change_over_parent']:>8.3f}  better {row['change_better_pairs']}/{w['pairs']}")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
