"""Compare the records two checkouts produce for the same configs.

    python3 tools/compare_records.py --parent PARENT --change CHANGE \\
        configs/exp2.json configs/exp3.json [--trials N] [--tol 1e-10]

``--parent`` and ``--change`` are the roots of two source checkouts.  For
every config, each side runs ``hmsbl.experiments.run_experiment`` in a fresh
interpreter that imports hmsbl from that checkout's ``src/``; ``--trials``
replaces the config's trial count.  The two ``comparable_dict()`` records
are then walked together.  Per config the tool prints how many floats
differ, the largest absolute difference with its path, the count and the
largest difference for each field name (the last key of the path, list
indices dropped), and every difference that is not between two floats: a
changed string, integer or bool, a missing key, a list of another length.
The exit code is 1 when a non-float field differs or a float differs by
more than ``--tol``, else 0.
"""

import argparse
import json
import math
import os
import subprocess
import sys

_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hmsbl import experiments
if not experiments.__file__.startswith(sys.argv[1]):
    sys.exit(f"hmsbl was imported from {experiments.__file__}, not {sys.argv[1]}")
with open(sys.argv[2], encoding="utf-8") as fh:
    raw = json.load(fh)
if sys.argv[3]:
    raw["trials"] = int(sys.argv[3])
config, errors = experiments.validate_config(json.dumps(raw))
if errors:
    sys.exit("config rejected: " + "; ".join(errors))
record = experiments.run_experiment(config)
json.dump(record.comparable_dict(), sys.stdout, default=experiments._json_default)
"""


def _is_float_pair(a, b):
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    return numbers and (isinstance(a, float) or isinstance(b, float))


def diff(parent, change, path="$"):
    """(float_diffs, other_diffs) between two JSON-like values.

    ``float_diffs`` lists (path, |parent - change|) for every pair of
    numbers, at least one a float, that differ (NaN equals NaN; a NaN
    against a number differs by inf).  ``other_diffs`` lists (path, parent,
    change) for every other difference; a container of another type,
    length or key set is one entry and is not walked further.
    """
    floats, others = [], []
    if isinstance(parent, dict) and isinstance(change, dict):
        if list(parent) != list(change):
            others.append((path + " keys", list(parent), list(change)))
            return floats, others
        for key in parent:
            f, o = diff(parent[key], change[key], f"{path}.{key}")
            floats += f
            others += o
    elif isinstance(parent, list) and isinstance(change, list):
        if len(parent) != len(change):
            others.append((path + " length", len(parent), len(change)))
            return floats, others
        for i, (a, b) in enumerate(zip(parent, change)):
            f, o = diff(a, b, f"{path}[{i}]")
            floats += f
            others += o
    elif _is_float_pair(parent, change):
        if math.isnan(parent) and math.isnan(change):
            pass
        elif math.isnan(parent) or math.isnan(change):
            floats.append((path, math.inf))
        elif parent != change:
            floats.append((path, abs(parent - change)))
    elif type(parent) is not type(change) or parent != change:
        others.append((path, parent, change))
    return floats, others


def by_field(floats):
    """{field name: (count, largest difference)} of ``diff``'s float
    differences, the largest first; the name of ``$.trials[2].cost[7]``
    is ``cost``."""
    fields = {}
    for path, d in floats:
        name = path.rsplit(".", 1)[-1].split("[", 1)[0]
        count, worst = fields.get(name, (0, 0.0))
        fields[name] = (count + 1, max(worst, d))
    return dict(sorted(fields.items(), key=lambda item: -item[1][1]))


def _start(root, config, trials):
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, os.path.join(os.path.abspath(root), "src", ""), config,
         "" if trials is None else str(trials)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def compare(parent_root, change_root, config, trials, tol):
    """Run ``config`` on both sides (at once) and print the comparison;
    True when the records agree within ``tol``."""
    procs = {side: _start(root, config, trials)
             for side, root in (("parent", parent_root), ("change", change_root))}
    outputs = {side: proc.communicate() for side, proc in procs.items()}
    for side, proc in procs.items():
        if proc.returncode != 0:
            raise SystemExit(f"{side} run of {config} failed:\n{outputs[side][1].strip()[-2000:]}")
    records = {side: json.loads(out) for side, (out, _) in outputs.items()}
    floats, others = diff(records["parent"], records["change"])
    print(f"{config}: {len(floats)} differing floats")
    if floats:
        path, worst = max(floats, key=lambda item: item[1])
        print(f"  largest absolute difference {worst:.3g} at {path}")
        for name, (count, worst) in by_field(floats).items():
            print(f"  {name}: {count} differing, largest {worst:.3g}")
    for path, a, b in others:
        print(f"  {path}: parent {a!r} != change {b!r}")
    return not others and all(d <= tol for _, d in floats)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("configs", nargs="+", help="experiment config files")
    parser.add_argument("--trials", type=int, help="trial count to run each config with")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="largest absolute float difference accepted (default 1e-10)")
    args = parser.parse_args(argv)
    agree = [compare(args.parent, args.change, c, args.trials, args.tol) for c in args.configs]
    return 0 if all(agree) else 1


if __name__ == "__main__":
    sys.exit(main())
