"""Golden records: what four fixed inputs make the program write.

    PYTHONPATH=src python3 tools/golden_records.py            # compare, print a report
    PYTHONPATH=src python3 tools/golden_records.py --write    # rewrite tests/golden/

Each input is a config file plus overrides of some of its fields.  Its
golden file ``tests/golden/<name>.json`` holds ``record``, the
``comparable_dict()`` of ``run_experiment`` on it, and ``fingerprint``, the
environment it ran under, which the comparison leaves out.  Without
``--write`` every input is run again and walked against its golden file
with ``tools/compare_records.py``'s ``diff``; per input the report gives
how many floats differ and the largest difference with its path, and every
difference that is not between two floats.  The exit code is 1 when any
such difference exists or a float differs by more than ``TOLERANCE``.
``tests/test_golden_records.py`` runs the same comparison.

``TOLERANCE`` bounds the absolute difference of any float.  It is set from
a measurement.  Across the four settings of 1 or 2 BLAS threads
(``OPENBLAS_NUM_THREADS``) and 1 or 2 ``HMSBL_WORKERS`` (one 2-CPU x86-64
host, OpenBLAS 0.3.31), exp1, exp2 and exp3 came out bit-identical, and
large-array differed between 1 and 2 BLAS threads in 26 floats, by at most
1.5e-12 (its ``final_cost``, about -161, so 1e-14 relative; the source
estimates by at most 2.8e-14).  The bound, 1e-9, is about 660 times that
spread: room for BLAS kernels of other hosts and for sums reassociated
inside the kernels, whose round-off 100 EM iterations carry into the
records, while a change of the arithmetic (a dropped factor, a changed
update) moves them by far more.  A change that moves numbers within it
still rewrites the files and reports what moved.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "golden")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from compare_records import diff  # noqa: E402

TOLERANCE = 1e-9

# name: (config file relative to the root, fields replaced)
INPUTS = {
    "exp1": ("configs/exp1.json", {"grids": {"mu": 100, "mv": 100, "mv_sweep": [25, 50, 100]}}),
    "exp2": ("configs/exp2.json", {"trials": 2}),
    "exp3": ("configs/exp3.json", {"trials": 2}),
    "large_array": ("perfbench/large_array.json", {"trials": 2}),
}


def record(name):
    """The ``comparable_dict()`` of ``run_experiment`` on input ``name``,
    as JSON reads it back."""
    from hmsbl import experiments

    path, overrides = INPUTS[name]
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        raw = dict(json.load(fh), **overrides)
    config, errors = experiments.validate_config(json.dumps(raw))
    if errors:
        raise ValueError(f"{path} with {overrides} rejected: {errors}")
    out = experiments.run_experiment(config).comparable_dict()
    return json.loads(json.dumps(out, default=experiments._json_default))


def golden(name):
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)["record"]


def write(name):
    from hmsbl import experiments

    with open(os.path.join(GOLDEN, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": experiments._environment(), "record": record(name)}, fh,
                  indent=1)
        fh.write("\n")


def report(name):
    """Print the comparison of input ``name`` with its golden file; True
    when they agree within ``TOLERANCE``."""
    floats, others = diff(golden(name), record(name))
    print(f"{name}: {len(floats)} differing floats")
    if floats:
        path, worst = max(floats, key=lambda item: item[1])
        print(f"  largest absolute difference {worst:.3g} at {path}")
    for path, a, b in others:
        print(f"  {path}: golden {a!r} != now {b!r}")
    return not others and all(d <= TOLERANCE for _, d in floats)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden files")
    parser.add_argument("names", nargs="*", default=list(INPUTS), help="inputs (default: all)")
    args = parser.parse_args(argv)
    if args.write:
        os.makedirs(GOLDEN, exist_ok=True)
        for name in args.names:
            write(name)
        return 0
    agree = [report(name) for name in args.names]
    return 0 if all(agree) else 1


if __name__ == "__main__":
    sys.exit(main())
